from dataclasses import replace

import numpy as np
import pytest

from fdpclab.linalg import ct
from fdpclab.model import BankCell, ChannelSpec, SampleBank
from fdpclab.rate import CellCore


def make_rng(seed=0):
    return np.random.default_rng(seed)


def rand_matrix(rng, shape, field):
    a = rng.standard_normal(shape)
    if field == "complex":
        a = (a + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)
    return a


def rand_psd(rng, n, rank, field, trace=None):
    g = rand_matrix(rng, (n, rank), field)
    mat = g @ g.conj().T
    if trace is not None:
        mat *= trace / np.trace(mat).real
    return 0.5 * (mat + mat.conj().T)


def rand_spec(rng, t, r, m, field, q=1.0, p=1.0, sigma_s_rank=None):
    """Random channel spec with unit-trace noise scaled to r."""
    T = rand_matrix(rng, (t, m), field)
    T *= np.sqrt(p / np.trace(T @ T.conj().T).real)
    rank = sigma_s_rank or t
    sigma_s = rand_psd(rng, t, rank, field, trace=q) if q > 0 else np.zeros((t, t))
    return ChannelSpec.create(T=T, sigma_s=sigma_s, sigma_z=np.eye(r), field=field)


def with_factor(spec, T):
    """Same channel transmitting ``T`` of any trace: ``P`` grows to cover it."""
    T = np.asarray(T, dtype=spec.dtype)
    return replace(spec, T=T, P=max(spec.P, float(np.trace(T @ ct(T)).real)))


def degenerate_bank(H_list):
    """Single-cell bank whose draws are exactly the given matrices.

    A one-draw bank doubles as a perfect-CSIT cell (h_hat set to the draw).
    """
    draws = np.ascontiguousarray(H_list)
    draws.setflags(write=False)
    h_hat = draws[0] if draws.shape[0] == 1 else None
    cell = BankCell(h_hat=h_hat, draws=draws)
    return SampleBank(cells=(cell,), seed=0, n_inner=draws.shape[0])


class IndefiniteCore(CellCore):
    """A cell core whose Schur complement ``S`` is indefinite at draw ``bad`` only."""

    bad = 1

    def schur(self, W, cols=None):
        ck, S = super().schur(W, cols)
        S = S.copy()
        S[self.bad] = -np.eye(S.shape[-1])
        return ck, S


@pytest.fixture
def rng():
    return make_rng(1234)
