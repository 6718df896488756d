"""Shared test helpers and the test-only references the suite checks the package against."""

from dataclasses import replace

import numpy as np
import pytest

from fdpclab import inflation, lab
from fdpclab.linalg import ct
from fdpclab.model import (BankCell, ChannelSpec, NoCsit, PerfectCsit, SampleBank, _ndtr,
                           build_sample_bank)
from fdpclab.rate import CellCore, _evaluate, build_M, check_inflation, estimate, paired_cov


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


def permuted_M(spec, W, row, H):
    """Block matrix with W's target row (and T's column) moved to position 0."""
    perm = list(range(spec.dims.m))
    perm[0], perm[row] = perm[row], perm[0]
    return build_M(with_factor(spec, spec.T[:, perm]), W[perm], H), perm


def ref_row_surrogate(spec, W, row, H):
    """The ``alg1`` row step's Jensen surrogate ``E(a - B* D^{-1} B)`` for one row of W.

    ``a - B* D^{-1} B`` is the Schur complement of the other rows in ``S(W)``,
    formed here from the block matrix directly.
    """
    M, _ = permuted_M(spec, W, row, H)
    B = M[:, 1:, :1]
    quad = np.einsum("nio,nio->n", np.conj(B), np.linalg.solve(M[:, 1:, 1:], B))
    return float(np.mean(M[:, 0, 0].real - quad.real))


def ref_alg1_solve(core, W0):
    """``alg1_solve`` as a loop of standalone row steps, with its stopping rule (test reference).

    Each row step builds the :class:`fdpclab.rate.SchurPoint` of the other
    rows through ``core.schur``, and each sweep's objective is a plain
    ``core.evaluate``, which factors ``core.schur_s``.  No memo entry is dropped.
    """
    W = check_inflation(core.spec, W0)
    trace = [core.evaluate(W)]
    converged, sweeps = False, 0
    for sweeps in range(1, inflation.MAX_ITERS + 1):
        W_new = W
        for row in range(core.spec.dims.m):
            W_new = inflation.alg1_row_update(core, W_new, row)
        obj_new = core.evaluate(W_new)
        if obj_new > trace[-1] + inflation.TOL * max(1.0, abs(trace[-1])):
            sweeps -= 1
            break
        W = W_new
        trace.append(obj_new)
        if abs(trace[-1] - trace[-2]) < inflation.TOL * max(1.0, abs(trace[-2])):
            converged = True
            break
    return inflation.SolveResult(W=W, objective_trace=tuple(trace), converged=converged,
                                 iterations=sweeps)


def degenerate_bank(H_list):
    """Single-cell bank whose draws are exactly the given matrices.

    A one-draw bank doubles as a perfect-CSIT cell (h_hat set to the draw).
    """
    draws = np.ascontiguousarray(H_list)
    draws.setflags(write=False)
    if draws.shape[0] == 1:
        cell = BankCell(h_hat=draws[0], draws=draws, csit=PerfectCsit())
    else:
        cell = BankCell(h_hat=None, draws=draws, csit=NoCsit())
    return SampleBank(cells=(cell,), seed=0)


def bank_bytes(bank):
    """Deterministic serialization of every estimate and draw of a bank."""
    parts = []
    for cell in bank.cells:
        if cell.h_hat is not None:
            parts.append(np.ascontiguousarray(cell.h_hat).tobytes())
        parts.append(np.ascontiguousarray(cell.draws).tobytes())
    return b"".join(parts)


def quantizer_mse(step, bits):
    """Mean squared error of the ``2**bits``-level quantizer on a standard normal source."""
    n = 2 ** bits
    levels = (np.arange(n) - (n - 1) / 2.0) * step
    lo = np.concatenate(([-np.inf], (levels[:-1] + levels[1:]) / 2.0))
    hi = np.concatenate(((levels[:-1] + levels[1:]) / 2.0, [np.inf]))

    def phi(x):
        return np.exp(-0.5 * x ** 2) / np.sqrt(2.0 * np.pi)

    def xphi(x):
        return np.where(np.isfinite(x), x, 0.0) * phi(x)

    mass = np.array([_ndtr(b) - _ndtr(a) for a, b in zip(lo, hi)])
    return float(np.sum((1.0 + levels ** 2) * mass
                        + xphi(lo) - xphi(hi)
                        - 2.0 * levels * (phi(lo) - phi(hi))))


def lagrangian(core, W, lam):
    """Power-penalized rate in nats at the factor ``T`` of the core's spec."""
    W = np.asarray(W, dtype=core.spec.dtype)
    val = -float(np.mean(core.logdet_s(W)))
    return val - lam * float(np.trace(core.spec.T @ ct(core.spec.T)).real)


def paired_estimates(spec, w, bank):
    """``(rate, bound, cov_bits2)`` of one W policy from one pass of the rate evaluator."""
    ((outcome,), bound_basis), = _evaluate((spec,), bank.cells, ((w,),), bound=True)
    return estimate(*outcome), estimate(bound_basis), paired_cov(outcome[0], bound_basis)


def gap_to_bound(base_spec, model, snr_db, solver, seed, n_inner=20000):
    """Bound minus rate (bits) on one no-CSIT bank: ``(gap_bits, stderr_gap_bits)``."""
    bank = build_sample_bank(base_spec, model, NoCsit(), 1, n_inner, seed)
    spec = base_spec.at_snr_db(float(snr_db), base_spec.Q / base_spec.P)
    r_est, c_est, cov = paired_estimates(spec, lab.resolve_w(spec, solver), bank)
    gap = c_est.rate_bits - r_est.rate_bits
    var = r_est.stderr_bits ** 2 + c_est.stderr_bits ** 2 - 2.0 * cov
    return float(gap), float(np.sqrt(max(var, 0.0)))


class IndefiniteCore(CellCore):
    """A cell core whose Schur complement ``S`` is indefinite at draw ``bad`` only.

    Both ways of forming ``S`` are overridden: ``schur`` (the solvers' points
    and the gradient) and ``schur_s`` (the objective and the rate).
    """

    bad = 1

    def _indefinite(self, S):
        S = S.copy()
        S[self.bad] = -np.eye(S.shape[-1])
        return S

    def schur(self, W, cols=None):
        ck, S = super().schur(W, cols)
        return ck, self._indefinite(S)

    def schur_s(self, W):
        return self._indefinite(super().schur_s(W))


@pytest.fixture
def rng():
    return make_rng(1234)
