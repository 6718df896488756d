import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from fdpclab import model
from fdpclab.errors import ConfigurationError
from fdpclab.model import (OPTIMAL_STEPS, ChannelSpec, CorrelatedRayleigh, Dimensions,
                           IidComplexGaussian, IidRealGaussian, IidUniformComplex,
                           NoCsit, PerfectCsit, QuantizedCsit, build_sample_bank,
                           _sample_h_batch, csit_from_label, exp_correlation,
                           quantize_H, random_psd, sample_H_given_Hhat)
from fdpclab.rate import CellCore

from conftest import bank_bytes, make_rng, quantizer_mse, rand_matrix, rand_psd, rand_spec


def one_draw(fading, dims, rng):
    return _sample_h_batch(fading, dims, rng, 1)[0]


# ---------------------------------------------------------------------------
# domain type validation
# ---------------------------------------------------------------------------

def test_dimensions_invariants():
    Dimensions(3, 2, 2)
    with pytest.raises(ConfigurationError):
        Dimensions(2, 2, 3)       # m > t
    with pytest.raises(ConfigurationError):
        Dimensions(0, 1, 1)


def test_channel_spec_validation(rng):
    T = np.array([[1.0], [0.0]])
    ChannelSpec.create(T=T, sigma_s=np.eye(2), sigma_z=np.eye(2))
    # power budget violated
    with pytest.raises(ConfigurationError):
        ChannelSpec(T=T, sigma_s=np.eye(2), sigma_z=np.eye(2), P=0.5)
    # non-Hermitian covariance
    with pytest.raises(ConfigurationError):
        ChannelSpec.create(T=T, sigma_s=np.array([[1.0, 0.5], [0.0, 1.0]]),
                           sigma_z=np.eye(2))
    # singular noise
    with pytest.raises(ConfigurationError):
        ChannelSpec.create(T=T, sigma_s=np.eye(2), sigma_z=np.diag([1.0, 0.0]))
    # negative-definite interference
    with pytest.raises(ConfigurationError):
        ChannelSpec.create(T=T, sigma_s=np.diag([1.0, -0.5]), sigma_z=np.eye(2))


def test_channel_spec_derives_dims_and_traces():
    spec = ChannelSpec(T=[[1.0], [0.0], [0.0]], sigma_s=np.diag([1.0, 2.0, 0.0]),
                       sigma_z=np.diag([1.0, 3.0]), P=1.5)
    assert spec.dims == Dimensions(t=3, r=2, m=1)
    assert (spec.P, spec.Q, spec.N) == (1.5, 3.0, 4.0)
    # rank bound above t, and sigma_s not (t, t)
    with pytest.raises(ConfigurationError, match="exceeds"):
        ChannelSpec.create(T=np.eye(2, 3), sigma_s=np.eye(2), sigma_z=np.eye(2))
    with pytest.raises(ConfigurationError, match="does not fit T"):
        ChannelSpec.create(T=np.eye(2, 1), sigma_s=np.eye(3), sigma_z=np.eye(2))


def _with_entry(mat, i, j, value):
    mat = np.array(mat, dtype=float)
    mat[i, j] = mat[j, i] = value
    return mat


# A non-finite Q or N can only come from a non-finite entry of sigma_s or
# sigma_z, whose traces they are; off-diagonal entries do not reach the trace.
@pytest.mark.parametrize("budgets", [
    dict(P=np.inf), dict(P=np.nan),
    dict(sigma_s=_with_entry(np.eye(2), 0, 0, np.inf)),
    dict(sigma_s=_with_entry(np.eye(2), 0, 0, np.nan)),
    dict(sigma_z=_with_entry(np.eye(2), 1, 1, np.inf)),
    dict(sigma_z=_with_entry(np.eye(2), 1, 1, np.nan)),
    dict(sigma_s=_with_entry(np.eye(2), 0, 1, np.inf)),
    dict(sigma_z=_with_entry(np.eye(2), 0, 1, np.nan)),
], ids=["P=inf", "P=nan", "Q=inf", "Q=nan", "N=inf", "N=nan",
        "sigma_s-off-diagonal=inf", "sigma_z-off-diagonal=nan"])
def test_channel_spec_rejects_non_finite_budgets(budgets):
    kwargs = dict(T=np.array([[1.0], [0.0]]), sigma_s=np.eye(2), sigma_z=np.eye(2), P=1.0)
    with pytest.raises(ConfigurationError, match="finite"):
        ChannelSpec(**{**kwargs, **budgets})


def test_replace_transmit_factor_rederives_rank_and_keeps_budgets():
    spec = rand_spec(make_rng(8), 3, 2, 3, "complex", q=2.0, p=3.0)
    T = spec.T[:, :2]
    narrow = replace(spec, T=T)
    assert narrow.dims == Dimensions(3, 2, 2) and narrow.T.shape == (3, 2)
    assert narrow.P == spec.P and narrow.N == spec.N
    assert narrow.Q == pytest.approx(spec.Q, rel=1e-12)
    with pytest.raises(ConfigurationError, match="exceeds power budget"):
        replace(spec, T=2.0 * spec.T)


def test_spec_clips_tiny_negative_eigenvalues():
    sigma_s = np.diag([1.0, -1e-14])
    spec = ChannelSpec.create(T=[[1.0], [0.0]], sigma_s=sigma_s, sigma_z=np.eye(2))
    assert np.linalg.eigvalsh(spec.sigma_s).min() >= 0.0


def test_rescaling_keeps_structure():
    spec = ChannelSpec.create(T=[[1.0], [0.0]], sigma_s=np.diag([2.0, 0.0]), sigma_z=np.eye(2))
    scaled = spec.at_snr_db(20.0, q_over_p=0.5)
    assert scaled.P == pytest.approx(2.0 * 100.0)
    assert scaled.Q == pytest.approx(0.5 * scaled.P)
    assert np.trace(scaled.T @ scaled.T.T) == pytest.approx(scaled.P)
    # direction preserved
    assert scaled.T[1, 0] == 0.0 and scaled.sigma_s[1, 1] == 0.0


# ---------------------------------------------------------------------------
# fading laws
# ---------------------------------------------------------------------------

def test_iid_real_gaussian_moments():
    rng = make_rng(0)
    dims = Dimensions(2, 2, 1)
    draws = np.stack([one_draw(IidRealGaussian(), dims, rng) for _ in range(200)])
    # batched path for the heavy moment check
    big = _sample_h_batch(IidRealGaussian(), dims, rng, 10 ** 5)
    assert abs(big.mean()) < 0.02
    assert 0.95 < big.var() < 1.05
    assert draws.shape == (200, 2, 2)


def test_correlated_rayleigh_identity_matches_iid():
    rng = make_rng(1)
    dims = Dimensions(2, 2, 1)
    corr = _sample_h_batch(CorrelatedRayleigh(r_rx=np.eye(2), r_tx=np.eye(2)),
                           dims, rng, 10 ** 5)
    assert abs((np.abs(corr) ** 2).mean() - 1.0) < 0.02
    flat = corr.reshape(-1, 4)
    cross = np.cov(flat.T)
    off_diag = np.abs(cross - np.diag(np.diag(cross))).max()
    assert off_diag < 0.02


def test_correlated_rayleigh_is_sqrtm_sandwich():
    """The sampler's R_r^{1/2} G R_t^{1/2} against scipy's sqrtm on the same draws of G."""
    from scipy.linalg import sqrtm

    rng = make_rng(12)
    r_rx = rand_psd(rng, 2, 2, "complex") + 0.1 * np.eye(2)
    r_tx = rand_psd(rng, 3, 3, "complex") + 0.1 * np.eye(3)
    got = _sample_h_batch(CorrelatedRayleigh(r_rx=r_rx, r_tx=r_tx), Dimensions(3, 2, 1),
                          make_rng(13), 500)
    replay = make_rng(13)
    g = (replay.standard_normal((500, 2, 3)) + 1j * replay.standard_normal((500, 2, 3)))
    want = sqrtm(r_rx) @ (g * np.sqrt(0.5)) @ sqrtm(r_tx)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_uniform_complex_support():
    rng = make_rng(2)
    dims = Dimensions(3, 2, 1)
    draws = _sample_h_batch(IidUniformComplex(), dims, rng, 2000)
    assert draws.real.min() >= 0.0 and draws.real.max() <= 1.0
    assert draws.imag.min() >= 0.0 and draws.imag.max() <= 1.0


def test_correlated_rayleigh_rejects_bad_correlation():
    with pytest.raises(ConfigurationError):
        CorrelatedRayleigh(r_rx=np.diag([1.0, -1.0]), r_tx=np.eye(2))


def test_correlated_rayleigh_rejects_a_non_square_correlation():
    with pytest.raises(ConfigurationError, match=r"^r_tx must be a square matrix, got shape \(2, 3\)$"):
        CorrelatedRayleigh(r_rx=np.eye(2), r_tx=np.eye(2, 3))


# ---------------------------------------------------------------------------
# quantizer design
# ---------------------------------------------------------------------------

def _mse_quadrature(step, bits, n_gl=64):
    """Oracle MSE: per-bin Gauss-Legendre panels plus 12-sigma tail panels."""
    n = 2 ** bits
    levels = (np.arange(n) - (n - 1) / 2.0) * step
    edges = (levels[:-1] + levels[1:]) / 2.0
    nodes, weights = roots_legendre(n_gl)
    phi = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

    def panel(a, b, level):
        x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        return 0.5 * (b - a) * np.sum(weights * (x - level) ** 2 * phi(x))

    total = sum(panel(edges[k - 1], edges[k], levels[k]) for k in range(1, n - 1))
    total += 2.0 * panel(edges[-1], edges[-1] + 12.0, levels[-1])  # symmetric tails
    return total


def _grid_oracle_step(bits):
    coarse = np.arange(0.02, 3.0001, 0.002)
    c0 = coarse[int(np.argmin([_mse_quadrature(d, bits) for d in coarse]))]
    fine = np.arange(c0 - 0.004, c0 + 0.004, 1e-5)
    return fine[int(np.argmin([_mse_quadrature(d, bits) for d in fine]))]


def unit_normal_step(bits):
    return QuantizedCsit.designed(bits, IidRealGaussian()).step


def test_design_b1_closed_form():
    # two symmetric levels: optimal half-step is the mean absolute value
    step = unit_normal_step(1)
    assert step / 2.0 == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-6)


def test_design_b2_matches_grid_oracle():
    assert unit_normal_step(2) == pytest.approx(_grid_oracle_step(2), abs=1e-4)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6])
def test_design_local_optimality(bits):
    from scipy.optimize import minimize_scalar

    step = unit_normal_step(bits)
    mse = quantizer_mse(step, bits)
    assert mse <= quantizer_mse(step + 0.01, bits)
    assert mse <= quantizer_mse(step - 0.01, bits)
    res = minimize_scalar(lambda d: quantizer_mse(d, bits), bounds=(1e-4, 4.0),
                          method="bounded", options={"xatol": 1e-9})
    assert step == pytest.approx(res.x, abs=1e-8)


def test_design_rejects_out_of_range():
    with pytest.raises(ConfigurationError):
        unit_normal_step(0)
    with pytest.raises(ConfigurationError):
        unit_normal_step(7)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6])
def test_design_scales_the_unit_normal_step_by_the_component_std(bits):
    assert unit_normal_step(bits) == OPTIMAL_STEPS[bits - 1]
    complex_step = QuantizedCsit.designed(bits, IidComplexGaussian()).step
    assert complex_step == OPTIMAL_STEPS[bits - 1] * np.sqrt(0.5)


@pytest.mark.parametrize("fading", [
    IidUniformComplex(),
    CorrelatedRayleigh(r_rx=exp_correlation(2, 0.5), r_tx=exp_correlation(2, 0.5)),
], ids=["uniform", "correlated"])
def test_design_rejects_a_non_gaussian_or_correlated_fading_law(fading):
    with pytest.raises(ConfigurationError):
        QuantizedCsit.designed(1, fading)


@pytest.mark.parametrize("fading", [IidRealGaussian(), IidComplexGaussian()],
                         ids=["real", "complex"])
def test_csit_from_label_inverts_label(fading):
    for csit in [NoCsit(), PerfectCsit()] + [QuantizedCsit.designed(b, fading)
                                             for b in range(1, 7)]:
        assert csit_from_label(csit.label, fading) == csit


@pytest.mark.parametrize("label", ["B=0", "B=7", "B=x", "quantized", ""])
def test_csit_from_label_rejects_an_unknown_label(label):
    with pytest.raises(ConfigurationError):
        csit_from_label(label, IidRealGaussian())


# ---------------------------------------------------------------------------
# quantization and conditional sampling
# ---------------------------------------------------------------------------

def test_quantize_sign_levels():
    csit = QuantizedCsit(bits=1, step=1.6)
    assert quantize_H(np.array([[0.3]]), csit)[0, 0] == pytest.approx(0.8)
    assert quantize_H(np.array([[-5.0]]), csit)[0, 0] == pytest.approx(-0.8)


@given(bits=st.integers(1, 4), step=st.floats(0.05, 3.0),
       seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_quantize_idempotent(bits, step, seed):
    csit = QuantizedCsit(bits=bits, step=step)
    x = make_rng(seed).standard_normal((3, 3)) * 3.0
    once = quantize_H(x, csit)
    assert np.array_equal(quantize_H(once, csit), once)


def test_levels_partition_and_spacing():
    csit = QuantizedCsit(bits=3, step=0.586)
    lv = csit.levels()
    assert len(lv) == 8
    assert np.allclose(np.diff(lv), csit.step)
    assert np.allclose(lv, -lv[::-1])  # symmetric about zero


@pytest.mark.parametrize("bits", range(1, 7))
def test_bin_edges_are_level_midpoints_and_infinite_outermost(bits):
    csit = QuantizedCsit.designed(bits, IidRealGaussian())
    lv = csit.levels()
    edges = [csit.bin_edges(b) for b in range(csit.n_levels)]
    assert edges[0][0] == -np.inf and edges[-1][1] == np.inf
    interior = np.array([hi for _, hi in edges[:-1]])
    assert np.array_equal(interior, [lo for lo, _ in edges[1:]])
    np.testing.assert_allclose(interior, (lv[:-1] + lv[1:]) / 2.0, rtol=1e-15, atol=1e-15)
    assert all(lo < level < hi for (lo, hi), level in zip(edges, lv))


@pytest.mark.parametrize("fading", [IidRealGaussian(), IidComplexGaussian()],
                         ids=["real", "complex"])
def test_values_just_inside_a_bin_round_trip(fading):
    """The sampler's clip values, one ulp inside each bin edge, bin and quantize to that bin."""
    for bits in range(1, 7):
        csit = QuantizedCsit.designed(bits, fading)
        lv = csit.levels()
        for b in range(csit.n_levels):
            lo, hi = csit.bin_edges(b)
            x = np.array([np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)])
            assert np.array_equal(csit.bin_index(x), [b, b]), (bits, b)
            assert np.array_equal(quantize_H(x, csit), [lv[b], lv[b]]), (bits, b)


def test_conditional_sampling_round_trip():
    rng = make_rng(3)
    model = IidRealGaussian()
    csit = QuantizedCsit.designed(2, model)
    dims = Dimensions(2, 2, 1)
    for _ in range(50):
        h = one_draw(model, dims, rng)
        h_hat = quantize_H(h, csit)
        draws = sample_H_given_Hhat(h_hat, csit, model, rng, n=40)
        assert np.allclose(quantize_H(draws, csit),
                           np.broadcast_to(h_hat, draws.shape))


def test_conditional_sampling_sign_bin():
    rng = make_rng(4)
    csit = QuantizedCsit(bits=1, step=1.6)
    h_hat = np.full((2, 2), 0.8)
    draws = sample_H_given_Hhat(h_hat, csit, IidRealGaussian(), rng, n=500)
    assert draws.min() >= 0.0


def test_mixture_matches_unconditional_moments():
    rng = make_rng(5)
    dims = Dimensions(2, 2, 1)
    model = IidRealGaussian()
    csit = QuantizedCsit.designed(2, model)
    n = 10 ** 5
    unconditional = _sample_h_batch(model, dims, rng, n)
    raw = _sample_h_batch(model, dims, rng, n)
    hierarchical = sample_H_given_Hhat(quantize_H(raw, csit), csit, model, rng, n=1)[0]
    assert abs(unconditional.mean() - hierarchical.mean()) < 0.02
    assert abs(unconditional.var() - hierarchical.var()) < 0.02


def test_conditional_sampling_complex_round_trip():
    rng = make_rng(6)
    model = IidComplexGaussian()
    csit = QuantizedCsit.designed(1, model)
    h = one_draw(model, Dimensions(2, 2, 1), rng)
    h_hat = quantize_H(h, csit)
    draws = sample_H_given_Hhat(h_hat, csit, model, rng, n=100)
    assert np.allclose(quantize_H(draws, csit), np.broadcast_to(h_hat, draws.shape))


# ---------------------------------------------------------------------------
# normal CDF and inverse kernels and the sampler, against scipy
# ---------------------------------------------------------------------------

def test_ndtri_matches_scipy():
    """``_ndtri_lower`` with the sampler's reflection ``ndtri(u) = -ndtri(1 - u)`` above 1/2."""
    from scipy.special import ndtri

    def reflected(y):
        upper = y >= 0.5
        x = model._ndtri_lower(np.where(upper, 1.0 - y, y))
        return np.where(upper, -x, x)

    tiny = np.finfo(np.float64).tiny
    e2, e32 = np.exp(-2.0), np.exp(-32.0)
    y = np.concatenate([
        np.linspace(0.01, 0.99, 9801),                # central points
        np.geomspace(tiny, 0.3, 3000),                # lower tail, x >= 8 branch included
        1.0 - np.geomspace(2.0 ** -53, 0.3, 3000),    # upper tail
        np.geomspace(1e-300, e32, 200),               # y < exp(-32): the x >= 8 branch
        [tiny, 1.0 - 2.0 ** -53, e2, 1.0 - e2, np.nextafter(e2, 0), np.nextafter(e2, 1),
         e32, np.nextafter(e32, 0), 0.5],
    ])
    got, want = reflected(y), ndtri(y)
    nonzero = want != 0
    assert np.array_equal(got[~nonzero], want[~nonzero])
    assert np.max(np.abs(got[nonzero] / want[nonzero] - 1.0)) <= 4e-15
    assert reflected(np.array([0.5]))[0] == 0.0


def test_ndtr_matches_scipy():
    from scipy.special import ndtr

    x = np.linspace(-10.0, 10.0, 20001)
    got = np.array([model._ndtr(v) for v in x])
    assert np.max(np.abs(got / ndtr(x) - 1.0)) <= 1e-14
    for v in (0.0, np.inf, -np.inf):
        assert model._ndtr(v) == ndtr(v)


def _scipy_sample_truncated_real(values, csit, sigma_c, rng, shape):
    """The inverse-CDF sampler as it was written on scipy.special (reference)."""
    from scipy.special import ndtr, ndtri

    c = (csit.n_levels - 1) / 2.0
    k = np.clip(np.rint(values / csit.step + c), 0, csit.n_levels - 1)
    lo = np.where(k == 0, -np.inf, (k - 0.5 - c) * csit.step)
    hi = np.where(k == csit.n_levels - 1, np.inf, (k + 0.5 - c) * csit.step)
    u_lo = ndtr(lo / sigma_c)
    u_hi = ndtr(hi / sigma_c)
    u = u_lo + rng.random(shape) * (u_hi - u_lo)
    tiny = np.finfo(np.float64).tiny
    x = sigma_c * ndtri(np.clip(u, tiny, 1.0 - 1e-16))
    return np.clip(x, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))


@pytest.mark.parametrize("stacked", [False, True], ids=["r-t", "stacked"])
@pytest.mark.parametrize("bits", [1, 2, 3, 6])
@pytest.mark.parametrize("fading", [IidRealGaussian(), IidComplexGaussian()],
                         ids=["real", "complex"])
def test_sampler_matches_scipy_reference(fading, bits, stacked, monkeypatch):
    csit = QuantizedCsit.designed(bits, fading)
    rng = make_rng(bits)
    shape = (400, 2, 3) if stacked else (2, 3)
    # wide enough to land in the outermost bins as well as the inner ones
    h_hat = quantize_H(3.0 * rand_matrix(rng, shape, fading.field), csit)
    n = 1 if stacked else 3000  # stacked: one draw for each of many estimates
    got = sample_H_given_Hhat(h_hat, csit, fading, make_rng(7), n=n)
    monkeypatch.setattr(model, "_sample_truncated_real", _scipy_sample_truncated_real)
    want = sample_H_given_Hhat(h_hat, csit, fading, make_rng(7), n=n)
    assert got.shape == want.shape == (n,) + shape
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.array_equal(quantize_H(got, csit), np.broadcast_to(h_hat, got.shape))


def test_conditional_sampling_rejects_unsupported_fading():
    csit = QuantizedCsit(bits=1, step=1.0)
    with pytest.raises(ConfigurationError):
        sample_H_given_Hhat(np.zeros((2, 2)), csit, IidUniformComplex(), make_rng(0), n=1)


# ---------------------------------------------------------------------------
# sample banks
# ---------------------------------------------------------------------------

def test_bank_determinism_bytewise(rng):
    spec = rand_spec(make_rng(7), 2, 2, 1, "real")
    model = IidRealGaussian()
    csit = QuantizedCsit.designed(2, model)
    b1 = build_sample_bank(spec, model, csit, 10, 25, seed=99)
    b2 = build_sample_bank(spec, model, csit, 10, 25, seed=99)
    assert bank_bytes(b1) == bank_bytes(b2)
    b3 = build_sample_bank(spec, model, csit, 10, 25, seed=100)
    assert bank_bytes(b1) != bank_bytes(b3)


def test_bank_structure_contracts():
    spec = rand_spec(make_rng(8), 2, 2, 1, "real")
    model = IidRealGaussian()
    none = build_sample_bank(spec, model, NoCsit(), 10, 1000, seed=1)
    assert len(none.cells) == 1 and none.cells[0].draws.shape == (1000, 2, 2)
    assert none.cells[0].h_hat is None
    assert (none.n_outer, none.n_inner) == (1, 1000)
    perfect = build_sample_bank(spec, model, PerfectCsit(), 500, 7, seed=1)
    assert len(perfect.cells) == 500
    assert (perfect.n_outer, perfect.n_inner) == (500, 1)  # one draw per cell, not 7
    for cell in perfect.cells:
        assert cell.draws.shape == (1, 2, 2)
        assert np.array_equal(cell.draws[0], cell.h_hat)


# sha256 of bank_bytes (C-order bytes of every estimate and draw) of a 4 x 300 bank at
# seed 2500 on a 3 x 2 spec, one per (fading model, CSIT) pair.  The digests were
# recorded when the draws were still stored C-ordered, so they pin that the values
# (and the order the random streams are consumed in) do not depend on the layout.
GOLDEN_BANKS = {
    ("iid_real", "none"): "ec464a8f45c8ec3c9eb171f0cc391ebb7e7866d1ea0887e54b9dbce47d24b444",
    ("iid_real", "perfect"): "5aaf31ba4c828e8504d92e7b2a2227ffaccd0198b8d54123a96c573136fd0c26",
    ("iid_real", "B=1"): "e6d29a33bf85fa9b925124d1f07abac7f9a7400951f48f75e62455d58bc5d2b8",
    ("iid_real", "B=2"): "9d62bb29e650ac178b917ec4f24bc28c5594913909e5f948d0b2e84d10eeaa24",
    ("iid_complex", "B=1"): "8afe9ef9c0c695f72a1beb65a3e1a3d70e303f81ed7fbbda8d3e31074b8b3d28",
    ("correlated_rayleigh", "none"):
        "3ff32ab744ad81fbe056d075a4dfe398e686d523391ac8195ad8972a76e95f72",
}
GOLDEN_IDS = [f"{fading}-{label}" for fading, label in GOLDEN_BANKS]
FADINGS = {
    "iid_real": IidRealGaussian(),
    "iid_complex": IidComplexGaussian(),
    "correlated_rayleigh": CorrelatedRayleigh(r_rx=exp_correlation(2, 0.5),
                                              r_tx=exp_correlation(3, 0.7)),
}


def golden_bank(fading, label):
    fading = FADINGS[fading]
    spec = rand_spec(make_rng(21), 3, 2, 2, fading.field)
    return spec, build_sample_bank(spec, fading, csit_from_label(label, fading), 4, 300,
                                   seed=2500)


@pytest.mark.parametrize("fading,label", list(GOLDEN_BANKS), ids=GOLDEN_IDS)
def test_bank_draws_match_their_golden_digest(fading, label):
    _, bank = golden_bank(fading, label)
    digest = hashlib.sha256(bank_bytes(bank)).hexdigest()
    assert digest == GOLDEN_BANKS[fading, label]


@pytest.mark.parametrize("fading,label", list(GOLDEN_BANKS), ids=GOLDEN_IDS)
def test_bank_draws_are_entry_major_and_read_by_the_core_in_place(fading, label):
    spec, bank = golden_bank(fading, label)
    for cell in bank.cells:
        draws = cell.draws
        assert draws.strides[0] == draws.itemsize  # each draws[:, i, j] is contiguous
        assert not draws.flags.writeable
        assert np.shares_memory(CellCore(spec, draws).H, draws)


def test_bank_cells_record_their_csit_model():
    spec = rand_spec(make_rng(8), 2, 2, 1, "real")
    for csit in (NoCsit(), PerfectCsit(), QuantizedCsit.designed(1, IidRealGaussian())):
        bank = build_sample_bank(spec, IidRealGaussian(), csit, 3, 1, seed=2)
        assert all(cell.csit is csit for cell in bank.cells)


def test_bank_rejects_field_mismatch():
    spec = rand_spec(make_rng(9), 2, 2, 1, "real")
    with pytest.raises(ConfigurationError):
        build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 10, seed=0)


def test_bank_rejects_quantized_unsupported_fading():
    spec = rand_spec(make_rng(10), 2, 2, 1, "complex")
    with pytest.raises(ConfigurationError):
        build_sample_bank(spec, IidUniformComplex(), QuantizedCsit(bits=1, step=1.0),
                          4, 4, seed=0)


def test_random_psd_rank_and_trace():
    mat = random_psd(4, rank=2, seed=3, trace=5.0, field="complex")
    eig = np.linalg.eigvalsh(mat)
    assert np.trace(mat).real == pytest.approx(5.0)
    assert (eig > 1e-12).sum() == 2
