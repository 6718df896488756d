"""The Schur-complement cell core against direct block-matrix references.

The production code never assembles ``M(W, H)``; it works on the m x m Schur
complement ``S(W)`` of the received covariance.  The references below invert
or factor ``build_M`` directly, the way the rate was first written, and every
core-based quantity must match them to 1e-10 relative.  A 60-digit mpmath
oracle pins the per-draw rate at high SNR.
"""

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from fdpclab import covopt, inflation, lab, rate
from fdpclab.linalg import ct, psd_factor
from fdpclab.model import NoCsit, build_sample_bank

from conftest import (degenerate_bank, make_rng, paired_estimates, permuted_M, rand_matrix,
                      rand_psd, rand_spec, ref_row_surrogate, with_factor)

REL = 1e-10


def rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))


# ---------------------------------------------------------------------------
# direct references on the (m+r) x (m+r) block matrix
# ---------------------------------------------------------------------------

def ref_objective(spec, W, H):
    return float(np.mean(np.linalg.slogdet(rate.build_M(spec, W, H))[1]))


def ref_alg2_map(spec, W, H):
    if not spec.sigma_s.any():
        return W  # stationarity holds identically; the map is the identity
    m = spec.dims.m
    m_inv = np.linalg.inv(rate.build_M(spec, W, H))
    e_a1 = m_inv[:, :m, :m].mean(axis=0)
    e_a2h = np.einsum("nmr,nrt->mt", m_inv[:, :m, m:], H) / len(H)
    return -np.linalg.solve(e_a1, e_a2h)


def ref_row_update(spec, W, row, H):
    t2 = psd_factor(spec.sigma_s)
    out = W.copy()
    if t2.shape[1] == 0:
        out[row] = 0.0
        return out
    M, perm = permuted_M(spec, W, row, H)
    d_inv = np.linalg.inv(M[:, 1:, 1:])
    k = spec.dims.m - 1
    n = len(H)
    wb = W[perm][1:]
    e_hkh = np.einsum("nrt,nrs,nsu->tu", np.conj(H), d_inv[:, k:, k:], H) / n
    psi2 = psi = e_hkh
    if k:
        e_f = d_inv[:, :k, :k].mean(axis=0)
        e_gh = np.einsum("nar,nrt->at", d_inv[:, :k, k:], H) / n
        e_hj = np.einsum("nrt,nra->ta", np.conj(H), d_inv[:, k:, :k]) / n
        psi2 = e_hj @ wb + e_hkh
        psi = ct(wb) @ e_f @ wb + ct(wb) @ e_gh + e_hj @ wb + e_hkh
    n_tilde = np.conj(spec.T[:, row]) @ psi2
    normal = np.eye(t2.shape[1]) - ct(t2) @ psi @ t2
    y = np.linalg.solve(normal.T, (n_tilde @ t2).T).T
    out[row] = y @ np.linalg.pinv(t2)
    return out


def ref_gradient(spec, T, W, H):
    spec_t = with_factor(spec, T)
    m = T.shape[1]
    M = rate.build_M(spec_t, W, H)
    ht = H @ T
    rhs = np.concatenate([np.broadcast_to(np.eye(m), (len(H), m, m)), ht], axis=1)
    integrand = np.linalg.solve(M[:, m:, m:], ht) - np.linalg.solve(M, rhs)[:, m:, :]
    return np.einsum("nrt,nrm->tm", np.conj(H), integrand) / len(H)


# ---------------------------------------------------------------------------
# cases: the solver-comparison channels, m = 3, real, zero interference
# ---------------------------------------------------------------------------

def reference_case(name, snr_db):
    ref = lab.reference_channel(name)
    spec = ref.spec.at_snr_db(snr_db, ref.q_over_p)
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 300, seed=77).cells[0].draws
    return spec, H


def zero_interference_case(snr_db):
    spec = rand_spec(make_rng(90), 3, 2, 2, "complex", q=0.0).at_snr_db(snr_db, 0.0)
    return spec, rand_matrix(make_rng(91), (300, 2, 3), "complex")


CASES = {
    "fdpc-fig4-1": lambda: reference_case("fdpc-fig4-1", 10.0),
    "fdpc-fig4-2": lambda: reference_case("fdpc-fig4-2", 10.0),
    "fdpc-cov-3x3": lambda: reference_case("fdpc-cov-3x3", 0.0),
    "fdpc-2x2-a": lambda: reference_case("fdpc-2x2-a", 20.0),
    "zero-interference": lambda: zero_interference_case(10.0),
}


def case_w(spec, seed):
    return 0.4 * rand_matrix(make_rng(seed), (spec.dims.m, spec.dims.t), spec.field)


@pytest.mark.parametrize("name", sorted(CASES))
def test_core_matches_block_matrix_references(name):
    spec, H = CASES[name]()
    core = rate.CellCore(spec, H)
    W = case_w(spec, 1)
    assert rel_err(rate.objective(spec, W, H, core), ref_objective(spec, W, H)) <= REL
    assert rel_err(rate.objective(spec, W, H), ref_objective(spec, W, H)) <= REL
    assert rel_err(inflation.alg2_map(core, W), ref_alg2_map(spec, W, H)) <= REL
    for row in range(spec.dims.m):
        assert rel_err(inflation.alg1_row_update(core, W, row),
                       ref_row_update(spec, W, row, H)) <= REL
    T = spec.T + 0.3 * rand_matrix(make_rng(2), spec.T.shape, spec.field)
    assert rel_err(covopt.gradient_map(rate.CellCore(with_factor(spec, T), H), W),
                   ref_gradient(spec, T, W, H)) <= REL
    assert rel_err(covopt.gradient_map(core, W), ref_gradient(spec, spec.T, W, H)) <= REL


@pytest.mark.parametrize("name", sorted(CASES))
def test_rate_and_bound_match_direct_log_determinants(name):
    spec, H = CASES[name]()
    W = case_w(spec, 3)
    bank = degenerate_bank(H)
    est, bound, _ = paired_estimates(spec, W, bank)
    sig = spec.T @ ct(spec.T)
    n_r = np.einsum("nrk,kl,nsl->nrs", H, sig + spec.sigma_s, np.conj(H)) + spec.sigma_z
    n_x = np.einsum("nrk,kl,nsl->nrs", H, sig, np.conj(H)) + spec.sigma_z
    ld = lambda a: np.linalg.slogdet(a)[1]
    want_rate = np.mean(ld(n_r) - ld(rate.build_M(spec, W, H))) / np.log(2.0)
    want_bound = np.mean(ld(n_x) - ld(spec.sigma_z)) / np.log(2.0)
    assert rel_err(est.rate_bits, want_rate) <= REL
    assert rel_err(bound.rate_bits, want_bound) <= REL
    assert rate.no_interference_bound(spec, bank) == bound


@pytest.mark.parametrize("name", ["fdpc-fig4-2", "fdpc-cov-3x3", "fdpc-2x2-a"])
def test_row_update_is_stationary_for_its_surrogate(name):
    """Central differences of the row's Jensen surrogate vanish at the updated row."""
    spec, H = CASES[name]()
    core = rate.CellCore(spec, H)
    W = case_w(spec, 4)
    rng = make_rng(5)
    step = 1e-5
    for row in range(spec.dims.m):
        W_new = inflation.alg1_row_update(core, W, row)
        base = ref_row_surrogate(spec, W_new, row, H)
        for _ in range(6):
            d = np.zeros_like(W_new)
            d[row] = rand_matrix(rng, (spec.dims.t,), spec.field)
            d /= np.linalg.norm(d)
            plus = ref_row_surrogate(spec, W_new + step * d, row, H)
            minus = ref_row_surrogate(spec, W_new - step * d, row, H)
            assert abs(plus - minus) / (2 * step) < 1e-6 * max(1.0, abs(base))
            assert min(plus, minus) >= base - 1e-12 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# the entry-wise core build against einsum and LAPACK
# ---------------------------------------------------------------------------

def ref_core(spec, H):
    """``logdet N_r``, the ``K`` stack and the bound ``logdet(H T T* H* + Sz) - logdet Sz``."""
    sig = spec.T @ ct(spec.T)
    n_r = np.einsum("nrk,kl,nsl->nrs", H, sig + spec.sigma_s, np.conj(H)) + spec.sigma_z
    n_x = np.einsum("nrk,kl,nsl->nrs", H, sig, np.conj(H)) + spec.sigma_z
    L = np.linalg.cholesky(n_r)
    G = np.linalg.solve(L, H)
    ld = lambda lower: 2.0 * np.log(np.abs(np.diagonal(lower, axis1=1, axis2=2))).sum(axis=1)
    ld_bound = ld(np.linalg.cholesky(n_x)) - np.linalg.slogdet(spec.sigma_z)[1]
    return ld(L), np.einsum("nrt,nru->ntu", np.conj(G), G), ld_bound


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("r,t", [(r, t) for r in (1, 2, 3) for t in (1, 2, 3)])
def test_entrywise_core_matches_einsum_reference(r, t, field):
    rng = make_rng(100 + 10 * r + t)
    spec = rand_spec(rng, t, r, t, field, q=2.0, p=3.0)
    H = rand_matrix(rng, (64, r, t), field)
    core = rate.CellCore(spec, H)
    ld_nr, K, ld_bound = ref_core(spec, H)
    got_K = core._received[1].transpose(2, 0, 1)
    assert rel_err(core.logdet_nr, ld_nr) <= 1e-12
    assert rel_err(got_K, K) <= 1e-12
    assert rel_err(core.mean_K, K.mean(axis=0)) <= 1e-12
    assert rel_err(core.logdet_bound, ld_bound) <= 1e-12
    n_r = rate._covariance(H, spec.T @ ct(spec.T) + spec.sigma_s, spec.sigma_z)
    for a in (n_r, got_K):
        assert a.dtype == spec.dtype
        assert np.array_equal(a, ct(a))
    assert core.logdet_nr.dtype == core.logdet_bound.dtype == np.float64


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("m,r", [(1, 3), (2, 2), (3, 2)])
def test_bound_and_core_whiten_non_identity_noise(m, r, field):
    """A non-diagonal p.d. ``Sz`` with m < r, m = r and m > r: the m x m bound
    ``logdet(I + X* X)`` (r x r when m > r) is the r x r difference of log-determinants."""
    rng = make_rng(400 + 10 * m + r)
    spec = rand_spec(rng, 3, r, m, field, q=2.0, p=3.0)
    spec = replace(spec, sigma_z=rand_psd(rng, r, r, field) + 0.5 * np.eye(r))
    assert (spec.sigma_z[np.tril_indices(r, -1)] != 0).all()
    H = rand_matrix(rng, (64, r, 3), field)
    core = rate.CellCore(spec, H)
    ld_nr, K, ld_bound = ref_core(spec, H)
    assert abs(np.linalg.slogdet(spec.sigma_z)[1]) > 0.1  # the term the bound drops
    assert rel_err(core.logdet_bound, ld_bound) <= 1e-12
    assert rel_err(core.logdet_nr, ld_nr) <= 1e-12
    assert rel_err(core._received[1].transpose(2, 0, 1), K) <= 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("m,t", [(m, t) for t in (1, 2, 3) for m in range(1, t + 1)])
def test_schur_matches_einsum_reference_and_is_exactly_hermitian(m, t, field):
    rng = make_rng(200 + 10 * m + t)
    spec = rand_spec(rng, t, 2, m, field, q=2.0, p=3.0)
    H = rand_matrix(rng, (64, 2, t), field)
    W = rand_matrix(rng, (m, t), field)
    core = rate.CellCore(spec, H)
    K = ref_core(spec, H)[1]
    for cols in ([*range(m)], [*range(1, m)]):  # all rows, then all but the first
        if not cols:
            continue
        Wk = W[cols]
        C = ct(spec.T[:, cols]) + Wk @ spec.sigma_s
        ck_ref = np.einsum("ia,nab->nib", C, K)
        S_ref = (np.eye(len(cols)) + Wk @ spec.sigma_s @ ct(Wk)
                 - np.einsum("nib,jb->nij", ck_ref, np.conj(C)))
        ck, S = core.schur(Wk, None if len(cols) == m else cols)
        assert rel_err(ck, ck_ref) <= 1e-12
        assert rel_err(S, S_ref) <= 1e-12
        assert ck.dtype == S.dtype == spec.dtype
        assert np.array_equal(S, ct(S))
        # the point's means: E S^{-1}, E S^{-1} C K and E (C K)* S^{-1} C K
        point = rate.SchurPoint(core, Wk, None if len(cols) == m else cols)
        s_inv = np.linalg.inv(S_ref)
        e_inv, e_sck = point.means
        assert rel_err(e_inv, s_inv.mean(axis=0)) <= 1e-12
        assert rel_err(e_sck, np.einsum("nij,njb->ib", s_inv, ck_ref) / len(H)) <= 1e-12
        gram_ref = np.einsum("nia,nij,njb->ab", np.conj(ck_ref), s_inv, ck_ref) / len(H)
        assert rel_err(point.mean_gram, gram_ref) <= 1e-12
        assert np.array_equal(point.mean_gram, ct(point.mean_gram))


# ---------------------------------------------------------------------------
# high-SNR accuracy against a 60-digit oracle
# ---------------------------------------------------------------------------

def mp_matrix(a):
    a = np.asarray(a)
    return mpmath.matrix([[mpmath.mpc(complex(x)) if np.iscomplexobj(a) else mpmath.mpf(float(x))
                           for x in row] for row in a])


def oracle_rate_bits(spec, W, h):
    """``logdet N_r - logdet M`` for one draw, at 60 digits, from the float64 inputs."""
    with mpmath.workdps(60):
        T, ss, sz = mp_matrix(spec.T), mp_matrix(spec.sigma_s), mp_matrix(spec.sigma_z)
        W, h = mp_matrix(W), mp_matrix(h)
        m, r = W.rows, h.rows
        c = T.H + W * ss
        n_r = h * (T * T.H + ss) * h.H + sz
        M = mpmath.zeros(m + r, m + r)
        blocks = ((0, 0, mpmath.eye(m) + W * ss * W.H), (0, m, c * h.H),
                  (m, 0, h * c.H), (m, m, n_r))
        for i0, j0, blk in blocks:
            for i in range(blk.rows):
                for j in range(blk.cols):
                    M[i0 + i, j0 + j] = blk[i, j]
        return float(mpmath.re(mpmath.log(mpmath.det(n_r)) - mpmath.log(mpmath.det(M)))
                     / mpmath.log(2))


@pytest.mark.parametrize("name,snr_db,tol_bits", [
    ("fdpc-3x2-b", 40.0, 1e-6),
    ("fdpc-3x2-b", 80.0, 1e-6),
    ("fdpc-2x2-b", 80.0, 1e-6),
    ("fdpc-2x2-b", 100.0, 1e-4),
])
def test_per_draw_rate_against_mpmath_oracle(name, snr_db, tol_bits):
    ref = lab.reference_channel(name)
    spec = ref.spec.at_snr_db(snr_db, ref.q_over_p)
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 8, seed=3).cells[0].draws
    W = inflation.w_pinv(spec)
    got = -rate.CellCore(spec, H).logdet_s(W) / np.log(2.0)
    want = np.array([oracle_rate_bits(spec, W, h) for h in H])
    assert np.abs(got - want).max() <= tol_bits


def oracle_gradient(spec, W, H):
    """``E K C* S^{-1} (I - C K T)`` at 50 digits, from the float64 inputs."""
    with mpmath.workdps(50):
        T, ss, sz, W = (mp_matrix(a) for a in (spec.T, spec.sigma_s, spec.sigma_z, W))
        m = W.rows
        c = T.H + W * ss
        total = mpmath.zeros(T.rows, m)
        for h in H:
            h = mp_matrix(h)
            K = h.H * mpmath.inverse(h * (T * T.H + ss) * h.H + sz) * h
            S = mpmath.eye(m) + W * ss * W.H - c * K * c.H
            total += K * c.H * mpmath.inverse(S) * (mpmath.eye(m) - c * K * T)
        return np.array([[complex(total[i, j]) for j in range(m)]
                         for i in range(T.rows)]) / len(H)


@pytest.mark.parametrize("snr_db,tol", [(30.0, 2 * 2.36e-12), (60.0, 2 * 8.54e-10)])
def test_covariance_gradient_against_mpmath_oracle(snr_db, tol):
    """``gradient_map`` at the initial rank-3 T and its ``alg2`` W, relative max error.

    ``tol`` is twice the error of the back-substitution form
    ``(C K)* S^{-1} (I - C K T)`` measured on these 16 draws.
    """
    ref = lab.reference_channel("fdpc-rank-3x2")
    spec = ref.spec.at_snr_db(snr_db, ref.q_over_p)
    spec = replace(spec, T=covopt._initial_factor(spec, 3))
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 16, seed=3).cells[0].draws
    core = rate.CellCore(spec, H)
    W = inflation.solve_w(core, "alg2").W
    want = oracle_gradient(spec, W, H)
    assert np.abs(covopt.gradient_map(core, W) - want).max() / np.abs(want).max() <= tol
