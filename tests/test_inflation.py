from dataclasses import replace

import numpy as np
import pytest

from fdpclab import covopt, inflation, lab, rate
from fdpclab.errors import ConfigurationError, EvaluationError, SolverError
from fdpclab.linalg import logdet_pd, psd_factor
from fdpclab.model import ChannelSpec, NoCsit, build_sample_bank

from conftest import (IndefiniteCore, degenerate_bank, make_rng, pinv_gap_to_alg2, rand_matrix,
                      rand_spec, ref_alg1_solve, ref_row_surrogate)


def scalar_spec(q, p=1.0, n=1.0):
    return ChannelSpec.create(T=[[np.sqrt(p)]], sigma_s=[[q]], sigma_z=[[n]], field="real")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_perfect_csit_scalar_is_costa_alpha():
    spec = scalar_spec(2.0)
    w = inflation.w_perfect_csit(spec, np.ones((1, 1)))
    assert w[0, 0] == pytest.approx(0.5)  # P/(P+N) with P=N=1


def test_perfect_csit_zero_channel():
    spec = rand_spec(make_rng(0), 3, 2, 2, "complex")
    w = inflation.w_perfect_csit(spec, np.zeros((2, 3)))
    assert np.abs(w).max() == 0.0


def test_perfect_csit_local_optimality():
    rng = make_rng(1)
    spec = rand_spec(rng, 3, 2, 2, "real")
    H = rng.standard_normal((1, 2, 3))
    w_opt = inflation.w_perfect_csit(spec, H[0])
    base = rate.objective(spec, w_opt, H)
    for _ in range(100):
        pert = w_opt + rng.standard_normal(w_opt.shape) * 10 ** rng.uniform(-4, -1)
        assert rate.objective(spec, pert, H) >= base - 1e-10


def test_pinv_examples():
    spec = ChannelSpec.create(T=[[1.0], [0.0]], sigma_s=np.zeros((2, 2)), sigma_z=np.eye(2))
    assert np.allclose(inflation.w_pinv(spec), [[1.0, 0.0]])

    rng = make_rng(2)
    square = rand_spec(rng, 3, 2, 3, "complex")
    w = inflation.w_pinv(square)
    assert np.abs(w @ square.T - np.eye(3)).max() < 1e-10

    for seed in range(5):
        spec = rand_spec(make_rng(seed), 4, 2, 2, "complex")
        w = inflation.w_pinv(spec)
        assert np.abs(w @ spec.T @ w - w).max() < 1e-10
        assert np.abs(spec.T @ w @ spec.T - spec.T).max() < 1e-10


@pytest.mark.parametrize("args,expected", [
    ((2, 2, 2), 2),   # rank_sum=2, m=2, r=2
    ((3, 2, 2), 1),
    ((3, 1, 2), 0),
])
def test_theoretical_scaling_values(args, expected):
    rank_sum, m, r = args
    assert inflation.theoretical_scaling(rank_sum, m, r) == expected


def test_theoretical_scaling_rejects_bad_args():
    with pytest.raises(ValueError):
        inflation.theoretical_scaling(1, 2, 2)
    assert inflation.theoretical_scaling(3, 3, 2) == 2


def test_pd_closed_forms_are_pinv_and_the_rank_formula():
    """For p.d. input covariance (square invertible T) the raw-input identity
    choice T^-1 is ``w_pinv``, and the scaling factor min(t, r) is the rank
    formula at rank Sigma_X = rank(Sigma_X + Sigma_S) = t."""
    rng = make_rng(31)
    worst = 0.0
    for k in range(120):
        t = 1 + k % 4
        field = "real" if k % 8 < 4 else "complex"
        spec = rand_spec(make_rng(3100 + k), t, int(rng.integers(1, 5)), t, field)
        spec = spec.at_snr_db(float(rng.uniform(-20.0, 80.0)), q_over_p=1.0)
        w_inv = np.linalg.solve(spec.T, np.eye(t))
        w = inflation.w_pinv(spec)
        worst = max(worst, float(np.linalg.norm(w_inv - w) / np.linalg.norm(w)))
    assert worst <= 1e-12, worst
    for t in range(1, 5):
        for r in range(1, 5):
            assert inflation.theoretical_scaling(t, t, r) == min(t, r)


def test_high_snr_gauge_invariance():
    """Offsets whose rows annihilate sigma_s leave the objective unchanged."""
    rng = make_rng(4)
    spec = rand_spec(rng, 3, 2, 3, "complex", sigma_s_rank=2)
    w, v = np.linalg.eigh(spec.sigma_s)
    null_vec = v[:, 0]  # eigenvector of the (clipped) zero eigenvalue
    H = rand_matrix(rng, (20, 2, 3), "complex")
    base = inflation.w_pinv(spec)
    delta = np.outer(rand_matrix(rng, (3,), "complex"), np.conj(null_vec))
    assert abs(rate.objective(spec, base, H)
               - rate.objective(spec, base + delta, H)) < 1e-10


def test_high_snr_pd_near_bound_when_t_le_r():
    from fdpclab.model import IidComplexGaussian, NoCsit, build_sample_bank

    spec0 = rand_spec(make_rng(5), 2, 2, 2, "complex")
    bank = build_sample_bank(spec0, IidComplexGaussian(), NoCsit(), 1, 20000, seed=11)
    spec = spec0.at_snr_db(50.0, q_over_p=1.0)
    w = inflation.w_pinv(spec)
    r_est = rate.achievable_rate(spec, w, bank)
    c_est = rate.no_interference_bound(spec, bank)
    assert c_est.rate_bits - r_est.rate_bits < 0.1


@pytest.mark.parametrize("name,snrs_db", [
    ("fdpc-3x2-pd", (20.0, 30.0, 40.0, 50.0, 60.0)),
    # 60 dB is left out on the real references: roundoff nears the gap there
    ("fdpc-3x2-b", (20.0, 30.0, 40.0, 50.0)),
    ("fdpc-2x2-b", (20.0, 30.0, 40.0, 50.0)),
])
def test_pinv_paired_gap_to_the_optimum_is_c_over_snr(name, snrs_db):
    """``pinv(T)`` attains the optimal high-SNR offset: its paired gap to the
    ``alg2`` optimum times the linear SNR is one constant c across the SNRs."""
    ref = lab.reference_channel(name)
    for seed in (4100, 4700):
        H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 4000, seed)[0].draws
        c = np.array([10.0 ** (snr / 10.0)
                      * pinv_gap_to_alg2(ref.spec.at_snr_db(snr, ref.q_over_p), H)
                      for snr in snrs_db])
        assert c.min() > 0.0 and c.max() - c.min() <= 0.03 * c.min(), (seed, c)


# ---------------------------------------------------------------------------
# Algorithm 1
# ---------------------------------------------------------------------------

def test_row_update_zero_interference_returns_zero_row():
    spec = rand_spec(make_rng(6), 3, 2, 2, "real", q=0.0)
    H = make_rng(7).standard_normal((10, 2, 3))
    W = make_rng(8).standard_normal((2, 3))
    out = inflation.alg1_row_update(rate.CellCore(spec, H), W, 0)
    assert np.abs(out[0]).max() == 0.0
    assert np.array_equal(out[1], W[1])


def test_row_update_matches_independent_closed_form():
    """m = 1 row update against the closed form coded from scratch."""
    rng = make_rng(9)
    spec = rand_spec(rng, 3, 2, 1, "real", sigma_s_rank=2)
    H = rng.standard_normal((400, 2, 3))
    T, ss = spec.T, spec.sigma_s
    sig = T @ T.T + ss
    rx = np.einsum("nrk,kl,nsl->nrs", H, sig, H) + np.eye(2)
    e_h = np.einsum("nrt,nrs,nsu->tu", H, np.linalg.inv(rx), H) / len(H)
    expected = (T.T @ e_h @ ss) @ np.linalg.pinv(ss - ss @ e_h @ ss, rcond=1e-10)
    got = inflation.alg1_row_update(rate.CellCore(spec, H), np.zeros((1, 3)), 0)
    assert np.abs(got - expected).max() <= 1e-8 * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("m", [2, 3])
def test_row_update_matches_einsum_reference(m, field):
    """Each row step at m >= 2 against expectations formed with einsum and inv.

    The reference builds ``K = H* N_r^{-1} H`` and the other rows' ``Sb`` per
    draw, and takes ``E Sb^{-1}``, ``E Sb^{-1} Cb K`` and
    ``E K Cb* Sb^{-1} Cb K`` directly; the row is then the minimizer of the
    surrogate on the column space of ``Ss``.
    """
    rng = make_rng(30 + 10 * m + (field == "complex"))
    spec = rand_spec(rng, 3, 2, m, field, sigma_s_rank=2)
    H = rand_matrix(rng, (200, 2, 3), field)
    W = 0.3 * rand_matrix(rng, (m, 3), field)
    T, ss = spec.T, spec.sigma_s
    rx = np.einsum("nrk,kl,nsl->nrs", H, T @ T.conj().T + ss, H.conj()) + np.eye(2)
    K = np.einsum("nrt,nrs,nsu->ntu", H.conj(), np.linalg.inv(rx), H)
    t2 = psd_factor(ss)
    core = rate.CellCore(spec, H)
    for row in range(m):
        rest = [i for i in range(m) if i != row]
        Wb = W[rest]
        Cb = T[:, rest].conj().T + Wb @ ss
        ck = np.einsum("it,ntu->niu", Cb, K)
        Sb = np.eye(m - 1) + Wb @ ss @ Wb.conj().T - np.einsum("niu,ju->nij", ck, Cb.conj())
        Sb_inv = np.linalg.inv(Sb)
        e_f = Sb_inv.mean(axis=0)
        e_gh = -np.einsum("nij,nju->iu", Sb_inv, ck) / len(H)
        e_hkh = K.mean(axis=0) + np.einsum("nit,nij,nju->tu", ck.conj(), Sb_inv, ck) / len(H)
        e_hj = e_gh.conj().T
        psi = Wb.conj().T @ e_f @ Wb + Wb.conj().T @ e_gh + e_hj @ Wb + e_hkh
        n_tilde = T[:, row].conj() @ (e_hj @ Wb + e_hkh)
        normal = np.eye(t2.shape[1]) - t2.conj().T @ psi @ t2
        want = np.linalg.solve(normal.T, n_tilde @ t2) @ np.linalg.pinv(t2)
        got = inflation.alg1_row_update(core, W, row)
        assert np.abs(got[row] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(np.delete(got, row, axis=0), np.delete(W, row, axis=0))


def test_row_update_exact_on_degenerate_bank():
    """Where the surrogate is exact, each row step is the true row minimizer."""
    from scipy.optimize import minimize

    rng = make_rng(10)
    spec = rand_spec(rng, 3, 2, 2, "real", sigma_s_rank=2)
    H = rng.standard_normal((1, 2, 3))
    core = rate.CellCore(spec, H)
    W = np.zeros((2, 3))
    for _ in range(2):
        for row in range(2):
            W_new = inflation.alg1_row_update(core, W, row)
            after = rate.objective(spec, W_new, H)

            def f(x, row=row):
                W_try = W.copy()
                W_try[row] = x
                return rate.objective(spec, W_try, H)

            res = minimize(f, W_new[row], method="Nelder-Mead",
                           options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 40000})
            assert after <= res.fun + 1e-9
            W = W_new


def test_row_update_random_search_oracle():
    """Dense random search around the returned row finds nothing better."""
    rng = make_rng(11)
    spec = rand_spec(rng, 3, 2, 1, "real")
    H = rng.standard_normal((1, 2, 3))
    W = inflation.alg1_row_update(rate.CellCore(spec, H), np.zeros((1, 3)), 0)
    base = rate.objective(spec, W, H)
    best = base
    for _ in range(10 ** 4):
        pert = W + rng.standard_normal(W.shape) * 10 ** rng.uniform(-5, 0)
        best = min(best, rate.objective(spec, pert, H))
    assert base <= best + 1e-8


def test_row_surrogate_monotone(rng):
    spec = rand_spec(make_rng(12), 3, 2, 2, "real")
    H = make_rng(13).standard_normal((200, 2, 3))
    W = make_rng(14).standard_normal((2, 3))
    core = rate.CellCore(spec, H)
    for row in range(2):
        updated = inflation.alg1_row_update(core, W, row)
        before = ref_row_surrogate(spec, W, row, H)
        after = ref_row_surrogate(spec, updated, row, H)
        assert after <= before + 1e-12
        W = updated


def test_row_update_canonical_rows_in_interference_row_space():
    rng = make_rng(15)
    spec = rand_spec(rng, 4, 2, 2, "real", sigma_s_rank=2)
    H = rng.standard_normal((50, 2, 4))
    W = inflation.alg1_row_update(rate.CellCore(spec, H), rng.standard_normal((2, 4)), 0)
    t2 = psd_factor(spec.sigma_s)
    proj = t2 @ np.linalg.pinv(t2)
    assert np.allclose(W[0] @ proj, W[0], atol=1e-10)


def test_alg1_solve_one_sweep_is_closed_form_m1():
    rng = make_rng(16)
    spec = rand_spec(rng, 3, 2, 1, "complex")
    H = rand_matrix(rng, (300, 2, 3), "complex")
    core = rate.CellCore(spec, H)
    res = inflation.alg1_solve(core, np.zeros((1, 3)))
    direct = inflation.alg1_row_update(core, np.zeros((1, 3)), 0)
    assert np.abs(res.W - direct).max() <= 1e-8 * max(1.0, np.abs(direct).max())
    assert res.converged


def test_alg1_solve_zero_interference_single_sweep():
    spec = rand_spec(make_rng(17), 2, 2, 2, "real", q=0.0)
    H = make_rng(18).standard_normal((40, 2, 2))
    res = inflation.alg1_solve(rate.CellCore(spec, H), np.ones((2, 2)))
    assert res.converged and res.iterations == 1
    assert res.objective_trace[-1] == pytest.approx(float(logdet_pd(spec.sigma_z)),
                                                    abs=1e-9)


def test_alg1_trace_non_increasing():
    rng = make_rng(19)
    for seed in range(4):
        spec = rand_spec(make_rng(seed + 40), 3, 2, 2,
                         "complex" if seed % 2 else "real")
        H = rand_matrix(rng, (800, 2, 3), spec.field)
        core = rate.CellCore(spec, H)
        res = inflation.alg1_solve(core, inflation.best_initialization(core))
        diffs = np.diff(res.objective_trace)
        assert np.all(diffs <= 1e-7 * np.maximum(1.0, np.abs(res.objective_trace[:-1])))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_alg1_sweep_logdet_is_bitwise_a_fresh_factor(m, field, monkeypatch):
    """The memo's ``logdet S(W)`` after a sweep, from the bordered factor, is a fresh factor's.

    At m = 4 the rows other than a middle one are not evenly spaced, so the
    row step reads them by index rather than as views.
    """
    rng = make_rng(60 + 10 * m + (field == "complex"))
    t = max(3, m)
    spec = rand_spec(rng, t, 2, m, field)
    core = rate.CellCore(spec, rand_matrix(rng, (400, 2, t), field))
    W0 = inflation.best_initialization(core)
    monkeypatch.setattr(rate.CellCore, "schur", None)  # the sweeps factor nothing anew
    res = inflation.alg1_solve(core, W0)
    monkeypatch.undo()
    assert res.iterations >= 1 and not np.array_equal(res.W, W0)
    assert np.array_equal(core.logdet_s(res.W), logdet_pd(core.schur(res.W, keep_ck=False)[1]))


def alg1_case(name, snr_db, n):
    """A reference channel's core on a 4700-seeded no-CSIT bank, at rank 3 for fdpc-rank-3x2."""
    ref = lab.reference_channel(name)
    spec = ref.spec.at_snr_db(snr_db, ref.q_over_p)
    if name == "fdpc-rank-3x2":  # the first step of jointopt --rank 3
        spec = replace(spec, T=covopt._initial_factor(spec, 3))
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, n, seed=4700)[0].draws
    return spec, H


@pytest.mark.parametrize("name,snr_db,rolled_back", [
    ("fdpc-3x2-a", 10.0, False), ("fdpc-fig4-2", 10.0, True),
    ("fdpc-rank-3x2", -10.0, False), ("fdpc-rank-3x2", 30.0, True)])
def test_alg1_solve_matches_the_row_step_loop_and_forms_m_rows_a_sweep(
        name, snr_db, rolled_back, monkeypatch):
    """The kept Schur pieces change the arithmetic, not the solve.

    Against :func:`conftest.ref_alg1_solve` the iterations, the stop and the
    trace length are equal, and W and the trace agree to 1e-12 relative.  Each
    sweep forms m rows of ``C K`` (the start m - 1), and ``schur`` never
    runs.  The memo keeps W0 and the returned W, and no other accepted
    iterate.
    """
    spec, H = alg1_case(name, snr_db, 1000)
    m = spec.dims.m
    W0 = inflation.best_initialization(rate.CellCore(spec, H))
    ref = ref_alg1_solve(rate.CellCore(spec, H), W0)
    core = rate.CellCore(spec, H)
    core.evaluate(W0)
    before = set(core._logdet_s)
    log = []
    schur_row, evaluate = rate.CellCore._schur_row, rate.CellCore.evaluate

    def logged_row(*args, **kwargs):
        log.append("row")
        return schur_row(*args, **kwargs)

    def logged_evaluate(*args, **kwargs):
        log.append("eval")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(rate.CellCore, "_schur_row", logged_row)
    monkeypatch.setattr(rate.CellCore, "evaluate", logged_evaluate)
    monkeypatch.setattr(rate.CellCore, "schur", None)
    res = inflation.alg1_solve(core, W0)
    monkeypatch.undo()
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert len(res.objective_trace) == len(ref.objective_trace)
    assert res.converged is not rolled_back and res.iterations < inflation.MAX_ITERS
    assert np.abs(res.W - ref.W).max() <= 1e-12 * np.abs(ref.W).max()
    assert np.allclose(res.objective_trace, ref.objective_trace, rtol=1e-12, atol=0.0)
    sweeps = res.iterations + rolled_back
    assert log == ["eval"] + ["row"] * (m - 1) + (["row"] * m + ["eval"]) * sweeps
    new = set(core._logdet_s) - before
    assert core._memo_key(res.W) in new and core._memo_key(W0) in core._logdet_s
    assert len(new) == 1 + rolled_back


# ---------------------------------------------------------------------------
# Algorithm 2
# ---------------------------------------------------------------------------

def test_alg2_scalar_fixed_point_equals_grid_minimizer(monkeypatch):
    monkeypatch.setattr(inflation, "TOL", 1e-12)
    monkeypatch.setattr(inflation, "MAX_ITERS", 500)
    spec = scalar_spec(1.0)
    H = np.ones((1, 1, 1))
    core = rate.CellCore(spec, H)
    res = inflation.alg2_solve(core, np.zeros((1, 1)))
    grid = np.linspace(-1.0, 2.0, 30001)
    w_star = grid[int(np.argmin([rate.objective(spec, [[w]], H, core) for w in grid]))]
    assert res.W[0, 0] == pytest.approx(w_star, abs=1e-4)
    assert res.converged


class CountingCore(rate.CellCore):
    """A cell core that records the W bytes of every ``schur`` call.

    ``keys`` holds the memo key of every call.
    """

    def __init__(self, spec, draws):
        super().__init__(spec, draws)
        self.calls, self.keys = [], set()

    def schur(self, W, keep_ck=True):
        self.calls.append(np.asarray(W).tobytes())
        self.keys.add(self._memo_key(W))
        return super().schur(W, keep_ck)


@pytest.mark.parametrize("snr_db", [10.0, 20.0, 40.0, 80.0])
def test_alg2_factors_each_point_once(snr_db):
    """One ``S(W)`` for the start and one per candidate, never the same W twice.

    At 20 and 40 dB the safeguard rejects Anderson candidates, so the count
    covers rejected points too; at 80 dB the starting point already passes
    the stop test.
    """
    ref = lab.reference_channel("fdpc-fig4-2")
    spec = ref.spec.at_snr_db(snr_db, ref.q_over_p)
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 500, seed=4700)[0].draws
    W0 = inflation.best_initialization(rate.CellCore(spec, H))
    core = CountingCore(spec, H)
    state = set(vars(core)) | {"_received"}
    res = inflation.alg2_solve(core, W0)
    assert set(vars(core)) == state  # the solve adds nothing to the core but its memo
    # the memo holds one read-only logdet S per draw, and its mean, for each S(W)
    # the solve factored
    assert set(core._logdet_s) == core.keys
    for ld, mean in core._logdet_s.values():
        assert ld.dtype == np.float64 and ld.shape == (len(H),) and not ld.flags.writeable
        assert mean == np.mean(ld)
    assert len(core.calls) == 1 + res.iterations
    assert len(set(core.calls)) == len(core.calls)
    if snr_db == 80.0:
        assert res.converged and res.iterations == 0
    if snr_db in (20.0, 40.0):
        assert len(res.objective_trace) - 1 < res.iterations  # rejected steps


@pytest.mark.parametrize("ref_name", ["fdpc-fig4-1", "fdpc-fig4-2"])
@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 40.0])
def test_alg2_accelerated_fixed_point_oracle(ref_name, snr_db, monkeypatch):
    """The accelerated solve is certified, monotone and no worse than the plain map.

    Oracles from the same start: 200 plain ``alg2_map`` steps, and a solve
    at ``TOL = 1e-13``.
    """
    ref = lab.reference_channel(ref_name)
    spec = ref.spec.at_snr_db(snr_db, ref.q_over_p)
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 500, seed=4700)[0].draws
    core = rate.CellCore(spec, H)
    W0 = inflation.best_initialization(core)
    res = inflation.alg2_solve(core, W0)
    assert res.converged
    if snr_db <= 20.0:
        assert res.iterations <= 40
    trace = np.array(res.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
    g = inflation.alg2_map(core, res.W)
    assert np.linalg.norm(g - res.W) <= inflation.TOL * np.linalg.norm(res.W)

    obj = rate.objective(spec, res.W, H, core)
    W_plain = W0
    for _ in range(200):
        W_plain = inflation.alg2_map(core, W_plain)
    assert obj <= rate.objective(spec, W_plain, H, core) + 1e-10
    monkeypatch.setattr(inflation, "TOL", 1e-13)
    tight = inflation.alg2_solve(core, W0)
    assert abs(obj - rate.objective(spec, tight.W, H, core)) <= 1e-6


class IndefiniteAfterStartCore(IndefiniteCore):
    """An :class:`IndefiniteCore` whose first ``schur`` call is left intact."""

    started = False

    def schur(self, W, keep_ck=True):
        try:
            return super().schur(W, keep_ck)
        finally:
            self.started = True

    def _schur_row(self, *args, **kwargs):
        if self.started:
            return super()._schur_row(*args, **kwargs)
        return rate.CellCore._schur_row(self, *args, **kwargs)


def test_alg2_rejects_candidates_it_cannot_evaluate():
    """A candidate whose ``S(W)`` is not p.d. counts as a rise, not an error."""
    spec = rand_spec(make_rng(41), 2, 2, 2, "complex")
    H = rand_matrix(make_rng(42), (40, 2, 2), "complex")
    W0 = inflation.w_pinv(spec)
    res = inflation.alg2_solve(IndefiniteAfterStartCore(spec, H), W0)
    assert not res.converged and res.iterations == 5
    assert len(res.objective_trace) == 1
    assert np.array_equal(res.W, W0)


def test_alg2_zero_interference_returns_w0():
    spec = rand_spec(make_rng(20), 2, 2, 1, "real", q=0.0)
    H = make_rng(21).standard_normal((30, 2, 2))
    W0 = make_rng(22).standard_normal((1, 2))
    core = rate.CellCore(spec, H)
    out = inflation.alg2_map(core, W0)
    assert np.array_equal(out, W0)
    res = inflation.alg2_solve(core, W0)
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.W, W0)


def test_alg2_zero_interference_stops_at_w0_with_its_objective():
    """With ``Ss = 0`` the first residual is 0: W0 and its objective, 0 candidates.

    The noise covariance is not ``I``, so the objective is not 0.
    """
    rng = make_rng(43)
    T = rand_matrix(rng, (3, 2), "complex")
    sigma_z = rand_matrix(rng, (2, 2), "complex")
    sigma_z = sigma_z @ sigma_z.conj().T + 0.5 * np.eye(2)
    spec = ChannelSpec.create(T=T, sigma_s=np.zeros((3, 3)), sigma_z=sigma_z, field="complex")
    H = rand_matrix(rng, (50, 2, 3), "complex")
    W0 = rand_matrix(rng, (2, 3), "complex").astype(spec.dtype)
    core = rate.CellCore(spec, H)
    obj0 = rate.objective(spec, W0, H, core)
    assert obj0 != 0.0
    res = inflation.alg2_solve(core, W0)
    assert res.converged and res.iterations == 0
    assert res.W.dtype == W0.dtype and res.W.tobytes() == W0.tobytes()
    assert res.objective_trace == (obj0,)


def test_alg2_residual_satisfies_stopping_contract(monkeypatch):
    monkeypatch.setattr(inflation, "TOL", 1e-8)
    monkeypatch.setattr(inflation, "MAX_ITERS", 500)
    rng = make_rng(23)
    spec = rand_spec(rng, 3, 2, 2, "complex")
    H = rand_matrix(rng, (1500, 2, 3), "complex")
    core = rate.CellCore(spec, H)
    res = inflation.alg2_solve(core, inflation.best_initialization(core))
    assert res.converged
    g = inflation.alg2_map(core, res.W)
    assert np.linalg.norm(res.W - g) <= 1e-8 * np.linalg.norm(res.W)


def test_alg2_fixed_point_near_alg1_on_degenerate_bank(monkeypatch):
    monkeypatch.setattr(inflation, "TOL", 1e-12)
    monkeypatch.setattr(inflation, "MAX_ITERS", 2000)
    rng = make_rng(24)
    spec = rand_spec(rng, 3, 2, 1, "real")
    H = rng.standard_normal((1, 2, 3))
    core = rate.CellCore(spec, H)
    r1 = inflation.alg1_solve(core, np.zeros((1, 3)))
    g_at_w1 = inflation.alg2_map(core, r1.W)
    assert np.linalg.norm(g_at_w1 - r1.W) < 1e-3 * max(1.0, np.linalg.norm(r1.W))


def test_alg2_directional_derivatives_vanish(monkeypatch):
    monkeypatch.setattr(inflation, "TOL", 1e-9)
    monkeypatch.setattr(inflation, "MAX_ITERS", 500)
    rng = make_rng(25)
    spec = rand_spec(rng, 2, 2, 2, "real")
    H = rng.standard_normal((600, 2, 2))
    core = rate.CellCore(spec, H)
    res = inflation.alg2_solve(core, inflation.best_initialization(core))
    obj0 = rate.objective(spec, res.W, H)
    scale = max(1.0, abs(obj0))
    step = 1e-5
    for _ in range(20):
        d = rng.standard_normal(res.W.shape)
        d /= np.linalg.norm(d)
        dd = (rate.objective(spec, res.W + step * d, H)
              - rate.objective(spec, res.W - step * d, H)) / (2 * step)
        assert abs(dd) < 1e-3 * scale


# ---------------------------------------------------------------------------
# initialization, dispatch, dominance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, snr, winner, ties", [
    ("fdpc-3x2-pd", 0.0, 0, 1),   # the mean-H start wins
    ("fdpc-2x2-a", 30.0, 1, 3),   # zero, pinv and identity tie
    ("fdpc-lowsnr", 0.0, 2, 2),   # pinv and identity tie
])
def test_best_initialization_takes_the_first_least_objective(name, snr, winner, ties):
    """The candidates, in order: mean-H, zero, pinv, identity; the first minimum wins."""
    ref = lab.reference_channel(name)
    spec = ref.spec.at_snr_db(snr, ref.q_over_p)
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 50, seed=1)[0].draws
    candidates = [inflation.w_perfect_csit(spec, H.mean(axis=0)), inflation.w_zero(spec),
                  inflation.w_pinv(spec), inflation.w_identity(spec)]
    values = [rate.objective(spec, W, H) for W in candidates]
    assert values.index(min(values)) == winner and values.count(min(values)) == ties
    W0 = inflation.best_initialization(rate.CellCore(spec, H))
    assert np.array_equal(W0, candidates[winner])


@pytest.mark.parametrize("name, factored", [("fdpc-2x2-a", 2), ("fdpc-fig4-1", 4)])
def test_best_initialization_factors_each_distinct_w_sigma_s_once(name, factored, monkeypatch):
    """The objective memo is keyed on ``W Ss`` and ``W Ss W*``.

    On fdpc-2x2-a the zero, pinv and identity starts all have ``W Ss = 0``
    and share one ``S(W)``; fdpc-fig4-1's p.d. ``Ss`` gives four distinct ones.
    """
    ref = lab.reference_channel(name)
    spec = ref.spec.at_snr_db(10.0, ref.q_over_p)
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 200, seed=1)[0].draws
    calls = []

    def counting_logdet_pd(a):
        calls.append(a.shape)
        return logdet_pd(a)

    monkeypatch.setattr(rate, "logdet_pd", counting_logdet_pd)
    core = rate.CellCore(spec, H)
    inflation.best_initialization(core)
    assert len(calls) == len(core._logdet_s) == factored
    for form in inflation.CLOSED_FORMS.values():
        W = rate.check_inflation(spec, form(spec))
        assert core.evaluate(W) == rate.CellCore(spec, H).evaluate(W)


def test_inflation_factors_equal_on_the_range_of_sigma_s_share_one_memo_entry(monkeypatch):
    ref = lab.reference_channel("fdpc-2x2-a")  # Ss = p0 e_1 e_1*
    spec = ref.spec.at_snr_db(10.0, ref.q_over_p)
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 200, seed=1)[0].draws
    W = np.array([[0.3, -0.7]])
    N = np.array([[0.3, 0.0]])  # doubles W's first entry, keeping its sign
    assert not (N @ spec.sigma_s).any()
    core = rate.CellCore(spec, H)
    obj = core.evaluate(W)
    monkeypatch.setattr(rate, "logdet_pd", None)  # a second factorization would raise
    obj_n = core.evaluate(W + N)
    assert core.logdet_s(W + N) is core.logdet_s(W)
    assert obj_n == obj and len(core._logdet_s) == 1
    monkeypatch.undo()
    fresh = rate.CellCore(spec, H)
    assert fresh.evaluate(W + N) == obj
    assert np.array_equal(fresh.logdet_s(W + N), core.logdet_s(W))


def test_solver_dominance_over_baselines():
    """Iterative solvers never lose to the fixed baseline choices."""
    rng = make_rng(27)
    for seed, snr in ((0, 0.0), (1, 10.0), (2, 20.0)):
        spec0 = rand_spec(make_rng(seed + 60), 3, 2, 2, "complex")
        spec = spec0.at_snr_db(snr, q_over_p=1.0)
        H = rand_matrix(rng, (1000, 2, 3), "complex")
        baselines = [inflation.w_zero(spec), inflation.w_pinv(spec),
                     inflation.w_identity(spec)]
        solved = min(inflation.solve_w(rate.CellCore(spec, H), method).objective_trace[-1]
                     for method in ("alg1", "alg2"))
        for base_w in baselines:
            assert solved <= rate.objective(spec, base_w, H) + 1e-9


def test_solve_w_unknown_method():
    spec = rand_spec(make_rng(28), 2, 2, 1, "real")
    with pytest.raises(ConfigurationError, match="'gradient'"):
        inflation.solve_w(rate.CellCore(spec, np.zeros((3, 2, 2))), "gradient")
    with pytest.raises(ConfigurationError, match="'bogus'"):
        lab.resolve_w(spec, "bogus")


def test_indefinite_schur_complement_is_a_solver_error():
    # the CLI reports SolverError as "solver error: ..." with exit code 3
    spec = rand_spec(make_rng(41), 2, 2, 2, "complex")
    H = rand_matrix(make_rng(42), (4, 2, 2), "complex")
    core = IndefiniteCore(spec, H)
    W = inflation.w_pinv(spec)
    with pytest.raises(SolverError, match=r"^singular block matrix in fixed-point map$"):
        inflation.alg2_map(core, W)
    for row in range(2):
        with pytest.raises(SolverError, match=rf"^singular D block in row update {row}$") as exc:
            inflation.alg1_row_update(core, W, row)
        assert exc.value.row_index == row


def test_indefinite_schur_complement_reaches_the_kept_rows_of_a_row_step():
    """A row step on ``alg1_solve``'s kept pieces (``SchurRows``) raises like a standalone one."""
    spec = rand_spec(make_rng(41), 2, 2, 2, "complex")
    H = rand_matrix(make_rng(42), (4, 2, 2), "complex")
    core = IndefiniteCore(spec, H)
    W = inflation.w_pinv(spec)
    rows = rate.SchurRows(core, W)
    for row in range(2):
        with pytest.raises(SolverError, match=rf"^singular D block in row update {row}$") as exc:
            inflation.alg1_row_update(core, W, row, rows)
        assert exc.value.row_index == row
        rows.set_row(W, row)  # as the solve does after each row step


def test_indefinite_schur_complement_reaches_the_objective_and_the_rate():
    """The objective-only path (``S`` without ``C K``) raises at the bad draw too, not a
    finite value."""
    spec = rand_spec(make_rng(41), 2, 2, 2, "complex")
    H = rand_matrix(make_rng(42), (4, 2, 2), "complex")
    core = IndefiniteCore(spec, H)
    W = inflation.w_pinv(spec)
    calls = (lambda: rate.objective(spec, W, H, core),
             lambda: rate.estimate(*rate._evaluate((spec,), degenerate_bank(H), ((W,),),
                                                   cores=(core,))[0][0][0]),
             lambda: inflation.solve_w(core, "alg1"))
    for call in calls:
        with pytest.raises(EvaluationError) as exc:
            call()
        assert exc.value.sample_index == IndefiniteCore.bad
