import numpy as np
import pytest

from fdpclab import covopt, inflation, lab, linalg, model, rate
from fdpclab.errors import ConfigurationError, EvaluationError
from fdpclab.linalg import ct, hermitize, logdet_pd, numerical_rank
from fdpclab.model import (ChannelSpec, IidComplexGaussian, IidRealGaussian, NoCsit,
                           PerfectCsit, QuantizedCsit, build_sample_bank, csit_from_label)

from conftest import degenerate_bank, make_rng, paired_estimates, rand_matrix, rand_spec


def scalar_spec(q, p=1.0, n=1.0):
    return ChannelSpec.create(T=[[np.sqrt(p)]], sigma_s=[[q]], sigma_z=[[n]], field="real")


# ---------------------------------------------------------------------------
# build_M
# ---------------------------------------------------------------------------

def test_build_m_scalar_determinant():
    q = 0.7
    spec = scalar_spec(q)
    for w in (-0.4, 0.0, 0.5, 1.3):
        M = rate.build_M(spec, [[w]], np.ones((1, 1)))
        expected = (1 + q * w ** 2) * (1 + 1 + q) - (1 + w * q) ** 2
        assert np.linalg.det(M) == pytest.approx(expected, abs=1e-12)


def test_build_m_zero_interference_collapse(rng):
    for field in ("real", "complex"):
        for _ in range(10):
            t = int(rng.integers(1, 5))
            r = int(rng.integers(1, 4))
            m = int(rng.integers(1, t + 1))
            spec = rand_spec(make_rng(rng.integers(10 ** 6)), t, r, m, field, q=0.0)
            H = rand_matrix(rng, (5, r, t), field)
            W = rand_matrix(rng, (m, t), field)
            ld = logdet_pd(rate.build_M(spec, W, H))
            assert np.abs(ld - logdet_pd(spec.sigma_z)).max() < 1e-9


def test_build_m_hermitian(rng):
    spec = rand_spec(rng, 3, 2, 2, "complex")
    H = rand_matrix(rng, (4, 2, 3), "complex")
    W = rand_matrix(rng, (2, 3), "complex")
    M = rate.build_M(spec, W, H)
    assert np.abs(M - ct(M)).max() < 1e-12


def test_schur_identity(rng):
    """Two evaluation paths for logdet M agree."""
    for field in ("real", "complex"):
        for _ in range(10):
            spec = rand_spec(make_rng(rng.integers(10 ** 6)), 3, 2, 2, field)
            W = rand_matrix(rng, (2, 3), field)
            H = rand_matrix(rng, (2, 3), field)
            lhs = logdet_pd(rate.build_M(spec, W, H))
            p_block = np.eye(2, dtype=spec.dtype) + W @ spec.sigma_s @ ct(W)
            a = (spec.T @ ct(spec.T) + spec.sigma_s
                 - (spec.T + spec.sigma_s @ ct(W))
                 @ np.linalg.solve(p_block, ct(spec.T) + W @ spec.sigma_s))
            rhs = logdet_pd(p_block) + logdet_pd(spec.sigma_z + H @ a @ ct(H))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_inner_matrix_psd(rng):
    """The residual covariance after pre-subtraction stays p.s.d. for any W."""
    for _ in range(25):
        field = "complex" if rng.integers(2) else "real"
        spec = rand_spec(make_rng(rng.integers(10 ** 6)), 3, 2, 2, field)
        W = rand_matrix(rng, (2, 3), field) * 10 ** rng.uniform(-1, 1)
        p_block = np.eye(2, dtype=spec.dtype) + W @ spec.sigma_s @ ct(W)
        a = (spec.T @ ct(spec.T) + spec.sigma_s
             - (spec.T + spec.sigma_s @ ct(W))
             @ np.linalg.solve(p_block, ct(spec.T) + W @ spec.sigma_s))
        eigs = np.linalg.eigvalsh(0.5 * (a + ct(a)))
        assert eigs.min() >= -1e-8 * max(np.trace(a).real, 1e-30)


def test_rank_lower_bound_and_pinv_equality(rng):
    """rank(A(W)) >= rank(Sigma_X + Sigma_S) - m, equality at W = T+."""
    for _ in range(10):
        spec = rand_spec(make_rng(rng.integers(10 ** 6)), 3, 2, 2, "real",
                         sigma_s_rank=int(rng.integers(1, 4)))
        rank_sum = numerical_rank(spec.T @ ct(spec.T) + spec.sigma_s)
        lower = rank_sum - spec.dims.m

        def a_of(W):
            p_block = np.eye(2) + W @ spec.sigma_s @ W.T
            return (spec.T @ spec.T.T + spec.sigma_s
                    - (spec.T + spec.sigma_s @ W.T)
                    @ np.linalg.solve(p_block, spec.T.T + W @ spec.sigma_s))

        for _ in range(5):
            W = rand_matrix(rng, (2, 3), "real")
            assert numerical_rank(a_of(W)) >= lower
        assert numerical_rank(a_of(inflation.w_pinv(spec))) == max(lower, 0)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero_interference():
    spec = rand_spec(make_rng(11), 2, 2, 2, "real", q=0.0)
    H = make_rng(12).standard_normal((50, 2, 2))
    for w_seed in range(3):
        W = make_rng(w_seed).standard_normal((2, 2))
        assert rate.objective(spec, W, H) == pytest.approx(
            float(logdet_pd(spec.sigma_z)), abs=1e-9)


def test_objective_scalar_grid_minimum_at_costa_alpha():
    spec = scalar_spec(1.0)
    H = np.ones((1, 1, 1))
    grid = np.linspace(-1.0, 2.0, 6001)
    vals = [rate.objective(spec, [[w]], H) for w in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(0.5, abs=5e-4)
    w_opt = inflation.w_perfect_csit(spec, np.ones((1, 1)))
    assert w_opt[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_objective_mean_invariance(rng):
    spec = rand_spec(rng, 2, 2, 1, "real")
    H = rng.standard_normal((64, 2, 2))
    W = rng.standard_normal((1, 2))
    once = rate.objective(spec, W, H)
    doubled = rate.objective(spec, W, np.concatenate([H, H]))
    assert doubled == pytest.approx(once, abs=1e-12)


@pytest.mark.parametrize("field,label", [("real", "B=2"), ("complex", "B=1")])
def test_core_terms_do_not_depend_on_the_layout_of_the_draws(field, label):
    """The core's kernels on a bank's entry-major draws and on a C-ordered copy agree bitwise."""
    fading = IidRealGaussian() if field == "real" else IidComplexGaussian()
    spec = rand_spec(make_rng(31), 3, 2, 2, field)
    draws = build_sample_bank(spec, fading, csit_from_label(label, fading), 1, 500,
                              seed=32)[0].draws
    c_order = np.ascontiguousarray(draws)
    assert c_order.flags.c_contiguous and not draws.flags.c_contiguous
    cores = [rate.CellCore(spec, draws), rate.CellCore(spec, draws)]
    cores[1].H = c_order  # as_field would copy it entry-major; the kernels read it as given
    for name in ("logdet_nr", "mean_K", "logdet_bound"):
        assert np.array_equal(*(getattr(core, name) for core in cores)), name
    for W in (inflation.w_zero(spec), inflation.w_pinv(spec),
              rand_matrix(make_rng(33), (2, 3), field)):
        W = rate.check_inflation(spec, W)
        assert np.array_equal(*(core.logdet_s(W) for core in cores))


def test_objective_rejects_empty():
    spec = rand_spec(make_rng(0), 2, 2, 1, "real")
    with pytest.raises(ConfigurationError):
        rate.objective(spec, np.zeros((1, 2)), np.zeros((0, 2, 2)))


def test_objective_sample_order_invariance(rng):
    spec = rand_spec(rng, 2, 2, 1, "real")
    H = rng.standard_normal((128, 2, 2))
    W = rng.standard_normal((1, 2))
    base = rate.objective(spec, W, H)
    perm = rng.permutation(len(H))
    assert rate.objective(spec, W, H[perm]) == pytest.approx(base, abs=1e-12)
    # identical inputs give bit-identical values (fixed reduction order)
    again = rate.objective(spec, W, H)
    assert np.float64(base).tobytes() == np.float64(again).tobytes()


# ---------------------------------------------------------------------------
# achievable rate and bound
# ---------------------------------------------------------------------------

def test_rate_equals_bound_when_no_interference():
    spec = rand_spec(make_rng(13), 2, 2, 2, "complex", q=0.0)
    bank = build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 500, seed=2)
    est = rate.achievable_rate(spec, np.zeros((2, 2)), bank)
    bound = rate.no_interference_bound(spec, bank)
    assert est.rate_bits == pytest.approx(bound.rate_bits, abs=1e-9)


def test_scalar_costa_one_bit():
    bank = degenerate_bank(np.ones((1, 1, 1)))
    for q in (0.0, 1.0, 7.3):
        spec = scalar_spec(q)
        est = rate.achievable_rate(spec, lab.resolve_w(spec, "perfect"), bank)
        assert est.rate_bits == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2)])
def test_perfect_csit_matches_bound(dims):
    t, r, m = dims
    spec0 = rand_spec(make_rng(17 + t), t, r, m, "complex")
    bank = build_sample_bank(spec0, IidComplexGaussian(), PerfectCsit(), 200, 1, seed=5)
    for snr in (0.0, 10.0, 20.0):
        spec = spec0.at_snr_db(snr, q_over_p=1.0)
        r_est, c_est, cov = paired_estimates(spec, lab.resolve_w(spec, "perfect"), bank)
        se = np.sqrt(max(r_est.stderr_bits ** 2 + c_est.stderr_bits ** 2 - 2 * cov, 0.0))
        assert abs(r_est.rate_bits - c_est.rate_bits) <= max(2 * se, 1e-9)


def test_bound_examples():
    spec = scalar_spec(0.0, p=3.0, n=1.0)
    bank = degenerate_bank(np.ones((1, 1, 1)))
    c = rate.no_interference_bound(spec, bank)
    assert c.rate_bits == pytest.approx(2.0)  # log2(1 + 3)

    zero_x = ChannelSpec.create(T=[[0.0]], sigma_s=[[1.0]], sigma_z=[[1.0]], field="real")
    assert rate.no_interference_bound(zero_x, bank).rate_bits == pytest.approx(0.0)


def test_bound_dominates_rate(rng):
    spec = rand_spec(make_rng(23), 2, 2, 1, "real")
    bank = build_sample_bank(spec, IidRealGaussian(), NoCsit(), 1, 4000, seed=6)
    for solver in ("zero", "pinv"):
        sp = spec.at_snr_db(10.0, 1.0)
        r_est, c_est, cov = paired_estimates(sp, lab.resolve_w(sp, solver), bank)
        se = np.sqrt(max(r_est.stderr_bits ** 2 + c_est.stderr_bits ** 2 - 2 * cov, 0.0))
        assert c_est.rate_bits >= r_est.rate_bits - 2 * se


def test_rate_reports_nonconvergence_flag():
    spec = rand_spec(make_rng(29), 2, 2, 1, "real")
    bank = degenerate_bank(make_rng(30).standard_normal((8, 2, 2)))

    def flaky(core, cell):
        return inflation.SolveResult(W=np.zeros((1, 2)), objective_trace=(),
                                     converged=False, iterations=4)

    est = rate.achievable_rate(spec, flaky, bank)
    assert est.converged is False


def test_policy_convergence_and_iterations_fold_over_cells():
    """The estimate is converged only if every cell is; its iterations are the max."""
    spec = rand_spec(make_rng(32), 2, 2, 1, "real")
    bank = build_sample_bank(spec, IidRealGaussian(), PerfectCsit(), 3, 1, seed=4)

    def policy_of(results):
        results = iter(results)
        return lambda core, cell: inflation.SolveResult(np.zeros((1, 2)), (), *next(results))

    cases = [((True, 2), (False, 9), (True, 5)), ((True, 0), (True, 3), (True, 1))]
    for results in cases:
        expected = (all(ok for ok, _ in results), max(n for _, n in results))
        est = rate.achievable_rate(spec, policy_of(results), bank)
        r_est, c_est, _ = paired_estimates(spec, policy_of(results), bank)
        assert (est.converged, est.iterations) == expected
        assert (r_est.converged, r_est.iterations) == expected
        assert (c_est.converged, c_est.iterations) == (True, 0)


# ---------------------------------------------------------------------------
# standard-error basis: per-draw terms for one cell, per-cell means otherwise
# ---------------------------------------------------------------------------

def per_draw_terms(spec, W, H):
    """Per-draw rate and bound terms in nats, from the direct block matrix."""
    M = rate.build_M(spec, W, H)
    m = spec.dims.m
    rates = logdet_pd(M[:, m:, m:]) - logdet_pd(M)
    rx = hermitize(H @ spec.T @ ct(spec.T) @ ct(H) + spec.sigma_z)
    return rates, logdet_pd(rx) - logdet_pd(spec.sigma_z)


def assert_stderr_basis(spec, W, bank, a, b):
    n = a.size
    r_est, c_est, cov = paired_estimates(spec, W, bank)
    assert r_est.rate_bits == pytest.approx(a.mean() / rate.LN2, rel=1e-9)
    assert r_est.stderr_bits == pytest.approx(np.std(a, ddof=1) / np.sqrt(n) / rate.LN2,
                                              rel=1e-9)
    assert c_est.stderr_bits == pytest.approx(np.std(b, ddof=1) / np.sqrt(n) / rate.LN2,
                                              rel=1e-9)
    assert cov == pytest.approx(np.cov(a, b)[0, 1] / n / rate.LN2 ** 2, rel=1e-9)
    assert rate.achievable_rate(spec, W, bank).stderr_bits == r_est.stderr_bits
    assert rate.no_interference_bound(spec, bank).stderr_bits == c_est.stderr_bits


def test_stderr_basis_single_cell_is_per_draw():
    spec = rand_spec(make_rng(41), 3, 2, 2, "complex")
    bank = build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 300, seed=7)
    W = rand_matrix(make_rng(42), (2, 3), "complex")
    a, b = per_draw_terms(spec, W, bank[0].draws)
    assert_stderr_basis(spec, W, bank, a, b)


def test_stderr_basis_multi_cell_is_per_cell_means():
    spec = rand_spec(make_rng(43), 2, 2, 1, "real")
    fading = IidRealGaussian()
    bank = build_sample_bank(spec, fading, QuantizedCsit.designed(1, fading), 6, 50, seed=8)
    W = rand_matrix(make_rng(44), (1, 2), "real")
    terms = [per_draw_terms(spec, W, cell.draws) for cell in bank]
    a = np.array([r.mean() for r, _ in terms])
    b = np.array([c.mean() for _, c in terms])
    assert_stderr_basis(spec, W, bank, a, b)


def test_single_term_basis_has_zero_stderr():
    spec = rand_spec(make_rng(45), 2, 2, 1, "real")
    bank = degenerate_bank(make_rng(46).standard_normal((1, 2, 2)))
    r_est, c_est, cov = paired_estimates(spec, np.zeros((1, 2)), bank)
    assert (r_est.stderr_bits, c_est.stderr_bits, cov) == (0.0, 0.0, 0.0)


def test_perfect_csit_policy_needs_a_perfect_csit_bank():
    spec = rand_spec(make_rng(47), 2, 2, 1, "real")
    bank = build_sample_bank(spec, IidRealGaussian(), NoCsit(), 1, 10, seed=9)
    with pytest.raises(ConfigurationError, match="perfect-CSIT bank"):
        rate.achievable_rate(spec, lab.resolve_w(spec, "perfect"), bank)
    # a W policy is an array or a callable; a solver name is not one
    with pytest.raises(ConfigurationError):
        rate.achievable_rate(spec, "perfect", bank)


def test_evaluation_error_carries_sample_index():
    # noise made numerically singular bypasses spec validation via direct call
    spec = rand_spec(make_rng(31), 1, 1, 1, "real")
    bad = np.full((3, 1, 1), np.nan)
    with pytest.raises(EvaluationError) as exc:
        rate.objective(spec, np.zeros((1, 1)), bad)
    assert exc.value.sample_index == 0
    stack = np.tile(np.eye(2), (4, 1, 1))
    stack[2] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues 3 and -1
    with pytest.raises(EvaluationError) as exc:
        logdet_pd(stack)
    assert exc.value.sample_index == 2


def test_check_inflation_shape_and_field():
    spec = rand_spec(make_rng(37), 2, 2, 1, "real")
    with pytest.raises(ConfigurationError):
        rate.check_inflation(spec, np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        rate.check_inflation(spec, np.full((1, 2), np.inf))
    with pytest.raises(ConfigurationError):
        rate.check_inflation(spec, np.array([[1j, 0.0]]))


@pytest.mark.parametrize("call", ["CellCore", "w_perfect_csit", "build_M"])
def test_complex_draws_on_a_real_spec_are_rejected(call):
    """A non-zero imaginary part is a configuration error, not dropped after a warning."""
    rng = make_rng(38)
    spec = rand_spec(rng, 2, 2, 1, "real")
    H = rng.standard_normal((5, 2, 2))
    calls = {"CellCore": lambda H: rate.CellCore(spec, H).H,
             "w_perfect_csit": lambda H: inflation.w_perfect_csit(spec, H[0]),
             "build_M": lambda H: rate.build_M(spec, np.zeros((1, 2)), H)}
    for imag in (1e-3j, complex(0.0, np.nan)):
        with pytest.raises(ConfigurationError, match="complex .* in a real spec"):
            calls[call](H + imag)
    assert np.array_equal(calls[call](H + 0j), calls[call](H))  # a zero imaginary part is real


# ---------------------------------------------------------------------------
# one factorization of S(W) per (core, W)
# ---------------------------------------------------------------------------

class BuildLog:
    """Records every ``S(W)`` build by ``schur`` as (core, W bytes) -> [keep_ck, ...].

    The cores are the keys, so none is freed and no id is reused.
    """

    def __init__(self, monkeypatch):
        self.builds = {}
        schur = rate.CellCore.schur

        def logged_schur(core, W, keep_ck=True):
            self.builds.setdefault((core, W.tobytes()), []).append(keep_ck)
            return schur(core, W, keep_ck)

        monkeypatch.setattr(rate.CellCore, "schur", logged_schur)

    def repeats(self):
        """``{(core, W bytes): kinds}`` of the pairs built more than once; clears the log."""
        out = {pair: kinds for pair, kinds in self.builds.items() if len(kinds) > 1}
        self.builds = {}
        return out


def test_each_full_w_is_factored_once_per_core(monkeypatch):
    """A sweep, a solve with its rate and a joint optimization build each (core, W) once.

    The core's memo keeps ``logdet S(W)`` per draw, so the rate of a one-cell
    bank reads what the start search or the solve left there.  The one
    exception, stated where it is asserted, is ``alg2``'s start point, which
    needs the ``C K`` stack (``schur`` with ``keep_ck``) at a W already scored
    for its objective (``S`` alone), which the memo does not hold.  An ``alg1`` sweep builds
    neither, so the T-step's gradient point is the one build at the W that
    solve returns.
    """
    log = BuildLog(monkeypatch)
    ref = lab.reference_channel("fdpc-2x2-a")
    for label in ("none", "B=1"):
        rows = lab.run_sweep(ref.spec, ref.model, 4700, snr_db_list=(0.0, 10.0),
                             q_over_p=ref.q_over_p, solvers=("alg1", "zero"),
                             csit_list=(csit_from_label(label, ref.model),),
                             include_bound=True, n_outer=3, n_inner=200)
        assert not any(row.error for row in rows)
        # the rate reads the memo, whether one cell's per-draw terms or many cells' means
        assert log.repeats() == {}

    fig = lab.reference_channel("fdpc-fig4-2")
    spec = fig.spec.at_snr_db(10.0, fig.q_over_p)
    bank = build_sample_bank(fig.spec, fig.model, NoCsit(), 1, 300, seed=4700)
    for method in ("alg1", "alg2"):
        est = rate.achievable_rate(spec, lab.resolve_w(spec, method), bank)
        assert est.iterations > 0
        repeats = log.repeats()
        if method == "alg1":
            assert repeats == {}
        else:
            # alg2's start point needs C K at best_initialization's winner
            assert list(repeats.values()) == [[False, True]]

    cov = lab.reference_channel("fdpc-rank-3x2")
    spec = cov.spec.at_snr_db(30.0, cov.q_over_p)
    bank = build_sample_bank(cov.spec, cov.model, NoCsit(), 1, 300, seed=4700)
    res = covopt.joint_optimize(spec, bank, rank_bound=3, outer_iters=3, solver="alg1")
    assert len(res.rate_trace) - res.converged >= 1  # a T-step ran
    assert log.repeats() == {}


@pytest.mark.parametrize("method", ["alg1", "alg2", *inflation.CLOSED_FORMS])
@pytest.mark.parametrize("ref_name", ["fdpc-2x2-a", "fdpc-fig4-2"])
def test_solve_result_carries_the_rate_terms_at_its_w(method, ref_name, monkeypatch):
    """After a solve, the rate terms at its ``W`` are a memo hit, bitwise a fresh core's."""
    ref = lab.reference_channel(ref_name)
    spec = ref.spec.at_snr_db(10.0, ref.q_over_p)
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 300, seed=4700)[0].draws
    core = rate.CellCore(spec, H)
    res = inflation.solve_w(core, method)
    W = rate.check_inflation(spec, res.W)
    monkeypatch.setattr(rate, "logdet_pd", None)  # a factorization would raise
    ld = core.logdet_s(W)
    monkeypatch.undo()
    assert ld.tobytes() == rate.CellCore(spec, H).logdet_s(W).tobytes()
    assert res.objective_trace[-1] == rate.objective(spec, res.W, H)


def test_memo_hit_is_the_fresh_cores_float(monkeypatch):
    """A memoized objective is the float a fresh core computes, whoever filled the memo."""
    ref = lab.reference_channel("fdpc-fig4-2")
    spec = ref.spec.at_snr_db(20.0, ref.q_over_p)
    H = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, 300, seed=4700)[0].draws
    core = rate.CellCore(spec, H)
    W = rate.check_inflation(spec, inflation.w_pinv(spec))
    point_obj = rate.SchurPoint(core, W).objective  # fills the memo from a point
    monkeypatch.setattr(rate, "logdet_pd", None)  # a hit factors nothing
    hit = core.evaluate(W)
    monkeypatch.undo()
    fresh = rate.CellCore(spec, H)
    assert hit == point_obj == fresh.evaluate(W) == rate.objective(spec, W, H)
    assert np.mean(core.logdet_s(W)) == np.mean(fresh.logdet_s(W))
    with pytest.raises(ValueError):  # the memo's entries are read-only
        core.logdet_s(W)[0] = 0.0


# ---------------------------------------------------------------------------
# the workspace of one evaluation's cell cores
# ---------------------------------------------------------------------------

def quantized_bank(ref, n_outer=3, n_inner=200):
    return build_sample_bank(ref.spec, ref.model, QuantizedCsit.designed(1, ref.model), n_outer,
                             n_inner, seed=4700)


@pytest.mark.parametrize("ref_name", ["fdpc-2x2-a", "fdpc-fig4-2", "fdpc-3x2-b"])
def test_successive_cores_of_a_multi_snr_call_share_the_stacks(ref_name):
    """Every core of one call, at every SNR, reads ``K`` from the call's one stack,
    and each SNR's bases are bitwise those of cores that allocate their own."""
    ref = lab.reference_channel(ref_name)
    bank = quantized_bank(ref)
    specs = [ref.spec.at_snr_db(snr_db, ref.q_over_p) for snr_db in (0.0, 20.0)]
    Ks = []

    def policy(core, cell):
        Ks.append(core._received[1])
        return inflation.solve_w(core, "alg1", cell)

    got = rate._evaluate(specs, bank, [[policy]] * len(specs), bound=True)
    shared = Ks[:]
    assert len(shared) == 6 and all(np.shares_memory(K, shared[0]) for K in shared[1:])
    for spec, (((basis, *_),), bound) in zip(specs, got):
        own = [rate.CellCore(spec, cell.draws) for cell in bank]
        (((want, *_),), want_bound), = rate._evaluate((spec,), bank, ([policy],),
                                                      bound=True, cores=own)
        assert basis.tobytes() == want.tobytes()
        assert bound.tobytes() == want_bound.tobytes()
    assert not any(np.shares_memory(K, shared[0]) for K in Ks[len(shared):])


@pytest.mark.parametrize("ref_name", ["fdpc-2x2-a", "fdpc-fig4-2", "fdpc-3x2-b"])
def test_each_workspace_slot_is_allocated_once_per_call(ref_name, monkeypatch):
    """Over one multi-SNR call, whose cores form the bound's stacks before ``N_r``'s,
    each slot is allocated once, at the size of the largest stack it holds; a
    one-cell call lends no stacks."""
    allocations = []

    class RecordingStacks(dict):
        def __setitem__(self, slot, buf):
            allocations.append((slot, buf.size))
            super().__setitem__(slot, buf)

    init = rate.Workspace.__init__

    def recording_init(self):
        init(self)
        self.stacks = RecordingStacks()

    monkeypatch.setattr(rate.Workspace, "__init__", recording_init)
    ref = lab.reference_channel(ref_name)
    bank = quantized_bank(ref)
    specs = [ref.spec.at_snr_db(snr_db, ref.q_over_p) for snr_db in (0.0, 10.0, 20.0)]
    policies = [[lab.resolve_w(spec, solver) for solver in ("alg1", "zero")] for spec in specs]
    results = rate._evaluate(specs, bank, policies, bound=True)
    assert not any(isinstance(o[0], Exception) for outcomes, _ in results for o in outcomes)
    (t, r, m), n = (ref.spec.dims.t, ref.spec.dims.r, ref.spec.dims.m), bank[0].draws.shape[0]
    item = np.dtype(ref.spec.dtype).itemsize
    assert allocations == [(0, n * r * max(r, m) * item), (1, n * r * t * item),
                           ("K", n * t * t * item)]
    del allocations[:]
    rate._evaluate(specs, quantized_bank(ref, n_outer=1), policies, bound=True)
    assert allocations == []


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_live_core_keeps_its_stacks_while_another_is_built(field):
    """A core that outlives the next core on its workspace keeps its own stacks: its
    terms stay bitwise those of a core without a workspace, and the next core's
    stacks are fresh until the first core is dropped."""
    rng = make_rng(11 + (field == "complex"))
    spec = rand_spec(rng, 3, 2, 2, field)
    H1, H2 = (rand_matrix(rng, (300, 2, 3), field) for _ in range(2))
    W = rand_matrix(rng, (2, 3), field)
    workspace = rate.Workspace()
    first = rate.CellCore(spec, H1, workspace)
    bound, ld = first.logdet_bound.copy(), first.logdet_s(W).copy()
    K = first._received[1]
    second = rate.CellCore(spec, H2, workspace)
    second.logdet_bound, second.logdet_s(W)
    assert not np.shares_memory(second._received[1], K)
    del first.logdet_bound  # the terms again, from first's stacks
    first._logdet_s.clear()
    alone = rate.CellCore(spec, H1)  # and from fresh ones
    assert first.logdet_bound.tobytes() == bound.tobytes() == alone.logdet_bound.tobytes()
    assert first.logdet_s(W).tobytes() == ld.tobytes() == alone.logdet_s(W).tobytes()
    del first, K
    third = rate.CellCore(spec, H2, workspace)
    assert np.shares_memory(third._received[1], workspace.stacks["K"])
    assert third._received[1].tobytes() == second._received[1].tobytes()


def test_each_spec_only_term_is_computed_once_per_spec(monkeypatch):
    """One pass over 3 quantized cells at 2 SNRs, with alg1, zero and the bound, factors
    ``Ss`` (with the pseudo-inverse of its factor), takes ``pinv(T)`` and factors ``Sz``
    once per spec, not once per cell core.  The cached terms are read-only, and the
    bases are bitwise those of per-cell cores built on fresh specs."""
    ref = lab.reference_channel("fdpc-fig4-2")
    bank = quantized_bank(ref)
    specs = [ref.spec.at_snr_db(snr_db, ref.q_over_p) for snr_db in (0.0, 20.0)]
    factored, pinv_of, cholesky_of = [], [], []
    psd_factor, pinv, cholesky = linalg.psd_factor, np.linalg.pinv, linalg.Cholesky.__init__

    def counting_psd_factor(sigma):
        factored.append(sigma)
        return psd_factor(sigma)

    def counting_pinv(a, *args, **kwargs):
        pinv_of.append(a)
        return pinv(a, *args, **kwargs)

    def counting_cholesky(self, a, lead=None):
        if np.ndim(a) == 2:  # one matrix, not a stack of draws
            cholesky_of.append(a)
        cholesky(self, a, lead)

    for module in (linalg, model, rate, inflation):
        if hasattr(module, "psd_factor"):
            monkeypatch.setattr(module, "psd_factor", counting_psd_factor)
    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    monkeypatch.setattr(linalg.Cholesky, "__init__", counting_cholesky)
    policies = [[lab.resolve_w(spec, solver) for solver in ("alg1", "zero")] for spec in specs]
    got = rate._evaluate(specs, bank, policies, bound=True)
    assert len(factored) == len(cholesky_of) == len(pinv_of) / 2 == len(specs)
    # at_snr_db keeps the base spec's Sz, so both specs hold the same array
    assert all(a is ref.spec.sigma_z for a in cholesky_of)
    for spec in specs:
        assert sum(a is spec.sigma_s for a in factored) == 1
        assert sum(a is spec.T for a in pinv_of) == 1
        assert sum(a is spec.sigma_s_factor[0] for a in pinv_of) == 1
        for a in (*spec.sigma_s_factor, spec.sigma_x, spec.sigma_xs, spec.t_pinv):
            assert not a.flags.writeable
    monkeypatch.undo()
    for snr_db, policy, (outcomes, bound) in zip((0.0, 20.0), policies, got):
        # at_snr_db gives bitwise the same matrices, on a spec with an empty cache
        fresh = [rate.CellCore(ref.spec.at_snr_db(snr_db, ref.q_over_p), cell.draws)
                 for cell in bank]
        (want, want_bound), = rate._evaluate((spec,), bank, (policy,), bound=True,
                                             cores=fresh)
        assert bound.tobytes() == want_bound.tobytes()
        for (basis, *fold), (want_basis, *want_fold) in zip(outcomes, want):
            assert basis.tobytes() == want_basis.tobytes() and fold == want_fold
