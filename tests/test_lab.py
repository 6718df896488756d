import hashlib
import subprocess
import sys
import weakref

import numpy as np
import pytest

from fdpclab import lab, model, rate
from fdpclab.errors import ConfigurationError, EvaluationError
from fdpclab.model import NoCsit, PerfectCsit, QuantizedCsit, build_sample_bank, csit_from_label

from conftest import gap_to_bound, make_rng, rand_spec


def small_plan(**overrides):
    """The keywords of a small :func:`lab.run_sweep`."""
    kwargs = dict(snr_db_list=(0.0, 10.0), q_over_p=1.0, solvers=("zero", "pinv"),
                  csit_list=(NoCsit(),), include_bound=True,
                  n_outer=4, n_inner=400)
    kwargs.update(overrides)
    return kwargs


def test_sweep_rows_follow_plan_order():
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan()
    rows = lab.run_sweep(ref.spec, ref.model, seed=7, **plan)
    combos = [(r.snr_db, r.csit, r.solver) for r in rows]
    expected = [(snr, "none", solver) for snr in (0.0, 10.0)
                for solver in ("zero", "pinv")]
    assert combos == expected


def test_sweep_bound_dominates_each_row():
    ref = lab.reference_channel("fdpc-2x2-a")
    rows = lab.run_sweep(ref.spec, ref.model, seed=7, **small_plan(n_inner=3000))
    for row in rows:
        assert row.bound_bits >= row.rate_bits - 2 * row.stderr_bits


def test_sweep_identical_seed_identical_csv(tmp_path):
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan()
    a = lab.format_sweep_csv(lab.run_sweep(ref.spec, ref.model, seed=3, **plan))
    b = lab.format_sweep_csv(lab.run_sweep(ref.spec, ref.model, seed=3, **plan))
    assert a == b
    c = lab.format_sweep_csv(lab.run_sweep(ref.spec, ref.model, seed=4, **plan))
    assert a != c
    out = tmp_path / "sweep.csv"
    lab.write_sweep_csv(lab.run_sweep(ref.spec, ref.model, seed=3, **plan), out)
    assert out.read_text(encoding="utf-8") == a


def test_sweep_thread_count_independent():
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan(solvers=("zero", "alg1"))
    rows1 = lab.run_sweep(ref.spec, ref.model, seed=5, **plan, threads=1)
    rows4 = lab.run_sweep(ref.spec, ref.model, seed=5, **plan, threads=4)
    assert lab.format_sweep_csv(rows1) == lab.format_sweep_csv(rows4)


def test_threads_computing_the_shared_spec_terms_give_the_serial_rows():
    """Four CSIT settings on four threads share the sweep's fresh specs, so the first
    read of each spec-only term races; with a short switch interval the rows still
    equal the serial sweep's."""
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan(solvers=("alg1", "pinv"), n_outer=3, n_inner=100,
                      csit_list=tuple(csit_from_label(label, ref.model)
                                      for label in ("none", "perfect", "B=1", "B=2")))
    serial = lab.format_sweep_csv(lab.run_sweep(ref.spec, ref.model, seed=13, **plan))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = lab.run_sweep(ref.spec, ref.model, seed=13, **plan, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert lab.format_sweep_csv(threaded) == serial


def test_sweep_csv_header_exact():
    text = lab.format_sweep_csv([])
    assert text.splitlines()[0] == "snr_db,csit,solver,rate_bits,stderr_bits,bound_bits,n_outer,n_inner,seed"


def test_sweep_error_rows_recorded():
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan(solvers=("zero", "perfect"))  # perfect invalid on a NoCsit bank
    rows = lab.run_sweep(ref.spec, ref.model, seed=6, **plan)
    good = [r for r in rows if r.solver == "zero"]
    bad = [r for r in rows if r.solver == "perfect"]
    assert all(r.error is None for r in good)
    assert all(r.error is not None and np.isnan(r.rate_bits) for r in bad)
    text = lab.format_sweep_csv(rows)
    assert "nan" in text


def test_sweep_builds_one_core_per_group_and_bank_cell(monkeypatch):
    built, held = [], []
    init = rate.CellCore.__init__

    def counting_init(self, spec, draws, *args, **kwargs):
        built.append((spec.P, id(draws)))
        held.append(draws)  # a freed bank's ids could be reused by the next one
        init(self, spec, draws, *args, **kwargs)

    monkeypatch.setattr(rate.CellCore, "__init__", counting_init)
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan(solvers=("zero", "alg1"), csit_list=(NoCsit(), PerfectCsit()),
                      n_outer=3, n_inner=50)
    rows = lab.run_sweep(ref.spec, ref.model, seed=8, **plan)
    assert all(r.error is None for r in rows)
    # two SNRs x (one no-CSIT cell + three perfect-CSIT cells)
    assert len(built) == len(set(built)) == 2 * (1 + 3)


def test_sweep_holds_one_cell_at_a_time(monkeypatch):
    """Each cell of each CSIT setting is drawn once, and every cell drawn before it
    is freed by then, its draws included: a sweep never holds a bank."""
    draw, drawn = model._Cells.__getitem__, []

    def recording_draw(cells, i):
        assert [ref() for ref in drawn] == [None] * len(drawn)
        cell = draw(cells, i)
        drawn.append(weakref.ref(cell.draws))
        return cell

    monkeypatch.setattr(model._Cells, "__getitem__", recording_draw)
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan(snr_db_list=(0.0, 10.0, 20.0), solvers=("zero", "alg1"),
                      csit_list=(NoCsit(), PerfectCsit(), QuantizedCsit.designed(1, ref.model)),
                      n_outer=3, n_inner=50)
    rows = lab.run_sweep(ref.spec, ref.model, seed=9, **plan)
    assert all(r.error is None for r in rows)
    assert len(drawn) == 1 + 3 + 3


@pytest.mark.parametrize("label", ["none", "perfect", "B=1", "B=2"])
def test_sweep_rows_are_the_per_snr_evaluations_of_the_eager_bank(label):
    """The sweep's one cell-major pass per CSIT setting gives bitwise the rows of one
    single-spec evaluation per SNR over the bank built up front."""
    ref = lab.reference_channel("fdpc-2x2-a")
    csit = csit_from_label(label, ref.model)
    plan = small_plan(snr_db_list=(0.0, 10.0, 20.0), solvers=("zero", "alg1"),
                      csit_list=(csit,), n_outer=3, n_inner=200)
    rows = lab.run_sweep(ref.spec, ref.model, seed=12, **plan)
    bank = build_sample_bank(ref.spec, ref.model, csit, 3, 200, lab.derived_seed(12, 0))
    want = []
    for snr in plan["snr_db_list"]:
        spec = ref.spec.at_snr_db(snr, plan["q_over_p"])
        policies = [lab.resolve_w(spec, solver) for solver in plan["solvers"]]
        (outcomes, bound), = rate._evaluate((spec,), bank.cells, (policies,), bound=True)
        for solver, outcome in zip(plan["solvers"], outcomes):
            est = rate.estimate(*outcome)
            want.append((snr, label, solver, est.rate_bits, est.stderr_bits,
                         rate.estimate(bound).rate_bits, bank.n_outer, bank.n_inner, bank.seed))
    assert [(r.snr_db, r.csit, r.solver, r.rate_bits, r.stderr_bits, r.bound_bits, r.n_outer,
             r.n_inner, r.seed) for r in rows] == want
    assert all(r.error is None for r in rows)


def test_a_policy_failing_at_one_snr_on_one_cell_marks_only_its_row(monkeypatch):
    """A policy that raises on cell 2 at 10 dB gets an error row; every other
    (csit, snr, solver) row is bitwise the row of the sweep without the failure."""
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan(snr_db_list=(0.0, 10.0, 20.0), solvers=("zero", "alg1"), n_outer=3,
                      n_inner=100, csit_list=(QuantizedCsit.designed(1, ref.model), PerfectCsit()))
    want = lab.run_sweep(ref.spec, ref.model, seed=13, **plan)
    resolve, failing_p = lab.resolve_w, ref.spec.at_snr_db(10.0, plan["q_over_p"]).P

    def resolve_failing_on_cell_2(spec, solver):
        solve = resolve(spec, solver)
        if solver != "alg1" or spec.P != failing_p:
            return solve
        cells = []

        def policy(core, cell):
            cells.append(cell)
            if len(cells) == 2:
                raise EvaluationError("cell 2 failed")
            return solve(core, cell)
        return policy

    monkeypatch.setattr(lab, "resolve_w", resolve_failing_on_cell_2)
    rows = lab.run_sweep(ref.spec, ref.model, seed=13, **plan)
    assert len(rows) == len(want) == 2 * 3 * 2
    for got, row in zip(rows, want):
        if (got.snr_db, got.solver) == (10.0, "alg1"):
            assert got.error == "cell 2 failed" and np.isnan(got.rate_bits)
            assert np.isnan(got.bound_bits)
        else:
            assert got == row and got.error is None


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_bound_failure_marks_its_group(monkeypatch, threads):
    bound = rate.CellCore.logdet_bound  # a cached_property

    def failing_at_10db(core):
        if core.spec.P > 10.0 * core.spec.N * 0.99:
            raise EvaluationError("bound failed")
        return bound.func(core)

    monkeypatch.setattr(rate.CellCore, "logdet_bound", property(failing_at_10db))
    ref = lab.reference_channel("fdpc-2x2-a")
    rows = lab.run_sweep(ref.spec, ref.model, seed=6, **small_plan(), threads=threads)
    assert len(rows) == 4
    for row in rows:
        if row.snr_db == 10.0:
            assert row.error == "bound failed" and np.isnan(row.rate_bits)
        else:
            assert row.error is None and np.isfinite(row.bound_bits)


def test_sweep_holds_one_cell_core_at_a_time(monkeypatch):
    """A group's cells are the outer loop: each core serves the bound and every
    solver, and is freed before the next cell's core is built."""
    alive, counts = [], []
    init = rate.CellCore.__init__

    def tracking_init(self, spec, draws, *args, **kwargs):
        alive[:] = [core for core in alive if core() is not None]
        alive.append(weakref.ref(self))
        counts.append(len(alive))
        init(self, spec, draws, *args, **kwargs)

    monkeypatch.setattr(rate.CellCore, "__init__", tracking_init)
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan(solvers=("zero", "alg1", "pinv"), n_outer=3, n_inner=50,
                      csit_list=(QuantizedCsit.designed(1, ref.model),))
    rows = lab.run_sweep(ref.spec, ref.model, seed=8, **plan)
    assert all(r.error is None for r in rows)
    assert counts == [1] * (2 * 3)  # two SNRs x three cells


def test_a_solver_failing_on_a_later_cell_marks_only_its_row(monkeypatch):
    """A policy that raises on cell 2 of 3 gets an error row and is not called on
    cell 3; the other solvers' rows are those of the sweep without it."""
    ref = lab.reference_channel("fdpc-2x2-a")
    resolve, calls = lab.resolve_w, []

    def resolve_failing_on_cell_2(spec, solver):
        if solver != "alg2":
            return resolve(spec, solver)
        cells, solve = [], resolve(spec, solver)
        calls.append(cells)

        def policy(core, cell):
            cells.append(cell)
            if len(cells) == 2:
                raise EvaluationError("cell 2 failed")
            return solve(core, cell)
        return policy

    def sweep(solvers):
        plan = small_plan(solvers=solvers, n_outer=3, n_inner=50,
                          csit_list=(QuantizedCsit.designed(1, ref.model),))
        return lab.run_sweep(ref.spec, ref.model, seed=8, **plan)

    monkeypatch.setattr(lab, "resolve_w", resolve_failing_on_cell_2)
    rows = sweep(("zero", "alg2", "alg1"))
    assert [len(cells) for cells in calls] == [2, 2]  # one policy per SNR
    failed = [r for r in rows if r.solver == "alg2"]
    assert len(failed) == 2
    assert all(r.error == "cell 2 failed" and np.isnan(r.rate_bits) for r in failed)
    kept = [r for r in rows if r.solver != "alg2"]
    assert lab.format_sweep_csv(kept) == lab.format_sweep_csv(sweep(("zero", "alg1")))


def test_scaling_stderr_matches_the_spread_of_the_slope_over_seeds():
    """The paired stderr of the secant is within a factor 2 of the slopes' standard
    deviation over 40 seeds; unpaired, it would be about 17 times that."""
    ref = lab.reference_channel("fdpc-3x2-b")
    slopes, stderrs = np.array([
        lab.estimate_scaling(ref.spec, ref.model, "pinv", (40.0, 60.0), seed=seed,
                             q_over_p=ref.q_over_p, n_inner=2000)
        for seed in range(40)]).T
    assert np.all(np.isfinite(stderrs)) and np.all(stderrs > 0)
    assert 0.5 <= np.median(stderrs) / np.std(slopes, ddof=1) <= 2.0


def test_csit_labels():
    assert NoCsit().label == "none"
    assert PerfectCsit().label == "perfect"
    assert QuantizedCsit(bits=2, step=1.0).label == "B=2"


def test_sweep_rows_report_the_draws_per_cell():
    """A perfect-CSIT cell holds one draw, whatever n_inner the plan asks for."""
    ref = lab.reference_channel("fdpc-2x2-a")
    plan = small_plan(snr_db_list=(0.0,), solvers=("zero",), n_outer=3, n_inner=40,
                      csit_list=(NoCsit(), PerfectCsit(), QuantizedCsit.designed(1, ref.model)))
    rows = lab.run_sweep(ref.spec, ref.model, seed=2, **plan)
    assert [(r.csit, r.n_outer, r.n_inner) for r in rows] == [
        ("none", 1, 40), ("perfect", 3, 1), ("B=1", 3, 40)]


def test_low_snr_ratio_where_the_bound_rounds_to_0_bits_is_an_evaluation_error():
    ref = lab.reference_channel("fdpc-lowsnr")
    with pytest.raises(EvaluationError, match="at -170 dB"):
        lab.low_snr_ratio(ref.spec, ref.model, (-30.0, -170.0), seed=3,
                          q_over_p=ref.q_over_p, n_inner=10)


def test_estimate_scaling_bound_slope_when_no_interference():
    spec = rand_spec(make_rng(0), 2, 2, 2, "complex", q=0.0)
    from fdpclab.model import IidComplexGaussian

    slope, _ = lab.estimate_scaling(spec, IidComplexGaussian(), "zero",
                                    (40.0, 60.0), seed=1, q_over_p=0.0, n_inner=4000)
    assert slope == pytest.approx(min(2, 2), abs=0.15)


def test_estimate_scaling_window_validation():
    ref = lab.reference_channel("fdpc-3x2-a")
    with pytest.raises(ConfigurationError):
        lab.estimate_scaling(ref.spec, ref.model, "pinv", (10.0, 20.0), seed=0,
                             q_over_p=ref.q_over_p, n_inner=100)


def test_predicted_scaling_uses_covariance_ranks():
    assert lab.predicted_scaling(lab.reference_channel("fdpc-3x2-a").spec) == 1
    assert lab.predicted_scaling(lab.reference_channel("fdpc-3x2-b").spec) == 2
    assert lab.predicted_scaling(lab.reference_channel("fdpc-3x2-c").spec) == 0


def test_low_snr_ratio_is_one_when_no_interference():
    spec = rand_spec(make_rng(2), 2, 2, 2, "real", q=0.0)
    from fdpclab.model import IidRealGaussian

    rows = lab.low_snr_ratio(spec, IidRealGaussian(), [0.0, -10.0], seed=3,
                             q_over_p=0.0, n_inner=500)
    for _, ratio, _ in rows:
        assert ratio == pytest.approx(1.0, abs=1e-9)


def test_gap_to_bound_zero_interference_gap_is_zero():
    spec = rand_spec(make_rng(4), 2, 2, 1, "real", q=0.0)
    from fdpclab.model import IidRealGaussian

    gap, se = gap_to_bound(spec, IidRealGaussian(), 10.0, "zero", seed=5, n_inner=500)
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_gap_shrinks_with_snr_on_aligned_reference():
    ref = lab.reference_channel("fdpc-2x2-b")
    gap10, _ = gap_to_bound(ref.spec, ref.model, 10.0, "alg1", seed=6, n_inner=4000)
    gap40, _ = gap_to_bound(ref.spec, ref.model, 40.0, "alg1", seed=6, n_inner=4000)
    assert gap40 < gap10


def test_registry_names_and_lookup():
    names = lab.reference_names()
    for expected in ("fdpc-2x2-a", "fdpc-2x2-b", "fdpc-3x2-a", "fdpc-3x2-b",
                     "fdpc-lowsnr", "fdpc-fig4-1", "fdpc-fig4-2"):
        assert expected in names
    with pytest.raises(ConfigurationError):
        lab.reference_channel("fdpc-nope")
    ref = lab.reference_channel("fdpc-lowsnr")
    assert ref.spec.field == "real" and ref.q_over_p == 1.0


def test_importing_the_cli_builds_no_reference_channel():
    """A reference is built on its first lookup; importing the CLI builds no spec,
    and loads numpy.random, which the samplers use."""
    code = """
import sys
from fdpclab import model
built = []
post_init = model.ChannelSpec.__post_init__
model.ChannelSpec.__post_init__ = lambda self: (built.append(self), post_init(self))[1]
import fdpclab.cli
from fdpclab import lab
assert built == [] and lab.reference_channel.cache_info().currsize == 0, built
assert len(lab.reference_names()) == 11 and built == []
assert "numpy.random" in sys.modules
lab.reference_channel("fdpc-2x2-a")
assert len(built) == 1
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_reference_matrices_keep_their_bytes():
    """Every reference's ``T``, ``sigma_s`` and ``sigma_z``, in name order, hash to the
    bytes the references were built with when the registry was built at import."""
    digest = hashlib.sha256()
    for name in lab.reference_names():
        spec = lab.reference_channel(name).spec
        for a in (spec.T, spec.sigma_s, spec.sigma_z):
            digest.update(a.tobytes())
    assert digest.hexdigest() == (
        "477b6196df2494fbf1535cbe09da0f6f67fe1feb6357ee0031a42bc2134e15a0")


def test_derived_seed_stability():
    assert lab.derived_seed(7, 1) == lab.derived_seed(7, 1)
    assert lab.derived_seed(7, 1) != lab.derived_seed(7, 2)
    assert lab.derived_seed(8, 1) != lab.derived_seed(7, 1)
