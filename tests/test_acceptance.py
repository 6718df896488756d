"""Acceptance suite.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all).
Desk scale: 20000 inner draws per cell and 200 outer cells for quantized
feedback.  Every computation below is a deterministic function of the seeds
written here; criterion 11 verifies byte-level reproducibility and thread
independence on representatives covering every subsystem.
"""

import numpy as np

from fdpclab import covopt, inflation, lab, rate
from fdpclab.linalg import ct, logdet_pd
from fdpclab.model import (IidComplexGaussian, IidRealGaussian, NoCsit,
                           PerfectCsit, QuantizedCsit, build_sample_bank)

from conftest import (bank_bytes, gap_to_bound, lagrangian, make_rng, paired_estimates,
                      rand_matrix, rand_spec, with_factor)

N_INNER = 20000
N_OUTER = 200


def criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {description} {detail}"


def combined_se(a, b, cov=0.0):
    return float(np.sqrt(max(a ** 2 + b ** 2 - 2.0 * cov, 0.0)))


def test_criterion_1_zero_interference_collapse():
    rng = make_rng(1001)
    worst = 0.0
    for k in range(50):
        field = "real" if k % 2 == 0 else "complex"
        t = int(rng.integers(1, 5))
        r = int(rng.integers(1, 4))
        m = int(rng.integers(1, t + 1))
        spec = rand_spec(make_rng(2000 + k), t, r, m, field, q=0.0)
        H = rand_matrix(rng, (20, r, t), field)
        W = rand_matrix(rng, (m, t), field)
        ld = logdet_pd(rate.build_M(spec, W, H))
        worst = max(worst, float(np.abs(ld - logdet_pd(spec.sigma_z)).max()))
        from conftest import degenerate_bank

        bank = degenerate_bank(H)
        r_est = rate.achievable_rate(spec, W, bank)
        c_est = rate.no_interference_bound(spec, bank)
        worst = max(worst, abs(r_est.rate_bits - c_est.rate_bits))
    criterion(1, "zero-interference collapse (50 random specs, both fields)",
              worst <= 1e-9, f"max deviation {worst:.2e}")


def test_criterion_2_perfect_csit_equivalence():
    worst = None
    for t, r, m in ((2, 2, 2), (3, 2, 2)):
        spec0 = rand_spec(make_rng(3000 + t), t, r, m, "complex")
        bank = build_sample_bank(spec0, IidComplexGaussian(), PerfectCsit(),
                                 N_OUTER, 1, seed=3100 + t)
        for snr in (0.0, 10.0, 20.0):
            spec = spec0.at_snr_db(snr, q_over_p=1.0)
            r_est, c_est, cov = paired_estimates(spec, lab.resolve_w(spec, "perfect"), bank)
            gap = abs(r_est.rate_bits - c_est.rate_bits)
            tol = max(2.0 * combined_se(r_est.stderr_bits, c_est.stderr_bits, cov), 1e-9)
            if worst is None or gap / tol > worst[0]:
                worst = (gap / tol, gap, t, r, snr)
    criterion(2, "perfect-CSIT rate equals the bound (2x2, 3x2 complex; 0/10/20 dB)",
              worst[0] <= 1.0,
              f"worst |R-C| {worst[1]:.2e} bits at {worst[2]}x{worst[3]} {worst[4]:g} dB")


def test_criterion_3_scaling_factors():
    cases = (("fdpc-3x2-a", 1), ("fdpc-3x2-b", 2), ("fdpc-3x2-c", 0))
    details = []
    ok = True
    for name, predicted in cases:
        ref = lab.reference_channel(name)
        slope, _ = lab.estimate_scaling(ref.spec, ref.model, "pinv", (40.0, 60.0),
                                        seed=4000, q_over_p=1.0, n_inner=N_INNER)
        theory = lab.predicted_scaling(ref.spec)
        ok = ok and theory == predicted and abs(slope - predicted) <= 0.15
        details.append(f"{name}: {slope:.3f} vs {predicted}")
    criterion(3, "largest-scaling slopes match the rank formula (W = T+, Q/P = 1)",
              ok, "; ".join(details))


def test_criterion_4_high_snr_identity_choice():
    ref = lab.reference_channel("fdpc-3x2-pd")
    spec = ref.spec.at_snr_db(40.0, ref.q_over_p)
    bank = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, N_INNER, seed=4100)
    w_star = inflation.w_raw_to_factored(spec, inflation.w_high_snr_pd(spec))
    best = rate.achievable_rate(spec, w_star, bank)
    rng = make_rng(4200)
    candidates = {"zero": inflation.w_zero(spec), "pinv": inflation.w_pinv(spec)}
    for k in range(5):
        candidates[f"random-{k}"] = rand_matrix(rng, (3, 3), "complex")
    res = inflation.solve_w(rate.CellCore(spec, bank.cells[0].draws), "alg1")
    candidates["alg1"] = res.W
    ok = True
    margin = []
    for name, w in candidates.items():
        est = rate.achievable_rate(spec, w, bank)
        tol = 2.0 * max(best.stderr_bits, est.stderr_bits)
        ok = ok and best.rate_bits >= est.rate_bits - tol
        margin.append(f"{name} {best.rate_bits - est.rate_bits:+.3f}")
    criterion(4, "high-SNR identity choice dominates all candidates (p.d. 3x2, 40 dB)",
              ok, "; ".join(margin))


def test_criterion_5_low_snr_ratio():
    ref = lab.reference_channel("fdpc-lowsnr")
    snrs = [0.0, -5.0, -10.0, -15.0, -20.0, -25.0, -30.0]
    rows = lab.low_snr_ratio(ref.spec, ref.model, snrs, seed=4300,
                             q_over_p=ref.q_over_p, n_inner=N_INNER)
    ratios = [row[1] for row in rows]
    ses = [row[2] for row in rows]
    monotone = all(ratios[i + 1] >= ratios[i] - 2.0 * combined_se(ses[i], ses[i + 1])
                   for i in range(len(ratios) - 1))
    final_ok = abs(1.0 - ratios[-1]) < 0.05
    criterion(5, "zero-inflation ratio climbs to 1 at low SNR (2x2 real, Q/P = 1)",
              monotone and final_ok,
              f"ratio(-30 dB) = {ratios[-1]:.4f}, monotone = {monotone}")


def test_criterion_6_closed_form_matches_single_sweep(monkeypatch):
    ref = lab.reference_channel("fdpc-fig4-1")
    spec = ref.spec.at_snr_db(10.0, ref.q_over_p)
    bank = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, N_INNER, seed=4400)
    H = bank.cells[0].draws
    monkeypatch.setattr(inflation, "MAX_ITERS", 1)
    res = inflation.alg1_solve(rate.CellCore(spec, H), inflation.w_zero(spec))
    # the m = 1 closed form, coded independently of the row-update machinery
    T, ss, sz = spec.T, spec.sigma_s, spec.sigma_z
    sig = T @ ct(T) + ss
    rx = np.einsum("nrk,kl,nsl->nrs", H, sig, np.conj(H)) + sz
    e_h = np.einsum("nrt,nrs,nsu->tu", np.conj(H), np.linalg.inv(rx), H) / len(H)
    closed = (ct(T) @ e_h @ ss) @ np.linalg.pinv(ss - ss @ e_h @ ss, rcond=1e-10)
    rel = float(np.abs(res.W - closed).max() / max(np.abs(closed).max(), 1e-30))
    criterion(6, "one row-solver sweep equals the m = 1 closed form",
              rel <= 1e-8, f"relative deviation {rel:.2e}")


def test_criterion_7_fixed_point_stationarity(monkeypatch):
    ref = lab.reference_channel("fdpc-fig4-2")
    spec = ref.spec.at_snr_db(10.0, ref.q_over_p)
    bank = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, N_INNER, seed=4500)
    H = bank.cells[0].draws
    monkeypatch.setattr(inflation, "TOL", 1e-8)
    monkeypatch.setattr(inflation, "MAX_ITERS", 500)
    core = rate.CellCore(spec, H)
    res = inflation.alg2_solve(core, inflation.best_initialization(core))
    g = inflation.alg2_map(core, res.W)
    resid = float(np.linalg.norm(res.W - g) / max(1.0, np.linalg.norm(res.W)))
    obj0 = rate.objective(spec, res.W, H)
    scale = max(1.0, abs(obj0))
    rng = make_rng(4600)
    step = 1e-5
    worst_dd = 0.0
    for _ in range(20):
        d = rand_matrix(rng, res.W.shape, "complex")
        d /= np.linalg.norm(d)
        dd = (rate.objective(spec, res.W + step * d, H)
              - rate.objective(spec, res.W - step * d, H)) / (2 * step)
        worst_dd = max(worst_dd, abs(dd))
    ok = res.converged and resid < 1e-5 and worst_dd < 1e-3 * scale
    criterion(7, "fixed-point solver reaches stationarity",
              ok, f"residual {resid:.2e}, max directional derivative {worst_dd:.2e}")


def test_criterion_8_feedback_monotonicity_and_bound_gap():
    ref = lab.reference_channel("fdpc-2x2-a")
    csits = (NoCsit(), QuantizedCsit.designed(1, ref.model),
             QuantizedCsit.designed(2, ref.model))
    plan = dict(snr_db_list=(10.0,), q_over_p=ref.q_over_p,
                solvers=("alg1",), csit_list=csits, include_bound=True,
                n_outer=N_OUTER, n_inner=N_INNER)
    rows = {row.csit: row for row in lab.run_sweep(ref.spec, ref.model, seed=4700, **plan)}
    mono = (rows["B=2"].rate_bits >= rows["B=1"].rate_bits
            - 2 * max(rows["B=2"].stderr_bits, rows["B=1"].stderr_bits)
            and rows["B=1"].rate_bits >= rows["none"].rate_bits
            - 2 * max(rows["B=1"].stderr_bits, rows["none"].stderr_bits))

    ref_b = lab.reference_channel("fdpc-2x2-b")
    gap40, _ = gap_to_bound(ref_b.spec, ref_b.model, 40.0, "alg1", seed=4800, n_inner=N_INNER)
    gap10, _ = gap_to_bound(ref_b.spec, ref_b.model, 10.0, "alg1", seed=4800, n_inner=N_INNER)
    ok = mono and gap40 < 0.1 and gap40 < gap10
    criterion(8, "feedback monotonicity and vanishing bound gap",
              ok,
              f"rates none/B1/B2 = {rows['none'].rate_bits:.3f}/"
              f"{rows['B=1'].rate_bits:.3f}/{rows['B=2'].rate_bits:.3f}; "
              f"gap 40 dB {gap40:.4f} < gap 10 dB {gap10:.4f}")


def test_criterion_9_algorithm_parity():
    worst = 0.0
    for name in ("fdpc-fig4-1", "fdpc-fig4-2"):
        ref = lab.reference_channel(name)
        bank = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, N_INNER, seed=4900)
        for snr in (0.0, 10.0, 20.0):
            spec = ref.spec.at_snr_db(snr, ref.q_over_p)
            r1 = rate.achievable_rate(spec, lab.resolve_w(spec, "alg1"), bank)
            r2 = rate.achievable_rate(spec, lab.resolve_w(spec, "alg2"), bank)
            worst = max(worst, abs(r1.rate_bits - r2.rate_bits))
    criterion(9, "row solver and fixed-point solver achieve near-equal rates",
              worst <= 0.2, f"max |difference| {worst:.4f} bits")


def test_criterion_10_covariance_optimization():
    # (a) gradient correctness on a real 2x2 instance
    rng = make_rng(5000)
    spec_g = rand_spec(rng, 2, 2, 2, "real")
    bank_g = build_sample_bank(spec_g, IidRealGaussian(), NoCsit(), 1, 250, seed=5100)
    H = bank_g.cells[0].draws
    T = rng.standard_normal((2, 2)) * 0.5
    W = rng.standard_normal((2, 2)) * 0.3
    lam = 0.7
    residual = covopt.gradient_map(rate.CellCore(with_factor(spec_g, T), H), W) - lam * T

    def penalized_rate(Tx):
        return lagrangian(rate.CellCore(with_factor(spec_g, Tx), H), W, lam)

    fd = np.zeros_like(T)
    h = 1e-5
    for i in range(2):
        for j in range(2):
            tp, tm = T.copy(), T.copy()
            tp[i, j] += h
            tm[i, j] -= h
            fd[i, j] = (penalized_rate(tp) - penalized_rate(tm)) / (2 * h)
    rel = float(np.linalg.norm(fd - 2 * residual) / np.linalg.norm(fd))
    grad_ok = rel < 1e-3

    # (b) water-filling gain on correlated Rayleigh 3x3
    ref = lab.reference_channel("fdpc-cov-3x3")
    spec_c = ref.spec.at_snr_db(0.0, ref.q_over_p)
    bank_c = build_sample_bank(ref.spec, ref.model, NoCsit(), 1, N_INNER, seed=5200)
    joint = covopt.joint_optimize(spec_c, bank_c, rank_bound=3, outer_iters=25,
                                  solver="alg1")
    res_w = inflation.solve_w(rate.CellCore(spec_c, bank_c.cells[0].draws), "alg1")
    iso = rate.achievable_rate(spec_c, res_w.W, bank_c)
    wf_ok = joint.rate_bits >= iso.rate_bits - 2 * max(joint.stderr_bits,
                                                       iso.stderr_bits)

    # (c) rank-constrained sweep on 3x2
    ref_r = lab.reference_channel("fdpc-rank-3x2")
    results = {}
    for snr in (-10.0, 30.0):
        spec_r = ref_r.spec.at_snr_db(snr, ref_r.q_over_p)
        bank_r = build_sample_bank(ref_r.spec, ref_r.model, NoCsit(), 1, N_INNER,
                                   seed=5300)
        results[snr] = {
            m: covopt.joint_optimize(spec_r, bank_r, rank_bound=m, outer_iters=25,
                                     solver="alg1")
            for m in (1, 3)
        }
    low = results[-10.0]
    high = results[30.0]
    low_gap = (low[3].rate_bits - low[1].rate_bits) / low[3].rate_bits
    high_sep = (high[3].rate_bits - high[1].rate_bits
                > 2 * combined_se(high[3].stderr_bits, high[1].stderr_bits))
    rank_ok = low_gap <= 0.02 and high_sep

    ok = grad_ok and wf_ok and rank_ok
    criterion(10, "covariance optimization: gradients, water-filling, rank sweep",
              ok,
              f"gradient rel err {rel:.1e}; joint {joint.rate_bits:.3f} vs identity "
              f"{iso.rate_bits:.3f}; low-SNR rank gap {low_gap:.3%}, "
              f"30 dB gain {high[3].rate_bits - high[1].rate_bits:.2f} bits")


def test_criterion_11_determinism():
    # banks are bytewise reproducible
    ref = lab.reference_channel("fdpc-2x2-a")
    csit = QuantizedCsit.designed(2, ref.model)
    b1 = build_sample_bank(ref.spec, ref.model, csit, 20, 50, seed=6000)
    b2 = build_sample_bank(ref.spec, ref.model, csit, 20, 50, seed=6000)
    banks_ok = bank_bytes(b1) == bank_bytes(b2)

    # slope estimates are bit-identical across runs
    ref3 = lab.reference_channel("fdpc-3x2-b")
    s1 = lab.estimate_scaling(ref3.spec, ref3.model, "pinv", (40.0, 60.0),
                              seed=6100, q_over_p=ref3.q_over_p, n_inner=4000)
    s2 = lab.estimate_scaling(ref3.spec, ref3.model, "pinv", (40.0, 60.0),
                              seed=6100, q_over_p=ref3.q_over_p, n_inner=4000)
    slope_ok = np.array(s1).tobytes() == np.array(s2).tobytes()  # slope and stderr

    # sweeps (solvers included) are byte-identical and thread-count independent
    plan = dict(snr_db_list=(0.0, 10.0), q_over_p=1.0,
                solvers=("alg1", "alg2", "pinv"),
                csit_list=(NoCsit(), csit), include_bound=True,
                n_outer=10, n_inner=500)
    csv1 = lab.format_sweep_csv(lab.run_sweep(ref.spec, ref.model, seed=6200, **plan))
    csv2 = lab.format_sweep_csv(lab.run_sweep(ref.spec, ref.model, seed=6200, **plan))
    csv4 = lab.format_sweep_csv(lab.run_sweep(ref.spec, ref.model, seed=6200, **plan,
                                              threads=4))
    sweep_ok = csv1 == csv2 == csv4

    # joint optimization reruns bit-identically
    ref_r = lab.reference_channel("fdpc-rank-3x2")
    spec_r = ref_r.spec.at_snr_db(0.0, ref_r.q_over_p)
    bank_r = build_sample_bank(ref_r.spec, ref_r.model, NoCsit(), 1, 1500, seed=6300)
    j1 = covopt.joint_optimize(spec_r, bank_r, rank_bound=3, outer_iters=8, solver="alg1")
    j2 = covopt.joint_optimize(spec_r, bank_r, rank_bound=3, outer_iters=8, solver="alg1")
    joint_ok = (np.asarray(j1.rate_trace).tobytes() == np.asarray(j2.rate_trace).tobytes()
                and j1.T.tobytes() == j2.T.tobytes())

    ok = banks_ok and slope_ok and sweep_ok and joint_ok
    criterion(11, "byte-reproducible and thread-count independent",
              ok,
              f"banks {banks_ok}, slopes {slope_ok}, sweeps {sweep_ok}, joint {joint_ok}")
