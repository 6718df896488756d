import numpy as np
import pytest

from fdpclab import covopt, inflation, rate
from fdpclab.errors import ConfigurationError, EvaluationError
from fdpclab.linalg import ct
from fdpclab.model import (ChannelSpec, IidComplexGaussian, IidRealGaussian, NoCsit,
                           build_sample_bank)
from fdpclab.rate import CellCore

from conftest import (IndefiniteCore, lagrangian, make_rng, rand_matrix, rand_psd, rand_spec,
                      with_factor)


def central_diff_gradient(fun, T, step=1e-5):
    """Entrywise central differences, complex-aware (real + imaginary parts)."""
    grad = np.zeros_like(T)
    it = np.nditer(np.zeros(T.shape), flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        parts = (1.0, 1j) if np.iscomplexobj(T) else (1.0,)
        for unit in parts:
            tp = T.copy()
            tp[idx] += step * unit
            tm = T.copy()
            tm[idx] -= step * unit
            grad[idx] += unit * (fun(tp) - fun(tm)) / (2 * step)
    return grad


def test_gradient_matches_finite_differences_real():
    rng = make_rng(0)
    spec = rand_spec(rng, 2, 2, 2, "real")
    bank = build_sample_bank(spec, IidRealGaussian(), NoCsit(), 1, 250, seed=1)
    H = bank.cells[0].draws
    T = rng.standard_normal((2, 2)) * 0.5
    W = rng.standard_normal((2, 2)) * 0.3
    lam = 0.7
    residual = covopt.gradient_map(CellCore(with_factor(spec, T), H), W) - lam * T
    fd = central_diff_gradient(
        lambda x: lagrangian(CellCore(with_factor(spec, x), H), W, lam), T)
    # real parametrization carries a factor 2 relative to the conjugate map
    assert np.linalg.norm(fd - 2 * residual) / np.linalg.norm(fd) < 1e-3


def test_gradient_matches_finite_differences_complex():
    rng = make_rng(1)
    spec = rand_spec(rng, 2, 2, 2, "complex")
    bank = build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 200, seed=2)
    H = bank.cells[0].draws
    T = rand_matrix(rng, (2, 2), "complex") * 0.5
    W = rand_matrix(rng, (2, 2), "complex") * 0.3
    lam = 0.9
    residual = covopt.gradient_map(CellCore(with_factor(spec, T), H), W) - lam * T
    fd = central_diff_gradient(
        lambda x: lagrangian(CellCore(with_factor(spec, x), H), W, lam), T)
    assert np.linalg.norm(fd - 2 * residual) / np.linalg.norm(fd) < 1e-3


def test_gradient_reduces_to_mutual_information_gradient_when_no_interference():
    rng = make_rng(2)
    spec = rand_spec(rng, 2, 2, 2, "real", q=0.0)
    H = rng.standard_normal((300, 2, 2))
    T = rng.standard_normal((2, 2)) * 0.6
    W = rng.standard_normal((2, 2))
    g = covopt.gradient_map(CellCore(with_factor(spec, T), H), W)

    def bound_nats(Tm):
        cov = np.einsum("nrk,kl,nsl->nrs", H, Tm @ Tm.T, H) + spec.sigma_z
        return float(np.mean(np.linalg.slogdet(cov)[1]))

    fd = central_diff_gradient(bound_nats, T)
    assert np.linalg.norm(fd - 2 * g) / np.linalg.norm(fd) < 1e-3


def test_t_step_map_scaling_and_validation():
    rng = make_rng(3)
    spec = rand_spec(rng, 2, 2, 2, "real")
    H = rng.standard_normal((50, 2, 2))
    T = rng.standard_normal((2, 2)) * 0.4
    W = rng.standard_normal((2, 2)) * 0.2
    core = CellCore(with_factor(spec, T), H)
    t_plus, lam = covopt.t_step_map(core, W)
    assert lam > 0
    assert np.allclose(lam * t_plus, covopt.gradient_map(core, W))
    assert covopt.solve_lambda(core, W) == lam
    # T = 0 and W = 0 give C = 0, so g = 0 and no multiplier exists
    with pytest.raises(EvaluationError):
        covopt.t_step_map(CellCore(with_factor(spec, np.zeros((2, 2))), H), np.zeros((2, 2)))


@pytest.mark.parametrize("W, message", [
    (np.array([[0.1 + 0.2j, 0.0]]), "complex inflation factor"),  # not the gradient at W.real
    (np.zeros((2, 2)), "shape"),
], ids=["complex-on-real-spec", "misshaped"])
def test_gradient_map_validates_w(W, message):
    rng = make_rng(5)
    core = CellCore(rand_spec(rng, 2, 2, 1, "real"), rng.standard_normal((20, 2, 2)))
    with pytest.raises(ConfigurationError, match=message):
        covopt.gradient_map(core, W)


def test_solve_lambda_meets_power_constraint():
    rng = make_rng(4)
    spec = rand_spec(rng, 3, 2, 2, "complex").at_snr_db(5.0, 1.0)
    H = rand_matrix(rng, (100, 2, 3), "complex")
    T = rand_matrix(rng, (3, 2), "complex")
    T *= np.sqrt(spec.P / np.trace(T @ ct(T)).real)
    W = rand_matrix(rng, (2, 3), "complex") * 0.2
    core = CellCore(with_factor(spec, T), H)
    t_plus, lam = covopt.t_step_map(core, W)
    assert lam > 0
    assert covopt.solve_lambda(core, W) == lam
    trace = float(np.trace(t_plus @ ct(t_plus)).real)
    assert spec.P * (1 - 1e-6) <= trace <= spec.P * (1 + 1e-6)


def test_solve_lambda_is_exact_closed_form():
    rng = make_rng(4)
    spec = rand_spec(rng, 3, 2, 2, "complex").at_snr_db(5.0, 1.0)
    H = rand_matrix(rng, (100, 2, 3), "complex")
    T = rand_matrix(rng, (3, 2), "complex")
    T *= np.sqrt(spec.P / np.trace(T @ ct(T)).real)
    W = rand_matrix(rng, (2, 3), "complex") * 0.2
    core = CellCore(with_factor(spec, T), H)
    t_plus, lam = covopt.t_step_map(core, W)
    assert covopt.solve_lambda(core, W) == lam
    trace = float(np.trace(t_plus @ ct(t_plus)).real)
    assert abs(trace - spec.P) <= 1e-12 * spec.P


def test_solve_lambda_rejects_zero_gradient():
    rng = make_rng(5)
    spec = rand_spec(rng, 2, 2, 2, "real")
    H = rng.standard_normal((40, 2, 2))
    # T = 0 and W = 0 give C = 0, so g = E[K C* S^{-1} (I - C K T)] = 0
    with pytest.raises(EvaluationError):
        covopt.solve_lambda(CellCore(with_factor(spec, np.zeros((2, 2))), H), np.zeros((2, 2)))


def test_joint_optimize_isotropic_when_no_interference():
    """For i.i.d. fading and Q = 0 the scaled identity is already optimal."""
    base = ChannelSpec.create(T=np.sqrt(1 / 3) * np.eye(3),
                              sigma_s=np.zeros((3, 3)), sigma_z=np.eye(3),
                              field="complex")
    spec = base.at_snr_db(10.0, 0.0)
    bank = build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 3000, seed=6)
    res = covopt.joint_optimize(spec, bank, rank_bound=3, outer_iters=20, solver="alg1")
    iso = rate.achievable_rate(spec, inflation.w_zero(spec), bank)
    assert res.rate_bits >= iso.rate_bits - 2 * max(res.stderr_bits, iso.stderr_bits)
    tr = float(np.trace(res.T @ ct(res.T)).real)
    assert tr <= spec.P * (1 + 1e-6)


def test_joint_optimize_rank_monotone_in_m():
    rng = make_rng(7)
    ss = rand_psd(rng, 3, 2, "complex", trace=2.0)
    base = ChannelSpec.create(T=np.sqrt(2 / 3) * np.eye(3), sigma_s=ss, sigma_z=np.eye(2),
                              field="complex")
    spec = base.at_snr_db(10.0, q_over_p=1.0)
    bank = build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 3000, seed=8)
    rates = []
    ses = []
    for m in (1, 2, 3):
        res = covopt.joint_optimize(spec, bank, rank_bound=m, outer_iters=20, solver="alg1")
        rates.append(res.rate_bits)
        ses.append(res.stderr_bits)
    noise = 2 * max(ses)
    assert rates[1] >= rates[0] - noise
    assert rates[2] >= rates[1] - noise


def test_joint_result_reproducible_on_fresh_bank():
    rng = make_rng(9)
    ss = rand_psd(rng, 2, 2, "complex", trace=2.0)
    base = ChannelSpec.create(T=np.eye(2), sigma_s=ss, sigma_z=np.eye(2), field="complex")
    spec = base.at_snr_db(5.0, q_over_p=1.0)
    bank = build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 4000, seed=10)
    res = covopt.joint_optimize(spec, bank, rank_bound=2, outer_iters=15, solver="alg1")
    fresh = build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 4000, seed=11)
    spec_t = with_factor(spec, res.T)
    redo = rate.achievable_rate(spec_t, res.W, fresh)
    combined = np.sqrt(res.stderr_bits ** 2 + redo.stderr_bits ** 2)
    assert abs(redo.rate_bits - res.rate_bits) <= 3 * combined


def test_joint_optimize_computes_one_gradient_per_t_step(monkeypatch):
    calls = {"gradient_map": 0, "t_step_map": 0}

    def counting(name):
        fun = getattr(covopt, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fun(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(covopt, name, counting(name))
    rng = make_rng(15)
    ss = rand_psd(rng, 2, 2, "complex", trace=2.0)
    base = ChannelSpec.create(T=np.eye(2), sigma_s=ss, sigma_z=np.eye(2), field="complex")
    spec = base.at_snr_db(10.0, q_over_p=1.0)
    bank = build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 500, seed=16)
    res = covopt.joint_optimize(spec, bank, rank_bound=2, outer_iters=6, solver="alg1")
    # every outer iteration but a converged last one takes one T-step
    assert calls["t_step_map"] == len(res.rate_trace) - int(res.converged) > 0
    assert calls["gradient_map"] == calls["t_step_map"]


def test_joint_optimize_rejects_multicell_banks():
    from fdpclab.model import PerfectCsit

    spec = rand_spec(make_rng(12), 2, 2, 2, "complex")
    bank = build_sample_bank(spec, IidComplexGaussian(), PerfectCsit(), 4, 1, seed=0)
    with pytest.raises(ConfigurationError):
        covopt.joint_optimize(spec, bank, rank_bound=2, outer_iters=30, solver="alg1")


def test_joint_result_best_iterate_dominates_trace():
    rng = make_rng(13)
    ss = rand_psd(rng, 2, 2, "complex", trace=2.0)
    base = ChannelSpec.create(T=np.eye(2), sigma_s=ss, sigma_z=np.eye(2), field="complex")
    spec = base.at_snr_db(10.0, q_over_p=1.0)
    bank = build_sample_bank(spec, IidComplexGaussian(), NoCsit(), 1, 2000, seed=14)
    res = covopt.joint_optimize(spec, bank, rank_bound=2, outer_iters=12, solver="alg1")
    assert res.rate_bits == pytest.approx(max(res.rate_trace))


def test_gradient_of_indefinite_schur_complement_is_an_evaluation_error():
    # the CLI reports EvaluationError as "error: ..." with exit code 3
    spec = rand_spec(make_rng(43), 2, 2, 2, "complex")
    H = rand_matrix(make_rng(44), (4, 2, 2), "complex")
    with pytest.raises(EvaluationError) as exc:
        covopt.gradient_map(IndefiniteCore(spec, H), inflation.w_pinv(spec))
    assert exc.value.sample_index == IndefiniteCore.bad
