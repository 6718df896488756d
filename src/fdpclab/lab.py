"""Experiment harness: SNR sweeps, slope estimation, low-SNR ratios, CSV output.

A registry of named reference channels pins one instance of each
qualitative regime (interference rank versus input rank, feedback
resolution, correlation structure); tests and the CLI refer to them by
name so results stay stable across runs.  A reference is built on its
first lookup.

Every sweep cell is reproducible from (seed, config) alone: one bank per
CSIT setting (fading draws do not depend on the transmit power, so the same
bank serves every SNR — common random numbers).  Every rate, bound, slope
and ratio is a reduction of :func:`evaluate_group`, one pass over a bank's
cells at every SNR: per CSIT setting of a sweep, and once for a slope or a
low-SNR ratio.  The pass draws each cell, evaluates it at every SNR and
drops it, so a sweep holds one cell at a time, never a bank;
:func:`fdpclab.rate._evaluate` owns the workspace its cell cores share.
"""

import csv
import functools
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError, FdpcError
from .inflation import CLOSED_FORMS, SOLVERS, solve_w, theoretical_scaling
from .linalg import numerical_rank
from .model import (COMPLEX, REAL, ChannelSpec, CorrelatedRayleigh, IidComplexGaussian,
                    IidRealGaussian, NoCsit, exp_correlation, random_factor,
                    random_psd, sample_cells)
from .rate import _evaluate, estimate, paired_cov

CSV_HEADER = ["snr_db", "csit", "solver", "rate_bits", "stderr_bits",
              "bound_bits", "n_outer", "n_inner", "seed"]


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    csit: str
    solver: str
    rate_bits: float
    stderr_bits: float
    bound_bits: float
    n_outer: int
    n_inner: int
    seed: int
    error: str | None = None     # not serialized; nan fields mark error rows


def derived_seed(seed, *key):
    """Stable 63-bit sub-seed for a nested experiment component."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def resolve_w(spec, solver):
    """W policy of a solver name: a closed form's (m, t) array, used for every
    cell, else the per-cell solve ``(core, cell) -> solve_w(core, solver, cell)``."""
    if solver in CLOSED_FORMS:
        return CLOSED_FORMS[solver](spec)
    if solver not in SOLVERS:
        raise ConfigurationError(f"unknown solver {solver!r}")
    return lambda core, cell: solve_w(core, solver, cell)


def evaluate_group(specs, cells, solvers, *, bound):
    """The named solvers' rates, and the bound if asked, at each spec in one pass over the cells.

    Returns one ``(outcomes, bound_basis)`` per spec as :func:`fdpclab.rate._evaluate`
    does, ``outcomes[k]`` of ``solvers[k]``; :func:`fdpclab.rate.estimate` reduces one.
    """
    policies = [[resolve_w(spec, solver) for solver in solvers] for spec in specs]
    return _evaluate(specs, cells, policies, bound=bound)


def run_sweep(base_spec, model, seed, *, snr_db_list, q_over_p, solvers, csit_list,
              include_bound, n_outer, n_inner, threads=1):
    """Evaluate every (snr, csit, solver) cell of the lists, solvers named as in
    :data:`fdpclab.inflation.SOLVERS`.

    The lists and names are checked before any cell is drawn.  The bank of
    ``csit_list[i]`` has ``n_outer`` cells of ``n_inner`` draws and the seed
    ``derived_seed(seed, i)``; ``sigma_s`` is scaled to ``q_over_p`` times P.
    The unit of work is a CSIT setting, one :func:`evaluate_group` call at
    every SNR, which holds one cell at a time; ``threads > 1`` runs the
    settings on a pool.
    Failures become error rows (nan rates) and the sweep continues: a solver
    failure marks its row, a spec or bound failure every row of its SNR.
    Rows are in csit, snr, solver order regardless of thread count.
    """
    if not snr_db_list or not solvers or not csit_list:
        raise ConfigurationError("sweep plan lists must be nonempty")
    if not np.isfinite(snr_db_list).all():
        raise ConfigurationError(f"SNRs must be finite, got {snr_db_list}")
    if not 0 <= q_over_p < np.inf:
        raise ConfigurationError("q_over_p must be finite and >= 0")
    unknown = [s for s in solvers if s not in SOLVERS]
    if unknown:
        raise ConfigurationError(f"unknown solver(s) {', '.join(map(repr, unknown))};"
                                 f" known: {', '.join(SOLVERS)}")
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    specs = []
    for snr in snr_db_list:
        try:
            specs.append(base_spec.at_snr_db(float(snr), q_over_p))
        except FdpcError as exc:  # a spec failure marks every row of its SNR
            specs.append(exc)
    built = [spec for spec in specs if not isinstance(spec, FdpcError)]

    def sweep_csit(ci):
        csit, bank_seed = csit_list[ci], derived_seed(seed, ci)
        cells = sample_cells(base_spec, model, csit, n_outer, n_inner, bank_seed)
        groups = iter(evaluate_group(built, cells, solvers, bound=include_bound))

        def row(snr, solver, rate_bits=np.nan, stderr_bits=np.nan, bound_bits=np.nan,
                error=None):
            return SweepRow(snr_db=float(snr), csit=csit.label, solver=solver,
                            rate_bits=rate_bits, stderr_bits=stderr_bits, bound_bits=bound_bits,
                            n_outer=len(cells), n_inner=cells.n_inner, seed=bank_seed, error=error)

        rows = []
        for snr, spec in zip(snr_db_list, specs):
            failed = isinstance(spec, FdpcError)
            outcomes, bound_basis = ([(spec,)] * len(solvers), None) if failed else next(groups)
            for solver, outcome in zip(solvers, outcomes):
                try:  # a bound failure is every outcome's, so the bound is read after them
                    est = estimate(*outcome)
                    bound = estimate(bound_basis).rate_bits if include_bound else np.nan
                    rows.append(row(snr, solver, est.rate_bits, est.stderr_bits, bound))
                except FdpcError as exc:
                    rows.append(row(snr, solver, error=str(exc)))
        return rows

    if threads == 1:
        return [row for ci in range(len(csit_list)) for row in sweep_csit(ci)]
    from concurrent.futures import ThreadPoolExecutor  # loaded only when a pool runs

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [row for rows in pool.map(sweep_csit, range(len(csit_list))) for row in rows]


def format_sweep_csv(rows):
    """Render sweep rows with 6 significant digits, deterministic order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([
            f"{row.snr_db:.6g}", row.csit, row.solver,
            f"{row.rate_bits:.6g}", f"{row.stderr_bits:.6g}",
            f"{row.bound_bits:.6g}", row.n_outer, row.n_inner, row.seed,
        ])
    return buf.getvalue()


def write_sweep_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_sweep_csv(rows))


def estimate_scaling(base_spec, model, w_choice, snr_db_pair, seed, q_over_p, n_inner):
    """High-SNR slope of the rate in bits per log2(P), two-point secant, and its stderr.

    ``w_choice`` is a solver name (see :func:`resolve_w`).  Both endpoints
    share one no-CSIT bank (common random numbers), so the secant's stderr
    is paired: ``sqrt(se_lo^2 + se_hi^2 - 2 cov)`` over the log2 power step.
    Returns ``(slope, stderr_slope)``.
    """
    lo, hi = snr_db_pair
    if not hi > lo or lo < 30.0:
        raise ConfigurationError("slope window must satisfy hi > lo >= 30 dB")
    cells = sample_cells(base_spec, model, NoCsit(), 1, n_inner, seed)
    specs = [base_spec.at_snr_db(snr, q_over_p) for snr in (lo, hi)]
    ((lo_out,), _), ((hi_out,), _) = evaluate_group(specs, cells, (w_choice,), bound=False)
    r_lo, r_hi, dlog_p = estimate(*lo_out), estimate(*hi_out), (hi - lo) / 10.0 * np.log2(10.0)
    var = r_lo.stderr_bits ** 2 + r_hi.stderr_bits ** 2 - 2.0 * paired_cov(lo_out[0], hi_out[0])
    return (r_hi.rate_bits - r_lo.rate_bits) / dlog_p, float(np.sqrt(max(var, 0.0))) / dlog_p


def predicted_scaling(spec):
    """Theoretical high-SNR slope from the ranks of Sigma_X + Sigma_S and Sigma_X."""
    return theoretical_scaling(numerical_rank(spec.sigma_xs), numerical_rank(spec.sigma_x),
                               spec.dims.r)


def low_snr_ratio(base_spec, model, snr_db_list, seed, q_over_p, n_inner):
    """Ratio of the zero-inflation rate to the bound per SNR, common draws.

    Returns a list of ``(snr_db, ratio, stderr_ratio)`` rows; the stderr is
    the delta-method propagation using the paired covariance, from one pass
    over the bank at every SNR.  An SNR at which the rate or the bound rounds
    to 0 bits raises EvaluationError.
    """
    cells = sample_cells(base_spec, model, NoCsit(), 1, n_inner, seed)
    specs = [base_spec.at_snr_db(float(snr), q_over_p) for snr in snr_db_list]
    out = []
    for snr, ((outcome,), bound_basis) in zip(snr_db_list, evaluate_group(
            specs, cells, ("zero",), bound=True)):
        r_est, c_est = estimate(*outcome), estimate(bound_basis)
        cov = paired_cov(outcome[0], bound_basis)
        if r_est.rate_bits == 0.0 or c_est.rate_bits == 0.0:
            raise EvaluationError(f"at {float(snr):g} dB the rate or the bound rounds to"
                                  " 0 bits, so their ratio is undefined")
        ratio = r_est.rate_bits / c_est.rate_bits
        var = (ratio ** 2) * ((r_est.stderr_bits / r_est.rate_bits) ** 2
                              + (c_est.stderr_bits / c_est.rate_bits) ** 2
                              - 2.0 * cov / (r_est.rate_bits * c_est.rate_bits))
        out.append((float(snr), float(ratio), float(np.sqrt(max(var, 0.0)))))
    return out


def format_lowsnr_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["snr_db", "ratio", "stderr_ratio"])
    for snr, ratio, se in rows:
        writer.writerow([f"{snr:.6g}", f"{ratio:.6g}", f"{se:.6g}"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# reference channel registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceChannel:
    name: str
    spec: ChannelSpec            # base instance at P = N (0 dB), Q = q_over_p * P
    model: object                # fading model
    q_over_p: float
    note: str


def _basis_outer(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return np.outer(e, e)


# name -> (the spec's builder, the fading model's builder, q_over_p, note); a
# reference is built on its first lookup, so importing the package builds none.
_REFERENCES = {}


def _add(name, spec, model, q_over_p, note):
    _REFERENCES[name] = (spec, model, q_over_p, note)


# 2x2 real channels (quantized-feedback regimes); P = N = trace(I_2)
_P0 = 2.0
_add("fdpc-2x2-a",
     lambda: ChannelSpec.create(T=np.sqrt(_P0) * np.array([[1.0], [0.0]]),
                                sigma_s=_P0 * _basis_outer(2, 1), sigma_z=np.eye(2), field=REAL),
     IidRealGaussian, 1.0,
     "rank(Sigma_X + Sigma_S) = 2 > rank(Sigma_X) = 1; feedback-monotonicity regime")
_add("fdpc-2x2-b",
     lambda: ChannelSpec.create(T=np.sqrt(_P0) * np.array([[1.0], [0.0]]),
                                sigma_s=_P0 * _basis_outer(2, 0), sigma_z=np.eye(2), field=REAL),
     IidRealGaussian, 1.0,
     "interference aligned with the input: rank sum = m = 1 <= r, bound gap vanishes")


# 3x2 real channels (scaling-factor regimes, W = T+)
def _t3():
    return np.sqrt(_P0 / 2.0) * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


_add("fdpc-3x2-a",
     lambda: ChannelSpec.create(T=_t3(), sigma_s=_P0 * _basis_outer(3, 2), sigma_z=np.eye(2),
                                field=REAL),
     IidRealGaussian, 1.0, "rank sum 3 > m = 2: predicted slope 1")
_add("fdpc-3x2-b",
     lambda: ChannelSpec.create(T=_t3(), sigma_s=(_P0 / 2.0) * np.diag([1.0, 1.0, 0.0]),
                                sigma_z=np.eye(2), field=REAL),
     IidRealGaussian, 1.0, "rank sum 2 = m: predicted slope 2")
_add("fdpc-3x2-c",
     lambda: ChannelSpec.create(T=np.sqrt(_P0) * np.array([[1.0], [0.0], [0.0]]),
                                sigma_s=(_P0 / 2.0) * np.diag([0.0, 1.0, 1.0]),
                                sigma_z=np.eye(2), field=REAL),
     IidRealGaussian, 1.0, "rank sum 3, m = 1: predicted slope 0")

# low-SNR reference
_add("fdpc-lowsnr",
     lambda: ChannelSpec.create(T=np.sqrt(_P0 / 2.0) * np.eye(2),
                                sigma_s=(_P0 / 2.0) * np.eye(2), sigma_z=np.eye(2), field=REAL),
     IidRealGaussian, 1.0, "2x2 real, Q/P = 1: zero-inflation ratio-optimality regime")


# algorithm-comparison channels (complex Rayleigh, no CSIT)
_add("fdpc-fig4-1",
     lambda: ChannelSpec.create(T=random_factor(2, 1, seed=61, power=_P0, field=COMPLEX),
                                sigma_s=random_psd(2, 2, seed=62, trace=_P0, field=COMPLEX),
                                sigma_z=np.eye(2), field=COMPLEX),
     IidComplexGaussian, 1.0, "m = 1: row solver uses its closed form")
_add("fdpc-fig4-2",
     lambda: ChannelSpec.create(T=random_factor(3, 2, seed=63, power=_P0, field=COMPLEX),
                                sigma_s=random_psd(3, 3, seed=64, trace=_P0, field=COMPLEX),
                                sigma_z=np.eye(2), field=COMPLEX),
     IidComplexGaussian, 1.0, "m = 2 rank-3 interference")

# full-rank covariance, t > r: pinv(T) = T^-1 is the high-SNR optimum, its
# paired gap to the solved optimum c/SNR
_add("fdpc-3x2-pd",
     lambda: ChannelSpec.create(T=random_factor(3, 3, seed=101, power=_P0, field=COMPLEX),
                                sigma_s=random_psd(3, 3, seed=102, trace=_P0, field=COMPLEX),
                                sigma_z=np.eye(2), field=COMPLEX),
     IidComplexGaussian, 1.0, "positive definite input covariance, t = 3 > r = 2")

# covariance-optimization references
_P3 = 3.0
_add("fdpc-cov-3x3",
     lambda: ChannelSpec.create(T=np.sqrt(_P3 / 3.0) * np.eye(3),
                                sigma_s=random_psd(3, 3, seed=41, trace=_P3, field=COMPLEX),
                                sigma_z=np.eye(3), field=COMPLEX),
     lambda: CorrelatedRayleigh(r_rx=exp_correlation(3, 0.7), r_tx=exp_correlation(3, 0.5)),
     1.0, "separably correlated Rayleigh 3x3: spatial water-filling regime")
_add("fdpc-rank-3x2",
     lambda: ChannelSpec.create(T=np.sqrt(_P0 / 3.0) * np.eye(3),
                                sigma_s=random_psd(3, 2, seed=51, trace=_P0, field=COMPLEX),
                                sigma_z=np.eye(2), field=COMPLEX),
     lambda: CorrelatedRayleigh(r_rx=exp_correlation(2, 0.3), r_tx=exp_correlation(3, 0.9)),
     1.0, "strong transmit correlation: reduced-rank signalling suffices at low SNR")


def reference_names():
    return sorted(_REFERENCES)


@functools.cache
def reference_channel(name):
    """The :class:`ReferenceChannel` of ``name``, built on its first lookup."""
    try:
        spec, model, q_over_p, note = _REFERENCES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown reference channel {name!r}; known: {', '.join(reference_names())}"
        ) from None
    return ReferenceChannel(name, spec(), model(), q_over_p, note)
