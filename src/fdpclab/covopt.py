"""Joint optimization of the transmit covariance factor and the inflation factor.

The transmit covariance is factored as ``Sigma_X = T T*`` with ``T`` of
shape (t, m) and ``m`` the configured rank bound.  The alternation solves
the inflation factor for the current ``T``, then applies the stationarity
fixed point

    T  <-  (1 / lambda) * E_H { H* N_r^{-1} H T  -  [0 H*] M^{-1} [I_m; H T] }
        =  (1 / lambda) * E_H { K C* S^{-1} (I_m - C K T) }

with ``N_r``, ``M``, ``K``, ``C`` and ``S(W)`` as in :mod:`fdpclab.rate`
and ``lambda`` set in closed form to meet the power constraint
``trace(T T*) = P``: the update's trace is ``||g||_F^2 / lambda^2``, so
``lambda = ||g||_F / sqrt(P)``.  The map is the (conjugate-coordinate)
gradient of the power-constrained Lagrangian; its sign and structure are
pinned by the finite-difference checks in the test suite.

The iterate ``T`` lives in a spec, ``dataclasses.replace(spec, T=T)``, which
derives the rank bound ``m`` from ``T``'s shape and keeps the covariances and
the budget ``P``.  ``K`` depends on ``T``, so each outer step builds one
:class:`fdpclab.rate.CellCore` on that spec for its W-solve, its rate and its
T-step, which computes the gradient once for both the new factor and
``lambda``.  The maps below take that core and read ``T`` from its spec, and
the terms of the spec alone (``T T* + Ss``, ``pinv(T)``, ...) are cached on
it, so each is computed once per outer step, the best step's ``T T*`` giving
the reported eigenvalue ratio.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .inflation import solve_w
from .linalg import DEFAULT_RANK_TOL, mean_ct_product, right_product
from .rate import CellCore, SchurPoint, _evaluate, check_inflation, estimate


# Stop the alternation when the rate gains less than this per outer step (bits).
RATE_TOL = 1e-4


@dataclass(frozen=True)
class JointResult:
    T: np.ndarray
    W: np.ndarray
    rate_trace: tuple            # achievable rate per outer iteration, bits
    eig_ratio: float             # largest/smallest nonzero eigenvalue of T T*
    rate_bits: float
    stderr_bits: float
    rank_used: int
    converged: bool


def t_step_map(core, W):
    """One T-step from one gradient: ``(T+, lam)`` with ``T+ = (1/lam) g(T, W)``.

    ``T`` is the core's ``spec.T``, and ``lam = ||g||_F / sqrt(P)`` meets
    ``trace(T+ T+*) = P``.
    """
    g = gradient_map(core, W)
    norm = float(np.linalg.norm(g))
    if not (np.isfinite(norm) and norm > 0.0):
        raise EvaluationError(f"covariance gradient has norm {norm:g}; no power multiplier")
    lam = norm / np.sqrt(core.spec.P)
    return g / lam, lam


def gradient_map(core, W):
    """``g(T, W)`` at the core's ``spec.T``: conjugate-coordinate gradient of the rate term."""
    T, dtype = core.spec.T, core.spec.dtype
    point = SchurPoint(core, check_inflation(core.spec, W))
    # I - C K T per draw: averaging the two terms apart loses accuracy at high SNR
    rhs = right_product(point.ck, -T)
    rhs += np.eye(rhs.shape[1], dtype=dtype)
    return mean_ct_product(point.G, point.factor.forward(rhs))  # (C K)* S^{-1} = G* L^{-1}


def solve_lambda(core, W):
    """Multiplier ``lam`` of :func:`t_step_map` at the core's ``spec.T`` and ``W``."""
    return t_step_map(core, W)[1]


def _initial_factor(spec, m):
    t = spec.dims.t
    return np.sqrt(spec.P / m) * np.eye(t, m, dtype=spec.dtype)


def _eig_stats(sigma_x):
    w = np.linalg.eigvalsh(sigma_x).real
    w = np.sort(w)[::-1]
    keep = w > DEFAULT_RANK_TOL * max(w[0], np.finfo(float).tiny)
    nz = w[keep]
    if nz.size == 0:
        return 0, float("nan")
    return int(nz.size), float(nz[0] / nz[-1])


def joint_optimize(spec, cells, *, rank_bound, outer_iters, solver):
    """Alternate inflation solving and covariance fixed-point updates.

    Starts from the scaled identity factor of rank ``rank_bound`` and runs at
    most ``outer_iters`` outer steps, each solving W with ``solver`` (a name
    in :data:`fdpclab.inflation.CORE_SOLVERS`).  Works on the cells of a
    single-cell (no-CSIT style) bank, and reads that cell once: one global W
    and one T.  Each step's rate is :func:`fdpclab.rate._evaluate` on the
    step's core.  Returns the best-rate iterate, not the last one, so the
    reported rate is non-decreasing up to Monte Carlo noise by construction.
    """
    if rank_bound < 1 or outer_iters < 1:
        raise ConfigurationError("rank_bound and outer_iters must be >= 1")
    if len(cells) != 1:
        raise ConfigurationError("joint optimization expects a single-cell bank")
    T = _initial_factor(spec, rank_bound)
    cell = cells[0]
    rate_trace = []
    best = None
    prev_rate = -np.inf
    converged = False
    for outer in range(outer_iters):
        spec_t = replace(spec, T=T)
        core = CellCore(spec_t, cell.draws)
        w_res = solve_w(core, solver)
        ((outcome,), _), = _evaluate((spec_t,), (cell,), ((w_res.W,),), cores=(core,))
        est = estimate(*outcome)
        del outcome  # its per-draw basis, which would outlive the step
        rate_trace.append(est.rate_bits)
        if best is None or est.rate_bits > best[0].rate_bits:
            best = (est, spec_t, w_res.W)
        if est.rate_bits - prev_rate < RATE_TOL and outer > 0:
            converged = True
            break
        prev_rate = est.rate_bits
        T, _ = t_step_map(core, w_res.W)
    est, spec_t, W = best
    rank_used, eig_ratio = _eig_stats(spec_t.sigma_x)
    return JointResult(T=spec_t.T, W=W, rate_trace=tuple(rate_trace),
                       eig_ratio=eig_ratio, rate_bits=est.rate_bits,
                       stderr_bits=est.stderr_bits, rank_used=rank_used,
                       converged=converged)
