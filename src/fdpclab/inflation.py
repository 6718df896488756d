"""Inflation-factor solvers and closed forms.

Two iterative solvers work on a fixed list of conditional fading draws
(sample-average approximation, so each solves a deterministic problem):

* ``alg1_solve`` cycles over the rows of W, each row minimizing a
  Jensen-bounded surrogate of the objective in closed form;
* ``alg2_solve`` solves the stationarity fixed point ``W = g(W)`` by a
  safeguarded Anderson-accelerated iteration of the map ``g``, certified
  by the relative fixed-point residual at the returned W.

Both solvers, their maps and the initialization take a
:class:`fdpclab.rate.CellCore`, which fixes the spec, ``T`` and the draws they
work on.

Closed forms: the perfect-CSIT inflation factor, and the pseudo-inverse
choice ``w_pinv`` that attains the largest high-SNR scaling factor
:func:`theoretical_scaling`.  Positive definite input covariance is the
special case rank Sigma_X = m = t of both, so it needs no code of its own:

* the high-SNR optimal inflation factor when t > r is the identity against
  the physical input X = T X'; against the whitened X' that W weights, it
  is ``T^{-1} = pinv(T)``, which is ``w_pinv``;
* ``theoretical_scaling(t, t, r) = min(r, t) - min(r, 0) = min(t, r)``.

Solver names live here only: :func:`solve_w` resolves each of
:data:`SOLVERS` to a :class:`SolveResult`, which is what a per-cell W policy
(see :func:`fdpclab.lab.resolve_w`) returns.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError, SolverError
from .linalg import ct, hermitize
from .model import PerfectCsit, as_field
from .rate import SchurPoint, SchurRows, check_inflation, objective


# Stopping rule of both solvers, read at call time: at most MAX_ITERS sweeps
# (alg1) or candidates (alg2), and the tolerance TOL on the relative objective
# change (alg1) or the relative fixed-point residual (alg2).
MAX_ITERS = 200
TOL = 1e-7

# Anderson history depth of alg2_solve: the number of past residual and map
# differences in its least-squares fit.
ANDERSON_DEPTH = 5


@dataclass(frozen=True)
class SolveResult:
    W: np.ndarray
    objective_trace: tuple
    converged: bool
    iterations: int


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def w_perfect_csit(spec, H):
    """Optimal inflation factor when the transmitter knows H exactly."""
    H = as_field(H, spec.field, "H")
    rx = hermitize(H @ spec.sigma_x @ ct(H) + spec.sigma_z)
    try:
        return ct(spec.T) @ ct(H) @ np.linalg.solve(rx, H)
    except np.linalg.LinAlgError:
        raise EvaluationError("received covariance is numerically singular; "
                              "no perfect-CSIT inflation factor") from None


def w_pinv(spec):
    """Moore-Penrose pseudo-inverse of the transmit factor (m, t), read-only (``spec.t_pinv``)."""
    return spec.t_pinv


def w_zero(spec):
    """All-zero inflation factor (treat interference as noise)."""
    return np.zeros((spec.dims.m, spec.dims.t), dtype=spec.dtype)


def w_identity(spec):
    """Identity embedding of shape (m, t) in the declared field."""
    return np.eye(spec.dims.m, spec.dims.t, dtype=spec.dtype)


# W-independent inflation factors, by solver name.
CLOSED_FORMS = {"zero": w_zero, "pinv": w_pinv, "identity": w_identity}

# The solver names solve_w resolves.  CORE_SOLVERS need only a cell's core;
# "perfect" also reads the cell's known H.
CORE_SOLVERS = ("alg1", "alg2", *CLOSED_FORMS)
SOLVERS = (*CORE_SOLVERS, "perfect")


def theoretical_scaling(rank_sum, rank_x, r):
    """Largest high-SNR scaling factor achievable by interference pre-subtraction.

    ``rank_sum`` is the rank of Sigma_X + Sigma_S and ``rank_x`` that of
    Sigma_X, which is at most the number m of columns of T.
    """
    if r < 1 or rank_x < 1:
        raise ValueError("rank_x and r must be >= 1")
    if rank_sum < rank_x:
        raise ValueError("rank_sum must be >= rank_x")
    return min(r, rank_sum) - min(r, rank_sum - rank_x)


# ---------------------------------------------------------------------------
# Algorithm 1: row-wise surrogate minimization
# ---------------------------------------------------------------------------

def alg1_row_update(core, W, row, rows=None):
    """Replace one row of W by the minimizer of its Jensen-bounded surrogate.

    The surrogate ``E(a - B* D^{-1} B)`` is an exact quadratic in the row;
    the normal matrix is inverted on the column space of sigma_s (factored
    as T2 T2*), which also canonicalizes the row into that space.  With
    ``Wb``/``Cb``/``Sb`` the other rows' parts of ``W``, ``C`` and ``S(W)``,
    the expectations it needs are ``E Sb^{-1}``, ``E Sb^{-1} Cb K`` and
    ``E(K + K Cb* Sb^{-1} Cb K)`` (just ``E K`` when m = 1), read from the
    :class:`fdpclab.rate.SchurPoint` of the other rows, on views of the
    pieces of ``rows``: the :class:`fdpclab.rate.SchurRows` of W when the
    caller keeps one (:func:`alg1_solve` does), else one formed here of
    every row but ``row``.
    """
    spec = core.spec
    W = check_inflation(spec, W)
    m = spec.dims.m
    if not 0 <= row < m:
        raise ValueError(f"row index {row} out of range for m={m}")

    t2, t2_pinv = spec.sigma_s_factor
    out = W.copy()
    if t2.shape[1] == 0:
        # W multiplies sigma_s everywhere; the zero row is the canonical choice
        out[row] = 0.0
        return out

    rest = [i for i in range(m) if i != row]
    psi2 = psi = core.mean_K
    if rest:
        Wb = W[rest]
        try:
            point = (SchurRows(core, W, row) if rows is None else rows).point(row)
        except EvaluationError:
            raise SolverError(f"singular D block in row update {row}",
                              row_index=row) from None
        e_f, e_fck = point.means
        e_kcf = ct(e_fck)
        e_hkh = core.mean_K + point.mean_gram
        psi2 = e_hkh - e_kcf @ Wb
        psi = ct(Wb) @ e_f @ Wb - ct(Wb) @ e_fck - e_kcf @ Wb + e_hkh
    n_tilde = np.conj(spec.T[:, row]) @ psi2
    core_mat = np.eye(t2.shape[1], dtype=spec.dtype) - ct(t2) @ psi @ t2
    try:
        y = np.linalg.solve(core_mat.T, (n_tilde @ t2).T).T
    except np.linalg.LinAlgError:
        raise SolverError(
            f"singular normal matrix in row update {row} after rank reduction",
            row_index=row,
        )
    out[row] = y @ t2_pinv
    return out


def alg1_solve(core, W0):
    """Cyclic row minimization until the objective stabilizes.

    One iteration sweeps all rows; the objective is recorded after every
    accepted sweep (the initial objective is the first trace entry).  Each
    row step minimizes a Jensen surrogate, which does not guarantee descent
    of the true objective.  A sweep that raises the objective by more than
    ``TOL * max(1, |obj|)`` (``obj`` its last trace entry) is rolled back and
    stops the run, not converged; a smaller change, a rise included, is
    accepted and stops it, converged.  Either way the last accepted W (or W0)
    is returned, not the best seen, and only the last trace step may rise.

    For m >= 2 the solve keeps the current W's ``C K`` rows and ``S(W)``
    entries (:class:`fdpclab.rate.SchurRows`): a row step reads the other
    rows' pieces and then forms only its own row's, so a sweep forms m rows
    of ``C K``.  The sweep's objective borders the last row step's Cholesky
    factor by the last row, which gives ``logdet S(W)`` bitwise as a fresh
    factor would, with no new factorization.

    Objectives come from the core's memo (:meth:`fdpclab.rate.CellCore.logdet_s`),
    so W0 scored by :func:`best_initialization` and a sweep that leaves W
    bitwise unchanged factor nothing, and the rate at the returned W reads
    the per-draw terms its evaluation left there.  An accepted sweep drops the
    memo entry of the iterate it replaced, unless that is W0, which the start
    search and the closed forms share.
    """
    spec = core.spec
    W = W0 = check_inflation(spec, W0)
    trace = [core.evaluate(W)]
    rows = SchurRows(core, W) if spec.dims.m > 1 else None
    converged = False
    sweeps = 0
    for sweeps in range(1, MAX_ITERS + 1):
        W_new = W
        for row in range(spec.dims.m):
            W_new = alg1_row_update(core, W_new, row, rows)
            if rows is not None:
                rows.set_row(W_new, row)
        obj_new = core.evaluate(W_new, None if rows is None else rows.factor())
        if obj_new > trace[-1] + TOL * max(1.0, abs(trace[-1])):
            sweeps -= 1  # rolled back: this sweep produced no iterate
            break
        core.forget(W, W_new, W0)
        W = W_new
        trace.append(obj_new)
        if abs(trace[-1] - trace[-2]) < TOL * max(1.0, abs(trace[-2])):
            converged = True
            break
    return SolveResult(W=W, objective_trace=tuple(trace),
                       converged=converged, iterations=sweeps)


# ---------------------------------------------------------------------------
# Algorithm 2: stationarity fixed point
# ---------------------------------------------------------------------------

def alg2_map(core, W, point=None):
    """One application of the stationarity map ``g``.

    The top blocks of ``M^{-1}`` are ``S^{-1}`` and ``-S^{-1} C H* N_r^{-1}``,
    so ``g(W) = (E S^{-1})^{-1} E(S^{-1} C K)``.  With zero interference the
    stationarity equation holds identically and the map returns W unchanged.
    ``point`` is the :class:`fdpclab.rate.SchurPoint` of ``core`` at this W
    when the caller already has it (:func:`alg2_solve` does).
    """
    W = check_inflation(core.spec, W)
    if np.abs(core.spec.sigma_s).max(initial=0.0) == 0.0:
        return W.copy()
    if point is None:
        try:
            point = SchurPoint(core, W)
        except EvaluationError:
            raise SolverError("singular block matrix in fixed-point map") from None
    try:
        return np.linalg.solve(*point.means)
    except np.linalg.LinAlgError:
        raise SolverError(
            "singular E(A1) in fixed-point map; re-seed or use more draws"
        )


def alg2_solve(core, W0):
    """Safeguarded Anderson-accelerated fixed-point iteration ``W <- map(W)``.

    At each accepted point (the start included) the map ``G`` and the
    residual ``f = G - W`` come from that point's :class:`SchurPoint`, and the
    solve stops, converged, once ``||f|| <= TOL ||W||`` (Frobenius norms):
    the returned W is then the point whose residual passed.  Otherwise the
    next candidate is the type-II Anderson step ``G - dG c``, with ``c``
    the least-squares fit ``min ||f - dF c||`` over the differences of the
    last ``ANDERSON_DEPTH`` accepted residuals ``dF`` and maps ``dG``, or
    plain ``G`` while that history is empty.  A candidate is accepted only
    if its objective does not rise (beyond a 1e-12 relative slack), so the
    trace is non-increasing.  A candidate whose objective rises, or whose
    ``S(W)`` is not positive definite (a non-finite candidate, say), clears
    the history, which restarts at the next accepted point, and is replaced
    by the damped step ``(1-g) W + g G`` from ``g = 1``, halving ``g`` on
    every further rise.  Five consecutive rejected candidates, or
    ``MAX_ITERS`` candidates in all, stop the solve unconverged with the
    best-seen W.

    ``iterations`` counts the evaluated candidates, one :class:`SchurPoint`
    each.  With zero interference the map returns W0, so the solve stops,
    converged, after 0 candidates.  Only the core's memo of ``logdet S``
    per draw outlives the call; the rate at the returned W reads it there.
    """
    W = check_inflation(core.spec, W0)
    point = SchurPoint(core, W)
    obj = point.objective
    trace = [obj]
    best_obj, best_w = obj, W
    d_f, d_g = [], []  # flattened residual and map differences, oldest first
    G = last = None
    gamma = 1.0
    strikes = 0
    converged = False
    iterations = 0
    while True:
        if G is None:
            # drop W's point before the candidate's is built
            G, point = alg2_map(core, W, point), None
            f = G - W
            if np.linalg.norm(f) <= TOL * np.linalg.norm(W):
                converged = True
                break
            if last is not None:
                d_f.append((f - last[0]).ravel())
                d_g.append((G - last[1]).ravel())
                del d_f[:-ANDERSON_DEPTH], d_g[:-ANDERSON_DEPTH]
            last = f, G
        if iterations == MAX_ITERS:
            break
        iterations += 1
        if d_f:
            c = np.linalg.lstsq(np.stack(d_f, axis=1), f.ravel(), rcond=None)[0]
            cand = G - (np.stack(d_g, axis=1) @ c).reshape(G.shape)
        else:
            cand = (1.0 - gamma) * W + gamma * G
        try:
            point = SchurPoint(core, cand)
            obj_c = point.objective
        except EvaluationError:  # S(cand) not p.d., e.g. a non-finite candidate
            obj_c = np.inf
        if not obj_c <= obj + 1e-12 * max(1.0, abs(obj)):
            strikes += 1
            if strikes >= 5:
                break
            if d_f:  # restart the history at the next accepted point
                d_f, d_g, last = [], [], None
            else:
                gamma *= 0.5
            continue
        W, obj, G = cand, obj_c, None
        trace.append(obj)
        strikes = 0
        gamma = 1.0
        if obj < best_obj:
            best_obj, best_w = obj, W
    if not converged:
        W = best_w
    return SolveResult(W=W, objective_trace=tuple(trace),
                       converged=converged, iterations=iterations)


# ---------------------------------------------------------------------------
# initialization and dispatch
# ---------------------------------------------------------------------------

def best_initialization(core):
    """The first of the standard starting points with the least sample objective.

    The candidates are the perfect-CSIT W at the cell-mean H, then the
    :data:`CLOSED_FORMS` in their order.  What they read of the spec alone,
    ``T T*`` and ``pinv(T)``, is computed once per spec and cached on it; per
    core come the cell-mean H, the perfect-CSIT W at it and the objective of
    each candidate, which stays in the core's memo.  The cell-mean H is the one
    reduction over the draws whose rounding follows their layout: numpy sums
    along the draws axis pairwise when it is contiguous and in sequence
    otherwise.  The core's draws are entry-major, so each entry's mean is a
    pairwise sum over its contiguous length-n array.
    """
    spec, H = core.spec, core.H
    candidates = (w_perfect_csit(spec, H.mean(axis=0)),
                  *(form(spec) for form in CLOSED_FORMS.values()))
    return min(candidates, key=lambda W: objective(spec, W, H, core))


def solve_w(core, method, cell=None):
    """Solve for the inflation factor on one cell's core.

    ``method`` is one of :data:`SOLVERS`.  The iterative methods run from
    :func:`best_initialization` with :data:`MAX_ITERS` and :data:`TOL`.  A closed
    form returns its W and objective, converged after 0 iterations.
    ``perfect`` is the perfect-CSIT W at ``cell.h_hat``, which needs ``cell``
    to be the core's cell of a bank drawn under :class:`PerfectCsit` (one
    draw per cell, ``h_hat`` the channel); its trace is empty, since a
    policy solves every cell of a bank and the rate reads no objective.
    """
    if method in ("alg1", "alg2"):
        solve = alg1_solve if method == "alg1" else alg2_solve
        return solve(core, best_initialization(core))
    if method == "perfect":
        if cell is None or not isinstance(cell.csit, PerfectCsit):
            raise ConfigurationError("the 'perfect' policy requires a perfect-CSIT bank")
        return SolveResult(W=w_perfect_csit(core.spec, cell.h_hat), objective_trace=(),
                           converged=True, iterations=0)
    if method not in CLOSED_FORMS:
        raise ConfigurationError(f"unknown solver {method!r}")
    W = CLOSED_FORMS[method](core.spec)
    return SolveResult(W=W, objective_trace=(core.evaluate(check_inflation(core.spec, W)),),
                       converged=True, iterations=0)
