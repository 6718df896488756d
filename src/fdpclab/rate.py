"""Rate functionals over a sample bank.

The paper minimizes, over the inflation factor ``W``, the expected
log-determinant of the (m+r) x (m+r) Hermitian block matrix

    M(W, H) = [[ I_m + W Ss W*,  C H* ],        C = T* + W Ss   (m, t)
               [ H C*,           N_r  ]]

whose lower-right block, the received covariance
``N_r = H (T T* + Ss) H* + Sz``, does not depend on ``W``.  With the Schur
complement of ``N_r``,

    logdet M = logdet N_r + logdet S(W),
    S(W) = I_m + W Ss W* - C K C*,      K = H* N_r^{-1} H   (t, t),

every W-dependent quantity is an m x m matrix per draw, and the achievable
rate of one bank cell is ``-mean_i logdet S(W, H_i)`` (averaged over outer
cells, in bits).  The no-interference bound, the MIMO capacity
``mean_i logdet(I + X_i* X_i)`` with ``X_i = Lz^{-1} H_i T`` and
``Sz = Lz Lz*``, uses the same draws; by Sylvester's identity it equals
``mean_i logdet(H_i T T* H_i* + Sz) - logdet Sz`` and is an m x m (or
r x r, whichever is smaller) determinant per draw.

The terms come at three levels.  Per spec, once, cached on the
:class:`fdpclab.model.ChannelSpec` and shared by all its cores: ``T T* + Ss``,
which every ``N_r`` reads, the factor of ``Ss`` and its pseudo-inverse, which
every ``alg1`` row step reads, the Cholesky factor ``Lz`` of ``Sz``, and
``T T*`` and ``pinv(T)``, which the start search reads.  Per (spec, cell), a
:class:`CellCore` holds the W-independent part of one (spec, draws) pair.
It factors ``N_r = L L*`` once, which gives both ``logdet N_r`` and
``K = G* G`` with ``G = L^{-1} H``; it forms the bound term only when asked.
Per W, :meth:`CellCore.schur` is the one builder of a full W's ``S(W)``
(with or without the ``C K`` stack), and every entry of ``S`` it or a
:class:`SchurRows` holds is formed by one row helper,
:meth:`CellCore._schur_row`.  The solvers and the covariance gradient
factor ``S(W)`` in a :class:`SchurPoint` per W (per set of other rows, for
an ``alg1`` row step) and read their means from it; every factorization is
one :class:`fdpclab.linalg.Cholesky` over the draws.  A row step reads the
other rows' pieces from a :class:`SchurRows`: an ``alg1`` solve keeps one
for its W, forms only the changed row's after each row step, and scores a
sweep by bordering the last row step's factor.
The core is the one store of ``logdet S(W)`` per draw
(:meth:`CellCore.logdet_s`), keyed on ``W Ss`` and ``W Ss W*``, the only
terms of W that ``S(W)`` reads (with a p.s.d. ``Ss`` the rate depends on W
only through ``W Ss``); the objective and the rate both read it.  So the
start search, the solvers and the rate factor each distinct ``S(W)`` once
per core, and inflation factors that differ only outside the range of
``Ss`` share it.
The covariances, ``K``, ``C K`` and ``S(W)`` are built entry by entry like
that kernel, by :func:`fdpclab.linalg.hermitian_products` and its row
:func:`fdpclab.linalg.hermitian_row`: each entry of the lower triangle
(r, t <= 3) is a few ufunc multiply-adds on arrays of length n, and the
upper triangle is its conjugate mirror, so they are exactly Hermitian
without a symmetrization pass.  They are stored entry-major, each entry one
contiguous length-n array, and handed out as (n, ., .) views; no BLAS call
sees a length-n axis (see :mod:`fdpclab.linalg`, which holds every kernel
over the draws).  A bank's draws are entry-major too, and the core reads
them without a copy; draws in another layout are copied entry-major once
(:func:`fdpclab.model.as_field`).
The core is valid for one ``T``, ``Ss``, ``Sz`` and stack of draws, and it is
the one input that names them: the solvers, the maps and the covariance
step take a core and read the spec, ``T`` and the draws from it.  The
covariance optimization builds one per outer step, since ``T`` changes.
:func:`build_M` is the direct form, kept as the tests' reference.

Every rate and bound comes from one loop over a bank's cells at one or
more specs, :func:`_evaluate`: each cell is read once and serves one core
per spec, which serves the bound and then every W policy.  One core and one
cell are alive at a time, so a pass over :func:`fdpclab.model.sample_cells`
never holds a bank; the cores borrow their stacks from a :class:`Workspace`.
:func:`estimate` reduces a basis
(the per-draw terms of a one-cell bank, the per-cell means otherwise) to
its mean and standard error ``std(ddof=1)/sqrt(size)``, and
:func:`paired_cov` two bases on the same draws to their covariance, for the
stderr of a gap, a ratio or a slope.

Internally everything is in nats; reported rates are in bits.  Reductions
over samples run in a fixed order, so results are deterministic for a fixed
bank, whatever the BLAS thread count.
"""
import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, FdpcError
from .linalg import (Cholesky, ct, hermitian_products, hermitian_row, hermitize, logdet_pd,
                     mean_ct_product, product, right_product)
from .model import as_field

LN2 = float(np.log(2.0))


def check_inflation(spec, W):
    """Validate and canonicalize an inflation factor to the spec's field (m, t)."""
    W = np.asarray(W)
    m, t = spec.dims.m, spec.dims.t
    if W.shape != (m, t):
        raise ConfigurationError(f"inflation factor has shape {W.shape}, expected {(m, t)}")
    if not np.isfinite(W).all():
        raise ConfigurationError("inflation factor has non-finite entries")
    return as_field(W, spec.field, "inflation factor")


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo rate estimate in bits with its standard error; the bank names its draws."""

    rate_bits: float
    stderr_bits: float
    converged: bool = True       # every cell's W solve converged
    iterations: int = 0          # the most iterations of any cell's W solve


def _covariance(H, sigma, sigma_z, core=None):
    """``H sigma H* + Sz`` for stacked H of shape (n, r, t), exactly Hermitian.

    The result is an entry-major (n, r, r) view; only the lower triangle of
    ``sigma_z`` is read.  It and the (n, r, t) scratch ``H sigma`` are
    ``core``'s stacks 0 and 1 (:func:`_stack`).
    """
    n, r, t = H.shape
    out = _stack(core, 0, (n, r, r), np.result_type(H, sigma, sigma_z))
    scratch = _stack(core, 1, (n, r, t), np.result_type(H, sigma))
    return hermitian_products(right_product(H, sigma, out=scratch), H, out, sigma_z)


class Workspace:
    """The length-n stacks of one :func:`_evaluate` call's cell cores, lent to one at a time.

    A core takes them on its first request (:func:`_stack`) and keeps them
    while it lives, which a weak reference tells; a core that asks while
    another holds them gets fresh arrays.
    """

    def __init__(self):
        self.stacks = {}      # slot -> a byte buffer
        self.holder = None    # weak reference to the core that holds them


def _stack(core, slot, shape, dtype):
    """An uninitialized entry-major (n, k, l) stack for ``core``: its workspace's ``slot``, else new.

    The workspace lends its slots when no other live core holds them; a
    core without one (or None) gets a new array, in the order the calls
    ask for them.  Slots 0 and 1 hold the stacks of one computation, dead
    when it returns: 0 ``N_r`` (n, r, r) or the bound's ``H T`` (n, r, m)
    and ``E``, 1 the (n, r, t) scratch and ``L^{-1} H`` or the bound's ``X``.
    ``"K"`` holds ``K`` (n, t, t), which the core keeps.  A slot is allocated
    once, for the largest of its stacks (all of the draws' dtype; m <= t).
    """
    ws = getattr(core, "workspace", None)
    if ws is not None and (ws.holder is None or ws.holder() in (None, core)):
        ws.holder = weakref.ref(core)
        size = math.prod(shape) * np.dtype(dtype).itemsize
        buf = ws.stacks.get(slot)
        if buf is None or buf.size < size:
            n, r, t = core.H.shape
            most = n * {0: r * max(r, core.spec.dims.m), 1: r * t, "K": t * t}[slot]
            buf = ws.stacks[slot] = np.empty(max(size, most * core.H.itemsize), np.uint8)
        return buf[:size].view(dtype).reshape(shape[1:] + shape[:1]).transpose(2, 0, 1)
    return np.empty(shape[1:] + shape[:1], dtype).transpose(2, 0, 1)


class CellCore:
    """W-independent part of the rate for one (spec, draws) pair.

    The transmit factor is ``spec.T``; to evaluate another one, build the
    core on ``dataclasses.replace(spec, T=T)``.  ``logdet N_r`` and ``K`` are
    computed on first use and the bound term only when the bound is asked
    for, once per core; the terms of the spec alone (``T T* + Ss``, the
    factors of ``Ss`` and ``Sz``) are the spec's, computed once per spec and
    read by every core built on it.  ``K`` is stored entry-major as a
    (t, t, n) array.  ``workspace``, a :class:`Workspace`, lends
    the core its length-n stacks: ``N_r`` and its scratch, which then holds
    ``L^{-1} H``, ``K``, and the bound's ``X`` and ``E``; without one each
    is allocated when it is needed.  The memo of :meth:`logdet_s` is keyed
    on the bytes of ``W Ss`` and ``W Ss W*``, which :meth:`schur` forms by the same
    helper, so W with equal keys have bitwise-equal ``S(W)``.  It holds one
    (n,) float64 and its mean per distinct ``S(W)`` until :meth:`forget`
    drops it or the core is dropped: at most the four starts of the start
    search plus, per solve, ``alg1``'s last iterate and rolled-back sweep or
    ``alg2``'s up to ``MAX_ITERS`` candidates (:mod:`fdpclab.inflation`).
    """

    def __init__(self, spec, draws, workspace=None):
        H = as_field(draws, spec.field, "draws")
        if H.ndim != 3 or H.shape[0] == 0:
            raise ConfigurationError("inner_samples must be a nonempty (n, r, t) stack")
        self.spec = spec
        self.H = H
        self.workspace = workspace
        self._logdet_s = {}  # _memo_key(W) of a full W -> (logdet S(W) per draw, its mean)

    @cached_property
    def _received(self):
        H = self.H
        n, _, t = H.shape
        fac = Cholesky(_covariance(H, self.spec.sigma_xs, self.spec.sigma_z, self))
        fac.r  # formed first, so G's stack is allocated where forward(H) would allocate it
        G = _stack(self, 1, H.shape, np.result_type(H, fac.dtype))  # the dead scratch
        Gt = fac.forward(H, out=G).transpose(0, 2, 1)  # G^T for G = L^{-1} H
        K = _stack(self, "K", (n, t, t), Gt.dtype)
        # K = G* G is Hermitian, so its transpose is G^T conj(G) = Gt Gt*
        hermitian_products(Gt, Gt, K.transpose(0, 2, 1))
        logdet_nr = fac.logdet()
        return logdet_nr, K.transpose(1, 2, 0), np.mean(logdet_nr)

    @property
    def logdet_nr(self):
        """``logdet N_r`` per draw, shape (n,)."""
        return self._received[0]

    @property
    def mean_logdet_nr(self):
        """``E logdet N_r``, the W-independent term of every objective."""
        return self._received[2]

    @cached_property
    def mean_K(self):
        """``E K = E H* N_r^{-1} H``, shape (t, t)."""
        K = self._received[1]
        return np.add.reduce(K, axis=2) / K.shape[2]

    @cached_property
    def logdet_bound(self):
        """``logdet(I + E)`` per draw, the no-interference rate in nats.

        ``E`` is the Gram of ``X = Lz^{-1} H T`` (r, m) with ``Sz = Lz Lz*``,
        on its smaller side: ``X* X`` when m <= r, else ``X X*``.  By
        Sylvester's identity both equal ``logdet(H T T* H* + Sz) - logdet Sz``.
        """
        H, T = self.H, self.spec.T
        shape = H.shape[:2] + T.shape[1:]  # (n, r, m)
        Lz = self.spec.sigma_z_factor
        X = Lz.forward(right_product(H, T, out=_stack(self, 0, shape, np.result_type(H, T))),
                       out=_stack(self, 1, shape, np.result_type(H, T, Lz.dtype)))
        if X.shape[2] <= X.shape[1]:
            # X^T conj(X) is the transpose of X* X, with the same pivots
            X = X.transpose(0, 2, 1)
        n, k, _ = X.shape
        E = _stack(self, 0, (n, k, k), X.dtype)  # H T is dead by now
        return logdet_pd(hermitian_products(X, X, E, np.eye(k)))

    def schur(self, W, keep_ck=True):
        """``(C K, S)`` per draw, shapes (n, m, t) and (n, m, m), for a full W of shape (m, t).

        ``C = T* + W Ss``.  Both are entry-major views.  Row i of ``C K`` is
        the sum of the (t, n) blocks ``K[a]`` scaled by ``C[i, a]``; row i of
        the lower triangle of ``S = I + W Ss W* - (C K) C*`` is formed from it
        entry by entry and mirrored, so ``S`` is exactly Hermitian.  With
        ``keep_ck`` false ``C K`` is None: its rows share one (t, n) buffer, so
        no (n, m, t) stack is held beside ``S``.  The objective's memo takes
        that form, because on ``fdpc-rank-3x2`` (m = 3, 5000 draws, 2 vCPU)
        one :func:`objective` through the kept ``C K`` took 1.4-2.1 ms against
        0.7-1.0 ms, and ``jointopt`` wall time rose 3-5 %.
        """
        K = self._received[1]
        t, _, n = K.shape
        m = W.shape[0]
        C, shift = self._schur_terms(W)
        ck = np.empty((m if keep_ck else 1, t, n), dtype=np.result_type(C, K))
        S = np.empty((m, m, n), dtype=ck.dtype).transpose(2, 0, 1)
        rows = ck if keep_ck else [ck[0]] * m
        for i in range(m):
            self._schur_row(C, shift, rows, S, i)
        return (ck.transpose(2, 0, 1) if keep_ck else None), S

    def _schur_terms(self, W):
        """``(C, I + W Ss W*)`` with ``C = T* + W Ss``, the small terms ``S(W)`` reads."""
        w_ss, w_ss_w = self._inflation_terms(W)
        return ct(self.spec.T) + w_ss, np.eye(W.shape[0]) + w_ss_w

    def _schur_row(self, C, shift, ck, S, i, below=()):
        """Form row i of ``C K`` in ``ck[i]``, a (t, n) block, and the entries of ``S`` it enters.

        Those are row i of the lower triangle of ``S = shift - (C K) C*`` and,
        for each l in ``below`` (rows whose ``ck[l]`` is held), the entry
        ``S[l, i]``; each is mirrored.  An entry ``S[a, b]`` with a >= b is
        always formed from row a of ``C K``, so, for the same ``C`` and
        ``shift``, it is bitwise the same whichever of its rows was formed
        last.  ``S`` is an (n, k, k) view.
        """
        K = self._received[1]
        row = ck[i]
        np.multiply(K[0], C[i, 0], out=row)
        for a in range(1, K.shape[0]):
            row += C[i, a] * K[a]
        y = -C[None]
        hermitian_row(row.T, y, S, i, shift)
        for l in below:
            hermitian_row(ck[l].T, y, S, l, shift, cols=(i,))

    def _inflation_terms(self, W):
        """``(W Ss, W Ss W*)``, all that ``S(W)`` reads of W."""
        w_ss = W @ self.spec.sigma_s
        return w_ss, w_ss @ ct(W)

    def _memo_key(self, W):
        """The objective memo's key: W's terms of ``S(W)``, so equal keys give equal ``S(W)``."""
        w_ss, w_ss_w = self._inflation_terms(W)
        return w_ss.tobytes() + w_ss_w.tobytes()

    def logdet_s(self, W):
        """``logdet S(W)`` per draw, read-only, for a full W; the per-draw rate is its negative.

        W is an (m, t) array as :func:`check_inflation` returns it.  The array
        is memoized with its mean on the bytes of ``W Ss`` and ``W Ss W*``,
        so the core factors each distinct ``S(W)`` once.
        """
        return self._memo(W, None)[0]

    def evaluate(self, W, factor=None):
        """``E logdet M(W)`` in nats for a full W, from the memo of :meth:`logdet_s`.

        ``factor``, the :class:`Cholesky` of ``S(W)`` when the caller has it
        (a :class:`SchurPoint` does), gives ``logdet S`` on a miss in place
        of factoring :meth:`schur`'s ``S``.
        """
        return float(self.mean_logdet_nr + self._memo(W, factor)[1])

    def forget(self, W, *keep):
        """Drop the memo entry of W, unless one of the inflation factors ``keep`` shares its key."""
        key = self._memo_key(W)
        if all(key != self._memo_key(k) for k in keep):
            self._logdet_s.pop(key, None)

    def _memo(self, W, factor):
        """``(logdet S(W) per draw, its mean)``; the mean is kept so a hit reduces nothing."""
        key = self._memo_key(W)
        entry = self._logdet_s.get(key)
        if entry is None:
            ld = (factor.logdet() if factor is not None
                  else logdet_pd(self.schur(W, keep_ck=False)[1]))
            ld.setflags(write=False)
            entry = self._logdet_s[key] = ld, np.mean(ld)
        return entry


class SchurPoint:
    """``C K`` and ``S(W) = L L*`` from ``core.schur(W)``, factored once.

    ``pieces``, the ``(C K, S)`` views when the caller holds them, are
    factored in place of ``core.schur``: a :class:`SchurRows` hands out those
    of the rows other than one, and W is then None.  An ``S`` that is not
    positive definite raises :class:`EvaluationError`.  The properties are
    computed on first use and cached on the point; the objective hands the
    factor to the core's memo (:meth:`CellCore.evaluate`), which keeps
    ``logdet S`` per draw after the point is dropped.
    """

    def __init__(self, core, W, pieces=None):
        self.core, self.W = core, W
        self.ck, S = core.schur(W) if pieces is None else pieces
        self.factor = Cholesky(S)

    @cached_property
    def objective(self):
        """``E logdet M(W)`` in nats, for W of all m rows as :func:`check_inflation` returns it."""
        return self.core.evaluate(self.W, self.factor)

    @cached_property
    def _s_inv(self):
        return self.factor.inv()  # exactly Hermitian, so S^{-1} = (S^{-1})*

    @cached_property
    def _Y(self):
        """``Y = S^{-1} C K`` per draw, formed once from the inverse, shape (n, k, t)."""
        return product(self._s_inv, self.ck)

    @cached_property
    def means(self):
        """``(E S^{-1}, E Y)`` with ``Y = S^{-1} C K``, shapes (k, k) and (k, t)."""
        n = self.ck.shape[0]
        return np.add.reduce(self._s_inv) / n, np.add.reduce(self._Y) / n

    @cached_property
    def mean_gram(self):
        """``E (C K)* Y = E (C K)* S^{-1} C K``, formed on its lower triangle, exactly Hermitian."""
        return mean_ct_product(self.ck, self._Y, hermitian=True)

    @cached_property
    def G(self):
        """``L^{-1} C K`` per draw, so that ``(C K)* S^{-1} = G* L^{-1}`` (the covariance gradient)."""
        return self.factor.forward(self.ck)


class SchurRows:
    """The ``C K`` rows and ``S(W)`` entries of a full W whose rows change one at a time.

    :func:`fdpclab.inflation.alg1_solve` keeps one for its whole solve, for
    m >= 2, and a standalone row step builds one for its row.  They are
    stored entry-major, as (m, t, n) and (m, m, n) blocks of one
    (m, t + m, n) array.  Row r's step reads the other rows' pieces as views
    (:meth:`point`); after it, :meth:`set_row` forms only row r's new
    ``C K`` row and its row and column of ``S``, by
    :meth:`CellCore._schur_row` from the terms of the full W.  So after a
    sweep every entry is bitwise the one :meth:`CellCore.schur` forms at
    the current W, and :meth:`factor` borders the last row step's factor by
    the last row instead of factoring ``S(W)`` again.
    """

    def __init__(self, core, W, skip=0):
        """Pieces of every row of W but ``skip``, which the next row step replaces (None: all)."""
        K = core._received[1]
        t, _, n = K.shape
        m = W.shape[0]
        self.core, self.m = core, m
        buf = np.empty((m, t + m, n), dtype=np.result_type(core.spec.dtype, K))  # one allocation
        self.ck, self.S = buf[:, :t], buf[:, t:].transpose(2, 0, 1)
        self._last = None  # the point of the last row's step, until factor() reads it
        C, shift = core._schur_terms(W)
        for i in range(m):
            if i != skip:
                core._schur_row(C, shift, self.ck, self.S, i)

    def point(self, row):
        """The :class:`SchurPoint` of the rows other than ``row``, on views of the pieces."""
        rest = [i for i in range(self.m) if i != row]
        if self.m <= 3:  # evenly spaced: a slice, so the pieces are views
            rest = slice(rest[0], rest[-1] + 1, rest[-1] - rest[0] or 1)
        point = SchurPoint(self.core, None, pieces=(self.ck.transpose(2, 0, 1)[:, rest],
                                                    self.S[:, rest][:, :, rest]))
        self._last = point if row == self.m - 1 else None
        return point

    def set_row(self, W, row):
        """Form row ``row``'s pieces at W, which differs from the last W in that row only."""
        C, shift = self.core._schur_terms(W)
        self.core._schur_row(C, shift, self.ck, self.S, row, below=range(row + 1, self.m))

    def factor(self):
        """The :class:`Cholesky` factor of ``S(W)`` at the current W, or None.

        It is the factor of the last row's step, whose other rows are the
        leading block of ``S(W)``, bordered by that row; None when that step
        built no point.
        """
        point, self._last = self._last, None
        return None if point is None else Cholesky(self.S, lead=point.factor)


def build_M(spec, W, H):
    """Achievable-rate block matrix for one H or a stack of H draws (test reference).

    Hermitian by construction.  Returns shape (m+r, m+r) for a single H and
    (n, m+r, m+r) for a stack.
    """
    W = check_inflation(spec, W)
    H = as_field(H, spec.field, "H")
    single = H.ndim == 2
    if single:
        H = H[None]
    m = spec.dims.m
    cross = np.einsum("mk,nrk->nmr", ct(spec.T) + W @ spec.sigma_s, np.conj(H))
    M = np.empty((H.shape[0], m + H.shape[1], m + H.shape[1]), dtype=spec.dtype)
    M[:, :m, :m] = hermitize(np.eye(m, dtype=spec.dtype) + W @ spec.sigma_s @ ct(W))
    M[:, :m, m:] = cross
    M[:, m:, :m] = ct(cross)
    M[:, m:, m:] = _covariance(H, spec.sigma_xs, spec.sigma_z)
    return M[0] if single else M


def objective(spec, W, inner_samples, core=None):
    """Sample mean of ``logdet M(W, H)`` over the given draws, in nats.

    ``core``, when given, is the :class:`CellCore` of ``(spec, inner_samples)``
    and is used in their place.
    """
    W = check_inflation(spec, W)
    if core is None:
        core = CellCore(spec, inner_samples)
    return core.evaluate(W)


def _evaluate(specs, cells, policies, bound=False, cores=None):
    """Rate bases of the W policies ``policies[k]`` at ``specs[k]``, and bound bases, in nats.

    A policy is an (m, t) array or ``w(core, cell) -> SolveResult``.  Each
    cell (of a bank, or of :func:`fdpclab.model.sample_cells`) is read once
    and serves one core per spec (built here, or ``cores[i]`` for one spec):
    the bound term, then every policy at the spec.  Each core and cell is
    dropped before the next.  The cores of a multi-cell pass share one
    :class:`Workspace`; a one-cell pass holds every spec's per-draw bases,
    and its cores allocate their own.  Returns one ``(outcomes, bound_basis)``
    per spec, ``outcomes[j] = (basis, converged, iterations)`` of policy j
    (see :class:`RateEstimate`); a basis is the per-draw array of a one-cell
    bank, the per-cell means otherwise.  A policy's FdpcError replaces its
    basis and ends the policy; a core or bound failure replaces every basis
    of its spec and ends the spec.  ``bound_basis`` is None unless ``bound``.
    The rate terms are ``-logdet S(W)`` from the core's memo, filled already
    by a solve that evaluated its W.
    """
    per_draw = len(cells) == 1
    workspace = None if per_draw else Workspace()
    terms = [[[] for _ in ws] for ws in policies]  # per spec, each policy's rate terms
    bounds = [[] for _ in specs]
    solved = [[(True, 0)] * len(ws) for ws in policies]

    def term(x):  # a cell's basis entry, reduced as it comes
        return x if per_draw else np.mean(x)

    def serve(k, core, cell):  # one core's terms; it is dropped on return
        if bound:
            bounds[k].append(term(core.logdet_bound))
        for j, w in enumerate(policies[k]):
            if isinstance(terms[k][j], FdpcError):
                continue
            try:
                W = w
                if callable(w):
                    res = w(core, cell)
                    ok, n = solved[k][j]
                    W, solved[k][j] = res.W, (ok and bool(res.converged), max(n, res.iterations))
                terms[k][j].append(-term(core.logdet_s(check_inflation(specs[k], W))))
            except FdpcError as exc:  # its traceback would hold this cell's core
                terms[k][j] = exc.with_traceback(None)

    for i in range(len(cells)):
        cell = cells[i]  # a lazy sequence draws it here; enumerate would hold the last one
        for k, spec in enumerate(specs):
            if isinstance(bounds[k], FdpcError):
                continue
            try:
                serve(k, cores[i] if cores is not None else CellCore(spec, cell.draws, workspace),
                      cell)
            except FdpcError as exc:
                bounds[k] = exc.with_traceback(None)
                terms[k] = [bounds[k]] * len(terms[k])
        del cell

    def basis(t):
        return t if isinstance(t, FdpcError) else t[0] if per_draw else np.array(t)

    return [([(basis(t), *fold) for t, fold in zip(ts, folds)], basis(b) if bound else None)
            for ts, b, folds in zip(terms, bounds, solved)]


def estimate(basis, converged=True, iterations=0):
    """RateEstimate in bits of an :func:`_evaluate` outcome; an error as its basis raises."""
    if isinstance(basis, FdpcError):
        raise basis
    se = float(np.std(basis, ddof=1) / np.sqrt(basis.size)) if basis.size > 1 else 0.0
    return RateEstimate(rate_bits=float(np.mean(basis)) / LN2, stderr_bits=se / LN2,
                        converged=converged, iterations=iterations)


def paired_cov(a, b):
    """Covariance in bits^2 of the estimators of two bases on the same draws or cells."""
    return float(np.cov(a, b, ddof=1)[0, 1] / a.size) / LN2 ** 2 if a.size > 1 else 0.0


def achievable_rate(spec, w, cells):
    """Achievable rate over a bank's cells of a W policy (see :func:`_evaluate`).

    :func:`fdpclab.lab.resolve_w` gives the policy of a solver name.
    """
    ((outcome,), _), = _evaluate((spec,), cells, ((w,),))
    return estimate(*outcome)


def no_interference_bound(spec, cells):
    """Rate without interference on the same draws as :func:`achievable_rate`."""
    return estimate(_evaluate((spec,), cells, ((),), bound=True)[0][1])
