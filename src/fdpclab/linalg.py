"""Small linear-algebra helpers used throughout the package.

All routines accept stacked inputs (leading batch dimensions) where it makes
sense, and treat matrices as Hermitian/positive (semi-)definite according to
their contracts rather than re-checking on every call.

:class:`Cholesky` is the one factorization of stacked matrices, used for
every per-draw log-determinant, forward substitution and inverse.  Its contract:

* input is a stack (..., k, k) of Hermitian positive definite matrices; only
  the lower triangle and the real part of the diagonal are read, so the
  upper triangle need not be stored symmetric;
* a pivot that is not finite and positive raises :class:`EvaluationError`
  whose ``sample_index`` is the flat index of the first such matrix in the
  stack (None for a single matrix); no partial result is returned;
* the log-determinant, the forward substitution ``L^{-1} b`` and the
  (exactly Hermitian) inverse all come from that one factor; there is no
  back substitution, since ``b* A^{-1} c = (L^{-1} b)* (L^{-1} c)``;
* ``forward`` and ``inv`` return entry-major results (below) and allocate
  no stack-sized array besides the one they return: their temporaries are
  single entries of the batch shape.  ``forward(b, out=...)`` writes into a
  stack the caller holds and allocates none; ``out=b`` substitutes in place.

It loops over the entries of the factor in Python with ufuncs over the
whole stack, and its substitution and log-determinant likewise work one entry of
the result at a time on arrays of the batch shape, so the cost is a few
array passes per entry instead of one LAPACK call per matrix (and no ufunc
runs over a trailing axis of length k); it is meant for the small k
(m, r <= 3) of the rate.

No BLAS or LAPACK call runs on a stack of draws.  The products over a stack,
:func:`mean_ct_product`, :func:`hermitian_products` (with its row
:func:`hermitian_row`), :func:`product` and :func:`right_product`, are ufunc
multiply-adds on one length-n array per matrix entry, like the kernel.  They
round the same way whatever the BLAS thread count, and start no BLAS thread.
A product from the left, ``a x_n``, is :func:`right_product` on transposed
views, ``(x_n^T a^T)^T``.  :func:`mean_ct_product` and :func:`hermitian_products`
conjugate the entries of a stack as they read them, so no caller makes a
conjugate-transposed copy of a stack.  A Hermitian result is formed on its
lower triangle and mirrored, with a real diagonal, so it is exactly
Hermitian.  The stacks of the kernel and of the cell core
(:mod:`fdpclab.rate`) are entry-major: an (n, k, l) view of a (k, l, n)
array, so that each entry ``a[:, i, j]`` is contiguous, and the per-entry
sums and means run over contiguous arrays.  So are the fading draws, from
the sampler that makes them through the sample bank to the core that reads
them (:func:`entry_major`), so no kernel makes a strided pass over a stack.
"""

import numpy as np

from .errors import ConfigurationError, EvaluationError

# Relative singular-value (or eigenvalue) cutoff for numerical ranks,
# pseudo-inverses and p.s.d. factors.
DEFAULT_RANK_TOL = 1e-10


def ct(a):
    """Conjugate transpose of the last two axes (works on stacks)."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitize(a):
    """Symmetrize a nominally Hermitian matrix, removing roundoff skew."""
    return 0.5 * (a + ct(a))


class Cholesky:
    """Lower Cholesky factor ``A = L L*`` of a stack (..., k, k) of Hermitian p.d. matrices.

    It gives the log-determinant, ``forward`` (``L^{-1} b``) and ``inv``, and no
    back substitution; see the module docstring for the contract.  Each entry
    of ``L`` is one array of the batch shape: ``L[i][j]`` for ``i > j`` and the
    reciprocal diagonal ``r[j] = 1 / L_jj``.  The factor is formed row by row,
    each row from the rows above it, so the factor of a leading block extends
    to the whole matrix with the same arithmetic.  It keeps the pivots
    ``L_jj^2``, which give the log-determinant; ``r[k-1]`` enters no entry of
    ``L``, so it is formed only when ``forward`` or ``inv`` first reads it.
    Each pivot is checked by its minimum and maximum; the element-wise test
    that finds the first failing matrix runs only when one fails.
    ``forward`` and ``inv`` return entry-major views: a (..., k, t) view of a
    (k, t, ...) array, so each entry ``x[..., i, j]`` is one contiguous array.
    """

    def __init__(self, a, lead=None):
        """Factor ``a``; ``lead``, the factor of its leading block when the caller has it, is extended.

        Extending forms only the rows below ``lead`` (bordering; Golub & Van
        Loan, *Matrix Computations*, 4.2) by the same arithmetic, so the
        entries, pivots and log-determinant are bitwise those of a fresh
        factor, and only the new pivots are checked.  ``lead`` is left as it is.
        """
        a = np.asarray(a)
        self.dtype = np.result_type(a.dtype, float)
        L, r, pivots = ([], [], []) if lead is None else (lead.L[:], lead._r[:], lead._d[:])
        self.L, self._r, self._d = L, r, pivots
        start = len(pivots)
        with np.errstate(invalid="ignore", divide="ignore"):
            for i in range(start, a.shape[-1]):
                if len(r) < i:
                    r.append(1.0 / np.sqrt(pivots[i - 1]))
                row = []
                for j in range(i):
                    row.append(_subtract_total(a[..., i, j], (row[p] * L[j][p].conj()
                                                              for p in range(j)), r[j]))
                L.append(row)
                s = _total(_abs2(v) for v in row)
                pivots.append(np.array(a[..., i, i].real) if s is None else a[..., i, i].real - s)
        new = pivots[start:]
        if not all(d.size == 0 or (d.min() > 0 and d.max() < np.inf) for d in new):
            ok = True
            for d in new:
                ok = ok & (d > 0) & (d < np.inf)
            raise EvaluationError(
                "Cholesky factorization failed: matrix not positive definite",
                sample_index=int(np.argmin(ok.ravel())) if a.ndim > 2 else None,
            )

    @property
    def k(self):
        return len(self._d)

    @property
    def r(self):
        """The reciprocal diagonal ``1 / L_jj``, its last entry formed on first use."""
        if len(self._r) < self.k:
            self._r.append(1.0 / np.sqrt(self._d[-1]))
        return self._r

    def logdet(self):
        """log-determinant of each matrix, batch shape."""
        return _total(np.log(d) for d in self._d)

    def forward(self, b, out=None):
        """``L^{-1} b`` for ``b`` of shape (..., k, t), one entry of the result at a time.

        ``out``, a stack of b's shape and the result's dtype, receives the
        result; it may be ``b`` itself, since entry (i, c) reads only entry
        (i, c) of ``b`` and the entries above it in the result.
        """
        L, r = self.L, self.r
        y = _entry_major(b.shape, np.result_type(b, self.dtype)) if out is None else out
        for c in range(b.shape[-1]):
            for i in range(self.k):
                _subtract_total(b[..., i, c], (L[i][p] * y[..., p, c] for p in range(i)),
                                r[i], out=y[..., i, c])
        return y

    def inv(self):
        """``A^{-1} = L^{-*} L^{-1}``, exactly Hermitian with a real diagonal."""
        L, r, k = self.L, self.r, self.k
        X = [[None] * k for _ in range(k)]  # X = L^{-1}, lower triangular
        for j in range(k):
            X[j][j] = r[j]
            for i in range(j + 1, k):
                v = _total(L[i][p] * X[p][j] for p in range(j, i))
                v *= -r[i]
                X[i][j] = v
        out = _entry_major(np.shape(self._d[0]) + (k, k), self.dtype)
        for j in range(k):
            out[..., j, j] = _total(_abs2(X[p][j]) for p in range(j, k))
            for i in range(j + 1, k):
                out[..., i, j] = _total(X[p][i].conj() * X[p][j] for p in range(i, k))
                np.conjugate(out[..., i, j], out=out[..., j, i])
        return out


def _total(terms):
    """``sum(terms)`` in order, accumulated into its first term; None when there are none.

    Bit-identical to ``sum`` without its int start, which costs one more
    array pass and allocation.  Each term must be a fresh array the caller
    may overwrite.
    """
    acc = None
    for v in terms:
        if acc is None:
            acc = v
        else:
            acc += v
    return acc


def _subtract_total(b, terms, scale, out=None):
    """``(b - sum(terms)) * scale`` into ``out``, or into the sum when not given.

    Rounds as that expression does; ``terms`` as in :func:`_total`.
    """
    s = _total(terms)
    if s is None:
        return np.multiply(b, scale, out=out)
    if out is None and isinstance(s, np.ndarray):
        out = s
    out = np.subtract(b, s, out=out)
    out *= scale
    return out


def _entry_major(shape, dtype):
    """An empty array of the given shape (..., k, t), as a view of a (k, t, ...) array."""
    return np.moveaxis(np.empty(shape[-2:] + shape[:-2], dtype), (0, 1), (-2, -1))


def entry_major(a, dtype=None):
    """A stack ``a`` (n, k, t) as an entry-major stack of ``dtype``: ``a`` itself when it is one.

    Entry-major means ``a.strides[0] == a.itemsize``, so each entry
    ``a[:, i, j]`` is one contiguous array.  Any other stack, or one of
    another dtype, is copied into an (n, k, t) view of a (k, t, n) array.
    """
    dtype = np.dtype(a.dtype if dtype is None else dtype)
    if a.dtype == dtype and a.strides[0] == a.itemsize:
        return a
    out = _entry_major(a.shape, dtype)
    out[...] = a
    return out


def _abs2(z):
    return (z.conj() * z).real


def mean_ct_product(a, b, hermitian=False):
    """``mean_n a_n* b_n`` for stacks ``a`` (n, j, i) and ``b`` (n, j, t), shape (i, t).

    Each entry is j multiply-adds on length-n arrays and one mean.  The j
    entries of column p of ``a`` are conjugated once, for row p of the
    result, so no conjugate-transposed copy of the stack is made; for an
    exactly Hermitian ``a`` this is ``mean_n a_n b_n``.  For a Hermitian
    result, ``b is a`` (a Gram matrix) or ``hermitian`` (``a* S^{-1} a``, say),
    only the lower triangle is formed: the upper triangle is its conjugate
    mirror and the diagonal its real part, so the result is exactly Hermitian.
    """
    n, j, i = a.shape
    gram = hermitian or b is a
    out = np.empty((i, b.shape[2]), dtype=np.result_type(a, b))
    for p in range(i):
        a_p = [a[:, l, p].conj() for l in range(j)]  # conjugated once per output row
        for q in range(p + 1 if gram else b.shape[2]):
            v = a_p[0] * b[:, 0, q]
            for l in range(1, j):
                v += a_p[l] * b[:, l, q]
            out[p, q] = np.add.reduce(v) / n
            if gram:
                out[q, p] = np.conj(out[p, q])
        if gram:
            out[p, p] = out[p, p].real
    return out


def hermitian_products(x, y, out, shift=None):
    """Fill ``out[:, i, j] = sum_l x[:, i, l] conj(y[:, j, l]) (+ shift[i, j])`` for i >= j.

    That is ``x_n y_n* (+ shift)`` per draw.  ``x`` and ``y`` are stacks
    (n, k, L), ``y`` also (1, k, L) for one matrix shared by all draws, and
    ``out`` an (n, k, k) array or view.  Each entry is a few multiply-adds
    on length-n arrays, accumulated in its slot of ``out``, with the entries
    of ``y`` conjugated as they are read (no conjugate copy of the stack);
    the upper triangle is the conjugate mirror and the diagonal its real
    part, so the result is exactly Hermitian.
    """
    for i in range(x.shape[1]):
        hermitian_row(x[:, i], y, out, i, shift)
    return out


def hermitian_row(x_i, y, out, i, shift=None, cols=None):
    """Row i of :func:`hermitian_products` from ``x_i = x[:, i]`` (n, L) alone.

    Fills ``out[:, i, j]`` for the columns ``cols``, all j <= i by default, and
    mirrors each into ``out[:, j, i]``.
    """
    for j in range(i + 1) if cols is None else cols:
        v = np.multiply(x_i[:, 0], y[:, j, 0].conj(), out=out[:, i, j])
        for p in range(1, x_i.shape[1]):
            v += x_i[:, p] * y[:, j, p].conj()
        if shift is not None:
            v += shift[i, j]
        if i != j:
            np.conjugate(v, out=out[:, j, i])
        elif np.iscomplexobj(v):
            v.imag = 0.0


def product(a, b):
    """``a_n b_n`` for stacks ``a`` (n, k, j) and ``b`` (n, j, t), entry-major (n, k, t).

    Each entry is j multiply-adds on length-n arrays.
    """
    n, k, j = a.shape
    out = _entry_major((n, k, b.shape[2]), np.result_type(a, b))
    for i in range(k):
        for c in range(b.shape[2]):
            v = np.multiply(a[:, i, 0], b[:, 0, c], out=out[:, i, c])
            for p in range(1, j):
                v += a[:, i, p] * b[:, p, c]
    return out


def right_product(x, b, out=None):
    """``x_n b`` for a stack ``x`` (n, k, j) and a matrix ``b`` (j, l), shape (n, k, l).

    Each entry is j scaled-array adds on length-n arrays.  The result is
    entry-major: an (n, k, l) view of a (k, l, n) array, so each of its
    entries is one contiguous array.  ``out``, such a view that does not
    overlap ``x``, receives it in place of a new array.
    """
    n, k, j = x.shape
    if out is None:
        out = np.empty((k, b.shape[1], n), dtype=np.result_type(x, b)).transpose(2, 0, 1)
    for i in range(k):
        for c in range(b.shape[1]):
            v = np.multiply(x[:, i, 0], b[0, c], out=out[:, i, c])
            for p in range(1, j):
                v += x[:, i, p] * b[p, c]
    return out


def logdet_pd(a):
    """log-determinant of Hermitian positive definite matrices (stacked).

    Factors with :class:`Cholesky`, which raises :class:`EvaluationError`
    carrying the index of the first matrix that is not positive definite.
    """
    return Cholesky(a).logdet()


def numerical_rank(a):
    """Rank of ``a`` counting singular values above ``DEFAULT_RANK_TOL * s_max``."""
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))


def validate_hermitian(a, name, tol=1e-12):
    """Check that ``a`` is a finite square matrix, Hermitian within an absolute-scale tolerance."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ConfigurationError(f"{name} has non-finite entries")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - ct(a)).max(initial=0.0) > tol * scale:
        raise ConfigurationError(f"{name} is not Hermitian within {tol:g}")


def clip_psd(a, name, tol=1e-10):
    """Validate that ``a`` is p.s.d. and clip tiny negative eigenvalues.

    Eigenvalues down to ``-tol * lambda_max`` are tolerated and clipped to
    zero; anything more negative is a configuration error.
    """
    validate_hermitian(a, name)
    w, v = np.linalg.eigh(hermitize(a))
    lam_max = max(float(w.max()), 0.0)
    floor = -tol * max(lam_max, 1.0)
    if w.min() < floor:
        raise ConfigurationError(
            f"{name} has negative eigenvalue {w.min():.3e} (tolerance {floor:.3e})"
        )
    w = np.clip(w, 0.0, None)
    return hermitize((v * w) @ ct(v))


def psd_factor(sigma):
    """Factor a p.s.d. matrix as ``sigma = F @ F*`` with F of width rank(sigma)."""
    w, v = np.linalg.eigh(hermitize(np.asarray(sigma)))
    lam_max = max(float(w.max(initial=0.0)), 0.0)
    keep = w > DEFAULT_RANK_TOL * max(lam_max, np.finfo(float).tiny)
    return v[:, keep] * np.sqrt(w[keep])


def sqrtm_pd(a):
    """Hermitian square root of a positive definite matrix."""
    w, v = np.linalg.eigh(hermitize(np.asarray(a)))
    if w.min() <= 0:
        raise ConfigurationError("matrix is not positive definite")
    return hermitize((v * np.sqrt(w)) @ ct(v))
