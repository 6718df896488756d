"""Small linear-algebra helpers used throughout the package.

All routines accept stacked inputs (leading batch dimensions) where it makes
sense, and treat matrices as Hermitian/positive (semi-)definite according to
their contracts rather than re-checking on every call.
"""

import numpy as np

from .errors import ConfigurationError, EvaluationError

# Relative singular-value cutoff used by default for numerical ranks and
# pseudo-inverses.
DEFAULT_RANK_TOL = 1e-10


def ct(a):
    """Conjugate transpose of the last two axes (works on stacks)."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitize(a):
    """Symmetrize a nominally Hermitian matrix, removing roundoff skew."""
    return 0.5 * (a + ct(a))


def logdet_pd(a):
    """log-determinant of Hermitian positive definite matrices (stacked).

    Uses a Cholesky factorization; raises :class:`EvaluationError` carrying
    the index of the first offending matrix if the factorization fails or
    produces non-finite values.
    """
    a = np.asarray(a)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise EvaluationError(
            "Cholesky factorization failed: matrix not positive definite",
            sample_index=_first_bad_cholesky(a),
        ) from None
    diag = np.einsum("...ii->...i", chol).real
    out = 2.0 * np.sum(np.log(diag), axis=-1)
    if not np.all(np.isfinite(out)):
        bad = np.nonzero(~np.isfinite(np.atleast_1d(out)))[0]
        raise EvaluationError(
            "non-finite log-determinant", sample_index=int(bad[0])
        )
    return out


def _first_bad_cholesky(a):
    a = np.asarray(a)
    if a.ndim == 2:
        return None
    flat = a.reshape((-1,) + a.shape[-2:])
    for i, mat in enumerate(flat):
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            return i
    return None


def pinv_rtol(a, rank_tol=DEFAULT_RANK_TOL):
    """Moore-Penrose pseudo-inverse with a relative singular-value cutoff."""
    return np.linalg.pinv(a, rcond=rank_tol)


def numerical_rank(a, rank_tol=DEFAULT_RANK_TOL):
    """Rank of ``a`` counting singular values above ``rank_tol * s_max``."""
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def validate_hermitian(a, name, tol=1e-12):
    """Check Hermitian symmetry within an absolute-scale tolerance."""
    a = np.asarray(a)
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


def psd_factor(sigma, rank_tol=DEFAULT_RANK_TOL):
    """Factor a p.s.d. matrix as ``sigma = F @ F*`` with F of width rank(sigma)."""
    w, v = np.linalg.eigh(hermitize(np.asarray(sigma)))
    lam_max = max(float(w.max(initial=0.0)), 0.0)
    keep = w > rank_tol * max(lam_max, np.finfo(float).tiny)
    return v[:, keep] * np.sqrt(w[keep])


def sqrtm_pd(a):
    """Hermitian square root of a positive definite matrix."""
    w, v = np.linalg.eigh(hermitize(np.asarray(a)))
    if w.min() <= 0:
        raise ConfigurationError("matrix is not positive definite")
    return hermitize((v * np.sqrt(w)) @ ct(v))
