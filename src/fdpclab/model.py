"""Channel, covariance, fading and CSIT domain types plus all random sampling.

Conventions used throughout the package:

* the channel is ``Y = H(X + S) + Z`` with ``H`` of shape (r, t),
* the transmit covariance is factored as ``Sigma_X = T @ T*`` with ``T`` of
  shape (t, m) and ``trace(T T*) <= P``,
* the scalar field ("real" or "complex") is declared once per spec; every
  rate is a difference of log-determinants, so the formulas are
  field-generic.

Sampling is pure given an explicit generator; sample banks derive one
independent stream per outer cell from ``(seed, cell_index)`` so that the
bank is a deterministic function of its arguments, each cell drawn alone.

Quantized CSIT draws each entry of H from a normal truncated to one
quantizer bin, by inverse CDF.  The normal CDF and the lower half of its
inverse are private numpy kernels (``_ndtr``, ``_ndtri_lower``), so the
package needs no scipy; the sampler reflects an upper bin onto the lower half.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np
import numpy.random  # the samplers' generators; numpy loads it only on first use

from .errors import ConfigurationError
from .linalg import (DEFAULT_RANK_TOL, Cholesky, clip_psd, ct, entry_major, hermitize,
                     psd_factor, right_product, sqrtm_pd, validate_hermitian)

REAL = "real"
COMPLEX = "complex"


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dimensions:
    """Antenna counts and the rank bound of the input covariance."""

    t: int  # transmit antennas
    r: int  # receive antennas
    m: int  # rank bound of Sigma_X, 1 <= m <= t

    def __post_init__(self):
        if self.t < 1 or self.r < 1 or self.m < 1:
            raise ConfigurationError("dimensions must be positive")
        if self.m > self.t:
            raise ConfigurationError(f"m={self.m} exceeds t={self.t}")


def as_field(a, field, name):
    """``a`` in the field's dtype, the one cast to a spec's field.

    A stack of draws (three axes, (n, r, t)) comes back entry-major
    (:func:`fdpclab.linalg.entry_major`): an entry-major stack of the
    field's dtype as it is, any other one as an entry-major copy.  A matrix
    comes back C-contiguous.  Complex input with a non-zero imaginary part
    in a real field is a :class:`ConfigurationError` named by ``name``.
    """
    a = np.asarray(a)
    dtype = np.float64 if field == REAL else np.complex128
    if field == REAL and np.iscomplexobj(a):
        if a.imag.any():  # NaN counts as non-zero
            raise ConfigurationError(f"complex {name} in a real spec")
        a = a.real
    if a.ndim == 3:
        return entry_major(a, dtype)
    return np.ascontiguousarray(a, dtype=dtype)


def _read_only(a):
    a.setflags(write=False)
    return a


def _check_finite_budgets(**budgets):
    if not np.isfinite(list(budgets.values())).all():
        raise ConfigurationError("power budgets must be finite, got "
                                 + ", ".join(f"{k}={v:g}" for k, v in budgets.items()))


@dataclass(frozen=True)
class ChannelSpec:
    """Static description of one fading dirty paper channel instance.

    The inputs are the matrices, the power budget ``P`` (an upper bound for
    ``trace(T T*)``) and the field.  ``dims`` comes from the shapes, and ``Q``
    and ``N`` are the traces of ``sigma_s`` and ``sigma_z`` as given (before
    ``sigma_s`` is clipped to p.s.d.).

    The spec owns the terms that depend on it alone: ``T T*``, ``T T* + Ss``,
    the factor of ``Ss`` with its pseudo-inverse, the Cholesky factor of
    ``Sz`` and ``pinv(T)``.  Each is computed on first use and cached on the
    spec, read-only, so every cell core of the spec shares it;
    ``dataclasses.replace`` makes a spec with an empty cache.
    """

    T: np.ndarray          # (t, m) factor of Sigma_X
    sigma_s: np.ndarray    # (t, t) interference covariance, p.s.d.
    sigma_z: np.ndarray    # (r, r) noise covariance, p.d.
    P: float
    field: str = REAL
    dims: Dimensions = dataclass_field(init=False)
    Q: float = dataclass_field(init=False)
    N: float = dataclass_field(init=False)

    def __post_init__(self):
        _check_finite_budgets(P=self.P)
        if self.field not in (REAL, COMPLEX):
            raise ConfigurationError(f"unknown field {self.field!r}")
        T = as_field(self.T, self.field, "T")
        sigma_s = as_field(self.sigma_s, self.field, "sigma_s")
        sigma_z = as_field(self.sigma_z, self.field, "sigma_z")
        if T.ndim != 2 or sigma_z.ndim != 2:
            raise ConfigurationError("T and sigma_z must be matrices")
        dims = Dimensions(T.shape[0], sigma_z.shape[0], T.shape[1])
        if sigma_s.shape != (dims.t, dims.t) or sigma_z.shape != (dims.r, dims.r):
            raise ConfigurationError(f"sigma_s {sigma_s.shape} or sigma_z {sigma_z.shape} "
                                     f"does not fit T {T.shape}")
        validate_hermitian(sigma_s, "sigma_s")
        validate_hermitian(sigma_z, "sigma_z")
        Q = float(np.trace(sigma_s).real)
        N = float(np.trace(sigma_z).real)
        sigma_s = clip_psd(sigma_s, "sigma_s")
        for name, arr in (("T", T), ("sigma_s", sigma_s), ("sigma_z", sigma_z)):
            object.__setattr__(self, name, arr)

        tr_x = float(np.trace(self.sigma_x).real)
        if not tr_x <= self.P * (1.0 + 1e-9) + 1e-15:
            raise ConfigurationError(
                f"trace(T T*)={tr_x:.6g} exceeds power budget P={self.P:.6g}"
            )
        sign, _ = np.linalg.slogdet(sigma_z)
        if np.linalg.eigvalsh(hermitize(sigma_z)).min() <= 0 or sign.real <= 0:
            raise ConfigurationError("sigma_z must be positive definite")

        for arr in (T, sigma_s, sigma_z):
            arr.setflags(write=False)
        for name, val in (("dims", dims), ("Q", Q), ("N", N)):
            object.__setattr__(self, name, val)

    @cached_property
    def sigma_x(self):
        """``Sigma_X = T T*`` (t, t)."""
        return _read_only(self.T @ ct(self.T))

    @cached_property
    def sigma_xs(self):
        """``T T* + Ss`` (t, t), the covariance of ``X + S`` that every ``N_r`` reads."""
        return _read_only(self.sigma_x + self.sigma_s)

    @cached_property
    def sigma_s_factor(self):
        """``(F, pinv(F))`` with ``Ss = F F*`` and F of width rank(Ss) (:func:`psd_factor`).

        Every ``alg1`` row step reads it (:func:`fdpclab.inflation.alg1_row_update`).
        """
        F = psd_factor(self.sigma_s)
        return _read_only(F), _read_only(np.linalg.pinv(F))

    @cached_property
    def sigma_z_factor(self):
        """The :class:`Cholesky` factor ``Lz`` of ``Sz = Lz Lz*``, which the bound whitens with."""
        factor = Cholesky(self.sigma_z)
        factor.r  # formed now, so the cores that share the factor only read it
        return factor

    @cached_property
    def t_pinv(self):
        """``pinv(T)`` (m, t) at the cutoff ``DEFAULT_RANK_TOL``, the ``pinv`` inflation factor."""
        return _read_only(np.linalg.pinv(self.T, rcond=DEFAULT_RANK_TOL))

    @property
    def dtype(self):
        return np.float64 if self.field == REAL else np.complex128

    @classmethod
    def create(cls, T, sigma_s, sigma_z, field=REAL):
        """Build a spec whose power budget ``P`` is ``trace(T T*)``."""
        T = np.asarray(T)
        return cls(T=T, sigma_s=sigma_s, sigma_z=sigma_z,
                   P=float(np.trace(T @ ct(T)).real), field=field)

    def at_snr_db(self, snr_db, q_over_p):
        """Same spatial structure at the SNR ``P/N`` given in dB.

        ``T`` is scaled so ``trace(T T*) = P`` and ``sigma_s`` so its trace
        is ``Q = q_over_p * P``.
        """
        try:
            P = self.N * 10.0 ** (snr_db / 10.0)
        except OverflowError:
            raise ConfigurationError(f"SNR {snr_db:g} dB overflows the power budget") from None
        if not P > 0:  # -inf dB, NaN, or a budget that underflows to 0
            raise ConfigurationError(f"SNR {snr_db:g} dB leaves no power budget (P = {P:g})")
        Q = q_over_p * P
        _check_finite_budgets(P=P, Q=Q)
        tr_x = float(np.trace(self.sigma_x).real)
        if tr_x <= 0:
            raise ConfigurationError("cannot rescale a zero transmit factor")
        if Q > 0 and self.Q == 0:
            raise ConfigurationError("cannot rescale zero interference to Q > 0")
        T = self.T * np.sqrt(P / tr_x)
        sigma_s = self.sigma_s * (Q / self.Q) if self.Q > 0 else self.sigma_s
        return ChannelSpec(T=T, sigma_s=sigma_s, sigma_z=self.sigma_z, P=P,
                           field=self.field)


# ---------------------------------------------------------------------------
# fading models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IidRealGaussian:
    """Entries i.i.d. N(0, 1)."""

    field = REAL


@dataclass(frozen=True)
class IidComplexGaussian:
    """Entries i.i.d. circularly-symmetric CN(0, 1)."""

    field = COMPLEX


@dataclass(frozen=True)
class IidUniformComplex:
    """Entries i.i.d. Unif[0,1] + j Unif[0,1]."""

    field = COMPLEX


@dataclass(frozen=True)
class CorrelatedRayleigh:
    """Separably correlated Rayleigh fading ``R_r^{1/2} G R_t^{1/2}``."""

    r_rx: np.ndarray  # (r, r) receive correlation, Hermitian p.d.
    r_tx: np.ndarray  # (t, t) transmit correlation, Hermitian p.d.

    field = COMPLEX

    def __post_init__(self):
        for name in ("r_rx", "r_tx"):
            mat = as_field(getattr(self, name), COMPLEX, name)
            validate_hermitian(mat, name)
            if np.linalg.eigvalsh(hermitize(mat)).min() <= 0:
                raise ConfigurationError(f"{name} must be positive definite")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)


def exp_correlation(n, rho):
    """Exponential correlation matrix ``rho^|i-j|`` (n, n), complex dtype."""
    idx = np.arange(n)
    return (rho ** np.abs(idx[:, None] - idx[None, :])).astype(complex)


def _sample_h_batch(model, dims, rng, n):
    """Draw ``n`` channel matrices, an entry-major (n, r, t) stack.

    The generator fills its arrays in C order, so the values are those of a
    C-ordered (n, r, t) draw; the i.i.d. variants copy them entry-major once.
    """
    r, t = dims.r, dims.t
    if isinstance(model, IidRealGaussian):
        return entry_major(rng.standard_normal((n, r, t)))
    if isinstance(model, IidComplexGaussian):
        z = rng.standard_normal((n, r, t)) + 1j * rng.standard_normal((n, r, t))
        return entry_major(z * np.sqrt(0.5))
    if isinstance(model, IidUniformComplex):
        return entry_major(rng.random((n, r, t)) + 1j * rng.random((n, r, t)))
    if isinstance(model, CorrelatedRayleigh):
        if model.r_rx.shape != (r, r) or model.r_tx.shape != (t, t):
            raise ConfigurationError("correlation matrices do not match dims")
        g = (rng.standard_normal((n, r, t)) + 1j * rng.standard_normal((n, r, t)))
        g *= np.sqrt(0.5)
        g = right_product(g, sqrtm_pd(model.r_tx))
        # R_r^{1/2} G R_t^{1/2} as the transpose of (G R_t^{1/2})^T (R_r^{1/2})^T;
        # right_product's results are entry-major, and so is their transpose
        return right_product(g.transpose(0, 2, 1), sqrtm_pd(model.r_rx).T).transpose(0, 2, 1)
    raise ConfigurationError(f"unknown fading model {model!r}")


def fading_component_std(model):
    """Per real component standard deviation of one channel entry."""
    if isinstance(model, IidRealGaussian):
        return 1.0
    if isinstance(model, IidComplexGaussian):
        return np.sqrt(0.5)
    raise ConfigurationError(
        "component std only defined for the i.i.d. Gaussian fading variants"
    )


# ---------------------------------------------------------------------------
# CSIT models and the per-entry quantizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerfectCsit:
    label = "perfect"


@dataclass(frozen=True)
class NoCsit:
    label = "none"


@dataclass(frozen=True)
class QuantizedCsit:
    """Per-entry scalar quantizer with ``2**bits`` equally spaced levels.

    Bins are of equal length ``step`` except for the outermost two, which
    extend to infinity; reconstruction levels sit at the bin centers and the
    bin boundaries sit midway between adjacent levels.
    """

    bits: int
    step: float

    def __post_init__(self):
        if not (isinstance(self.bits, (int, np.integer)) and self.bits >= 1):
            raise ConfigurationError("bits must be an integer >= 1")
        if not self.step > 0:
            raise ConfigurationError("quantizer step must be positive")

    @property
    def label(self):
        return f"B={self.bits}"

    @property
    def n_levels(self):
        return 2 ** self.bits

    def levels(self):
        k = np.arange(self.n_levels, dtype=np.float64)
        return (k - (self.n_levels - 1) / 2.0) * self.step

    def bin_edges(self, b):
        """``(lo, hi)`` of bin ``b``: midway between adjacent levels, +-inf outermost."""
        c = (self.n_levels - 1) / 2.0
        lo = -np.inf if b == 0 else (b - 0.5 - c) * self.step
        hi = np.inf if b == self.n_levels - 1 else (b + 0.5 - c) * self.step
        return lo, hi

    def bin_index(self, x):
        """Index (0 .. n_levels-1) of the bin of each real value in ``x``.

        A value is compared with the interior edges of :meth:`bin_edges`, so a
        value inside a bin's edges is in that bin; an edge belongs to the bin above.
        """
        inner = [self.bin_edges(b)[0] for b in range(1, self.n_levels)]
        return np.searchsorted(inner, np.asarray(x, dtype=np.float64), side="right")

    @classmethod
    def designed(cls, bits, fading):
        """Quantizer whose step is ``OPTIMAL_STEPS[bits - 1]`` scaled by the
        per-component std of ``fading``, an i.i.d. Gaussian law."""
        if not 1 <= bits <= len(OPTIMAL_STEPS):
            raise ConfigurationError("bits must lie in 1..6")
        return cls(bits=bits, step=OPTIMAL_STEPS[int(bits) - 1] * fading_component_std(fading))


# MSE-optimal steps for bits 1..6: the minimizers of the quantizer's mean
# squared error on a unit normal source, found by a bounded scalar search on
# (1e-4, 4) with xatol 1e-9 (the test suite repeats the search).
OPTIMAL_STEPS = (1.5957690976033163, 0.9956866832112957, 0.5860194518645409,
                 0.33520061249449357, 0.18813879495609337, 0.10406300440302312)


def csit_from_label(label, fading):
    """The CSIT setting whose ``label`` is ``label``; a quantizer gets the designed step."""
    for csit in (NoCsit(), PerfectCsit()):
        if label == csit.label:
            return csit
    if label.startswith("B=") and label[2:].isdigit():
        return QuantizedCsit.designed(int(label[2:]), fading)
    raise ConfigurationError(f"unknown CSIT label {label!r}; known: none, perfect, B=1 .. B=6")


def quantize_H(H, csit):
    """Quantize each entry of H; complex entries quantize re/im independently."""
    if not isinstance(csit, QuantizedCsit):
        raise ConfigurationError("quantize_H requires a QuantizedCsit model")
    H, levels = np.asarray(H), csit.levels()
    if np.iscomplexobj(H):
        return levels[csit.bin_index(H.real)] + 1j * levels[csit.bin_index(H.imag)]
    return levels[csit.bin_index(H)]


# ---------------------------------------------------------------------------
# normal CDF and its inverse
# ---------------------------------------------------------------------------

_SQRT_HALF = 7.07106781186547524401e-1
_TINY = np.finfo(np.float64).tiny

# Values per block of the sampler: each temporary is at most 64 KB, in cache
# and below glibc's 128 KB mmap threshold, so its memory is reused rather
# than mapped and page-faulted afresh for every array operation.
_BLOCK = 8192

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989).  For y in (exp(-2), 1/2], with t = y - 1/2:
#     x = sqrt(2 pi) (t + t t^2 P0(t^2) / Q0(t^2)).
# For y <= exp(-2), with z = sqrt(-2 log y) and w = 1/z:
#     x = -(z - log(z) / z - w P(w) / Q(w)),
# (P1, Q1) for z < 8 and (P2, Q2) beyond.  Coefficients are highest degree
# first; the Q are monic, their leading 1 left out.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ndtr(x):
    """Standard normal CDF of one float, exact at 0 and at +-inf."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _polevl(x, coef, monic=False):
    """Horner's rule on an array, in Cephes' order; ``monic`` adds a leading 1."""
    if monic:
        acc, rest = x + coef[0], coef[1:]
    else:
        acc, rest = x * coef[0], coef[1:]
        acc += rest[0]
        rest = rest[1:]
    for c in rest:
        acc *= x
        acc += c
    return acc


def _ndtri_central(y):
    t = y - 0.5
    t2 = t * t
    x = _polevl(t2, _P0)
    x *= t2
    x /= _polevl(t2, _Q0, monic=True)
    x *= t
    x += t
    x *= _S2PI
    return x


def _ndtri_tail(y):
    z = np.log(y)
    z *= -2.0
    np.sqrt(z, out=z)
    w = np.divide(1.0, z)
    x = _polevl(w, _P1)
    x *= w
    q = _polevl(w, _Q1, monic=True)
    x /= q
    far = np.flatnonzero(z >= 8.0)  # y < exp(-32)
    if far.size:
        wf = w[far]
        x[far] = wf * _polevl(wf, _P2) / _polevl(wf, _Q2, monic=True)
    x0 = np.log(z, out=q)
    x0 /= z
    np.subtract(z, x0, out=x0)
    x -= x0
    return x


def _ndtri_lower(y):
    """Inverse normal CDF of a 1-D array in (0, 1/2].

    The branch that most of ``y`` needs runs on all of it (each branch is
    finite on the whole range); the other runs only on the entries that
    need it and overwrites them.
    """
    central = y > _EXP_M2
    if 2 * np.count_nonzero(central) >= y.size:
        x, rest, branch = _ndtri_central(y), np.flatnonzero(~central), _ndtri_tail
    else:
        x, rest, branch = _ndtri_tail(y), np.flatnonzero(central), _ndtri_central
    if rest.size:
        x[rest] = branch(y[rest])
    return x


def _sample_truncated_real(values, csit, sigma_c, rng, shape):
    """N(0, sigma_c^2) draws of ``shape``, each truncated to the bin of its level in ``values``.

    ``values`` holds reconstruction levels and ``shape`` is ``(n,) +
    values.shape``: each of its entries owns the n draws along the leading axis.
    The uniforms are those of one ``rng.random(shape)`` call and are mapped by
    the inverse CDF, ``x = sigma_c ndtri(u)`` with ``u`` uniform between the
    CDF values of the bin edges (:meth:`QuantizedCsit.bin_edges`).

    The work is entry-major and bin by bin: the draws of the entries in one
    bin are gathered, about ``_BLOCK`` at a time, into a contiguous array
    with scalar bin edges.  Zero is a bin edge, so a bin lies on one side
    of ``u = 1/2``.  An upper bin uses ``ndtri(u) = -ndtri(1 - u)``, where
    ``1 - u`` is exact, so every bin evaluates only the lower half of
    ``ndtri`` (:func:`_ndtri_lower`), and only the branches its bin
    reaches.  The kernels are a numpy port of Cephes ``ndtri`` and
    ``0.5 erfc(-x / sqrt 2)`` for the CDF of the bin edges.  Draws are
    kept strictly inside their bin, so :func:`quantize_H` round-trips.
    They are drawn about ``_BLOCK`` at a time, which gives the same stream,
    into a contiguous (entries, n) array that the draws overwrite; it is
    returned as an entry-major (n, ...) view, each entry's n draws one
    contiguous array.
    """
    k = csit.bin_index(values).ravel()
    n = shape[0]
    # Block-wise, not one whole transposed copy: it kept sweep-quantized's peak RSS about
    # 0.2 MB lower.
    by_entry = np.empty((k.size, n))
    step = max(1, _BLOCK // k.size)  # draws per block, in the stream's order
    for j in range(0, n, step):
        by_entry[:, j:j + step] = rng.random((min(step, n - j), k.size)).T
    for b in np.flatnonzero(np.bincount(k)):  # the bins in use (np.unique imports numpy.ma)
        rows = np.flatnonzero(k == b)
        lo, hi = csit.bin_edges(b)
        u_lo, u_hi = _ndtr(lo / sigma_c), _ndtr(hi / sigma_c)
        upper = lo >= 0.0  # ndtri(u) = -ndtri(1 - u); the clip is u <= 1 - 2**-53
        floor, scale = (2.0 ** -53, -sigma_c) if upper else (_TINY, sigma_c)
        edges = np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)
        width = max(1, _BLOCK // rows.size)
        for j in range(0, n, width):
            v = by_entry[rows, j:j + width]  # contiguous copy
            v *= u_hi - u_lo
            v += u_lo
            if upper:
                np.subtract(1.0, v, out=v)
            np.maximum(v, floor, out=v)
            x = _ndtri_lower(v.ravel())
            x *= scale
            by_entry[rows, j:j + width] = np.clip(x, *edges, out=x).reshape(v.shape)
    return np.moveaxis(by_entry.reshape(values.shape + (n,)), -1, 0)


def sample_H_given_Hhat(h_hat, csit, model, rng, n):
    """Draw an (n, r, t) stack of H from the fading prior conditioned on its quantized value.

    Each entry's posterior is the prior truncated to the bin whose
    reconstruction level equals the corresponding entry of ``h_hat``.
    Supported only for the i.i.d. Gaussian fading variants.
    """
    if not isinstance(csit, QuantizedCsit):
        raise ConfigurationError("conditional sampling requires quantized CSIT")
    sigma_c = fading_component_std(model)
    h_hat = as_field(h_hat, model.field, "h_hat")
    shape = (n,) + h_hat.shape
    if isinstance(model, IidComplexGaussian):
        re = _sample_truncated_real(h_hat.real, csit, sigma_c, rng, shape)
        im = _sample_truncated_real(h_hat.imag, csit, sigma_c, rng, shape)
        return re + 1j * im
    return _sample_truncated_real(h_hat, csit, sigma_c, rng, shape)


# ---------------------------------------------------------------------------
# sample banks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BankCell:
    """One outer cell: a transmitter-side estimate and conditional draws.

    ``csit`` is the CSIT model the cell was drawn under, which decides what
    ``h_hat`` is: the channel itself (perfect), its quantized value, or None.
    """

    h_hat: np.ndarray | None
    draws: np.ndarray  # (n_i, r, t), entry-major: each draws[:, i, j] is contiguous
    csit: object


@dataclass(frozen=True)
class SampleBank:
    """A fixed, seeded collection of fading draws shared across evaluations."""

    cells: tuple
    seed: int

    @property
    def n_outer(self):
        return len(self.cells)

    @property
    def n_inner(self):
        """Draws per cell, read off the first cell: the ``n_inner`` of the sequence that drew it."""
        return self.cells[0].draws.shape[0]


def _cell_rng(seed, cell_index):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(cell_index),))
    )


def _freeze(a):
    """``a`` read-only; a stack of draws entry-major, as the samplers hand it out."""
    a = entry_major(a) if a.ndim == 3 else np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def sample_cells(spec, model, csit, n_outer, n_inner, seed):
    """The cells of a deterministic nested bank of fading draws, drawn one at a time.

    Perfect CSIT yields ``n_outer`` cells of one draw each with ``h_hat``
    equal to the draw; no CSIT collapses to a single cell of ``n_inner``
    unconditional draws; quantized CSIT draws an estimate per cell and
    ``n_inner`` conditional draws inside it.  The arguments are checked on
    the call; the returned sequence draws cell i each time it is read, and
    its ``n_inner`` is the draws per cell (1 under perfect CSIT) without
    drawing any.
    """
    if n_outer < 1 or n_inner < 1:
        raise ConfigurationError("sample counts must be >= 1")
    if model.field != spec.field:
        raise ConfigurationError(
            f"fading model field {model.field!r} does not match spec field {spec.field!r}"
        )
    if not isinstance(csit, (NoCsit, PerfectCsit, QuantizedCsit)):
        raise ConfigurationError(f"unknown CSIT model {csit!r}")
    return _Cells(spec.dims, model, csit, n_inner, seed,
                  1 if isinstance(csit, NoCsit) else n_outer)


class _Cells:
    """A bank's cells, a sequence; cell i is drawn from its own stream each time it is read.

    ``n_inner``, the draws of each cell, is as asked for, except 1 under
    perfect CSIT, where a cell's one draw is its known channel.
    """

    def __init__(self, dims, model, csit, n_inner, seed, n_cells):
        self._args, self._n = (dims, model, csit, seed), n_cells
        self.n_inner = 1 if isinstance(csit, PerfectCsit) else n_inner

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        dims, model, csit, seed = self._args
        rng = _cell_rng(seed, range(self._n)[i])
        if isinstance(csit, NoCsit):
            draws = _sample_h_batch(model, dims, rng, self.n_inner)
            return BankCell(h_hat=None, draws=_freeze(draws), csit=csit)
        h = _sample_h_batch(model, dims, rng, 1)
        if isinstance(csit, PerfectCsit):
            return BankCell(h_hat=_freeze(h[0]), draws=_freeze(h), csit=csit)
        h_hat = quantize_H(h[0], csit)
        draws = sample_H_given_Hhat(h_hat, csit, model, rng, n=self.n_inner)
        return BankCell(h_hat=_freeze(h_hat), draws=_freeze(draws), csit=csit)


def build_sample_bank(spec, model, csit, n_outer, n_inner, seed):
    """The bank of every cell :func:`sample_cells` draws, held at once."""
    return SampleBank(cells=tuple(sample_cells(spec, model, csit, n_outer, n_inner, seed)),
                      seed=int(seed))


# ---------------------------------------------------------------------------
# covariance constructors (explicit matrix / scaled identity / seeded random)
# ---------------------------------------------------------------------------

def scaled_identity(n, trace, field=REAL):
    dtype = np.float64 if field == REAL else np.complex128
    return np.eye(n, dtype=dtype) * (trace / n)


def random_psd(n, rank, seed, trace, field=REAL):
    """Random p.s.d. matrix ``G G*`` of the given rank, normalized to ``trace``."""
    if not 1 <= rank <= n:
        raise ConfigurationError("rank must lie in 1..n")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    g = rng.standard_normal((n, rank))
    if field == COMPLEX:
        g = (g + 1j * rng.standard_normal((n, rank))) * np.sqrt(0.5)
    mat = g @ ct(g)
    tr = float(np.trace(mat).real)
    return hermitize(mat * (trace / tr))


def random_factor(t, m, seed, power, field=REAL):
    """Random (t, m) transmit factor with ``trace(T T*) = power``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    g = rng.standard_normal((t, m))
    if field == COMPLEX:
        g = (g + 1j * rng.standard_normal((t, m))) * np.sqrt(0.5)
    tr = float(np.trace(g @ ct(g)).real)
    return g * np.sqrt(power / tr)
