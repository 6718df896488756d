"""The stacked Cholesky kernel against numpy's LAPACK routines.

Each matrix of a test stack is ``Q diag(lam) Q*`` with ``Q`` a seeded random
unitary (orthogonal in the real field) and eigenvalues log-spaced over the
stated condition number, times a random per-matrix scale.  Backward-stable
factorizations agree to about ``cond * eps`` relative, so every tolerance is
``TOL_EPS * k * cond * eps``.
"""

import numpy as np
import pytest

from fdpclab.errors import EvaluationError
from fdpclab.linalg import (Cholesky, ct, hermitian_products, logdet_pd, mean_ct_product,
                            right_product)

from conftest import make_rng, rand_matrix

EPS = np.finfo(float).eps
TOL_EPS = 8.0
CONDS = (1.0, 1e4, 1e8, 1e12)


def pd_stack(rng, n, k, cond, field):
    q, _ = np.linalg.qr(rand_matrix(rng, (n, k, k), field))
    lam = np.logspace(0.0, -np.log10(cond), k) * np.exp(rng.uniform(-3, 3, (n, 1)))
    a = (q * lam[:, None, :]) @ ct(q)
    return 0.5 * (a + ct(a))


def rel_err(got, want):
    """Largest per-matrix max-norm error, relative to the reference's max norm."""
    axes = (-2, -1)
    return float((np.abs(got - want).max(axis=axes) / np.abs(want).max(axis=axes)).max())


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_matches_lapack(k, field):
    rng = make_rng(100 * k + (field == "complex"))
    for cond in CONDS:
        tol = TOL_EPS * k * cond * EPS
        a = pd_stack(rng, 32, k, cond, field)
        b = rand_matrix(rng, (32, k, 3), field)
        fac = Cholesky(a)
        L = np.linalg.cholesky(a)
        eye = np.broadcast_to(np.eye(k), a.shape)

        assert np.abs(fac.logdet() - np.linalg.slogdet(a)[1]).max() <= tol
        assert rel_err(fac.forward(eye), np.linalg.inv(L)) <= tol  # the factor itself
        for got, want in ((fac.forward(b), np.linalg.solve(L, b)),
                          (fac.inv(), np.linalg.inv(a))):
            assert rel_err(got, want) <= tol
            assert got.shape == want.shape
            assert all(got[:, i, j].flags.c_contiguous  # entry-major
                       for i in range(got.shape[1]) for j in range(got.shape[2]))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_inverse_is_exactly_hermitian(field):
    a = pd_stack(make_rng(7), 16, 3, 1e6, field)
    inv = Cholesky(a).inv()
    assert np.array_equal(inv, ct(inv))
    assert not np.einsum("nii->ni", inv).imag.any()


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_extending_a_leading_factor_is_bitwise_a_fresh_factor(k, field):
    a = pd_stack(make_rng(20 + k + 10 * (field == "complex")), 64, k, 1e6, field)
    lead = Cholesky(a[:, :k - 1, :k - 1])
    lead.inv()  # forms the lead's last reciprocal pivot, which the extension reads
    fresh, ext = Cholesky(a), Cholesky(a, lead=lead)
    assert np.array_equal(ext.logdet(), fresh.logdet())
    assert all(np.array_equal(x, y) for x, y in zip(ext._d, fresh._d))
    assert np.array_equal(ext.inv(), fresh.inv())
    assert lead.k == k - 1  # left as it is
    bad = a.copy()
    bad[5, k - 1, k - 1] = 0.0  # only the new pivot fails
    with pytest.raises(EvaluationError) as exc:
        Cholesky(bad, lead=lead)
    assert exc.value.sample_index == 5


def test_kernel_reads_only_lower_triangle_and_real_diagonal():
    a = pd_stack(make_rng(9), 8, 3, 1e3, "complex")
    junk = a.copy()
    junk[:, np.triu_indices(3, 1)[0], np.triu_indices(3, 1)[1]] = np.nan
    junk[:, range(3), range(3)] += 5j
    ref, got = Cholesky(a), Cholesky(junk)
    assert np.array_equal(got.logdet(), ref.logdet())
    assert np.array_equal(got.inv(), ref.inv())


def test_single_matrix_has_batch_shape_of_a_scalar():
    a = pd_stack(make_rng(11), 1, 2, 10.0, "real")[0]
    fac = Cholesky(a)
    assert np.ndim(fac.logdet()) == 0
    assert fac.logdet() == pytest.approx(np.linalg.slogdet(a)[1], abs=1e-14)
    assert np.allclose(fac.inv(), np.linalg.inv(a), rtol=1e-14, atol=0)


@pytest.mark.parametrize("bad", ["indefinite", "singular", "nan", "inf"])
def test_not_positive_definite_raises_with_first_index(bad):
    """For k = 1 (the sweep's ``S``) the pivots' min/max check is the only guard."""
    value = {"indefinite": -1.0, "singular": 0.0, "nan": np.nan, "inf": np.inf}[bad]
    for k in (1, 2, 3):
        a = np.tile(np.eye(k), (6, 1, 1))
        a[4, 0, 0] = value  # fails at the first pivot
        a[3, k - 1, k - 1] = value  # fails at the last pivot, but comes first in the stack
        with pytest.raises(EvaluationError) as exc:
            Cholesky(a)
        assert exc.value.sample_index == 3
        with pytest.raises(EvaluationError) as exc:
            logdet_pd(a[4])
        assert exc.value.sample_index is None


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_last_reciprocal_pivot_formed_on_first_use_is_the_same(k, field):
    """A factor first used for ``logdet`` gives what a fresh factor gives after it."""
    rng = make_rng(300 + 10 * k + (field == "complex"))
    a = pd_stack(rng, 16, k, 1e4, field)
    b = rand_matrix(rng, (16, k, 2), field)
    for first in ("forward", "inv"):
        used = Cholesky(a)
        assert np.array_equal(used.logdet(), Cholesky(a).logdet())
        got = used.forward(b) if first == "forward" else used.inv()
        fresh = Cholesky(a)
        assert np.array_equal(got, fresh.forward(b) if first == "forward" else fresh.inv())
        assert np.array_equal(used.inv(), fresh.inv())
        assert np.array_equal(used.forward(b), fresh.forward(b))


# the products over a stack of draws against einsum

def entry_major(a):
    """The same stack as an (n, ., .) view of an entry-major array."""
    return np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)


def norm_rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 7, 500])
def test_stack_products_match_einsum(n, field):
    rng = make_rng(n + (field == "complex"))
    for m in (1, 2, 3):
        for t in (1, 2, 3):
            x = rand_matrix(rng, (n, m, t), field)
            y = rand_matrix(rng, (n, t, m), field)
            b = rand_matrix(rng, (t, m), field)
            for layout in (np.ascontiguousarray, entry_major):
                got = right_product(layout(x), b)
                assert got.shape == (n, m, m)
                assert got.transpose(1, 2, 0).flags.c_contiguous  # entry-major
                assert norm_rel_err(got, np.einsum("nij,jk->nik", x, b)) <= 1e-12
                ly = layout(y)
                got = mean_ct_product(ly, ly)
                assert got.shape == (m, m)
                assert np.array_equal(got, ct(got))  # the Gram case: exactly Hermitian
                assert norm_rel_err(got, np.einsum("nji,njk->ik", y.conj(), y) / n) <= 1e-12
                got = mean_ct_product(layout(y), layout(x.transpose(0, 2, 1)))
                assert got.shape == (m, m)
                want = np.einsum("nji,nkj->ik", y.conj(), x) / n
                assert norm_rel_err(got, want) <= 1e-12
                # an exactly Hermitian a_n: mean a_n* b_n is mean a_n b_n
                out = entry_major(np.empty((n, m, m), x.dtype))
                h = hermitian_products(layout(x), layout(x), out)
                assert np.array_equal(h, ct(h))
                assert norm_rel_err(h, np.einsum("nil,njl->nij", x, x.conj())) <= 1e-12
                got = mean_ct_product(h, layout(x))
                assert got.shape == (m, t)
                assert norm_rel_err(got, np.einsum("nij,njk->ik", h, x) / n) <= 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_forward_into_a_given_stack_is_bitwise_the_fresh_result(k, field):
    """``forward(b, out=b)`` in place and ``forward(b, out=buf)`` give ``forward(b)``'s bits."""
    rng = make_rng(400 + 10 * k + (field == "complex"))
    a = pd_stack(rng, 16, k, 1e4, field)
    for fac in (Cholesky(a), Cholesky(a[0])):  # a stack, and one matrix for a stack of b
        b = entry_major(rand_matrix(rng, (16, k, 3), field))
        want = fac.forward(b)
        buf = entry_major(np.empty(b.shape, want.dtype))
        assert fac.forward(b, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        got = fac.forward(b, out=b)
        assert got is b and b.tobytes() == want.tobytes()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_right_product_into_a_given_stack_is_bitwise_the_fresh_result(field):
    rng = make_rng(500 + (field == "complex"))
    for j in (1, 2, 3):
        x = entry_major(rand_matrix(rng, (40, 2, j), field))
        b = rand_matrix(rng, (j, 3), field)
        want = right_product(x, b)
        buf = entry_major(np.empty(want.shape, want.dtype))
        assert right_product(x, b, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
