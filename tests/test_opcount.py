import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsp.opcount import (OpCounts, SingularMatrixError, inv_small, ldl_factor,
                         ldl_solve, mat_add, mat_mul, mat_sub)


def test_opcounts_arithmetic():
    a = OpCounts(1, 2, 3)
    b = OpCounts(10, 20, 30)
    assert (a + b) == OpCounts(11, 22, 33)
    assert a * 4 == OpCounts(4, 8, 12) and a * 0 == OpCounts()
    a += b
    assert a.total() == 66
    assert a.as_dict() == {"mult": 11, "add": 22, "div": 33, "total": 66}


def test_mat_mul_counts_and_value():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(4, 5))
    ops = OpCounts()
    C = mat_mul(A, B, ops)
    assert np.allclose(C, A @ B)
    assert (ops.mult, ops.add, ops.div) == (3 * 4 * 5, 3 * 3 * 5, 0)


def test_mat_mul_vector_rhs():
    A = np.eye(3)
    v = np.array([1.0, 2.0, 3.0])
    ops = OpCounts()
    out = mat_mul(A, v, ops)
    assert out.shape == (3,)
    assert np.allclose(out, v)
    assert (ops.mult, ops.add) == (9, 6)


def test_mat_add_sub_counts():
    ops = OpCounts()
    A = np.ones((2, 3))
    assert np.allclose(mat_add(A, A, ops), 2 * A)
    assert np.allclose(mat_sub(A, A, ops), 0 * A)
    assert ops.add == 12
    assert ops.mult == 0


def test_kernels_work_without_counter():
    A = np.eye(2)
    assert np.allclose(mat_mul(A, A), A)
    L, D = ldl_factor(np.diag([2.0, 3.0]))
    assert np.allclose(D, [2.0, 3.0])


# --- LDL^T ------------------------------------------------------------------


def test_ldl_reconstructs_symmetric_matrix():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5, 8):
        X = rng.normal(size=(n, n))
        S = X @ X.T + n * np.eye(n)
        L, D = ldl_factor(S)
        assert np.allclose(L @ np.diag(D) @ L.T, S)
        assert np.allclose(np.diag(L), 1.0)
        assert np.allclose(np.triu(L, 1), 0.0)


def test_ldl_solve_matches_numpy():
    rng = np.random.default_rng(2)
    for n, r in ((2, 1), (3, 2), (6, 4)):
        X = rng.normal(size=(n, n))
        S = X @ X.T + n * np.eye(n)
        B = rng.normal(size=(n, r))
        assert np.allclose(ldl_solve(S, B), np.linalg.solve(S, B))
        v = rng.normal(size=n)
        out = ldl_solve(S, v)
        assert out.shape == (n,)
        assert np.allclose(out, np.linalg.solve(S, v))


def test_ldl_factor_cost_formula():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 7):
        X = rng.normal(size=(n, n))
        S = X @ X.T + n * np.eye(n)
        ops = OpCounts()
        ldl_factor(S, ops)
        mult = sum(2 * j + 2 * j * (n - 1 - j) for j in range(n))
        add = sum(j + j * (n - 1 - j) for j in range(n))
        div = sum(n - 1 - j for j in range(n))
        assert (ops.mult, ops.add, ops.div) == (mult, add, div)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        ldl_factor(np.zeros((3, 3)))
    with pytest.raises(SingularMatrixError):
        ldl_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))  # rank 1
    err = None
    try:
        ldl_solve(np.zeros((2, 2)), np.ones(2), name="innovation")
    except SingularMatrixError as exc:
        err = exc
    assert err is not None and err.matrix_name == "innovation"
    assert isinstance(err, ArithmeticError)


# --- small closed-form inverses ----------------------------------------------


def test_inv_small_values():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        X = rng.normal(size=(n, n))
        M = X @ X.T + n * np.eye(n)
        assert np.allclose(inv_small(M), np.linalg.inv(M))


def test_inv_small_costs():
    ops = OpCounts()
    inv_small(np.array([[4.0]]), ops)
    assert (ops.mult, ops.add, ops.div) == (0, 0, 1)

    ops = OpCounts()
    inv_small(np.array([[2.0, 1.0], [1.0, 2.0]]), ops)
    assert (ops.mult, ops.add, ops.div) == (2, 1, 4)

    ops = OpCounts()
    inv_small(np.diag([1.0, 2.0, 3.0]), ops)
    assert (ops.mult, ops.add, ops.div) == (21, 11, 9)


def _adjugate_2x2(M: np.ndarray):
    """The textbook 2x2 inverse in float64 scalars, or None where inv_small
    must call M singular."""
    scale = max(1.0, float(np.abs(M).max()))
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if not np.isfinite(det) or abs(det) <= 1e-12 * scale * scale:
        return None
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det


_entries = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.one_of(_entries, st.sampled_from([0.0, 1.0, -2.0, 1e-7])),
                        min_size=4, max_size=4),
       fortran=st.booleans(), singular=st.booleans())
def test_inv_small_2x2_is_the_textbook_adjugate_bit_for_bit(entries, fortran, singular):
    M = np.array(entries, dtype=np.float64).reshape(2, 2)
    if singular and M[0, 0] != 0:
        with np.errstate(all="ignore"):
            M[1, 1] = M[0, 1] * M[1, 0] / M[0, 0]
    if fortran:
        M = np.asfortranarray(M)
    with np.errstate(all="ignore"):
        want = _adjugate_2x2(M)
        if want is None:
            with pytest.raises(SingularMatrixError, match="S"):
                inv_small(M, name="S")
        else:
            assert inv_small(M).tobytes() == want.tobytes()


def test_inv_small_rejects_singular_and_large():
    with pytest.raises(SingularMatrixError):
        inv_small(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        inv_small(np.eye(4))
