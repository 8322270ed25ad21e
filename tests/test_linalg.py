"""Tests for the small-matrix and subspace primitives."""

import numpy as np
import pytest
from conftest import haar_frame
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinedim.linalg import (
    DET_EPS,
    SubspaceFrame,
    check_contractive_invertible,
    exterior_power,
    index_tuples,
    principal_angle_distance,
    singular_values,
    smallest_principal_angle,
)


def random_matrix(rng, d, scale=1.0):
    return scale * rng.uniform(-1.0, 1.0, size=(d, d))


# ---------------------------------------------------------------------------
# singular_values


def test_singular_values_diagonal():
    assert np.allclose(singular_values(np.diag([0.5, 0.25])), [0.25, 0.5])


def test_singular_values_identity():
    assert np.allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0])


def test_singular_values_against_charpoly_oracle():
    # Independent oracle: roots of the hand-built characteristic polynomial
    # of A A^T, then square roots.
    a = np.array([[0.3, 0.1], [0.0, 0.2]])
    aat = a @ a.T
    tr = aat[0, 0] + aat[1, 1]
    det = aat[0, 0] * aat[1, 1] - aat[0, 1] * aat[1, 0]
    roots = np.roots([1.0, -tr, det])
    expected = np.sort(np.sqrt(roots.real))
    got = singular_values(a)
    assert np.allclose(got, expected, rtol=1e-12)
    # frozen values from the oracle above
    assert got == pytest.approx([0.18424030, 0.32566165], abs=1e-8)


def test_singular_values_rejects_nonfinite():
    with pytest.raises(ValueError):
        singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_contraction_with_tiny_determinant_is_invertible():
    # det is 5.4e-13, but every singular value is at least 0.02
    a = np.diag(np.linspace(0.04, 0.02, 8))
    assert abs(np.linalg.det(a)) <= DET_EPS
    assert check_contractive_invertible(a) is not None


@pytest.mark.parametrize("a, message", [
    (np.diag([0.5, 1e-13]), r"numerically singular: smallest singular value 1e-13 <= 1e-12"),
    (np.full((2, 2), 0.25), r"numerically singular: smallest singular value .* <= 1e-12"),
    (np.diag([0.5, 1.0]), r"not contractive: operator norm 1 >= 1"),
], ids=["tiny-axis", "rank-one", "norm-one"])
def test_contractive_invertible_refusals(a, message):
    with pytest.raises(ValueError, match=message):
        check_contractive_invertible(a)


def test_contractive_invertible_names_the_first_bad_map():
    good = np.diag([0.5, 0.25])
    maps = np.stack([good, np.diag([1.2, 0.5]), np.diag([0.5, 0.0])])
    with pytest.raises(ValueError, match=r"^maps\[1\] is not contractive: operator norm 1\.2 >= 1$"):
        check_contractive_invertible(maps)
    with pytest.raises(ValueError, match=r"^maps\[2\] is numerically singular: smallest singular "
                                         r"value 0 <= 1e-12$"):
        check_contractive_invertible(maps[[0, 0, 2]])
    assert check_contractive_invertible(maps[[0, 0]]).shape == (2, 2, 2)


@pytest.mark.parametrize("n_maps", [1, 2, 5])
@pytest.mark.parametrize("d", range(1, 9))
def test_stack_kernels_equal_per_matrix_calls(d, n_maps):
    # the stack forms make the same LAPACK call per matrix, so every bit agrees
    stack = np.random.default_rng(10 * d + n_maps).uniform(-1.0, 1.0, (n_maps, d, d))
    for p in range(1, d + 1):
        per_map = np.stack([exterior_power(m, p) for m in stack])
        assert exterior_power(stack, p).tobytes() == per_map.tobytes(), p
    per_map = np.stack([singular_values(m) for m in stack])
    assert singular_values(stack).tobytes() == per_map.tobytes()


def test_dimension_cap_rejected():
    with pytest.raises(ValueError):
        singular_values(np.eye(9))


# ---------------------------------------------------------------------------
# exterior powers


def test_exterior_power_p1_and_pd():
    rng = np.random.default_rng(9)
    a = random_matrix(rng, 3)
    assert np.allclose(exterior_power(a, 1), a)
    top = exterior_power(a, 3)
    assert top.shape == (1, 1)
    assert top[0, 0] == pytest.approx(np.linalg.det(a))


def test_exterior_power_diagonal_lex_order():
    a = np.diag([2.0, 3.0, 5.0])
    c = exterior_power(a, 2)
    # lex basis order (01), (02), (12)
    assert np.allclose(c, np.diag([6.0, 10.0, 15.0]))
    assert index_tuples(3, 2) == [(0, 1), (0, 2), (1, 2)]


def test_minor_hand_computed():
    a = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 3.0, 6.0]])
    # entry (I, J) = ((0,1), (1,2)): det [[1,1],[2,3]] = 1*3 - 1*2
    assert exterior_power(a, 2)[0, 2] == pytest.approx(1.0)


def test_exterior_power_entries_are_minors():
    rng = np.random.default_rng(13)
    a = random_matrix(rng, 4)
    c = exterior_power(a, 2)
    idx = index_tuples(4, 2)
    for i, rows in enumerate(idx):
        for j, cols in enumerate(idx):
            minor = np.linalg.det(a[np.ix_(rows, cols)])
            assert c[i, j] == pytest.approx(minor, rel=1e-12, abs=1e-12)


def test_exterior_power_rejects_bad_p():
    with pytest.raises(ValueError):
        exterior_power(np.eye(3), 0)
    with pytest.raises(ValueError):
        exterior_power(np.eye(3), 4)


# ---------------------------------------------------------------------------
# principal angles


def test_principal_angle_same_frame():
    rng = np.random.default_rng(17)
    u = SubspaceFrame(haar_frame(4, rng, 2))
    assert principal_angle_distance(u, u) == pytest.approx(0.0, abs=1e-12)


def test_principal_angle_orthogonal_lines():
    u = SubspaceFrame(np.eye(2)[:, [0]])
    w = SubspaceFrame(np.eye(2)[:, [1]])
    assert principal_angle_distance(u, w) == pytest.approx(1.0)


def test_principal_angle_45_degrees():
    u = SubspaceFrame(np.eye(2)[:, [0]])
    w = SubspaceFrame.from_span(np.array([1.0, 1.0]))
    assert principal_angle_distance(u, w) == pytest.approx(np.sin(np.pi / 4), rel=1e-12)


def test_principal_angle_symmetric_and_span_invariant():
    rng = np.random.default_rng(19)
    u = SubspaceFrame(haar_frame(5, rng, 3))
    w = SubspaceFrame(haar_frame(5, rng, 3))
    assert principal_angle_distance(u, w) == pytest.approx(principal_angle_distance(w, u))
    # right-multiplying a frame by an orthogonal matrix keeps the span
    q = haar_frame(3, rng)
    u2 = SubspaceFrame(u.frame @ q)
    assert principal_angle_distance(u, u2) == pytest.approx(0.0, abs=1e-10)
    assert principal_angle_distance(u2, w) == pytest.approx(
        principal_angle_distance(u, w), abs=1e-10
    )


# ---------------------------------------------------------------------------
# frames and flags


def test_frame_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        SubspaceFrame(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_frame_is_immutable():
    v = SubspaceFrame(np.eye(2)[:, [0]])
    with pytest.raises(ValueError):
        v.frame[0, 0] = 2.0


def test_frame_complement():
    rng = np.random.default_rng(31)
    v = SubspaceFrame(haar_frame(5, rng, 2))
    c = v.complement()
    assert c.k == 3
    assert np.allclose(v.frame.T @ c.frame, 0.0, atol=1e-12)


def test_smallest_principal_angle_transversal():
    u = SubspaceFrame(np.eye(3)[:, [0, 1]])
    w = SubspaceFrame.from_span(np.array([0.0, 1.0, 1.0]))
    assert smallest_principal_angle(u, w) == pytest.approx(np.pi / 4, rel=1e-12)


@pytest.mark.parametrize("t", [1e-6, 1e-8, 1e-10, np.pi / 2 - 1e-7, np.pi / 2],
                         ids=["1e-6", "1e-8", "1e-10", "near-right", "right"])
def test_smallest_principal_angle_keeps_tiny_and_right_angles(t):
    # a cosine near 1 loses the angle below about 1e-8; its sine does not
    line = lambda *v: SubspaceFrame(np.array(v, dtype=float)[:, None])
    cases = [(SubspaceFrame(np.eye(2)[:, [0]]), line(np.cos(t), np.sin(t))),
             (SubspaceFrame(np.eye(3)[:, [0, 1]]), line(np.cos(t), 0.0, np.sin(t))),
             (line(0.0, np.cos(t), np.sin(t)), SubspaceFrame(np.eye(3)[:, [0, 1]]))]
    for u, w in cases:
        assert smallest_principal_angle(u, w) == pytest.approx(t, rel=1e-12)
        if u.k == w.k:
            assert np.sin(smallest_principal_angle(u, w)) == pytest.approx(
                principal_angle_distance(u, w), rel=1e-12)


# ---------------------------------------------------------------------------
# property tests


matrix_entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=64)


@st.composite
def square_matrices(draw, min_dim=1, max_dim=5):
    d = draw(st.integers(min_dim, max_dim))
    vals = draw(st.lists(matrix_entries, min_size=d * d, max_size=d * d))
    return np.array(vals).reshape(d, d)


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_property_singular_value_product_is_det(a):
    sv = singular_values(a)
    # the identity is exact; at condition kappa the float64 error of either
    # side grows like eps * kappa, so keep kappa below 1e4 for the 1e-10 bar
    assume(sv[0] > 1e-4 * max(sv[-1], 1e-30))
    assume(abs(np.linalg.det(a)) > 1e-12)
    assert np.prod(sv) == pytest.approx(abs(np.linalg.det(a)), rel=1e-10)


@given(square_matrices(min_dim=2), st.data())
@settings(max_examples=100, deadline=None)
def test_property_exterior_multiplicativity(a, data):
    d = a.shape[0]
    vals = data.draw(st.lists(matrix_entries, min_size=d * d, max_size=d * d))
    b = np.array(vals).reshape(d, d)
    p = data.draw(st.integers(1, d))
    lhs = exterior_power(a @ b, p)
    rhs = exterior_power(a, p) @ exterior_power(b, p)
    scale = max(1.0, np.abs(lhs).max(), np.abs(rhs).max())
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


@given(square_matrices(min_dim=2), st.data())
@settings(max_examples=100, deadline=None)
def test_property_exterior_norm_is_singular_value_product(a, data):
    sv = singular_values(a)
    assume(sv[0] > 1e-6 * max(sv[-1], 1e-30))  # condition number below 1e6
    assume(sv[-1] > 1e-12)
    d = a.shape[0]
    p = data.draw(st.integers(1, d))
    top = np.linalg.norm(exterior_power(a, p), 2)
    expected = np.prod(sv[::-1][:p])
    assert top == pytest.approx(expected, rel=1e-8)


@given(square_matrices(min_dim=2))
@settings(max_examples=60, deadline=None)
def test_property_singular_values_from_compound_ratios(a):
    sv = singular_values(a)
    assume(sv[0] > 1e-5 * max(sv[-1], 1e-30))
    assume(sv[-1] > 1e-9)
    d = a.shape[0]
    tops = [1.0] + [np.linalg.norm(exterior_power(a, p), 2) for p in range(1, d + 1)]
    for p in range(1, d + 1):
        assert tops[p] / tops[p - 1] == pytest.approx(sv[::-1][p - 1], rel=1e-7)
