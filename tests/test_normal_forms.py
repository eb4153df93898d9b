import random

import pytest

from sphereprod.errors import NotSaturated, SingularInput
from sphereprod.matrices import IntMatrix
from sphereprod.normal_forms import (
    hnf,
    snf,
    snf_constrained_sl,
    integer_kernel_basis,
    elementary_divisors_via_minors,
    saturated_complement,
    xgcd,
)


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


def is_hnf(h):
    prev_pivot_col = -1
    seen_zero_row = False
    for i in range(h.rows):
        row = h.row(i)
        pivots = [j for j, x in enumerate(row) if x != 0]
        if not pivots:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False
        j = pivots[0]
        if j <= prev_pivot_col or row[j] <= 0:
            return False
        for k in range(i):
            if not 0 <= h.entry(k, j) < row[j]:
                return False
        prev_pivot_col = j
    return True


def test_xgcd_basic():
    for a, b in [(0, 0), (4, 6), (-4, 6), (7, 0), (0, -3), (12, 18)]:
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0


def test_hnf_identity():
    h, u = hnf(IntMatrix.identity(3))
    assert h.is_identity() and u.is_identity()


def test_hnf_already_diagonal():
    a = IntMatrix([[2, 0], [0, 3]])
    h, u = hnf(a)
    assert h == a
    assert u.is_identity()


def test_hnf_gcd_pivot():
    a = IntMatrix([[4, 6], [2, 4]])
    h, u = hnf(a)
    assert u @ a == h
    assert abs(u.det()) == 1
    assert h.entry(0, 0) == 2
    assert is_hnf(h)


def test_hnf_idempotent_random():
    rng = random.Random(1001)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u = hnf(a)
        assert u @ a == h
        assert abs(u.det()) == 1
        assert is_hnf(h)
        h2, u2 = hnf(h)
        assert h2 == h
        assert u2.is_identity()


def test_snf_examples():
    res = snf(IntMatrix([[6, 0], [0, 4]]))
    assert res.diagonal == [2, 12]
    assert res.verify(IntMatrix([[6, 0], [0, 4]]))

    res = snf(IntMatrix.identity(3))
    assert res.D.is_identity() and res.U.is_identity() and res.V.is_identity()

    z = IntMatrix.zeros(2, 3)
    res = snf(z)
    assert res.D == z
    assert res.U.is_identity() and res.V.is_identity()


def test_snf_random_matches_minor_oracle():
    rng = random.Random(1002)
    for _ in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, rows, cols)
        res = snf(a)
        assert res.verify(a)
        assert res.diagonal == elementary_divisors_via_minors(a)


def test_snf_constrained_sign_absorbed():
    a = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    res = snf_constrained_sl(a, side="right")
    assert res.diagonal == [1, 1, 1]
    assert res.V.det() == 1
    assert res.U @ a @ res.V == res.D

    res = snf_constrained_sl(IntMatrix.identity(3), side="right")
    assert res.D.is_identity()
    assert res.V.det() == 1

    a = IntMatrix([[2, 0, 0], [0, 6, 0], [0, 0, 6]])
    res = snf_constrained_sl(a, side="right")
    assert res.diagonal == [2, 6, 6]
    assert res.V.det() == 1


def test_snf_constrained_left_and_random():
    rng = random.Random(1003)
    for side in ("left", "right"):
        for _ in range(40):
            while True:
                a = random_matrix(rng, 3, 3, bound=6)
                if a.det() != 0:
                    break
            res = snf_constrained_sl(a, side=side)
            assert res.U @ a @ res.V == res.D
            assert res.verify(a)
            constrained = res.V if side == "right" else res.U
            assert constrained.det() == 1


def test_snf_constrained_singular_rejected():
    with pytest.raises(SingularInput):
        snf_constrained_sl(IntMatrix.zeros(3, 3))


def test_snf_inverses_random():
    rng = random.Random(9300)
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        bound = rng.choice((1, 3, 9))
        a = random_matrix(rng, rows, cols, bound)
        if rng.random() < 0.5 and rows and cols:
            # low rank: the product of two thin random matrices
            k = rng.randint(1, min(rows, cols))
            a = random_matrix(rng, rows, k, 3) @ random_matrix(rng, k, cols, 3)
        res = snf(a)
        assert (res.U @ res.Uinv).is_identity()
        assert (res.V @ res.Vinv).is_identity()
        assert res.Uinv @ res.D @ res.Vinv == a
        if rows == cols and a.det():
            for side in ("left", "right"):
                sl = snf_constrained_sl(a, side=side)
                assert (sl.U @ sl.Uinv).is_identity()
                assert (sl.V @ sl.Vinv).is_identity()


def test_saturated_complement():
    # the span of (2, 1, 0) and (0, 0, 1) is saturated in Z^3
    sub = IntMatrix.from_columns([(2, 1, 0), (0, 0, 1)], rows=3)
    res, comp = saturated_complement(sub)
    assert len(comp) == 1
    basis = IntMatrix.from_columns(list(sub.columns()) + comp, rows=3)
    assert abs(basis.det()) == 1
    assert res.Uinv.submatrix(range(3), range(2)) @ res.Vinv == sub
    with pytest.raises(NotSaturated):
        saturated_complement(IntMatrix.from_columns([(2, 0, 0)], rows=3))
    with pytest.raises(NotSaturated):
        saturated_complement(IntMatrix.from_columns([(1, 0), (2, 0)],
                                                    rows=2))


def test_integer_kernel():
    a = IntMatrix([[2, 2, 2], [3, 3, 3]])
    kernel = integer_kernel_basis(a)
    assert len(kernel) == 2
    for k in kernel:
        assert a.mul_vector(k) == (0, 0)
    # saturation: (1, -1, 0) must be an integer combination of the basis
    from sphereprod.lattices import Lattice
    lat = Lattice.from_columns(kernel, ambient_dim=3)
    assert (1, -1, 0) in lat
    assert (-1, 0, 1) in lat


# Property tests against sympy as an independent oracle.  They need
# hypothesis and sympy (the ``test`` extra) and skip without them.

try:
    import sympy
    from hypothesis import given, settings, strategies as st
except ImportError:
    sympy = None


def _sympy_nonzero_invariants(rows, cols):
    """Nonzero invariant factors of the integer matrix with these rows."""
    from sympy.matrices.normalforms import invariant_factors
    if not rows:
        return []
    m = sympy.Matrix(len(rows), cols, lambda i, j: rows[i][j])
    return [abs(int(d)) for d in invariant_factors(m, domain=sympy.ZZ)
            if d != 0]


def _is_unimodular(matrix):
    return abs(int(sympy.Matrix(matrix.to_lists()).det())) == 1


if sympy is not None:
    PROPERTY = settings(max_examples=60, deadline=None)

    @st.composite
    def int_matrices(draw):
        """Small integer matrices; a low-rank product is drawn often, so
        rank-deficient and zero rows and columns are common."""
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        entry = st.one_of(st.just(0), st.integers(-9, 9))
        if draw(st.booleans()):
            k = draw(st.integers(0, min(rows, cols)))
            left = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k,
                                          max_size=k),
                                 min_size=rows, max_size=rows))
            right = draw(st.lists(st.lists(st.integers(-3, 3),
                                           min_size=cols, max_size=cols),
                                  min_size=k, max_size=k))
            data = [[sum(left[i][t] * right[t][j] for t in range(k))
                     for j in range(cols)] for i in range(rows)]
        else:
            data = draw(st.lists(st.lists(entry, min_size=cols,
                                          max_size=cols),
                                 min_size=rows, max_size=rows))
        return IntMatrix(data, cols=cols)

    @PROPERTY
    @given(int_matrices())
    def test_snf_properties_match_sympy(a):
        from sympy.matrices.normalforms import smith_normal_form
        res = snf(a)
        assert res.U @ a @ res.V == res.D
        assert res.D.is_diagonal()
        assert _is_unimodular(res.U) and _is_unimodular(res.V)
        # the inverses carried along with the transforms
        assert sympy.Matrix(res.Uinv.to_lists()) == \
            sympy.Matrix(res.U.to_lists()).inv()
        assert sympy.Matrix(res.Vinv.to_lists()) == \
            sympy.Matrix(res.V.to_lists()).inv()
        diag = res.diagonal
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d != 0]
        assert diag[:len(nonzero)] == nonzero   # zeros come last
        assert all(nonzero[i + 1] % nonzero[i] == 0
                   for i in range(len(nonzero) - 1))
        oracle = smith_normal_form(sympy.Matrix(a.to_lists()),
                                   domain=sympy.ZZ)
        expected = sorted((abs(int(oracle[i, i]))
                           for i in range(min(a.rows, a.cols))),
                          key=lambda d: (d == 0, d))
        assert diag == expected

    @PROPERTY
    @given(int_matrices())
    def test_hnf_properties_match_sympy(a):
        from sympy.matrices.normalforms import hermite_normal_form
        h, u = hnf(a)
        assert u @ a == h
        assert _is_unimodular(u)
        assert is_hnf(h)
        ours = [list(row) for row in h.data if any(row)]
        # sympy's form is column-style: its columns span the column
        # lattice of a^T, which is the row lattice of a
        oracle = hermite_normal_form(sympy.Matrix(a.to_lists()).T)
        theirs = [[int(oracle[i, j]) for i in range(oracle.rows)]
                  for j in range(oracle.cols)]
        assert len(ours) == len(theirs)
        # equal rank and equal index in the saturation, for each lattice
        # and for their sum, means the two row lattices coincide
        invariants = _sympy_nonzero_invariants(ours, a.cols)
        assert invariants == _sympy_nonzero_invariants(theirs, a.cols)
        assert invariants == _sympy_nonzero_invariants(ours + theirs,
                                                       a.cols)
else:
    def test_normal_form_properties_need_sympy_and_hypothesis():
        pytest.importorskip("hypothesis")
        pytest.importorskip("sympy")
