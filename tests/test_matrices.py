"""Property tests of the exact matrix kernels against sympy as an oracle."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st

from sphereprod.errors import DimensionMismatch, SingularInput
from sphereprod.matrices import (
    IntMatrix,
    RatMatrix,
    int_inverse_unimodular,
    rat_inverse,
    rat_kernel_basis,
    rat_rank,
    rat_solve,
)

SETTINGS = settings(max_examples=60, deadline=None)

# zeros are drawn often so that pivot searches and row swaps get exercised
small_fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def rat_matrices(draw, rows=None, cols=None):
    """Small rational matrices; a low-rank product is drawn often, so
    singular and rank-deficient cases are common."""
    rows = draw(st.integers(1, 5)) if rows is None else rows
    cols = draw(st.integers(1, 5)) if cols is None else cols
    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        left = draw(st.lists(st.lists(small_fractions, min_size=k,
                                      max_size=k),
                             min_size=rows, max_size=rows))
        right = draw(st.lists(st.lists(small_fractions, min_size=cols,
                                       max_size=cols),
                              min_size=k, max_size=k))
        data = [[sum((left[i][t] * right[t][j] for t in range(k)),
                     Fraction(0)) for j in range(cols)]
                for i in range(rows)]
    else:
        data = draw(st.lists(st.lists(small_fractions, min_size=cols,
                                      max_size=cols),
                             min_size=rows, max_size=rows))
    return RatMatrix(data, cols=cols)


@st.composite
def square_rat_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(rat_matrices(rows=n, cols=n))


def to_sympy(matrix):
    return sympy.Matrix(matrix.rows, matrix.cols,
                        lambda i, j: sympy.Rational(
                            matrix.entry(i, j).numerator,
                            matrix.entry(i, j).denominator))


def from_sympy(value):
    return Fraction(int(value.p), int(value.q))


@SETTINGS
@given(rat_matrices())
def test_rank_matches_sympy(a):
    assert rat_rank(a) == to_sympy(a).rank()


@SETTINGS
@given(square_rat_matrices())
def test_det_matches_sympy(a):
    assert a.det() == from_sympy(to_sympy(a).det())


@SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_int_det_matches_sympy(rows):
    a = IntMatrix(rows)
    assert a.det() == int(sympy.Matrix(rows).det())
    assert a.det() == a.to_rational().det()


@SETTINGS
@given(square_rat_matrices())
def test_inverse_matches_sympy(a):
    oracle = to_sympy(a)
    if oracle.det() == 0:
        with pytest.raises(SingularInput):
            rat_inverse(a)
        return
    inv = rat_inverse(a)
    expected = oracle.inv()
    assert all(inv.entry(i, j) == from_sympy(expected[i, j])
               for i in range(a.rows) for j in range(a.cols))
    assert a @ inv == RatMatrix.identity(a.rows)


@SETTINGS
@given(rat_matrices(), st.data())
def test_solve_returns_solution_or_none_when_inconsistent(a, data):
    rhs = data.draw(st.lists(small_fractions, min_size=a.rows,
                             max_size=a.rows))
    augmented = to_sympy(RatMatrix([list(row) + [b] for row, b
                                    in zip(a.data, rhs)]))
    consistent = augmented.rank() == to_sympy(a).rank()
    x = rat_solve(a, rhs)
    if not consistent:
        assert x is None
        return
    assert x is not None
    assert a.mul_vector(x) == tuple(rhs)


@SETTINGS
@given(rat_matrices())
def test_kernel_basis_spans_nullspace(a):
    basis = rat_kernel_basis(a)
    assert len(basis) == len(to_sympy(a).nullspace())
    for v in basis:
        assert all(x == 0 for x in a.mul_vector(v))
    if basis:
        assert rat_rank(RatMatrix.from_columns(basis)) == len(basis)


@st.composite
def unimodular_matrices(draw):
    """Products of elementary integer matrices: row additions, swaps and
    sign flips applied to the identity."""
    n = draw(st.integers(0, 6))
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n:
        ops = draw(st.lists(st.tuples(st.sampled_from("asn"),
                                      st.integers(0, n - 1),
                                      st.integers(0, n - 1),
                                      st.integers(-3, 3)), max_size=15))
        for kind, i, j, a in ops:
            if kind == "a" and i != j:
                m[i] = [x + a * y for x, y in zip(m[i], m[j])]
            elif kind == "s":
                m[i], m[j] = m[j], m[i]
            elif kind == "n":
                m[i] = [-x for x in m[i]]
    return IntMatrix(m, cols=n)


@SETTINGS
@given(unimodular_matrices())
def test_int_inverse_unimodular_matches_sympy(a):
    inv = int_inverse_unimodular(a)
    assert all(type(x) is int for row in inv.data for x in row)
    assert a @ inv == IntMatrix.identity(a.rows)
    if a.rows:
        expected = sympy.Matrix(a.to_lists()).inv()
        assert inv.to_lists() == [[int(expected[i, j])
                                   for j in range(a.cols)]
                                  for i in range(a.rows)]


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_int_inverse_unimodular_rejects_other_matrices(rows):
    a = IntMatrix(rows)
    if abs(int(sympy.Matrix(rows).det())) == 1:
        assert a @ int_inverse_unimodular(a) == IntMatrix.identity(a.rows)
        return
    with pytest.raises(SingularInput):
        int_inverse_unimodular(a)


def test_int_inverse_unimodular_examples():
    with pytest.raises(SingularInput, match="singular"):
        int_inverse_unimodular(IntMatrix([[1, 2], [2, 4]]))
    with pytest.raises(SingularInput, match="not unimodular"):
        int_inverse_unimodular(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(DimensionMismatch):
        int_inverse_unimodular(IntMatrix([[1, 0]]))
    assert int_inverse_unimodular(IntMatrix([[2, 1], [1, 1]])) == \
        IntMatrix([[1, -1], [-1, 2]])
