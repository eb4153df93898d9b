"""Dense exact matrices over the integers and the rationals.

Entries are Python ints (arbitrary precision) or fractions.Fraction (always
in lowest terms with positive denominator), so no operation ever overflows
or rounds.  Matrices are immutable; algorithms copy the entries into lists,
mutate those, and wrap the result.  Every public constructor validates each
entry; results of operations that cannot leave the entry type (identity,
zeros, transpose, an integer product) skip that check.

All rational elimination (rank, solve, inverse, kernel and determinant)
goes through the single Gauss-Jordan routine ``_gauss_jordan``.  Integer
algorithms stay fraction-free: the determinant uses Bareiss elimination,
and the inverse of a unimodular matrix is the transform of its Hermite
form.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, SingularInput


class _Matrix:
    """Shared body of IntMatrix and RatMatrix.

    Subclasses set ``_zero`` and ``_coerce``, which validates one entry and
    converts it to the subclass's entry type.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        coerce = self._coerce
        data = tuple(tuple(coerce(x) for x in row) for row in data)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    @classmethod
    def _trusted(cls, data, cols):
        """Wrap a tuple of equal-length row tuples whose entries already
        have the class's entry type, without checking them again."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        return self

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def identity(cls, n):
        one, zero = cls._one, cls._zero
        return cls._trusted(tuple(tuple(one if i == j else zero
                                        for j in range(n)) for i in range(n)),
                            n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._trusted(((cls._zero,) * cols,) * rows, cols)

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = [tuple(c) for c in columns]
        if columns:
            rows = len(columns[0])
        elif rows is None:
            rows = 0
        return cls([[col[i] for col in columns] for i in range(rows)],
                   cols=len(columns))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def to_lists(self):
        return [list(row) for row in self.data]

    def transpose(self):
        return self._trusted(tuple(zip(*self.data)) if self.rows else
                             ((),) * self.cols, self.rows)

    def __matmul__(self, other):
        """Matrix product; an integer and a rational factor give a
        rational product."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        ot = other.transpose().data
        data = [[sum(a * b for a, b in zip(row, col)) for col in ot]
                for row in self.data]
        if type(self) is IntMatrix and type(other) is IntMatrix:
            return IntMatrix._trusted(tuple(map(tuple, data)), other.cols)
        cls = type(self) if type(other) is type(self) else RatMatrix
        return cls(data, cols=other.cols)

    def mul_vector(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match cols")
        zero = self._zero
        return tuple(sum((a * b for a, b in zip(row, v)), zero)
                     for row in self.data)

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.shape == other.shape
                and self.data == other.data)

    def __hash__(self):
        return hash((self.shape, self.data))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_lists()!r})"


def _check_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry expected, got {type(x).__name__}")
    return x


def _check_frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"rational entry expected, got {type(x).__name__}")


class IntMatrix(_Matrix):
    """Immutable dense matrix with integer entries."""

    __slots__ = ()
    _zero, _one = 0, 1
    _coerce = staticmethod(_check_int)

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in addition")
        return IntMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)],
                         cols=self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntMatrix([[-a for a in row] for row in self.data],
                         cols=self.cols)

    def scale(self, k):
        return IntMatrix([[k * a for a in row] for row in self.data],
                         cols=self.cols)

    def is_identity(self):
        return (self.rows == self.cols and
                all(self.data[i][j] == (1 if i == j else 0)
                    for i in range(self.rows) for j in range(self.cols)))

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def is_diagonal(self):
        return all(self.data[i][j] == 0
                   for i in range(self.rows) for j in range(self.cols)
                   if i != j)

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def submatrix(self, row_indices, col_indices):
        return IntMatrix([[self.data[i][j] for j in col_indices]
                          for i in row_indices], cols=len(col_indices))

    def det(self):
        """Determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def to_rational(self):
        return RatMatrix([[Fraction(x) for x in row] for row in self.data],
                         cols=self.cols)


class RatMatrix(_Matrix):
    """Immutable dense matrix with rational entries."""

    __slots__ = ()
    _zero, _one = Fraction(0), Fraction(1)
    _coerce = staticmethod(_check_frac)

    def det(self):
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        pivots, det = _gauss_jordan(self.to_lists(), self.cols)
        return det if len(pivots) == self.cols else Fraction(0)


def _rational_rows(matrix):
    if isinstance(matrix, IntMatrix):
        matrix = matrix.to_rational()
    return matrix.to_lists()


def _gauss_jordan(m, cols):
    """Reduce the first ``cols`` columns of the rows ``m`` in place.

    ``m`` is a list of lists of Fractions, possibly with extra columns on
    the right (a right-hand side or an identity block) that follow the row
    operations.  On return the first ``len(pivots)`` rows are in reduced
    row echelon form, with pivot ``r`` equal to 1 in column ``pivots[r]``.
    Returns ``(pivots, det)``, where ``det`` is the product of the pivots
    met, negated once per row swap; it is the determinant when the
    reduced block is square and every column has a pivot.
    """
    rows = len(m)
    pivots = []
    # the pivot product as integer numerator and denominator: one Fraction
    # at the end costs less than a Fraction product per pivot
    num = den = 1
    for col in range(cols):
        rank = len(pivots)
        for pivot in range(rank, rows):
            if m[pivot][col] != 0:
                break
        else:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            num = -num
        p = m[rank][col]
        num *= p.numerator
        den *= p.denominator
        inv = 1 / p
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
    return pivots, Fraction(num, den)


def rat_rank(matrix):
    """Rank over the rationals, by Gauss-Jordan elimination."""
    return len(_gauss_jordan(_rational_rows(matrix), matrix.cols)[0])


def rat_solve(matrix, rhs):
    """Solve matrix @ x = rhs exactly.

    Returns the solution tuple, or None when the system is inconsistent.
    Free variables (columns without a pivot) are set to zero, so for a
    full-column-rank matrix the returned solution is the unique one.
    """
    if len(rhs) != matrix.rows:
        raise DimensionMismatch("right-hand side has wrong length")
    cols = matrix.cols
    m = [row + [_check_frac(b)]
         for row, b in zip(_rational_rows(matrix), rhs)]
    pivots, _ = _gauss_jordan(m, cols)
    if any(m[i][cols] != 0 for i in range(len(pivots), len(m))):
        return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = m[r][cols]
    return tuple(x)


def rat_inverse(matrix):
    """Exact inverse of a square rational matrix."""
    if matrix.rows != matrix.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = matrix.rows
    m = [row + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(_rational_rows(matrix))]
    pivots, _ = _gauss_jordan(m, n)
    if len(pivots) < n:
        raise SingularInput("matrix is singular")
    return RatMatrix([row[n:] for row in m], cols=n)


def int_inverse_unimodular(matrix):
    """Inverse of a unimodular integer matrix, returned over the integers.

    The Hermite form of a unimodular matrix is the identity, so the
    transform U of U @ A = H is the inverse (Kannan & Bachem 1979).
    """
    from .normal_forms import hnf
    if matrix.rows != matrix.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    h, u = hnf(matrix)
    if h != IntMatrix.identity(matrix.rows):
        raise SingularInput("matrix is singular" if not any(h.data[-1])
                            else "matrix is not unimodular")
    return u


def rat_kernel_basis(matrix):
    """Basis (list of tuples) of the rational right kernel of matrix."""
    cols = matrix.cols
    m = _rational_rows(matrix)
    pivots, _ = _gauss_jordan(m, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis
