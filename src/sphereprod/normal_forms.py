"""Hermite and Smith normal forms with unimodular transformation witnesses.

Conventions are fixed once so that results are bit-exact reproducible:

* ``hnf`` is row-style: U @ A = H with pivots positive and the entries above
  each pivot reduced into [0, pivot).
* ``snf`` returns U @ A @ V = D with D diagonal, nonnegative, and each
  diagonal entry dividing the next.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, SingularInput
from .matrices import IntMatrix


def _int_matrix(rows, cols):
    """Wrap working rows without checking their entries again: they are
    ints, from integer row and column operations on a validated matrix."""
    return IntMatrix._trusted(tuple(map(tuple, rows)), cols)


def xgcd(a, b):
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _rowop_gcd(m, u, r, i, col):
    """Unimodular row operation putting gcd at (r, col) and 0 at (i, col)."""
    a, b = m[r][col], m[i][col]
    if b == 0:
        return
    if a == 0:
        # plain signed swap keeps the transform unimodular
        m[r], m[i] = m[i], [-x for x in m[r]]
        u[r], u[i] = u[i], [-x for x in u[r]]
        if m[r][col] < 0:
            m[r] = [-x for x in m[r]]
            u[r] = [-x for x in u[r]]
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
        return
    if b % a == 0:
        # elementary shear; the pivot row is left untouched, which the
        # termination argument of snf relies on
        q = b // a
        m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        return
    g, s, t = xgcd(a, b)
    p, q = -(b // g), a // g
    row_r = [s * x + t * y for x, y in zip(m[r], m[i])]
    row_i = [p * x + q * y for x, y in zip(m[r], m[i])]
    m[r], m[i] = row_r, row_i
    urow_r = [s * x + t * y for x, y in zip(u[r], u[i])]
    urow_i = [p * x + q * y for x, y in zip(u[r], u[i])]
    u[r], u[i] = urow_r, urow_i


def hnf(matrix):
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and U @ A = H.  Applying hnf to a
    matrix already in Hermite form returns it unchanged with U = identity.
    """
    if not isinstance(matrix, IntMatrix):
        # the results are built unchecked from this matrix's entries
        raise TypeError(f"IntMatrix expected, got {type(matrix).__name__}")
    m = matrix.to_lists()
    rows, cols = matrix.rows, matrix.cols
    u = IntMatrix.identity(rows).to_lists()
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        nonzero = [i for i in range(pivot_row, rows) if m[i][col] != 0]
        if not nonzero:
            continue
        for i in nonzero:
            if i == pivot_row:
                continue
            _rowop_gcd(m, u, pivot_row, i, col)
        if m[pivot_row][col] < 0:
            m[pivot_row] = [-x for x in m[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = m[pivot_row][col]
        for i in range(pivot_row):
            q = m[i][col] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[pivot_row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
        pivot_row += 1
    return _int_matrix(m, cols), _int_matrix(u, rows)


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form data: U @ A @ V = D with U, V unimodular."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self):
        return self.D.diagonal()

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    def verify(self, matrix):
        if self.U @ matrix @ self.V != self.D:
            return False
        if abs(self.U.det()) != 1 or abs(self.V.det()) != 1:
            return False
        diag = self.diagonal
        if any(d < 0 for d in diag):
            return False
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                return False
            if a != 0 and b % a != 0:
                return False
        return self.D.is_diagonal()


def _colop_gcd(m, v, c, j, row):
    """Unimodular column operation putting gcd at (row, c) and 0 at (row, j)."""
    a, b = m[row][c], m[row][j]
    if b == 0:
        return
    if a == 0:
        for r in m:
            r[c], r[j] = r[j], -r[c]
        for r in v:
            r[c], r[j] = r[j], -r[c]
        return
    if b % a == 0:
        q = b // a
        for r in m:
            r[j] -= q * r[c]
        for r in v:
            r[j] -= q * r[c]
        return
    g, s, t = xgcd(a, b)
    p, q = -(b // g), a // g
    for r in m:
        r[c], r[j] = s * r[c] + t * r[j], p * r[c] + q * r[j]
    for r in v:
        r[c], r[j] = s * r[c] + t * r[j], p * r[c] + q * r[j]


def snf(matrix):
    """Smith normal form with transformation witnesses.

    Deterministic: the pivot is always the entry of smallest absolute value
    in the working submatrix, ties broken by position.
    """
    if not isinstance(matrix, IntMatrix):
        # the results are built unchecked from this matrix's entries
        raise TypeError(f"IntMatrix expected, got {type(matrix).__name__}")
    rows, cols = matrix.rows, matrix.cols
    m = matrix.to_lists()
    u = IntMatrix.identity(rows).to_lists()
    v = IntMatrix.identity(cols).to_lists()
    for t in range(min(rows, cols)):
        # locate pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            m[t], m[bi] = m[bi], m[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for r in m:
                r[t], r[bj] = r[bj], r[t]
            for r in v:
                r[t], r[bj] = r[bj], r[t]
        while True:
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    _rowop_gcd(m, u, t, i, t)
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    _colop_gcd(m, v, t, j, t)
            if any(m[i][t] != 0 for i in range(t + 1, rows)):
                continue
            if any(m[t][j] != 0 for j in range(t + 1, cols)):
                continue
            p = m[t][t]
            culprit = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % p != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[culprit])]
            u[t] = [x + y for x, y in zip(u[t], u[culprit])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
    return SNFResult(D=_int_matrix(m, cols), U=_int_matrix(u, rows),
                     V=_int_matrix(v, cols))


def snf_constrained_sl(matrix, side="right"):
    """Smith normal form where one transformation has determinant +1.

    The sign is moved by negating the first column of V together with the
    first row of U; that leaves D untouched, so the divisibility chain and
    nonnegativity are preserved.
    """
    if matrix.rows != matrix.cols:
        raise DimensionMismatch("constrained SNF expects a square matrix")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if matrix.det() == 0:
        raise SingularInput("constrained SNF requires a nonsingular matrix")
    res = snf(matrix)
    det = res.V.det() if side == "right" else res.U.det()
    if det == 1:
        return res
    u = res.U.to_lists()
    v = res.V.to_lists()
    u[0] = [-x for x in u[0]]
    for r in v:
        r[0] = -r[0]
    return SNFResult(D=res.D, U=_int_matrix(u, res.U.cols),
                     V=_int_matrix(v, res.V.cols))


def integer_kernel_basis(matrix):
    """Z-basis of the integer kernel {x : matrix @ x = 0}, as columns.

    The returned lattice is saturated: the quotient of the ambient lattice
    by it is torsion free.
    """
    res = snf(matrix)
    rank = res.rank
    return [res.V.column(j) for j in range(rank, matrix.cols)]


def elementary_divisors_via_minors(matrix):
    """Elementary divisors from gcds of k x k minors (independent oracle)."""
    from itertools import combinations
    from math import gcd

    rows, cols = matrix.rows, matrix.cols
    n = min(rows, cols)
    divisors = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, matrix.submatrix(ri, ci).det())
                # gcd can only shrink; 1 is already minimal
            if g == 1:
                break
        if g == 0:
            divisors.extend([0] * (n - k + 1))
            break
        divisors.append(g // prev)
        prev = g
    return divisors
