"""Hermite and Smith normal forms with unimodular transformation witnesses.

Conventions are fixed once so that results are bit-exact reproducible:

* ``hnf`` is row-style: U @ A = H with pivots positive and the entries above
  each pivot reduced into [0, pivot).
* ``snf`` returns U @ A @ V = D with D diagonal, nonnegative, and each
  diagonal entry dividing the next, together with U^-1 and V^-1, built by
  applying the inverse of each row and column operation as it is made.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, NotSaturated, SingularInput
from .matrices import IntMatrix


def _int_matrix(rows, cols):
    """Wrap working rows without checking their entries again: they are
    ints, from integer row and column operations on a validated matrix."""
    return IntMatrix._trusted(tuple(map(tuple, rows)), cols)


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def _rowop_gcd(m, u, r, i, col, w=None):
    """Unimodular row operation putting gcd at (r, col) and 0 at (i, col).

    The operation E is applied to the rows of m and u; when given, w holds
    the transpose of u's inverse and gets the inverse transpose of E, so
    that it stays the transpose of u^-1.
    """
    a, b = m[r][col], m[i][col]
    if b == 0:
        return
    if a == 0:
        # plain signed swap keeps the transform unimodular; it is its own
        # inverse transpose, and so is the sign change that may follow
        m[r], m[i] = m[i], [-x for x in m[r]]
        u[r], u[i] = u[i], [-x for x in u[r]]
        if w is not None:
            w[r], w[i] = w[i], [-x for x in w[r]]
        if m[r][col] < 0:
            m[r] = [-x for x in m[r]]
            u[r] = [-x for x in u[r]]
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
            if w is not None:
                w[r] = [-x for x in w[r]]
                w[i] = [-x for x in w[i]]
        return
    if b % a == 0:
        # elementary shear; the pivot row is left untouched, which the
        # termination argument of snf relies on
        q = b // a
        m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        if w is not None:
            w[r] = [x + q * y for x, y in zip(w[r], w[i])]
        return
    g, s, t = xgcd(a, b)
    p, q = -(b // g), a // g
    row_r = [s * x + t * y for x, y in zip(m[r], m[i])]
    row_i = [p * x + q * y for x, y in zip(m[r], m[i])]
    m[r], m[i] = row_r, row_i
    urow_r = [s * x + t * y for x, y in zip(u[r], u[i])]
    urow_i = [p * x + q * y for x, y in zip(u[r], u[i])]
    u[r], u[i] = urow_r, urow_i
    if w is not None:
        # [[s, t], [p, q]] has determinant 1 and inverse transpose
        # [[q, -p], [-t, s]]
        wrow_r = [q * x - p * y for x, y in zip(w[r], w[i])]
        wrow_i = [s * y - t * x for x, y in zip(w[r], w[i])]
        w[r], w[i] = wrow_r, wrow_i


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
    u = _identity_rows(rows)
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
    """Smith normal form data: U @ A @ V = D with U, V unimodular, and
    their inverses Uinv, Vinv."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix

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
        if not ((self.U @ self.Uinv).is_identity()
                and (self.V @ self.Vinv).is_identity()):
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


def _colop_gcd(m, v, vinv, c, j, row):
    """Unimodular column operation putting gcd at (row, c) and 0 at (row, j).

    The operation F is applied to the columns of m and v, and its inverse
    to the rows of vinv, which so stays the inverse of v.
    """
    a, b = m[row][c], m[row][j]
    if b == 0:
        return
    if a == 0:
        for r in m:
            r[c], r[j] = r[j], -r[c]
        for r in v:
            r[c], r[j] = r[j], -r[c]
        vinv[c], vinv[j] = vinv[j], [-x for x in vinv[c]]
        return
    if b % a == 0:
        q = b // a
        for r in m:
            r[j] -= q * r[c]
        for r in v:
            r[j] -= q * r[c]
        vinv[c] = [x + q * y for x, y in zip(vinv[c], vinv[j])]
        return
    g, s, t = xgcd(a, b)
    p, q = -(b // g), a // g
    for r in m:
        r[c], r[j] = s * r[c] + t * r[j], p * r[c] + q * r[j]
    for r in v:
        r[c], r[j] = s * r[c] + t * r[j], p * r[c] + q * r[j]
    vrow_c = [q * x - p * y for x, y in zip(vinv[c], vinv[j])]
    vrow_j = [s * y - t * x for x, y in zip(vinv[c], vinv[j])]
    vinv[c], vinv[j] = vrow_c, vrow_j


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
    u, v = _identity_rows(rows), _identity_rows(cols)
    # the transpose of U^-1 (row operations on U invert to row operations
    # on it) and V^-1 itself (column operations on V invert to row
    # operations on V^-1)
    uinv_t, vinv = _identity_rows(rows), _identity_rows(cols)
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
            uinv_t[t], uinv_t[bi] = uinv_t[bi], uinv_t[t]
        if bj != t:
            for r in m:
                r[t], r[bj] = r[bj], r[t]
            for r in v:
                r[t], r[bj] = r[bj], r[t]
            vinv[t], vinv[bj] = vinv[bj], vinv[t]
        while True:
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    _rowop_gcd(m, u, t, i, t, uinv_t)
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    _colop_gcd(m, v, vinv, t, j, t)
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
            uinv_t[culprit] = [x - y for x, y in
                               zip(uinv_t[culprit], uinv_t[t])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
            uinv_t[t] = [-x for x in uinv_t[t]]
    return SNFResult(D=_int_matrix(m, cols), U=_int_matrix(u, rows),
                     V=_int_matrix(v, cols),
                     Uinv=_int_matrix(zip(*uinv_t), rows),
                     Vinv=_int_matrix(vinv, cols))


def snf_constrained_sl(matrix, side="right"):
    """Smith normal form where one transformation has determinant +1.

    The sign is moved by negating the first column of V together with the
    first row of U (and the first row of V^-1 and column of U^-1); that
    leaves D untouched, so the divisibility chain and nonnegativity are
    preserved.
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
    uinv = res.Uinv.to_lists()
    vinv = res.Vinv.to_lists()
    u[0] = [-x for x in u[0]]
    vinv[0] = [-x for x in vinv[0]]
    for r in v:
        r[0] = -r[0]
    for r in uinv:
        r[0] = -r[0]
    n = res.U.cols
    return SNFResult(D=res.D, U=_int_matrix(u, n), V=_int_matrix(v, n),
                     Uinv=_int_matrix(uinv, n), Vinv=_int_matrix(vinv, n))


def saturated_complement(sub):
    """Smith form of a saturated sublattice and the columns of a complement.

    The columns of ``sub`` are the coordinates of a basis of a sublattice S
    of Z^n.  With U @ sub @ V = D, S is saturated (Z^n / S torsion free)
    exactly when D has s = sub.cols diagonal entries, all equal to 1; then
    the first s columns of U^-1 span S, the others a complement C with
    Z^n = S (+) C, and U maps a vector to its coordinates in that basis.
    Returns the Smith result and the complement columns; raises
    NotSaturated otherwise.
    """
    res = snf(sub)
    diag = res.diagonal
    if len([d for d in diag if d != 0]) != sub.cols or any(
            d not in (0, 1) for d in diag):
        raise NotSaturated("quotient by the sublattice has torsion")
    return res, [res.Uinv.column(j) for j in range(sub.cols, sub.rows)]


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
