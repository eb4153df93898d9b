"""Lattices in Q^n: membership, intersection with subspaces, complements.

A lattice is stored by a rational basis matrix whose columns are linearly
independent.  All computations are exact; subspace intersections reduce to
integer kernels via Smith normal form after clearing denominators.

The classifier no longer calls the intersection, complement or membership
routines: ``orders`` splits an order in its integer generator coordinates
and keeps only the ``Lattice`` container for the resulting bases.  The
routines stay as public API and as the independent oracle the tests
compare that splitting with; both take complements from
``normal_forms.saturated_complement``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch
from .matrices import IntMatrix, RatMatrix, rat_rank, rat_solve, \
    rat_kernel_basis
from .normal_forms import integer_kernel_basis, saturated_complement


class Lattice:
    """Subgroup of Q^n generated freely by independent basis columns."""

    __slots__ = ("basis",)

    def __init__(self, basis, check=True):
        if isinstance(basis, IntMatrix):
            basis = basis.to_rational()
        if not isinstance(basis, RatMatrix):
            raise TypeError("basis must be a RatMatrix or IntMatrix")
        if check and basis.cols and rat_rank(basis) != basis.cols:
            raise ValueError("basis columns are linearly dependent")
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *args):
        raise AttributeError("Lattice is immutable")

    @classmethod
    def standard(cls, n):
        return cls(RatMatrix.identity(n), check=False)

    @classmethod
    def from_columns(cls, columns, ambient_dim=None, check=True):
        return cls(RatMatrix.from_columns(columns, rows=ambient_dim),
                   check=check)

    @property
    def ambient_dim(self):
        return self.basis.rows

    @property
    def rank(self):
        return self.basis.cols

    def basis_columns(self):
        return self.basis.columns()

    def membership(self, vector):
        """Integer coordinates of vector in this lattice, or None.

        Raises DimensionMismatch when the vector lives in the wrong space.
        """
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch("vector has wrong ambient dimension")
        if self.rank == 0:
            return () if all(Fraction(x) == 0 for x in vector) else None
        x = rat_solve(self.basis, vector)
        if x is None:
            return None
        if any(c.denominator != 1 for c in x):
            return None
        return tuple(int(c) for c in x)

    def __contains__(self, vector):
        return self.membership(vector) is not None

    def __eq__(self, other):
        """Equality as subgroups (mutual membership), not as bases."""
        if not isinstance(other, Lattice):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.rank != other.rank:
            return False
        return (all(c in other for c in self.basis_columns()) and
                all(c in self for c in other.basis_columns()))

    def __repr__(self):
        return f"Lattice(rank={self.rank}, ambient={self.ambient_dim})"


def intersect_subspace(lattice, subspace):
    """Sublattice of elements lying in the rational span of ``subspace``.

    ``subspace`` is a RatMatrix whose columns span the subspace.  The result
    is saturated in the input lattice, so the quotient is torsion free.
    """
    if subspace.rows != lattice.ambient_dim:
        raise DimensionMismatch("subspace lives in the wrong ambient space")
    annihilator = rat_kernel_basis(subspace.transpose())
    if not annihilator:
        return lattice
    b = lattice.basis
    constraint_rows = []
    for f in annihilator:
        support = [(i, fi) for i, fi in enumerate(f) if fi]
        row = [sum((fi * b.entry(i, j) for i, fi in support), Fraction(0))
               for j in range(b.cols)]
        den = lcm(*(x.denominator for x in row)) if row else 1
        constraint_rows.append([int(x * den) for x in row])
    constraint = IntMatrix(constraint_rows, cols=b.cols)
    kernel = integer_kernel_basis(constraint)
    columns = [b.mul_vector([Fraction(c) for c in k]) for k in kernel]
    return Lattice(RatMatrix.from_columns(columns, rows=lattice.ambient_dim),
                   check=False)


def _split_complement_plain(lattice, sub):
    coords = []
    for col in sub.basis_columns():
        c = lattice.membership(col)
        if c is None:
            raise ValueError("second lattice is not a sublattice of the first")
        coords.append(c)
    if not coords:
        return lattice
    _, comp = saturated_complement(
        IntMatrix.from_columns(coords, rows=lattice.rank))
    cols = [lattice.basis.mul_vector([Fraction(x) for x in c]) for c in comp]
    return Lattice(RatMatrix.from_columns(cols, rows=lattice.ambient_dim),
                   check=False)


def column_degree(column, ambient_degrees):
    """Degree of a homogeneous vector; raises if mixed-degree."""
    degrees = {ambient_degrees[i] for i, x in enumerate(column) if x != 0}
    if len(degrees) > 1:
        raise ValueError("vector is not homogeneous")
    return degrees.pop() if degrees else None


def split_complement(lattice, sub, ambient_degrees=None):
    """Complement C with lattice = sub (+) C, direct sum of lattices.

    Requires the quotient to be torsion free (NotSaturated otherwise).
    When ``ambient_degrees`` labels the ambient coordinates, both bases must
    be homogeneous and the complement is chosen degree by degree.
    """
    if sub.ambient_dim != lattice.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if ambient_degrees is None:
        return _split_complement_plain(lattice, sub)
    by_degree = {}
    for col in lattice.basis_columns():
        deg = column_degree(col, ambient_degrees)
        if deg is not None:
            by_degree.setdefault(deg, ([], []))[0].append(col)
    for col in sub.basis_columns():
        deg = column_degree(col, ambient_degrees)
        if deg is not None:
            by_degree.setdefault(deg, ([], []))[1].append(col)
    ambient = lattice.ambient_dim
    out = []
    for deg in sorted(by_degree):
        big, small = by_degree[deg]
        piece = Lattice.from_columns(big, ambient_dim=ambient, check=False)
        sub_piece = Lattice.from_columns(small, ambient_dim=ambient,
                                         check=False)
        comp = _split_complement_plain(piece, sub_piece)
        out.extend(comp.basis_columns())
    return Lattice.from_columns(out, ambient_dim=ambient, check=False)
