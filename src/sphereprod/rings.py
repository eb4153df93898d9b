"""Graded rings with a distinguished homogeneous Z-basis.

The monomial index set is the eight subsets of {1, 2, 3}, encoded as 3-bit
masks (bit i-1 set when i is in the subset).  Basis elements are ordered by
(degree, mask), which makes every serialization deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    DimensionMismatch,
    InvalidCoefficientSequence,
    OverlappingSubsets,
)
from .matrices import RatMatrix

FULL_MASK = 0b111
ALL_MASKS = tuple(range(8))
PAIR_MASKS = (0b011, 0b101, 0b110)   # {1,2}, {1,3}, {2,3}


def mask_from_elements(elements):
    mask = 0
    for e in elements:
        if e not in (1, 2, 3):
            raise ValueError("subset elements must be 1, 2 or 3")
        mask |= 1 << (e - 1)
    return mask


def mask_elements(mask):
    return tuple(i + 1 for i in range(3) if mask >> i & 1)


def mask_degree(mask, degrees):
    return sum(degrees[i] for i in range(3) if mask >> i & 1)


def mask_label(mask, stem="a"):
    if mask == 0:
        return "1"
    return stem + "".join(str(e) for e in mask_elements(mask))


def basis_masks_by_degree(degrees):
    """Masks of the eight monomials sorted by (degree, mask)."""
    return sorted(ALL_MASKS, key=lambda m: (mask_degree(m, degrees), m))


def sign_of_product(sigma, tau, degrees):
    """Sign picked up when a monomial on sigma is multiplied by one on tau.

    Counts the pairs i < j with j in sigma, i in tau and both degrees odd;
    the sign is -1 exactly when that count is odd.
    """
    if sigma & tau:
        raise OverlappingSubsets("subsets overlap")
    count = 0
    for j in mask_elements(sigma):
        if degrees[j - 1] % 2 == 0:
            continue
        for i in mask_elements(tau):
            if i < j and degrees[i - 1] % 2 == 1:
                count += 1
    return -1 if count % 2 else 1


class CoefficientSequence:
    """Positive weights on the subsets of {1,2,3}.

    Subsets with at most one element always carry weight 1, and each
    pairwise weight must divide the full weight.
    """

    __slots__ = ("c12", "c13", "c23", "c123")

    def __init__(self, c12=1, c13=1, c23=1, c123=None):
        if c123 is None:
            c123 = lcm(c12, c13, c23)
        for name, value in (("c12", c12), ("c13", c13), ("c23", c23),
                            ("c123", c123)):
            if not isinstance(value, int) or value < 1:
                raise InvalidCoefficientSequence(
                    f"{name} must be a positive integer, got {value!r}")
        for name, value in (("c12", c12), ("c13", c13), ("c23", c23)):
            if c123 % value != 0:
                raise InvalidCoefficientSequence(
                    f"{name} = {value} does not divide c123 = {c123}")
        object.__setattr__(self, "c12", c12)
        object.__setattr__(self, "c13", c13)
        object.__setattr__(self, "c23", c23)
        object.__setattr__(self, "c123", c123)

    def __setattr__(self, *args):
        raise AttributeError("CoefficientSequence is immutable")

    @classmethod
    def ones(cls):
        return cls(1, 1, 1, 1)

    def value(self, mask):
        return {0b011: self.c12, 0b101: self.c13, 0b110: self.c23,
                0b111: self.c123}.get(mask, 1)

    @property
    def pairwise(self):
        return (self.c12, self.c13, self.c23)

    @property
    def lcm_pairwise(self):
        return lcm(self.c12, self.c13, self.c23)

    def __eq__(self, other):
        return (isinstance(other, CoefficientSequence) and
                (self.c12, self.c13, self.c23, self.c123) ==
                (other.c12, other.c13, other.c23, other.c123))

    def __hash__(self):
        return hash((self.c12, self.c13, self.c23, self.c123))

    def __repr__(self):
        return (f"CoefficientSequence(c12={self.c12}, c13={self.c13}, "
                f"c23={self.c23}, c123={self.c123})")

    def to_json_obj(self):
        return {"c": {"12": str(self.c12), "13": str(self.c13),
                      "23": str(self.c23), "123": str(self.c123)}}

    @classmethod
    def from_json_obj(cls, obj):
        from .serialize import _int_from_json
        table = obj.get("c", obj) if isinstance(obj, dict) else obj
        if not isinstance(table, dict):
            raise InvalidCoefficientSequence(
                "coefficient JSON must be an object of weights")

        def get(key, default):
            v = table.get(key)
            if v is None:
                return default
            try:
                return _int_from_json(v)
            except (TypeError, ValueError):
                raise InvalidCoefficientSequence(
                    f"weight {key} is not an integer: {v!r}") from None
        return cls(get("12", 1), get("13", 1), get("23", 1),
                   get("123", None))


def _integral_cell(cell):
    """A table cell as a tuple of ints; a Fraction must have denominator 1."""
    cell = tuple(cell)
    if all(type(x) is int for x in cell):
        return cell
    if any(isinstance(x, bool) or not isinstance(x, (int, Fraction))
           or x.denominator != 1 for x in cell):
        raise ValueError(f"structure constants {cell} are not integers")
    return tuple(int(x) for x in cell)


class StructRing:
    """Finitely generated free graded ring with integer structure constants.

    ``table[p][q]`` holds the coordinates of basis[p] * basis[q] in the
    basis, as a tuple of ints.  The constructor accepts ints and Fractions
    with denominator 1 and raises ValueError on any other constant.
    """

    __slots__ = ("labels", "degrees", "unit_index", "table")

    def __init__(self, labels, degrees, table, unit_index=None):
        labels = tuple(labels)
        degrees = tuple(int(d) for d in degrees)
        n = len(labels)
        if len(degrees) != n:
            raise DimensionMismatch("labels and degrees differ in length")
        if unit_index is None:
            zeros = [i for i, d in enumerate(degrees) if d == 0]
            if len(zeros) != 1:
                raise ValueError("unit index is ambiguous; pass unit_index")
            unit_index = zeros[0]
        table = tuple(
            tuple(map(_integral_cell, row))
            for row in table)
        if len(table) != n or any(len(row) != n for row in table) or any(
                len(cell) != n for row in table for cell in row):
            raise DimensionMismatch("multiplication table has wrong shape")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "unit_index", unit_index)
        object.__setattr__(self, "table", table)

    def __setattr__(self, *args):
        raise AttributeError("StructRing is immutable")

    @property
    def dim(self):
        return len(self.labels)

    def multiply(self, u, v):
        """Product of two coordinate vectors."""
        n = self.dim
        if len(u) != n or len(v) != n:
            raise DimensionMismatch("coordinate vector has wrong length")
        out = [0] * n
        for p, up in enumerate(u):
            if up == 0:
                continue
            for q, vq in enumerate(v):
                if vq == 0:
                    continue
                coeff = up * vq
                for r, x in enumerate(self.table[p][q]):
                    if x != 0:
                        out[r] += coeff * x
        return tuple(out)

    def unit_vector(self):
        return tuple(1 if i == self.unit_index else 0
                     for i in range(self.dim))

    def degree_indices(self):
        by_degree = {}
        for i, d in enumerate(self.degrees):
            by_degree.setdefault(d, []).append(i)
        return by_degree

    def __eq__(self, other):
        return (isinstance(other, StructRing) and
                self.labels == other.labels and
                self.degrees == other.degrees and
                self.unit_index == other.unit_index and
                self.table == other.table)

    def __hash__(self):
        return hash((self.labels, self.degrees, self.unit_index))

    def __repr__(self):
        return f"StructRing(dim={self.dim}, degrees={self.degrees})"


def build_weighted_ring(coeffs, degrees):
    """The rank-8 weighted ring on basis a_sigma.

    Products of disjoint subsets rescale by c(union)/(c(sigma) c(tau)) with
    the odd-degree sign rule; overlapping subsets multiply to zero.  The
    divisibility law makes every structure constant an integer.
    """
    if not isinstance(coeffs, CoefficientSequence):
        raise InvalidCoefficientSequence("expected a CoefficientSequence")
    masks = basis_masks_by_degree(degrees)
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    labels = [mask_label(m) for m in masks]
    degs = [mask_degree(m, degrees) for m in masks]
    table = [[None] * n for _ in range(n)]
    for p, mp in enumerate(masks):
        for q, mq in enumerate(masks):
            cell = [0] * n
            if not mp & mq:
                union = mp | mq
                num = coeffs.value(union)
                den = coeffs.value(mp) * coeffs.value(mq)
                if num % den != 0:
                    raise InvalidCoefficientSequence(
                        "divisibility law violated")
                cell[index[union]] = \
                    sign_of_product(mp, mq, degrees) * (num // den)
            table[p][q] = tuple(cell)
    return StructRing(labels, degs, table, unit_index=index[0])


def weighted_basis_masks(degrees):
    """Mask order used by build_weighted_ring, exposed for witnesses."""
    return basis_masks_by_degree(degrees)


def _sparse_table(table):
    return [[[(r, x) for r, x in enumerate(cell) if x != 0]
             for cell in row] for row in table]


def verify_ring_axioms(ring):
    """Exhaustive axiom check; returns a list of violation descriptions.

    Checks unitality, degree additivity, graded commutativity on all basis
    pairs, and associativity on all basis triples.  Works on the sparse
    support of the table, so it stays cheap even when called in a grid.
    """
    violations = []
    n = ring.dim
    unit = ring.unit_index
    sparse = _sparse_table(ring.table)

    for i in range(n):
        if sparse[unit][i] != [(i, 1)]:
            violations.append(f"1 * {ring.labels[i]} != {ring.labels[i]}")
        if sparse[i][unit] != [(i, 1)]:
            violations.append(f"{ring.labels[i]} * 1 != {ring.labels[i]}")

    for p in range(n):
        for q in range(n):
            target = ring.degrees[p] + ring.degrees[q]
            for r, x in sparse[p][q]:
                if ring.degrees[r] != target:
                    violations.append(
                        f"{ring.labels[p]} * {ring.labels[q]} hits degree "
                        f"{ring.degrees[r]}, expected {target}")

    for p in range(n):
        for q in range(p, n):
            sign = -1 if (ring.degrees[p] % 2 and ring.degrees[q] % 2) else 1
            backward = [(r, sign * x) for r, x in sparse[q][p]]
            if backward != sparse[p][q]:
                violations.append(
                    f"graded commutativity fails on "
                    f"({ring.labels[p]}, {ring.labels[q]})")

    for p in range(n):
        for q in range(n):
            pq = sparse[p][q]
            for r in range(n):
                left = {}
                for s, c in pq:
                    for t, x in sparse[s][r]:
                        left[t] = left.get(t, 0) + c * x
                right = {}
                for s, c in sparse[q][r]:
                    for t, x in sparse[p][s]:
                        right[t] = right.get(t, 0) + c * x
                left = {t: v for t, v in left.items() if v != 0}
                right = {t: v for t, v in right.items() if v != 0}
                if left != right:
                    violations.append(
                        f"associativity fails on ({ring.labels[p]}, "
                        f"{ring.labels[q]}, {ring.labels[r]})")
    return violations


class RingMapWitness:
    """Degree-preserving linear map between ring bases.

    Column j holds the coordinates of the image of source basis element j
    in the target basis.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        if not isinstance(matrix, RatMatrix):
            matrix = matrix.to_rational()
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *args):
        raise AttributeError("RingMapWitness is immutable")

    @classmethod
    def identity(cls, n):
        return cls(RatMatrix.identity(n))

    def apply(self, vector):
        return self.matrix.mul_vector(vector)


def check_ring_map(witness, src, dst):
    """True iff the witness is a unit-preserving, degree-preserving ring
    map whose degreewise blocks are unimodular over Z.

    Such a map is an isomorphism of the underlying orders.
    """
    m = witness.matrix
    if m.rows != dst.dim or m.cols != src.dim:
        raise DimensionMismatch("witness matrix has wrong shape")
    if sorted(src.degrees) != sorted(dst.degrees):
        raise DimensionMismatch("graded dimensions are incompatible")

    for j in range(src.dim):
        for i in range(dst.dim):
            if m.entry(i, j) != 0 and src.degrees[j] != dst.degrees[i]:
                return False

    unit_image = m.column(src.unit_index)
    if unit_image != dst.unit_vector():
        return False

    sparse_cols = [[(i, m.entry(i, j)) for i in range(dst.dim)
                    if m.entry(i, j) != 0] for j in range(src.dim)]
    src_sparse = _sparse_table(src.table)
    dst_sparse = _sparse_table(dst.table)
    for p in range(src.dim):
        for q in range(src.dim):
            left = {}
            for s, c in src_sparse[p][q]:
                for i, w in sparse_cols[s]:
                    left[i] = left.get(i, 0) + c * w
            right = {}
            for i, wp in sparse_cols[p]:
                for j, wq in sparse_cols[q]:
                    coeff = wp * wq
                    for r, x in dst_sparse[i][j]:
                        right[r] = right.get(r, 0) + coeff * x
            left = {k: v for k, v in left.items() if v != 0}
            right = {k: v for k, v in right.items() if v != 0}
            if left != right:
                return False

    src_by_degree = src.degree_indices()
    dst_by_degree = dst.degree_indices()
    for degree, src_idx in src_by_degree.items():
        dst_idx = dst_by_degree.get(degree, [])
        if len(dst_idx) != len(src_idx):
            return False
        block = [[m.entry(i, j) for j in src_idx] for i in dst_idx]
        if any(x.denominator != 1 for row in block for x in row):
            return False
        from .matrices import IntMatrix
        if abs(IntMatrix([[int(x) for x in row] for row in block],
                         cols=len(src_idx)).det()) != 1:
            return False
    return True
