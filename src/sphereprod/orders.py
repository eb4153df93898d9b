"""Orders in the three-generated sphere-product algebra.

The ambient algebra has the eight monomials x_sigma as a Q-basis, indexed
by subset masks 0..7 in mask order.  An order is given by eight homogeneous
generators; verification checks closure exactly, decomposition splits off
the graded slices of the powers of the augmentation ideal, and the
classifier either produces a coefficient sequence with an isomorphism
witness onto the weighted model ring or certifies that none exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .alt2 import alt2, alt2_section
from .errors import (
    InternalCheckFailed,
    InvalidOrderInput,
    NotClosed,
    NotUnital,
    SingularInput,
    WrongRank,
)
from .lattices import Lattice, column_degree
from .matrices import IntMatrix, RatMatrix, int_inverse_unimodular, \
    rat_inverse
from .normal_forms import saturated_complement, snf, snf_constrained_sl
from .rings import (
    CoefficientSequence,
    RingMapWitness,
    StructRing,
    build_weighted_ring,
    check_ring_map,
    mask_degree,
    sign_of_product,
    weighted_basis_masks,
)

MASKS = tuple(range(8))
FULL_MASK = 0b111


def ambient_degrees(degrees):
    return tuple(mask_degree(m, degrees) for m in MASKS)


def r_multiply(u, v, degrees):
    """Product of two vectors in the monomial coordinates of the algebra."""
    out = [Fraction(0)] * 8
    for p in MASKS:
        up = u[p]
        if up == 0:
            continue
        for q in MASKS:
            vq = v[q]
            if vq == 0 or p & q:
                continue
            out[p | q] += up * vq * sign_of_product(p, q, degrees)
    return tuple(out)


def unit_vector():
    return tuple(Fraction(1) if m == 0 else Fraction(0) for m in MASKS)


@dataclass(frozen=True)
class OrderGenerator:
    degree: int
    vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "vector",
                           tuple(Fraction(x) for x in self.vector))
        if len(self.vector) != 8:
            raise InvalidOrderInput("generator vectors must have length 8")


class OrderInput:
    """Degrees plus eight homogeneous generators of a candidate order."""

    __slots__ = ("degrees", "generators")

    def __init__(self, degrees, generators):
        degrees = tuple(int(d) for d in degrees)
        if len(degrees) != 3 or any(d < 1 for d in degrees):
            raise InvalidOrderInput("three positive degrees are required")
        generators = tuple(
            g if isinstance(g, OrderGenerator) else OrderGenerator(*g)
            for g in generators)
        if len(generators) != 8:
            raise InvalidOrderInput("exactly eight generators are required")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, *args):
        raise AttributeError("OrderInput is immutable")

    def to_json_obj(self):
        from .serialize import fraction_to_str
        return {
            "degrees": list(self.degrees),
            "generators": [
                {"degree": g.degree,
                 "vector": [fraction_to_str(x) for x in g.vector]}
                for g in self.generators],
        }

    @classmethod
    def from_json_obj(cls, obj):
        from .serialize import _int_from_json, fraction_from_str
        try:
            degrees = [_int_from_json(d) for d in obj["degrees"]]
            generators = [(_int_from_json(g["degree"]),
                           [fraction_from_str(x) for x in g["vector"]])
                          for g in obj["generators"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidOrderInput(
                f"malformed order JSON ({type(exc).__name__}: {exc})"
            ) from None
        return cls(degrees, generators)


def monomial_order_input(degrees, coeffs=None):
    """The order generated by (1/c_sigma) x_sigma, in (degree, mask) order."""
    coeffs = coeffs or CoefficientSequence.ones()
    adeg = ambient_degrees(degrees)
    gens = []
    for mask in weighted_basis_masks(degrees):
        vec = [Fraction(0)] * 8
        vec[mask] = Fraction(1, coeffs.value(mask))
        gens.append(OrderGenerator(adeg[mask], tuple(vec)))
    return OrderInput(degrees, gens)


class _OrderContext:
    """One verified order input: exact solvers plus its structure ring.

    Construction runs every check of verify_order once (rank, unit,
    closure); the classifier stages share the result.
    """

    def __init__(self, inp):
        self.degrees = inp.degrees
        self.adeg = ambient_degrees(inp.degrees)
        vectors = []
        for g in inp.generators:
            support_degrees = {self.adeg[m] for m in MASKS
                               if g.vector[m] != 0}
            if support_degrees and support_degrees != {g.degree}:
                raise InvalidOrderInput(
                    f"generator labelled degree {g.degree} is supported on "
                    f"degrees {sorted(support_degrees)}")
            if not support_degrees:
                raise InvalidOrderInput("zero generator")
            vectors.append(list(g.vector))
        # normalize the degree-0 generator to +1 so it can serve as unit
        for vec in vectors:
            if vec[0] != 0 and vec[0] < 0:
                for m in MASKS:
                    vec[m] = -vec[m]
        self.gen_vectors = [tuple(v) for v in vectors]
        expected = sorted(self.adeg)
        got = sorted(g.degree for g in inp.generators)
        if expected != got:
            raise WrongRank(
                f"generator degrees {got} do not match the graded "
                f"dimensions {expected}")
        self.gen_degrees = tuple(g.degree for g in inp.generators)
        # the basis is block diagonal by degree: invert each block once and
        # keep it as an integer matrix over one common denominator
        self._blocks = []
        for deg in sorted(set(self.adeg)):
            masks = [m for m in MASKS if self.adeg[m] == deg]
            gens = [i for i, d in enumerate(self.gen_degrees) if d == deg]
            block = RatMatrix([[self.gen_vectors[i][m] for i in gens]
                               for m in masks])
            try:
                inv = rat_inverse(block)
            except SingularInput:
                raise WrongRank("generators are linearly dependent") \
                    from None
            den = lcm(*(x.denominator for row in inv.data for x in row))
            num = [[x.numerator * (den // x.denominator) for x in row]
                   for row in inv.data]
            self._blocks.append((masks, gens, num, den))
        # an order contains 1 and is closed under products of generators
        if self.int_coords(unit_vector()) is None:
            raise NotUnital("the element 1 does not lie in the lattice")
        n = 8
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                product = r_multiply(self.gen_vectors[i],
                                     self.gen_vectors[j], self.degrees)
                coords = self.int_coords(product)
                if coords is None:
                    raise NotClosed(
                        f"product of generators {i} and {j} escapes the "
                        f"lattice", left=i, right=j, product=product)
                row.append(coords)
            table.append(row)
        unit_index = self.gen_degrees.index(0)
        labels = tuple(f"g{i}" for i in range(n))
        self.ring = StructRing(labels, self.gen_degrees, table,
                               unit_index=unit_index)

    def int_coords(self, vector):
        """Integer coordinates of vector in the generators, or None."""
        out = [0] * 8
        for masks, gens, num, den in self._blocks:
            part = [vector[m] for m in masks]
            if not any(part):
                continue
            # clear the slice's denominators: w = e * part is integral
            e = lcm(*(x.denominator for x in part))
            w = [x.numerator * (e // x.denominator) for x in part]
            de = den * e
            for i, row in zip(gens, num):
                q, r = divmod(sum(a * b for a, b in zip(row, w)), de)
                if r:
                    return None
                out[i] = q
        return tuple(out)


def verify_order(inp):
    """Check that the input generates an order; return its ring structure.

    Raises WrongRank, NotUnital or NotClosed when the input fails; the
    returned StructRing carries the integer structure constants of the
    order in its own (sign-normalized) generator basis.
    """
    return _OrderContext(inp).ring


@dataclass(frozen=True)
class Decomposition:
    """Graded splitting unit + L1 + L2 + L3 of an order.

    ``l2_coords`` maps each degree of L2 to (gens, rows, skip).  The rows
    send the generator coordinates (at positions ``gens``) of an element of
    the order of that degree to its coordinates in the Smith basis of the
    degree block: first outside N2, then in N3, then in L2.  The element
    lies in L2 exactly when the first ``skip`` of them vanish.
    """

    unit: tuple
    l1: Lattice
    l2: Lattice
    l3: Lattice
    ambient_degrees: tuple
    l2_coords: dict = field(default_factory=dict, compare=False)

    def part(self, i):
        return (self.l1, self.l2, self.l3)[i - 1]

    def part_degrees(self, i):
        return [column_degree(c, self.ambient_degrees)
                for c in self.part(i).basis_columns()]


def _matvec(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def _combine(coeffs, vectors):
    """The combination sum_k coeffs[k] * vectors[k] of equal-length vectors."""
    return [sum(a * v[i] for a, v in zip(coeffs, vectors))
            for i in range(len(vectors[0]))]


def _ambient(masks, rows, den, coeffs):
    """The vector with generator coordinates coeffs in a degree block whose
    generator entries at ``masks`` are the integer rows over den."""
    vec = [Fraction(0)] * 8
    for m, row in zip(masks, rows):
        vec[m] = Fraction(sum(a * b for a, b in zip(row, coeffs)), den)
    return tuple(vec)


def _power_piece(masks, vectors, power):
    """Intersection of one degree block of the order with the power of the
    augmentation ideal, in the block's generator coordinates.

    It is the integer kernel of the generators' entries at every mask that
    is not a monomial of this degree in the power, one row per mask in mask
    order (the rows of other degrees are zero) and each row cleared of its
    denominators.  Returns (kernel columns, V^-1, rank) of the Smith form,
    where rows rank: of V^-1 map a kernel element to its coordinates, or
    None when no monomial of the block lies in the power.
    """
    inside = [m for m in masks if bin(m).count("1") >= power]
    if not inside:
        return None
    rows = []
    for m in MASKS:
        if m not in inside:
            row = [v[m] for v in vectors]
            e = lcm(*(x.denominator for x in row))
            rows.append([x.numerator * (e // x.denominator) for x in row])
    n = len(vectors)
    res = snf(IntMatrix(rows, cols=n))
    r = res.rank
    return [res.V.column(j) for j in range(r, n)], res.Vinv.data, r


def decompose(inp):
    """Split the order as unit (+) L1 (+) L2 (+) L3, homogeneously."""
    return _decompose(_OrderContext(inp))


def _decompose(ctx):
    """Split the order one degree block at a time, over the integers.

    N_p, the part of the order in the p-th power of the augmentation ideal,
    meets a block in the kernel of _power_piece.  L3 is N3, and L_p for
    p = 1, 2 is the complement of N_{p+1} in N_p that saturated_complement
    reads off the Smith form of N_{p+1}'s coordinates in N_p.
    """
    parts = ([], [], [])
    l2_coords = {}
    for masks, gens, _, _ in ctx._blocks:
        vectors = [ctx.gen_vectors[i] for i in gens]
        den = lcm(*(v[m].denominator for v in vectors for m in masks))
        rows = [[v[m].numerator * (den // v[m].denominator) for v in vectors]
                for m in masks]
        pieces = [_power_piece(masks, vectors, p) for p in (1, 2, 3)]
        for p, piece in enumerate(pieces):
            if piece is None:
                break
            kernel, vinv, r = piece
            to_kernel = vinv[r:]
            sub = pieces[p + 1][0] if p < 2 and pieces[p + 1] else []
            if sub:
                res, comp = saturated_complement(IntMatrix.from_columns(
                    [_matvec(to_kernel, c) for c in sub], rows=len(kernel)))
                cols = [_combine(c, kernel) for c in comp]
                to_kernel = [_combine(u, to_kernel) for u in res.U.data]
            else:
                cols = kernel
            parts[p].extend(_ambient(masks, rows, den, c) for c in cols)
            if p == 1:
                l2_coords[ctx.adeg[masks[0]]] = (
                    gens, list(vinv[:r]) + list(to_kernel), r + len(sub))
    l1, l2, l3 = (Lattice.from_columns(cols, ambient_dim=8, check=False)
                  for cols in parts)
    if (l1.rank, l2.rank, l3.rank) != (3, 3, 1):
        raise InternalCheckFailed(
            f"decomposition ranks are ({l1.rank}, {l2.rank}, {l3.rank})")
    dec = Decomposition(unit=unit_vector(), l1=l1, l2=l2, l3=l3,
                        ambient_degrees=ctx.adeg, l2_coords=l2_coords)
    if sorted(dec.part_degrees(1)) != sorted(ctx.degrees):
        raise InternalCheckFailed(
            "degrees of the first slice do not match the input degrees")
    return dec


@dataclass(frozen=True)
class ClassificationResult:
    outcome: str   # "weighted" | "not_weighted_certified"
    coefficients: CoefficientSequence | None = None
    witness: RingMapWitness | None = None
    case: str = ""
    report: dict = field(default_factory=dict)

    @property
    def is_weighted(self):
        return self.outcome == "weighted"


def _match_basis_to_degrees(dec, degrees):
    """Pick L1 basis vectors b_k with the degree of position k."""
    pools = {}
    for col in dec.l1.basis_columns():
        pools.setdefault(column_degree(col, dec.ambient_degrees),
                         []).append(col)
    out = []
    for d in degrees:
        out.append(pools[d].pop(0))
    return out


def _scale_vec(vec, k):
    return tuple(k * x for x in vec)


def _add_vec(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _repair_square(ctx, dec, b, k):
    """Adjust b[k] within its degree slice so that it squares to zero.

    Returns (new_b_k, None) on success or (None, report) when no adjusted
    generator can square to zero, which certifies the order is not a
    weighted model.
    """
    vec = b[k]
    square = r_multiply(vec, vec, ctx.degrees)
    if all(x == 0 for x in square):
        return vec, None
    deg = ctx.degrees[k]
    corrections = [c for c in dec.l2.basis_columns()
                   if column_degree(c, ctx.adeg) == deg]
    # the square lives in the top degree slice, which has rank one
    if len(corrections) != 1:
        return None, {
            "reason": "square-zero obstruction",
            "position": k + 1,
            "detail": "no one-dimensional correction space",
        }
    z = corrections[0]
    z_square = r_multiply(z, z, ctx.degrees)
    cross = r_multiply(vec, z, ctx.degrees)
    if any(x != 0 for x in z_square):
        raise InternalCheckFailed("correction cell has a nonzero square")
    # both live in the top degree, spanned by the x_123 monomial
    m0 = square[FULL_MASK]
    m1 = cross[FULL_MASK]
    # (b + t z)^2 = b^2 + 2 t (b z), so solve m0 + 2 t m1 = 0 over Z
    if m1 == 0 or (m0 % (2 * m1)) != 0:
        return None, {
            "reason": "square-zero obstruction",
            "position": k + 1,
            "family": "b + t*z with t an integer",
            "b": [str(x) for x in vec],
            "z": [str(x) for x in z],
            "square_form": [str(m0), str(2 * m1)],
            "detail": "no integer t solves m0 + (2 m1) t = 0",
        }
    t = -(m0 // (2 * m1))
    repaired = _add_vec(vec, _scale_vec(z, Fraction(t)))
    check = r_multiply(repaired, repaired, ctx.degrees)
    if any(x != 0 for x in check):
        raise InternalCheckFailed("square repair failed to close")
    return repaired, None


def _products_for_masks(ctx, b):
    """Ascending products b_sigma for every subset mask."""
    products = {0: unit_vector()}
    products[0b001] = b[0]
    products[0b010] = b[1]
    products[0b100] = b[2]
    products[0b011] = r_multiply(b[0], b[1], ctx.degrees)
    products[0b101] = r_multiply(b[0], b[2], ctx.degrees)
    products[0b110] = r_multiply(b[1], b[2], ctx.degrees)
    products[0b111] = r_multiply(products[0b011], b[2], ctx.degrees)
    return products


def _try_weighted_basis(ctx, b):
    """Attempt to exhibit the order as the weighted model on basis b.

    Returns (coeffs, witness, None) on success, else (None, None, info)
    where info records the first graded piece that fails.
    """
    products = _products_for_masks(ctx, b)
    coords = {}
    for mask, vec in products.items():
        c = ctx.int_coords(vec)
        if c is None:
            return None, None, {"failure": "product escapes lattice",
                                "mask": mask}
        coords[mask] = c
    c_of = {}
    for mask in MASKS:
        g = 0
        for x in coords[mask]:
            g = gcd(g, x)
        if g == 0:
            return None, None, {"failure": "degenerate product",
                                "mask": mask}
        c_of[mask] = g
    if any(c_of[m] != 1 for m in (0, 0b001, 0b010, 0b100)):
        return None, None, {"failure": "generator not primitive"}

    by_degree = {}
    for mask in MASKS:
        by_degree.setdefault(ctx.adeg[mask], []).append(mask)
    for deg in sorted(by_degree):
        masks = by_degree[deg]
        # c_of[m] divides every entry of coords[m], so the block is integral
        block = IntMatrix([[coords[m][i] // c_of[m] for m in masks]
                           for i, gd in enumerate(ctx.gen_degrees)
                           if gd == deg])
        if abs(block.det()) != 1:
            return None, None, {"failure": "graded piece has no basis of "
                                           "fractional monomials",
                                "degree": deg}
    for sigma in MASKS:
        for tau in MASKS:
            if sigma & tau or not sigma or not tau:
                continue
            if c_of[sigma | tau] % (c_of[sigma] * c_of[tau]) != 0:
                return None, None, {"failure": "divisibility law fails",
                                    "masks": (sigma, tau)}
    coeffs = CoefficientSequence(c12=c_of[0b011], c13=c_of[0b101],
                                 c23=c_of[0b110], c123=c_of[0b111])
    masks_order = weighted_basis_masks(ctx.degrees)
    columns = [[coords[m][i] // c_of[m] for i in range(8)]
               for m in masks_order]
    witness = RingMapWitness(RatMatrix.from_columns(columns, rows=8))
    model = build_weighted_ring(coeffs, ctx.degrees)
    if not check_ring_map(witness, model, ctx.ring):
        return None, None, {"failure": "witness rejected"}
    return coeffs, witness, None


def _degree_pattern(degrees):
    d1, d2, d3 = degrees
    if d1 == d2 == d3:
        return "all-equal"
    if d1 == d2 or d1 == d3 or d2 == d3:
        return "two-equal"
    return "all-distinct"


def _repeated_even(degrees):
    return any(degrees.count(v) >= 2 and v % 2 == 0 for v in degrees)


def _l2_piece_coords(ctx, dec, vectors, degree):
    """Coordinates of vectors in the degree slice of the second part."""
    gens, rows, skip = dec.l2_coords.get(degree, ((), [], 0))
    out = []
    for v in vectors:
        x = ctx.int_coords(v)
        y = None if x is None else _matvec(rows, [x[i] for i in gens])
        if (y is None or any(y[:skip])
                or any(x[i] for i in MASKS if i not in gens)):
            raise InternalCheckFailed(
                "pair product misses the expected graded slice")
        out.append(y[skip:])
    return out, len(rows) - skip


def classify_order(inp, height_bound=8):
    """Classify an order: weighted model (with witness) or a certificate.

    Degree patterns with a repeated even degree go through the square-zero
    search on the ambient monomial lines; all other patterns follow the
    three-case basis normalization (with a square repair in the even
    coincidence degrees).  height_bound is accepted and has no effect.
    """
    ctx = _OrderContext(inp)
    if _repeated_even(inp.degrees):
        return _search(ctx, height_bound)
    dec = _decompose(ctx)
    b = _match_basis_to_degrees(dec, inp.degrees)

    for k in range(3):
        if ctx.degrees[k] % 2 == 0:
            repaired, obstruction = _repair_square(ctx, dec, b, k)
            if obstruction is not None:
                return ClassificationResult(
                    outcome="not_weighted_certified",
                    case=_degree_pattern(inp.degrees),
                    report=obstruction)
            b[k] = repaired

    pattern = _degree_pattern(inp.degrees)
    if pattern == "all-equal":
        pair_products = [r_multiply(b[0], b[1], ctx.degrees),
                         r_multiply(b[0], b[2], ctx.degrees),
                         r_multiply(b[1], b[2], ctx.degrees)]
        coords, size = _l2_piece_coords(ctx, dec, pair_products,
                                        2 * ctx.degrees[0])
        if size != 3:
            raise InternalCheckFailed("expected a rank-3 middle slice")
        x = IntMatrix.from_columns(coords, rows=3)
        res = snf_constrained_sl(x, side="right")
        y = alt2_section(res.V)
        if alt2(y) != res.V:
            raise InternalCheckFailed("section failed to invert alt2")
        new_b = []
        for j in range(3):
            vec = (Fraction(0),) * 8
            for i in range(3):
                vec = _add_vec(vec, _scale_vec(b[i],
                                               Fraction(y.entry(i, j))))
            new_b.append(vec)
        b = new_b
    elif pattern == "two-equal":
        positions = [k for k in range(3)
                     if ctx.degrees.count(ctx.degrees[k]) == 2]
        p, q = positions
        r = next(k for k in range(3) if k not in positions)
        prods = [r_multiply(b[p], b[r], ctx.degrees),
                 r_multiply(b[q], b[r], ctx.degrees)]
        coords, size = _l2_piece_coords(
            ctx, dec, prods, ctx.degrees[p] + ctx.degrees[r])
        if size != 2:
            raise InternalCheckFailed("expected a rank-2 middle slice")
        x0 = IntMatrix.from_columns(coords, rows=2)
        res = snf(x0)
        v0 = res.V
        bp = _add_vec(_scale_vec(b[p], Fraction(v0.entry(0, 0))),
                      _scale_vec(b[q], Fraction(v0.entry(1, 0))))
        bq = _add_vec(_scale_vec(b[p], Fraction(v0.entry(0, 1))),
                      _scale_vec(b[q], Fraction(v0.entry(1, 1))))
        b[p], b[q] = bp, bq

    coeffs, witness, info = _try_weighted_basis(ctx, b)
    if info is not None:
        raise InternalCheckFailed(
            f"normalized basis failed verification: {info}")
    return ClassificationResult(outcome="weighted", coefficients=coeffs,
                                witness=witness, case=pattern,
                                report={"basis": [[str(x) for x in vec]
                                                  for vec in b]})


def _square_form(ctx, idx):
    """Integer quadratic form of x^2 for x = sum_k a_k g_idx[k].

    One row per generator coordinate of x^2 that is not identically zero.
    A row holds the coefficients of a_0^2, ..., a_{n-1}^2 and then of
    a_k a_l for k < l, read off the structure constants of the order.  The
    generators form a basis, so x^2 = 0 exactly when every row vanishes.
    """
    table = ctx.ring.table
    terms = [table[i][i] for i in idx]
    terms += [tuple(x + y for x, y in zip(table[i][j], table[j][i]))
              for k, i in enumerate(idx) for j in idx[k + 1:]]
    rows = []
    for r in range(len(table)):
        row = tuple(int(t[r]) for t in terms)
        if any(row):
            rows.append(row)
    return rows


def _canonical_sign(vec):
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-v for v in vec)
    return vec


def _line_key(t):
    """Sort key of the primitive line through t in a candidate list.

    The line's representative has a positive last coordinate, or is the
    lexicographically smaller of +-t when that coordinate is 0.  Planes
    list the line (1, 0) first and then lines by ascending alpha/beta;
    rank-three slices list lines lexicographically by representative.
    """
    neg = tuple(-x for x in t)
    if t[-1] < 0 or (t[-1] == 0 and neg < t):
        t = neg
    if len(t) == 2:
        return (t[1] != 0, Fraction(t[0], t[1] or 1))
    return t


def not_weighted_search(inp, height_bound=8):
    """Square-zero search for a weighted generating set.

    No two ambient monomials of one degree overlap, so an element of an
    even generator-degree slice squares to zero exactly on the monomial
    lines, and a rank-one slice is a monomial line.  The primitive points
    of L1 on those lines are then every candidate, and a failed list
    certifies the order is not a weighted model.  An odd slice of higher
    rank squares to zero throughout; orders with one (no repeated even
    degree) go through the basis normalization of classify_order.
    height_bound is accepted and has no effect.
    """
    adeg = ambient_degrees(inp.degrees)
    if any(d % 2 and adeg.count(d) > 1 for d in inp.degrees):
        return classify_order(inp, height_bound)
    return _search(_OrderContext(inp), height_bound)


def _search(ctx, height_bound):
    dec = _decompose(ctx)

    # L1, L2, L3 and the unit are a Z-basis of the order, so the matrix of
    # their generator coordinates is unimodular, and its inverse maps the
    # generator coordinates of a vector to its coordinates in the parts
    parts = [ctx.int_coords(v) for v in dec.l1.basis_columns()
             + dec.l2.basis_columns() + dec.l3.basis_columns() + [dec.unit]]
    if None in parts:
        raise InternalCheckFailed("decomposition leaves the order")
    to_parts = int_inverse_unimodular(IntMatrix.from_columns(parts, rows=8))

    def l1_image(vector):
        coords = ctx.int_coords(vector)
        if coords is None:
            return None
        x = to_parts.mul_vector(coords)
        return None if x[7] else x[:3]

    def candidates_for_degree(deg):
        masks, gens, num, _ = next(block for block in ctx._blocks
                                   if ctx.adeg[block[0][0]] == deg)
        # column j of the block inverse: generator coordinates of x_masks[j]
        lines = []
        for j in range(len(masks)):
            col = [row[j] for row in num]
            g = gcd(*col)
            lines.append(tuple(x // g for x in col))
        found = []
        for t in sorted(lines, key=_line_key):
            vec = tuple(sum(a * ctx.gen_vectors[i][m]
                            for a, i in zip(t, gens)) for m in MASKS)
            img = l1_image(vec)
            if img is not None and gcd(*img) == 1:
                found.append(_canonical_sign(vec))
        return found

    degree_values = sorted(set(ctx.degrees))
    candidates = {deg: candidates_for_degree(deg) for deg in degree_values}

    failures = []
    import itertools
    pools = [candidates[d] for d in ctx.degrees]
    for combo in itertools.product(*pools):
        if len({tuple(c) for c in combo}) < 3:
            continue
        images = [l1_image(vec) for vec in combo]
        if any(img is None for img in images):
            continue
        if abs(IntMatrix.from_columns(images, rows=3).det()) != 1:
            continue
        coeffs, witness, info = _try_weighted_basis(ctx, list(combo))
        if info is None:
            return ClassificationResult(
                outcome="weighted", coefficients=coeffs, witness=witness,
                case="search",
                report={"basis": [[str(x) for x in vec] for vec in combo]})
        failures.append({
            "basis": [[str(x) for x in vec] for vec in combo],
            "failure": info,
        })

    report = {
        "candidates_by_degree": {
            str(deg): [[str(x) for x in vec] for vec in
                       _with_signs(candidates[deg])]
            for deg in degree_values},
        "failures": failures,
        "height_bound": height_bound,
        "exhaustive": True,
    }
    return ClassificationResult(outcome="not_weighted_certified",
                                case="search", report=report)


def _with_signs(vectors):
    out = []
    for vec in vectors:
        out.append(vec)
        out.append(tuple(-x for x in vec))
    return out
