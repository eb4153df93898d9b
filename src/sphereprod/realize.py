"""Ring arithmetic of the realization construction.

The cohomology ring of the weighted product of three spheres carries the
pairwise weights on degree-two products and the product of all three
pairwise weights on the top product.  Replacing the top cell through a
cofiber attachment rescales only the top structure constant; the chase
that computes the new constant involves an undetermined positive integer
k which must cancel, and the cancellation is machine-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeTooSmall, InternalCheckFailed, \
    InvalidCoefficientSequence
from .rings import (
    CoefficientSequence,
    RingMapWitness,
    StructRing,
    build_weighted_ring,
    check_ring_map,
    mask_degree,
    weighted_basis_masks,
)

FULL_MASK = 0b111


class KTerm:
    """Exact monomial coef * k^power in the undetermined integer k."""

    __slots__ = ("coef", "power")

    def __init__(self, coef, power=0):
        object.__setattr__(self, "coef", Fraction(coef))
        object.__setattr__(self, "power", int(power))

    def __setattr__(self, *args):
        raise AttributeError("KTerm is immutable")

    def __mul__(self, other):
        other = other if isinstance(other, KTerm) else KTerm(other)
        return KTerm(self.coef * other.coef, self.power + other.power)

    def __truediv__(self, other):
        other = other if isinstance(other, KTerm) else KTerm(other)
        if other.coef == 0:
            raise ZeroDivisionError("division by zero KTerm")
        return KTerm(self.coef / other.coef, self.power - other.power)

    def __eq__(self, other):
        return (isinstance(other, KTerm) and self.coef == other.coef
                and self.power == other.power)

    def is_constant(self):
        return self.power == 0

    def __repr__(self):
        return f"KTerm({self.coef}, k^{self.power})"


def _check_degrees(degrees):
    if len(degrees) != 3 or any(d < 2 for d in degrees):
        raise DegreeTooSmall("all three degrees must be at least 2")


def ring_of_weighted_product(coeffs, degrees):
    """Cohomology ring of the weighted three-sphere product.

    Pairwise products carry the pairwise weights; the top product carries
    the product of all three pairwise weights.
    """
    _check_degrees(degrees)
    if not isinstance(coeffs, CoefficientSequence):
        raise InvalidCoefficientSequence("expected a CoefficientSequence")
    product_coeffs = CoefficientSequence(
        coeffs.c12, coeffs.c13, coeffs.c23,
        coeffs.c12 * coeffs.c13 * coeffs.c23)
    return build_weighted_ring(product_coeffs, degrees)


def les_top_degree_check(coeffs, degrees):
    """Machine-check of the top-degree multiplier chase.

    Verifies that only the top degree of the boundary model's cohomology is
    missing (the vanishing needed for the connecting isomorphisms), runs
    the two-square chase with k symbolic, and confirms the deduced top
    constant is k-free and equals the full weight.
    """
    if len(degrees) != 3:
        raise DegreeTooSmall("exactly three degrees are required")
    top = sum(degrees)
    proper_degrees = sorted(mask_degree(m, degrees) for m in range(7))
    colliding = [t for t in proper_degrees if t in (top - 1, top)]
    if colliding:
        raise DegreeTooSmall(
            f"proper cell degrees {colliding} collide with the top range; "
            "the vanishing hypothesis needs every degree to be at least 2")
    _check_degrees(degrees)

    ell = coeffs.lcm_pairwise
    if coeffs.c123 % ell != 0:
        raise InvalidCoefficientSequence(
            "least common multiple of pairwise weights must divide the "
            "full weight")
    pairwise_product = coeffs.c12 * coeffs.c23 * coeffs.c13

    top_in_product = KTerm(pairwise_product)
    to_intermediate = KTerm(Fraction(coeffs.c123, ell), 1)
    top_in_intermediate = top_in_product * to_intermediate
    from_result = KTerm(Fraction(pairwise_product, ell), 1)
    top_in_result = top_in_intermediate / from_result
    if not top_in_result.is_constant():
        raise InternalCheckFailed("undetermined k did not cancel")
    if top_in_result.coef != coeffs.c123:
        raise InternalCheckFailed(
            f"chase produced {top_in_result.coef}, expected {coeffs.c123}")
    return {
        "proper_degrees": proper_degrees,
        "vanishing_holds": True,
        "lcm_pairwise": ell,
        "pairwise_product": pairwise_product,
        "attach_multiplier": coeffs.c123 // ell,
        "comparison_multiplier": pairwise_product // ell,
        "k_cancels": True,
        "top_constant": coeffs.c123,
    }


@dataclass(frozen=True)
class RealizedRing:
    """Realized ring together with the multipliers used in the chase."""

    ring: StructRing
    provenance: dict
    verified: bool


def realize_ring(coeffs, degrees, verify=True):
    """Build the realized ring and certify it equals the weighted ring.

    The top structure constants of the weighted-product ring are rescaled
    by c123 / (c12 c23 c13), exactly as the chase dictates; the result is
    compared against the weighted ring via an identity witness.
    """
    _check_degrees(degrees)
    chase = les_top_degree_check(coeffs, degrees)
    base = ring_of_weighted_product(coeffs, degrees)
    pairwise_product = coeffs.c12 * coeffs.c23 * coeffs.c13

    masks = weighted_basis_masks(degrees)
    n = len(masks)
    table = []
    for p in range(n):
        row = []
        for q in range(n):
            cell = base.table[p][q]
            if (masks[p] | masks[q] == FULL_MASK
                    and not masks[p] & masks[q]
                    and masks[p] != 0 and masks[q] != 0):
                scaled = [divmod(x * coeffs.c123, pairwise_product)
                          for x in cell]
                if any(r for _, r in scaled):
                    raise InternalCheckFailed(
                        "rescaled top constant is not integral")
                cell = tuple(quot for quot, _ in scaled)
            row.append(cell)
        table.append(row)
    ring = StructRing(base.labels, base.degrees, table,
                      unit_index=base.unit_index)

    verified = False
    if verify:
        expected = build_weighted_ring(coeffs, degrees)
        if ring != expected:
            raise InternalCheckFailed(
                "realized ring differs from the weighted ring")
        if not check_ring_map(RingMapWitness.identity(n), ring, expected):
            raise InternalCheckFailed(
                "identity witness rejected between realized and weighted "
                "rings")
        verified = True

    provenance = dict(chase)
    provenance["top_rescale_factor"] = Fraction(coeffs.c123,
                                                pairwise_product)
    return RealizedRing(ring=ring, provenance=provenance, verified=verified)
