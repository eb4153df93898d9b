"""The integer decomposition of an order against the lattice oracle.

``orders._decompose`` splits an order in its integer generator coordinates.
The oracle below builds the same splitting the way the ``lattices`` API
states it: the order's intersection with each power of the augmentation
ideal, degree by degree with ``intersect_subspace``, and the complements
with ``split_complement``.  The bases must agree column for column, since
the classifier's output is read off them.
"""

import random
from fractions import Fraction

import pytest

from sphereprod.errors import InternalCheckFailed
from sphereprod.lattices import Lattice, column_degree, intersect_subspace, \
    split_complement
from sphereprod.matrices import RatMatrix
from sphereprod.orders import (
    MASKS,
    _OrderContext,
    _decompose,
    _l2_piece_coords,
    monomial_order_input,
)
from sphereprod.rings import CoefficientSequence

from util import (
    bad3_order,
    embedded_weighted_order,
    random_admissible_degrees,
    random_coefficients,
    random_unplanted_order,
    square_obstructed_order,
)


def _oracle_power(ctx, power):
    by_degree = {}
    for vec, deg in zip(ctx.gen_vectors, ctx.gen_degrees):
        by_degree.setdefault(deg, []).append(vec)
    columns = []
    for deg in sorted(by_degree):
        sub = [m for m in MASKS
               if bin(m).count("1") >= power and ctx.adeg[m] == deg]
        if not sub:
            continue
        piece = Lattice.from_columns(by_degree[deg], ambient_dim=8,
                                     check=False)
        subspace = RatMatrix.from_columns(
            [tuple(Fraction(int(k == m)) for k in MASKS) for m in sub],
            rows=8)
        columns.extend(intersect_subspace(piece, subspace).basis_columns())
    return Lattice.from_columns(columns, ambient_dim=8, check=False)


def oracle_parts(inp):
    ctx = _OrderContext(inp)
    n1, n2, n3 = (_oracle_power(ctx, p) for p in (1, 2, 3))
    return (split_complement(n1, n2, ambient_degrees=ctx.adeg),
            split_complement(n2, n3, ambient_degrees=ctx.adeg), n3)


def assert_matches_oracle(inp):
    dec = _decompose(_OrderContext(inp))
    for i, expected in enumerate(oracle_parts(inp), start=1):
        assert dec.part(i).basis_columns() == expected.basis_columns(), i
    return dec


def _orders(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coeffs = random_coefficients(rng, entry_bound=24)
        degrees = random_admissible_degrees(rng, max_degree=7)
        out.append(embedded_weighted_order(coeffs, degrees, rng=rng))
    for degrees in ((2, 2, 3), (4, 4, 1), (2, 2, 2), (4, 4, 4), (3, 3, 6),
                    (1, 2, 3), (2, 3, 5), (3, 3, 3)):
        coeffs = random_coefficients(rng, entry_bound=24)
        out.append(embedded_weighted_order(coeffs, degrees, rng=rng))
    return out


def test_decomposition_matches_oracle_on_embedded_orders():
    for inp in _orders(9200, 40):
        assert_matches_oracle(inp)


def test_decomposition_matches_oracle_on_unplanted_orders():
    rng = random.Random(9201)
    for degree in (2, 3, 4, 5):
        for _ in range(6):
            assert_matches_oracle(random_unplanted_order(rng, degree))


def test_decomposition_matches_oracle_on_fixed_orders():
    for inp in (bad3_order(), square_obstructed_order(),
                monomial_order_input((3, 3, 3)),
                monomial_order_input((1, 2, 3),
                                     CoefficientSequence(2, 3, 4, 24))):
        assert_matches_oracle(inp)


def test_l2_coordinates_match_membership():
    rng = random.Random(9202)
    for inp in _orders(9203, 12):
        ctx = _OrderContext(inp)
        dec = _decompose(ctx)
        for degree in sorted(dec.l2_coords):
            cols = [c for c in dec.l2.basis_columns()
                    if column_degree(c, ctx.adeg) == degree]
            piece = Lattice.from_columns(cols, ambient_dim=8, check=False)
            vectors = []
            for _ in range(3):
                coeffs = [rng.randint(-4, 4) for _ in cols]
                vectors.append(tuple(
                    sum((a * c[m] for a, c in zip(coeffs, cols)),
                        Fraction(0)) for m in MASKS))
            coords, size = _l2_piece_coords(ctx, dec, vectors, degree)
            assert size == len(cols)
            assert coords == [list(piece.membership(v)) for v in vectors]


def _coincidence_order():
    # degrees (1, 2, 3): x3 and x12 share degree 3, in L1 and L2
    return embedded_weighted_order(CoefficientSequence(3, 2, 1, 6),
                                   (1, 2, 3), rng=random.Random(9204))


def test_l2_coordinates_reject_vectors_outside_the_slice():
    ctx = _OrderContext(_coincidence_order())
    dec = _decompose(ctx)
    l1_in_degree_3 = [c for c in dec.l1.basis_columns()
                      if column_degree(c, ctx.adeg) == 3]
    l2_in_degree_3 = [c for c in dec.l2.basis_columns()
                      if column_degree(c, ctx.adeg) == 3]
    assert len(l1_in_degree_3) == len(l2_in_degree_3) == 1
    other_degree = next(c for c in dec.l2.basis_columns()
                        if column_degree(c, ctx.adeg) != 3)
    outside = [
        l1_in_degree_3[0],
        tuple(a + b for a, b in zip(l1_in_degree_3[0], l2_in_degree_3[0])),
        other_degree,
        tuple(x / 2 for x in l2_in_degree_3[0]),    # not in the order
    ]
    assert _l2_piece_coords(ctx, dec, l2_in_degree_3, 3)[0] == [[1]]
    for vec in outside:
        with pytest.raises(InternalCheckFailed):
            _l2_piece_coords(ctx, dec, [vec], 3)
