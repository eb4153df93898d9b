import random
from fractions import Fraction

import pytest

from sphereprod.errors import (
    InvalidCoefficientSequence,
    OverlappingSubsets,
)
from sphereprod.matrices import RatMatrix
from sphereprod.rings import (
    CoefficientSequence,
    RingMapWitness,
    StructRing,
    basis_masks_by_degree,
    build_weighted_ring,
    check_ring_map,
    mask_degree,
    mask_from_elements,
    sign_of_product,
    verify_ring_axioms,
)


M = mask_from_elements


def test_sign_rule_paper_cases():
    d = (3, 3, 3)
    assert sign_of_product(M({1}), M({2}), d) == 1
    assert sign_of_product(M({2}), M({1}), d) == -1
    assert sign_of_product(M({2}), M({1}), (2, 3, 5)) == 1


def test_sign_rule_overlap_rejected():
    with pytest.raises(OverlappingSubsets):
        sign_of_product(M({1, 2}), M({2}), (3, 3, 3))


def test_sign_rule_graded_commutativity():
    for d1 in range(2, 6):
        for d2 in range(2, 6):
            for d3 in range(2, 6):
                d = (d1, d2, d3)
                for sigma in range(8):
                    for tau in range(8):
                        if sigma & tau:
                            continue
                        expected = (-1) ** (mask_degree(sigma, d) *
                                            mask_degree(tau, d))
                        assert (sign_of_product(sigma, tau, d) *
                                sign_of_product(tau, sigma, d)) == expected


def test_coefficient_sequence_validation():
    CoefficientSequence(2, 1, 1, 4)
    with pytest.raises(InvalidCoefficientSequence):
        CoefficientSequence(2, 1, 1, 3)   # 2 does not divide 3
    with pytest.raises(InvalidCoefficientSequence):
        CoefficientSequence(0, 1, 1, 1)
    c = CoefficientSequence(2, 3, 4)      # default c123 = lcm = 12
    assert c.c123 == 12


def test_coefficient_sequence_json_round_trip():
    c = CoefficientSequence(2, 1, 3, 6)
    obj = c.to_json_obj()
    assert obj == {"c": {"12": "2", "13": "1", "23": "3", "123": "6"}}
    assert CoefficientSequence.from_json_obj(obj) == c
    partial = CoefficientSequence.from_json_obj({"c": {"12": "2"}})
    assert partial == CoefficientSequence(2, 1, 1, 2)


@pytest.mark.parametrize("table", [{"12": "0"}, {"13": "0"}, {"23": "0"},
                                   {"123": "0"}, {"12": "x"}])
def test_coefficient_sequence_json_rejects_bad_weights(table):
    # only a missing weight defaults to 1; zero is not a weight
    with pytest.raises(InvalidCoefficientSequence):
        CoefficientSequence.from_json_obj({"c": table})


def test_build_weighted_ring_exterior():
    ring = build_weighted_ring(CoefficientSequence.ones(), (3, 3, 3))
    idx = {label: i for i, label in enumerate(ring.labels)}
    a1a2 = ring.table[idx["a1"]][idx["a2"]]
    assert a1a2[idx["a12"]] == 1
    a1 = [Fraction(0)] * 8
    a1[idx["a1"]] = Fraction(1)
    a2 = [Fraction(0)] * 8
    a2[idx["a2"]] = Fraction(1)
    a3 = [Fraction(0)] * 8
    a3[idx["a3"]] = Fraction(1)
    triple = ring.multiply(ring.multiply(a1, a2), a3)
    assert triple[idx["a123"]] == 1
    assert sum(1 for x in triple if x != 0) == 1


def test_build_weighted_ring_paper_products():
    c = CoefficientSequence(2, 1, 1, 2)
    ring = build_weighted_ring(c, (3, 3, 3))
    idx = {label: i for i, label in enumerate(ring.labels)}
    assert ring.table[idx["a1"]][idx["a2"]][idx["a12"]] == 2
    assert ring.table[idx["a12"]][idx["a3"]][idx["a123"]] == 1
    # squares vanish
    assert all(x == 0 for x in ring.table[idx["a1"]][idx["a1"]])
    assert all(x == 0 for x in ring.table[idx["a12"]][idx["a13"]])


def test_structure_constants_integral():
    rng = random.Random(3001)
    for _ in range(25):
        c12, c13, c23 = (rng.randint(1, 8) for _ in range(3))
        from math import lcm
        c123 = lcm(c12, c13, c23) * rng.randint(1, 4)
        c = CoefficientSequence(c12, c13, c23, c123)
        d = tuple(rng.randint(1, 9) for _ in range(3))
        ring = build_weighted_ring(c, d)
        for row in ring.table:
            for cell in row:
                assert all(x.denominator == 1 for x in cell)


def test_axioms_hold_on_weighted_rings():
    rng = random.Random(3002)
    for _ in range(12):
        c12, c13, c23 = (rng.randint(1, 6) for _ in range(3))
        from math import lcm
        c123 = lcm(c12, c13, c23) * rng.randint(1, 10)
        if c123 > 60:
            continue
        c = CoefficientSequence(c12, c13, c23, c123)
        d = tuple(rng.randint(1, 9) for _ in range(3))
        assert verify_ring_axioms(build_weighted_ring(c, d)) == []


def test_axioms_catch_corruption():
    ring = build_weighted_ring(CoefficientSequence.ones(), (3, 3, 3))
    idx = {label: i for i, label in enumerate(ring.labels)}
    table = [[list(cell) for cell in row] for row in ring.table]
    # force a2*a1 = +a12 although both degrees are odd
    cell = [Fraction(0)] * 8
    cell[idx["a12"]] = Fraction(1)
    table[idx["a2"]][idx["a1"]] = cell
    bad = StructRing(ring.labels, ring.degrees, table,
                     unit_index=ring.unit_index)
    violations = verify_ring_axioms(bad)
    assert any("graded commutativity" in v for v in violations)


def test_rational_extension_is_monomial_algebra():
    # a_sigma -> (1/c_sigma) x_sigma must be multiplicative over Q
    rng = random.Random(3003)
    for _ in range(10):
        from math import lcm
        c12, c13, c23 = (rng.randint(1, 6) for _ in range(3))
        c = CoefficientSequence(c12, c13, c23,
                                lcm(c12, c13, c23) * rng.randint(1, 3))
        d = tuple(rng.randint(2, 7) for _ in range(3))
        weighted = build_weighted_ring(c, d)
        plain = build_weighted_ring(CoefficientSequence.ones(), d)
        masks = basis_masks_by_degree(d)
        n = 8
        scale = RatMatrix(
            [[Fraction(1, c.value(masks[j])) if i == j else Fraction(0)
              for j in range(n)] for i in range(n)])
        f = RingMapWitness(scale)
        for p in range(n):
            for q in range(n):
                image_of_product = f.apply(weighted.table[p][q])
                product_of_images = plain.multiply(f.matrix.column(p),
                                                   f.matrix.column(q))
                assert image_of_product == product_of_images


def test_check_ring_map_identity_and_signs():
    c = CoefficientSequence.ones()
    ring = build_weighted_ring(c, (3, 3, 3))
    assert check_ring_map(RingMapWitness.identity(8), ring, ring)

    # flip the sign of every basis element whose subset contains 1
    idx = {label: i for i, label in enumerate(ring.labels)}
    n = 8
    diag = [[Fraction(0)] * n for _ in range(n)]
    for label, i in idx.items():
        diag[i][i] = Fraction(-1 if "1" in label and label != "1" else 1)
    flip = RingMapWitness(RatMatrix(diag))
    assert check_ring_map(flip, ring, ring)

    scale = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        scale[i][i] = Fraction(2 if i == idx["a1"] else 1)
    assert not check_ring_map(RingMapWitness(RatMatrix(scale)), ring, ring)
