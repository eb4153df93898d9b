"""Built-in example suite exercising every documented sample value.

Each check is a named callable returning None on success and raising
AssertionError (or any exception) on failure; run_selftest collects the
outcomes so the CLI can print one pass/fail entry per check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .alt2 import alt2, alt2_section, elementary_matrix
from .cellmodel import (
    build_boundary_complex,
    build_comparison_chain_map,
    build_face_square,
    power_sequence_from_coefficients,
    top_comparison_multiplier,
    top_cycles,
)
from .chains import (
    ChainComplex,
    induced_on_homology,
    mapping_cone_of_degree_map,
    pushout_complex,
)
from .matrices import IntMatrix
from .orders import (
    classify_order,
    decompose,
    monomial_order_input,
    not_weighted_search,
    verify_order,
)
from .realize import les_top_degree_check, realize_ring, \
    ring_of_weighted_product
from .rings import (
    CoefficientSequence,
    build_weighted_ring,
    check_ring_map,
    mask_from_elements,
    sign_of_product,
    verify_ring_axioms,
)

M = mask_from_elements


def _basis_vec(ring, label):
    idx = ring.labels.index(label)
    return tuple(Fraction(1) if i == idx else Fraction(0)
                 for i in range(ring.dim))


def _coeff_of(ring, vec, label):
    return vec[ring.labels.index(label)]


def check_sign_rule():
    assert sign_of_product(M({1}), M({2}), (3, 3, 3)) == 1
    assert sign_of_product(M({2}), M({1}), (3, 3, 3)) == -1
    assert sign_of_product(M({2}), M({1}), (2, 3, 5)) == 1


def check_weighted_ring_products():
    ring = build_weighted_ring(CoefficientSequence(2, 1, 1, 2), (3, 3, 3))
    a1, a2 = _basis_vec(ring, "a1"), _basis_vec(ring, "a2")
    a12, a3 = _basis_vec(ring, "a12"), _basis_vec(ring, "a3")
    assert _coeff_of(ring, ring.multiply(a1, a2), "a12") == 2
    assert _coeff_of(ring, ring.multiply(a12, a3), "a123") == 1
    assert all(x == 0 for x in ring.multiply(a1, a1))


def check_ring_axioms_samples():
    assert verify_ring_axioms(
        build_weighted_ring(CoefficientSequence(2, 4, 6, 24), (2, 3, 4))
    ) == []
    assert verify_ring_axioms(
        build_weighted_ring(CoefficientSequence.ones(), (3, 3, 3))) == []


def check_power_sequence():
    ps = power_sequence_from_coefficients(CoefficientSequence(6, 1, 1, 6))
    assert ps.entries(M({1, 2})) == (6, 1, 1)
    assert ps.entries(M({1, 2, 3}))[0] == 6
    c = CoefficientSequence(4, 5, 6, 60)
    assert power_sequence_from_coefficients(c).phi(M({1, 2, 3})) == \
        c.c12 * c.c23 * c.c13


def check_boundary_homology_sphere():
    complex_ = build_boundary_complex((2, 3, 4), CoefficientSequence.ones())
    h = complex_.homology()
    assert h.free_rank(0) == 1 and h.free_rank(8) == 1
    assert all(h.is_trivial(n) for n in range(1, 8))


def check_boundary_homology_torsion():
    complex_ = build_boundary_complex((2, 2, 2),
                                      CoefficientSequence(2, 1, 1, 2))
    h = complex_.homology()
    assert 2 in h.torsion(3)
    assert h.free_rank(5) == 1


def check_comparison_map_values():
    c = CoefficientSequence(2, 3, 5, 30)
    cm = build_comparison_chain_map((2, 2, 3), c)
    n, k = cm.source.index_of("y1*x2*y3")
    vec = [0] * cm.source.dim(n)
    vec[k] = 1
    image = cm.apply(n, vec)
    _, target = cm.target.index_of("z13~x2")
    assert image[target] == c.c12 * c.c23
    n, k = cm.source.index_of("x1*y2*y3")
    vec = [0] * cm.source.dim(n)
    vec[k] = 1
    image = cm.apply(n, vec)
    _, target = cm.target.index_of("x1*z23")
    assert image[target] == c.c12 * c.c13


def check_top_cycles():
    c = CoefficientSequence(2, 2, 1, 8)
    d = (2, 2, 3)
    cm = build_comparison_chain_map(d, c)
    u, v = top_cycles(d, c, cm)
    top = sum(d) - 1
    assert all(x == 0 for x in cm.source.boundary(top).mul_vector(u))
    assert all(x == 0 for x in cm.target.boundary(top).mul_vector(v))
    ell = lcm(c.c12, c.c13, c.c23)
    assert top_comparison_multiplier(d, c, cm) == \
        c.c12 * c.c23 * c.c13 // ell
    matrix = induced_on_homology(cm, top)
    assert matrix.shape == (1, 1)


def check_pushout_face_square():
    d = (2, 3, 3)
    c = CoefficientSequence(4, 1, 1, 4)
    i, j = build_face_square(d, c)
    p, from_x, _ = pushout_complex(i, j)
    n, k = i.target.index_of("y1*y2")
    vec = [0] * i.target.dim(n)
    vec[k] = 1
    z = from_x.apply(n, vec)
    dz = p.boundary(n).mul_vector(z)
    offset = p.dim(n - 1) - j.target.dim(n - 1)
    _, k1 = j.target.index_of("x1*y2")
    _, k2 = j.target.index_of("y1*x2")
    assert dz[offset + k1] == c.c12
    assert dz[offset + k2] == c.c12 * (-1) ** d[0]


def check_moore_cone():
    sphere = ChainComplex({0: ["pt"], 2: ["cell"]}, {})
    h = sphere.homology()
    cone = mapping_cone_of_degree_map(2, 2, sphere,
                                      h.representatives(2)[0])
    hc = cone.homology()
    assert hc.torsion(2) == [2] and hc.free_rank(2) == 0


def check_product_ring():
    ring = ring_of_weighted_product(CoefficientSequence(2, 1, 1, 2),
                                    (2, 2, 3))
    a1, a2, a3 = (_basis_vec(ring, s) for s in ("a1", "a2", "a3"))
    prod = ring.multiply(ring.multiply(a1, a2), a3)
    assert _coeff_of(ring, ring.multiply(a1, a2), "a12") == 2
    assert _coeff_of(ring, prod, "a123") == 2
    mixed = ring_of_weighted_product(CoefficientSequence(2, 1, 3, 6),
                                     (2, 2, 3))
    a1, a2, a3 = (_basis_vec(mixed, s) for s in ("a1", "a2", "a3"))
    prod = mixed.multiply(mixed.multiply(a1, a2), a3)
    assert _coeff_of(mixed, prod, "a123") == 6


def check_realize():
    realized = realize_ring(CoefficientSequence(1, 1, 1, 5), (3, 3, 3))
    ring = realized.ring
    a1, a2, a3 = (_basis_vec(ring, s) for s in ("a1", "a2", "a3"))
    prod = ring.multiply(ring.multiply(a1, a2), a3)
    assert _coeff_of(ring, prod, "a123") == 5
    assert realized.verified

    realized = realize_ring(CoefficientSequence(2, 1, 2, 8), (2, 2, 2))
    p = realized.provenance
    assert p["lcm_pairwise"] == 2 and p["attach_multiplier"] == 4
    assert realized.ring == build_weighted_ring(
        CoefficientSequence(2, 1, 2, 8), (2, 2, 2))


def check_les_chase():
    report = les_top_degree_check(CoefficientSequence(3, 4, 6, 24),
                                  (2, 3, 4))
    assert report["k_cancels"] and report["top_constant"] == 24
    try:
        les_top_degree_check(CoefficientSequence.ones(), (1, 2, 3))
    except Exception:
        pass
    else:
        raise AssertionError("degree-1 vanishing failure not detected")


def check_realize_matches_comparison():
    c = CoefficientSequence(2, 3, 4, 24)
    d = (2, 3, 2)
    report = les_top_degree_check(c, d)
    assert report["comparison_multiplier"] == top_comparison_multiplier(d, c)


def check_verify_order_embedding():
    c = CoefficientSequence(2, 2, 4, 8)
    inp = monomial_order_input((2, 3, 4), c)
    ring = verify_order(inp)
    for row in ring.table:
        for cell in row:
            assert all(x.denominator == 1 for x in cell)


def check_decompose_example():
    from .data import load_fixture_order
    dec = decompose(load_fixture_order("bad3.json"))
    assert sorted(dec.part_degrees(2)) == [4, 5, 5]


def check_classify_trivial():
    result = classify_order(monomial_order_input((2, 3, 4)))
    assert result.is_weighted
    assert result.coefficients == CoefficientSequence.ones()


def check_classify_round_trip():
    c = CoefficientSequence(2, 1, 3, 12)
    d = (3, 5, 7)
    inp = monomial_order_input(d, c)
    ring = verify_order(inp)
    result = classify_order(inp)
    assert result.is_weighted and result.coefficients == c
    model = build_weighted_ring(c, d)
    assert check_ring_map(result.witness, model, ring)


def check_not_weighted_example():
    from .data import load_fixture_order
    result = classify_order(load_fixture_order("bad3.json"))
    assert result.outcome == "not_weighted_certified"
    cands = result.report["candidates_by_degree"]["2"]
    assert len(cands) == 4
    for failure in result.report["failures"]:
        assert failure["failure"]["degree"] == 5


def check_search_weighted():
    c = CoefficientSequence(2, 1, 1, 2)
    result = not_weighted_search(monomial_order_input((2, 4, 3), c))
    assert result.is_weighted


def check_alt2_printed():
    for a in (-2, 1, 3):
        printed = IntMatrix([[1, 0, a], [0, 1, 0], [0, 0, 1]])
        assert alt2(elementary_matrix(1, 3, -a)) == printed
        assert alt2(elementary_matrix(1, 2, -a)) == \
            IntMatrix([[1, 0, 0], [0, 1, -a], [0, 0, 1]])
        y = alt2_section(printed)
        assert alt2(y) == printed


def check_alt2_determinant():
    import random
    rng = random.Random(99)
    for _ in range(50):
        g = IntMatrix([[rng.randint(-5, 5) for _ in range(3)]
                       for _ in range(3)])
        assert alt2(g).det() == g.det() ** 2


ALL_CHECKS = [
    ("sign rule", check_sign_rule),
    ("weighted ring products", check_weighted_ring_products),
    ("ring axioms", check_ring_axioms_samples),
    ("power sequence", check_power_sequence),
    ("boundary model homology (sphere)", check_boundary_homology_sphere),
    ("boundary model homology (torsion)", check_boundary_homology_torsion),
    ("comparison map values", check_comparison_map_values),
    ("top cycles and multiplier", check_top_cycles),
    ("face square pushout", check_pushout_face_square),
    ("moore mapping cone", check_moore_cone),
    ("weighted product ring", check_product_ring),
    ("realized ring", check_realize),
    ("top-degree chase", check_les_chase),
    ("chase matches cell model", check_realize_matches_comparison),
    ("order verification", check_verify_order_embedding),
    ("decomposition of the shipped example", check_decompose_example),
    ("classify monomial lattice", check_classify_trivial),
    ("classification round trip", check_classify_round_trip),
    ("not-weighted certificate", check_not_weighted_example),
    ("search finds weighted basis", check_search_weighted),
    ("alt2 printed case", check_alt2_printed),
    ("alt2 determinant identity", check_alt2_determinant),
]


def run_selftest():
    """Run all checks; returns (results, all_passed)."""
    results = []
    for name, check in ALL_CHECKS:
        try:
            check()
        except Exception as exc:   # noqa: BLE001 - reported, not hidden
            results.append({"name": name, "pass": False,
                            "error": f"{type(exc).__name__}: {exc}"})
        else:
            results.append({"name": name, "pass": True})
    return results, all(r["pass"] for r in results)
