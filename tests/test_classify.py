import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from sphereprod.cli import main
from sphereprod.errors import NotClosed, NotUnital, WrongRank
from sphereprod.lattices import column_degree
from sphereprod.matrices import IntMatrix, RatMatrix, rat_inverse
from sphereprod.normal_forms import snf
from sphereprod.orders import (
    ClassificationResult,
    OrderInput,
    _OrderContext,
    _square_form,
    ambient_degrees,
    classify_order,
    decompose,
    monomial_order_input,
    not_weighted_search,
    r_multiply,
    verify_order,
)
from sphereprod.rings import (
    CoefficientSequence,
    build_weighted_ring,
    check_ring_map,
)

from util import (
    bad3_order,
    embedded_weighted_order,
    random_admissible_degrees,
    random_coefficients,
    random_unplanted_order,
    square_obstructed_order,
)


def test_verify_monomial_order():
    inp = monomial_order_input((3, 3, 3))
    ring = verify_order(inp)
    # exterior multiplication: g1 * g2 = g4 (the a12 slot) up to order
    idx = {label: i for i, label in enumerate(ring.labels)}
    assert ring.degrees[idx["g0"]] == 0
    products = [x for x in ring.table[1][2]]
    assert sum(1 for x in products if x != 0) == 1


def test_verify_weighted_embedding():
    rng = random.Random(8000)
    for _ in range(10):
        c = random_coefficients(rng, entry_bound=12)
        d = random_admissible_degrees(rng, max_degree=6)
        inp = embedded_weighted_order(c, d)
        ring = verify_order(inp)
        for row in ring.table:
            for cell in row:
                assert all(x.denominator == 1 for x in cell)


def test_verify_not_closed():
    # half of a12 with unit full weight: (1/2 x1)(x2) stays, but
    # x1 * (1/2 x12)-style products break closure
    F = Fraction
    gens = [
        (0, (1, 0, 0, 0, 0, 0, 0, 0)),
        (3, (0, 1, 0, 0, 0, 0, 0, 0)),
        (3, (0, 0, 1, 0, 0, 0, 0, 0)),
        (3, (0, 0, 0, 0, 1, 0, 0, 0)),
        (6, (0, 0, 0, F(1, 2), 0, 0, 0, 0)),
        (6, (0, 0, 0, 0, 0, 1, 0, 0)),
        (6, (0, 0, 0, 0, 0, 0, 1, 0)),
        (9, (0, 0, 0, 0, 0, 0, 0, 1)),
    ]
    with pytest.raises(NotClosed):
        verify_order(OrderInput((3, 3, 3), gens))


def test_verify_not_unital():
    F = Fraction
    gens = [(0, (F(2), 0, 0, 0, 0, 0, 0, 0))] + [
        (d, tuple(F(1) if m == mask else F(0) for m in range(8)))
        for d, mask in ((3, 1), (3, 2), (3, 4), (6, 3), (6, 5), (6, 6),
                        (9, 7))]
    with pytest.raises(NotUnital):
        verify_order(OrderInput((3, 3, 3), gens))


def test_verify_wrong_rank():
    F = Fraction
    gens = [(0, (F(1), 0, 0, 0, 0, 0, 0, 0))] + [
        (3, tuple(F(1) if m == 1 else F(0) for m in range(8)))] * 7
    with pytest.raises(WrongRank):
        verify_order(OrderInput((3, 3, 3), gens))

    # degree counts match, but two degree-3 generators are proportional
    gens = [(g.degree, g.vector)
            for g in monomial_order_input((3, 3, 3)).generators]
    first, second = [i for i, (d, _) in enumerate(gens) if d == 3][:2]
    gens[second] = (3, tuple(2 * x for x in gens[first][1]))
    with pytest.raises(WrongRank, match="linearly dependent"):
        verify_order(OrderInput((3, 3, 3), gens))


def _oracle_int_coords(basis_inv, vector):
    """Coordinates by the dense 8x8 rational inverse of the basis."""
    coords = basis_inv.mul_vector(vector)
    if any(x.denominator != 1 for x in coords):
        return None
    return tuple(int(x) for x in coords)


def test_int_coords_match_dense_oracle():
    rng = random.Random(8006)
    fractions = [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2),
                 Fraction(3, 4)]
    seen_none = seen_integral = 0
    for _ in range(12):
        d = random_admissible_degrees(rng)
        c = random_coefficients(rng, entry_bound=12)
        ctx = _OrderContext(embedded_weighted_order(c, d, rng=rng))
        basis_inv = rat_inverse(RatMatrix.from_columns(ctx.gen_vectors))
        adeg = ambient_degrees(d)
        for _ in range(40):
            homogeneous = rng.random() < 0.5
            deg = rng.choice(adeg)
            picks = [i for i, g in enumerate(ctx.gen_degrees)
                     if not homogeneous or g == deg]
            integral = rng.random() < 0.5
            vec = [Fraction(0)] * 8
            for i in picks:
                k = (Fraction(rng.randint(-4, 4)) if integral
                     else rng.choice(fractions) * rng.randint(-3, 3))
                vec = [a + k * b for a, b in zip(vec, ctx.gen_vectors[i])]
            if not integral and rng.random() < 0.5:
                # a rational perturbation on one monomial of the support
                m = rng.choice([m for m in range(8)
                                if not homogeneous or adeg[m] == deg])
                vec[m] += Fraction(1, rng.randint(2, 7))
            vec = tuple(vec)
            expected = _oracle_int_coords(basis_inv, vec)
            assert ctx.int_coords(vec) == expected, (d, c, vec)
            if expected is None:
                seen_none += 1
            else:
                seen_integral += 1
    assert seen_none and seen_integral


def test_decompose_monomial():
    inp = monomial_order_input((3, 3, 3))
    dec = decompose(inp)
    assert (dec.l1.rank, dec.l2.rank, dec.l3.rank) == (3, 3, 1)
    assert sorted(dec.part_degrees(1)) == [3, 3, 3]
    assert sorted(dec.part_degrees(2)) == [6, 6, 6]
    assert dec.part_degrees(3) == [9]


def test_decompose_bad3_degrees():
    dec = decompose(bad3_order())
    assert sorted(dec.part_degrees(1)) == [2, 2, 3]
    assert sorted(dec.part_degrees(2)) == [4, 5, 5]
    assert dec.part_degrees(3) == [7]


def test_decompose_weighted_embeddings():
    rng = random.Random(8001)
    for _ in range(8):
        c = random_coefficients(rng, entry_bound=10)
        d = random_admissible_degrees(rng, max_degree=6)
        dec = decompose(embedded_weighted_order(c, d, rng=rng))
        assert (dec.l1.rank, dec.l2.rank, dec.l3.rank) == (3, 3, 1)
        assert sorted(dec.part_degrees(1)) == sorted(d)


def test_classify_monomial_lattice():
    for d in ((3, 3, 3), (3, 3, 5), (2, 3, 4), (1, 2, 3), (2, 2, 3)):
        result = classify_order(monomial_order_input(d))
        assert result.is_weighted, (d, result.report)
        assert result.coefficients == CoefficientSequence.ones()


def test_classify_all_distinct_returns_exact_coefficients():
    rng = random.Random(8002)
    count = 0
    while count < 12:
        d = tuple(sorted(rng.randint(2, 7) for _ in range(3)))
        if len(set(d)) != 3:
            continue
        count += 1
        c = random_coefficients(rng, entry_bound=12)
        result = classify_order(embedded_weighted_order(c, d, rng=rng))
        assert result.is_weighted
        assert result.coefficients == c


def test_classify_all_equal_divisors():
    rng = random.Random(8003)
    for _ in range(10):
        d = rng.choice(((3, 3, 3), (5, 5, 5), (7, 7, 7)))
        c = random_coefficients(rng, entry_bound=12)
        result = classify_order(embedded_weighted_order(c, d, rng=rng))
        assert result.is_weighted
        got = sorted((result.coefficients.c12, result.coefficients.c13,
                      result.coefficients.c23))
        diag = IntMatrix([[c.c12, 0, 0], [0, c.c13, 0], [0, 0, c.c23]])
        assert got == sorted(snf(diag).diagonal)


def test_classify_round_trip_witness():
    rng = random.Random(8004)
    for _ in range(25):
        d = random_admissible_degrees(rng)
        c = random_coefficients(rng)
        inp = embedded_weighted_order(c, d, rng=rng)
        ring = verify_order(inp)
        result = classify_order(inp)
        assert result.is_weighted, (d, c, result.report)
        model = build_weighted_ring(result.coefficients, d)
        assert check_ring_map(result.witness, model, ring)


def test_classify_coincidence_degrees():
    # degree patterns where one degree is the sum of the other two
    rng = random.Random(8005)
    for d in ((2, 4, 6), (3, 3, 6), (1, 3, 4), (2, 3, 5), (1, 1, 2)):
        for _ in range(4):
            c = random_coefficients(rng, entry_bound=8)
            inp = embedded_weighted_order(c, d, rng=rng)
            ring = verify_order(inp)
            result = classify_order(inp)
            assert result.is_weighted, (d, c, result.report)
            model = build_weighted_ring(result.coefficients, d)
            assert check_ring_map(result.witness, model, ring)


def test_classify_square_obstructed_order():
    result = classify_order(square_obstructed_order())
    assert result.outcome == "not_weighted_certified"
    assert result.report["reason"] == "square-zero obstruction"


def test_classify_bad3_certified():
    result = classify_order(bad3_order())
    assert result.outcome == "not_weighted_certified"
    cands = result.report["candidates_by_degree"]["2"]
    vectors = {tuple(Fraction(x) for x in vec) for vec in cands}
    e1 = tuple(Fraction(1 if m == 1 else 0) for m in range(8))
    e2 = tuple(Fraction(1 if m == 2 else 0) for m in range(8))
    minus = lambda v: tuple(-x for x in v)
    assert vectors == {e1, minus(e1), e2, minus(e2)}
    assert result.report["failures"]
    for failure in result.report["failures"]:
        assert failure["failure"]["degree"] == 5


def test_search_finds_weighted_basis():
    c = CoefficientSequence(2, 1, 3, 6)
    inp = embedded_weighted_order(c, (2, 4, 3))
    result = not_weighted_search(inp)
    assert result.is_weighted
    assert result.coefficients == c

    result = not_weighted_search(monomial_order_input((3, 3, 3)))
    assert result.is_weighted
    assert result.coefficients == CoefficientSequence.ones()


def test_search_routed_for_repeated_even():
    # repeated even degrees are dispatched to the search automatically
    inp = monomial_order_input((2, 2, 4))
    result = classify_order(inp)
    assert result.case == "search"
    assert result.is_weighted


def test_search_certificate_lists_rational_square_zero_lines():
    # the degree-2 slice is spanned by (x1 + x2)/3 and x2; its square-zero
    # lines x1 = 3 g1 - g2 and x2 = g2 have a rational discriminant
    F = Fraction
    t = F(1, 3)
    gens = [
        (0, (1, 0, 0, 0, 0, 0, 0, 0)),
        (2, (0, t, t, 0, 0, 0, 0, 0)),
        (2, (0, 0, 1, 0, 0, 0, 0, 0)),
        (3, (0, 0, 0, 0, 1, 0, 0, 0)),
        (4, (0, 0, 0, F(1, 9), 0, 0, 0, 0)),
        (5, (0, 0, 0, 0, 0, t, t, 0)),
        (5, (0, 0, 0, 0, 0, 0, 1, 0)),
        (7, (0, 0, 0, 0, 0, 0, 0, F(1, 9))),
    ]
    result = classify_order(OrderInput((2, 2, 3), gens))
    assert result.outcome == "not_weighted_certified"
    assert result.report["exhaustive"] is True
    cands = result.report["candidates_by_degree"]["2"]
    vectors = {tuple(Fraction(x) for x in vec) for vec in cands}
    e1 = tuple(Fraction(1 if m == 1 else 0) for m in range(8))
    e2 = tuple(Fraction(1 if m == 2 else 0) for m in range(8))
    minus = lambda v: tuple(-x for x in v)
    assert vectors == {e1, minus(e1), e2, minus(e2)}


def test_classify_reembedded_weighted_two_equal_even_double():
    # degrees (2, 2, 4) with a weight on the repeated pair: the search
    # must find the square-zero lines through rational discriminants
    c = CoefficientSequence(3, 1, 2, 6)
    for seed in (1, 2, 3):
        inp = embedded_weighted_order(c, (2, 2, 4), rng=random.Random(seed))
        result = classify_order(inp)
        assert result.outcome == "weighted", (seed, result.report)
        model = build_weighted_ring(result.coefficients, (2, 2, 4))
        assert check_ring_map(result.witness, model, verify_order(inp))


def _combination(ctx, idx, coeffs):
    vec = (Fraction(0),) * 8
    for i, a in zip(idx, coeffs):
        vec = tuple(x + a * y for x, y in zip(vec, ctx.gen_vectors[i]))
    return vec


def test_square_form_matches_ambient_square():
    # the square of x = sum a_k g_k, read off the structure constants, must
    # equal the coordinates of the ambient product x * x
    rng = random.Random(8011)
    orders = [bad3_order()]
    for degrees in ((2, 2, 2), (4, 4, 4), (3, 3, 3), (2, 2, 5)):
        for _ in range(2):
            c = random_coefficients(rng, entry_bound=12)
            orders.append(embedded_weighted_order(c, degrees, rng=rng))
    for inp in orders:
        ctx = _OrderContext(inp)
        for deg in sorted(set(ctx.gen_degrees)):
            idx = [i for i, d in enumerate(ctx.gen_degrees) if d == deg]
            form = _square_form(ctx, idx)
            # coordinates of x^2 that are not identically zero, found by
            # polarization in the ambient algebra
            polar = [ctx.int_coords(r_multiply(ctx.gen_vectors[i],
                                               ctx.gen_vectors[i],
                                               inp.degrees)) for i in idx]
            polar += [ctx.int_coords(tuple(
                x + y for x, y in zip(
                    r_multiply(ctx.gen_vectors[i], ctx.gen_vectors[j],
                               inp.degrees),
                    r_multiply(ctx.gen_vectors[j], ctx.gen_vectors[i],
                               inp.degrees))))
                for k, i in enumerate(idx) for j in idx[k + 1:]]
            support = [r for r in range(8) if any(p[r] for p in polar)]
            assert len(form) == len(support), (inp.degrees, deg)
            for _ in range(25):
                a = [rng.randint(-9, 9) for _ in idx]
                monomials = [x * x for x in a] + [
                    a[k] * a[l] for k in range(len(a))
                    for l in range(k + 1, len(a))]
                values = [sum(c * m for c, m in zip(row, monomials))
                          for row in form]
                x = _combination(ctx, idx, a)
                square = ctx.int_coords(r_multiply(x, x, inp.degrees))
                assert values == [square[r] for r in support], \
                    (inp.degrees, deg, a)


@pytest.mark.parametrize("degree", [2, 4])
def test_unplanted_even_orders_decided_by_monomial_lines(degree):
    # orders that are not weighted models by construction: the search must
    # decide them, its candidates must square to zero on the structure
    # constants, and every small square-zero element must be listed
    rng = random.Random(8100 + degree)
    for _ in range(6):
        inp = random_unplanted_order(rng, degree)
        result = classify_order(inp)
        assert result.outcome in ("weighted", "not_weighted_certified")
        if result.is_weighted:
            listed = [tuple(Fraction(x) for x in vec)
                      for vec in result.report["basis"]]
        else:
            assert result.report["exhaustive"] is True
            listed = [tuple(Fraction(x) for x in vec) for vec in
                      result.report["candidates_by_degree"][str(degree)]]
        ctx = _OrderContext(inp)
        idx = [i for i, d in enumerate(ctx.gen_degrees) if d == degree]
        form = _square_form(ctx, idx)
        for vec in listed:
            a = [ctx.int_coords(vec)[i] for i in idx]
            monomials = [x * x for x in a] + [
                a[k] * a[l] for k in range(3) for l in range(k + 1, 3)]
            assert all(sum(c * m for c, m in zip(row, monomials)) == 0
                       for row in form)
        listed = set(listed) | {tuple(-x for x in v) for v in listed}
        for a in itertools.product(range(-4, 5), repeat=3):
            if math.gcd(*a) != 1:
                continue
            x = _combination(ctx, idx, a)
            if not any(r_multiply(x, x, inp.degrees)):
                assert x in listed, (inp.to_json_obj(), a)


@pytest.mark.parametrize("degree", [3, 5])
def test_unplanted_odd_orders_are_weighted(degree):
    # the paper's theorem: with odd generators every order is realizable
    rng = random.Random(8200 + degree)
    for _ in range(6):
        inp = random_unplanted_order(rng, degree)
        ring = verify_order(inp)
        # every element of an odd rank-3 slice squares to zero, so the
        # search alone must not certify these orders
        for result in (classify_order(inp), not_weighted_search(inp)):
            assert result.is_weighted, result.report
            model = build_weighted_ring(result.coefficients, inp.degrees)
            assert check_ring_map(result.witness, model, ring)


def _pinned_classify_outputs():
    path = os.path.join(os.path.dirname(__file__), "data",
                        "classify_pinned.json")
    with open(path) as f:
        return json.load(f)


@pytest.mark.parametrize("case", _pinned_classify_outputs(),
                         ids=lambda case: case["name"])
def test_classify_pinned(tmp_path, capsys, case):
    # full standard output, byte for byte, of classify on each path of the
    # basis normalization: all-distinct degrees, two-equal and all-equal
    # odd degrees (the alt2 section), a coincidence d3 = d1 + d2, even
    # degrees whose generator needs a square repair, a square-zero
    # obstruction, and the shipped bad3.json through the search
    if case["order"] is None:
        path = "bad3.json"
    else:
        path = tmp_path / "order.json"
        path.write_text(json.dumps(case["order"]))
    assert main(["classify", "--input", str(path)]) == 0
    assert capsys.readouterr().out == case["stdout"]


def _pinned_classify_cases():
    path = os.path.join(os.path.dirname(__file__), "data",
                        "classify_all_equal_even.json")
    with open(path) as f:
        return json.load(f)


@pytest.mark.parametrize("case", _pinned_classify_cases(),
                         ids=lambda case: case["name"])
def test_classify_all_equal_even_pinned(tmp_path, capsys, case):
    # full CLI documents of the square-zero search on (e, e, e) orders:
    # weighted bases, found with and without a --height-bound, and one
    # exhaustive certificate for an order that is not a weighted model
    path = tmp_path / "order.json"
    path.write_text(json.dumps(case["order"]))
    argv = ["classify", "--input", str(path)]
    if case["height_bound"] is not None:
        argv += ["--height-bound", str(case["height_bound"])]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == case["output"]
