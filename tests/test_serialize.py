import json
from fractions import Fraction

import pytest

from sphereprod.errors import DimensionMismatch
from sphereprod.lattices import Lattice, intersect_subspace
from sphereprod.matrices import IntMatrix, RatMatrix
from sphereprod.orders import OrderInput, monomial_order_input
from sphereprod.rings import CoefficientSequence, build_weighted_ring
from sphereprod.serialize import (
    fraction_from_str,
    fraction_to_str,
    int_matrix_from_obj,
    int_matrix_to_obj,
    rat_matrix_from_obj,
    rat_matrix_to_obj,
    struct_ring_to_obj,
)


def test_fraction_strings():
    assert fraction_to_str(Fraction(-12)) == "-12"
    assert fraction_to_str(Fraction(3, 4)) == "3/4"
    assert fraction_from_str("3/4") == Fraction(3, 4)
    assert fraction_from_str("-12") == Fraction(-12)
    assert fraction_from_str(-12) == Fraction(-12)


@pytest.mark.parametrize("value", [0.1, 2.0, True, False, None, ["1"]])
def test_fraction_from_str_rejects_non_exact_values(value):
    # a float would become its binary expansion, a bool 0 or 1
    with pytest.raises(TypeError):
        fraction_from_str(value)


def test_int_matrix_round_trip():
    m = IntMatrix([[10 ** 30, -2], [0, 7]])
    obj = int_matrix_to_obj(m)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["entries"][0][0] == str(10 ** 30)
    assert int_matrix_from_obj(json.loads(json.dumps(obj))) == m


def test_rat_matrix_round_trip():
    m = RatMatrix([[Fraction(1, 2), Fraction(-3)],
                   [Fraction(0), Fraction(5, 7)]])
    obj = rat_matrix_to_obj(m)
    assert rat_matrix_from_obj(json.loads(json.dumps(obj))) == m


def test_struct_ring_serialization():
    ring = build_weighted_ring(CoefficientSequence(2, 1, 1, 2), (3, 3, 3))
    obj = struct_ring_to_obj(ring)
    assert obj["unit"] == "1"
    assert {"label": "a12", "degree": 6} in obj["basis"]
    assert obj["products"]["a1*a2"][ring.labels.index("a12")] == "2"


def test_order_input_round_trip():
    inp = monomial_order_input((2, 3, 4), CoefficientSequence(2, 2, 2, 4))
    obj = json.loads(json.dumps(inp.to_json_obj()))
    back = OrderInput.from_json_obj(obj)
    assert back.degrees == inp.degrees
    for g1, g2 in zip(back.generators, inp.generators):
        assert g1.degree == g2.degree and g1.vector == g2.vector


def test_intersect_dimension_mismatch():
    lat = Lattice.standard(2)
    with pytest.raises(DimensionMismatch):
        intersect_subspace(lat, RatMatrix.from_columns([(1, 0, 0)], rows=3))
