"""The integer-only model path: int ring tables, homology coordinates read
off Smith transforms, each complex built once per command, and one integer
coordinate map per square-zero search."""

import random
from fractions import Fraction
from math import lcm

import pytest

import sphereprod.cellmodel as cellmodel
import sphereprod.cli as cli
import sphereprod.lattices as lattices
import sphereprod.orders as orders
from sphereprod.cellmodel import build_boundary_complex
from sphereprod.chains import ChainComplex
from sphereprod.errors import NotAComplex, NotACycle
from sphereprod.matrices import IntMatrix, RatMatrix, rat_solve
from sphereprod.normal_forms import hnf, snf, snf_constrained_sl
from sphereprod.orders import verify_order
from sphereprod.realize import realize_ring
from sphereprod.rings import CoefficientSequence, StructRing, \
    build_weighted_ring

from util import bad3_order, embedded_weighted_order


def random_grid_point(rng):
    degrees = tuple(rng.randint(2, 5) for _ in range(3))
    c12, c13, c23 = (rng.choice((1, 2, 3, 4, 6)) for _ in range(3))
    c123 = lcm(c12, c13, c23) * rng.randint(1, 2)
    return degrees, CoefficientSequence(c12, c13, c23, c123)


# -- matrices --------------------------------------------------------------

@pytest.mark.parametrize("entry", [1.0, True, Fraction(1), "1", None])
def test_int_matrix_rejects_non_integer_entries(entry):
    with pytest.raises(TypeError):
        IntMatrix([[entry]])
    with pytest.raises(TypeError):
        IntMatrix.from_columns([[0, entry]])


def test_unchecked_results_equal_validated_construction():
    rng = random.Random(7101)
    for _ in range(30):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)]
        b = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)]
        ma, mb = IntMatrix(a, cols=k), IntMatrix(b, cols=c)
        prod = ma @ mb
        expected = [[sum(a[i][t] * b[t][j] for t in range(k))
                     for j in range(c)] for i in range(r)]
        assert prod == IntMatrix(expected, cols=c)
        assert ma.transpose() == IntMatrix(
            [[a[i][j] for i in range(r)] for j in range(k)], cols=r)
        assert ma.transpose().transpose() == ma
        assert IntMatrix.zeros(r, c) == IntMatrix([[0] * c] * r, cols=c)
        h, u = hnf(ma)
        smith = snf(ma)
        assert u @ ma == h
        assert smith.U @ ma @ smith.V == smith.D
        results = [prod, ma.transpose(), IntMatrix.identity(r),
                   IntMatrix.zeros(r, c), h, u, smith.D, smith.U, smith.V]
        if r == k and ma.det() != 0:
            for side in ("left", "right"):
                sl = snf_constrained_sl(ma, side)
                assert sl.U @ ma @ sl.V == sl.D
                assert (sl.V if side == "right" else sl.U).det() == 1
                results += [sl.D, sl.U, sl.V]
        for m in results:
            assert all(type(x) is int for row in m.data for x in row)
            assert m == IntMatrix(m.to_lists(), cols=m.cols)
    assert IntMatrix.identity(3) == IntMatrix(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # the normal forms wrap their results unchecked, so they take only
    # integer matrices
    for form in (hnf, snf):
        with pytest.raises(TypeError):
            form(RatMatrix([[1, 2], [3, 4]]))
    # the unchecked constructors keep the entry type of a rational matrix
    for m in (RatMatrix.identity(2), RatMatrix.zeros(2, 3),
              RatMatrix([[1, 2]]).transpose(),
              RatMatrix([[1, 2]]) @ IntMatrix([[3], [4]])):
        assert all(type(x) is Fraction for row in m.data for x in row)


# -- rings -----------------------------------------------------------------

def _all_int(ring):
    return all(type(x) is int for row in ring.table for cell in row
               for x in cell)


def test_ring_tables_hold_ints():
    rng = random.Random(7102)
    for _ in range(10):
        degrees, coeffs = random_grid_point(rng)
        weighted = build_weighted_ring(coeffs, degrees)
        assert _all_int(weighted)
        assert _all_int(realize_ring(coeffs, degrees).ring)
        assert _all_int(verify_order(
            embedded_weighted_order(coeffs, degrees, rng)))
        unit = weighted.unit_vector()
        assert all(type(x) is int for x in unit)
        assert all(type(x) is int for x in weighted.multiply(unit, unit))
    assert _all_int(verify_order(bad3_order()))


def test_struct_ring_rejects_non_integral_constants():
    ring = build_weighted_ring(CoefficientSequence.ones(), (2, 3, 4))
    table = [[list(cell) for cell in row] for row in ring.table]
    table[1][2][4] = Fraction(2)
    accepted = StructRing(ring.labels, ring.degrees, table,
                          unit_index=ring.unit_index)
    assert accepted.table[1][2][4] == 2 and _all_int(accepted)
    for bad in (Fraction(1, 2), 0.5, True):
        table[1][2][4] = bad
        with pytest.raises(ValueError):
            StructRing(ring.labels, ring.degrees, table,
                       unit_index=ring.unit_index)


# -- chains ----------------------------------------------------------------

def test_homology_coordinates_match_rational_solve():
    rng = random.Random(7103)
    for _ in range(8):
        degrees, coeffs = random_grid_point(rng)
        c = build_boundary_complex(degrees, coeffs)
        h = c.homology()
        for n in c.degrees():
            data = h._degree_data(n)
            kernel, bnext = data.kernel, c.boundary(n + 1)
            # image block: coordinates of every boundary in the cycle basis
            w = data.coords @ bnext
            for j in range(bnext.cols):
                x = rat_solve(kernel.to_rational(), bnext.column(j))
                assert x is not None and w.column(j) == x
            for _ in range(4):
                t = [rng.randint(-5, 5) for _ in range(kernel.cols)]
                chain = kernel.mul_vector(t)
                x = rat_solve(kernel.to_rational(), chain)
                y = data.u.mul_vector([int(v) for v in x])
                expected = tuple(y[i] % data.orders[i]
                                 if data.orders[i] > 1 else y[i]
                                 for i in data.gen_indices)
                assert h.class_vector(n, chain) == expected
            for k, rep in enumerate(h.representatives(n)):
                unit = [0] * h.generator_count(n)
                unit[k] = 1
                assert h.class_vector(n, rep) == tuple(unit)
            bn = c.boundary(n)
            if bn.is_zero():
                continue
            while True:
                chain = [rng.randint(-3, 3) for _ in range(c.dim(n))]
                if any(bn.mul_vector(chain)):
                    break
            with pytest.raises(NotACycle):
                h.class_vector(n, chain)


def test_boundary_outside_the_cycles_is_not_a_complex():
    # d1 d2 != 0, let through by check=False: the image block of d2 fails
    # its guard when degree 1 is computed
    c = ChainComplex({0: ["a"], 1: ["b"], 2: ["c"]},
                     {1: IntMatrix([[1]]), 2: IntMatrix([[1]])}, check=False)
    with pytest.raises(NotAComplex):
        c.homology().free_rank(1)


def test_homology_is_computed_once_per_complex():
    c = build_boundary_complex((2, 3, 4), CoefficientSequence(2, 3, 4))
    assert c.homology() is c.homology()


# -- cellmodel and cli -------------------------------------------------------

def _count_builds(monkeypatch):
    counts = {"build_boundary_complex": 0,
              "build_unweighted_boundary_complex": 0}
    for name in counts:
        original = getattr(cellmodel, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(cellmodel, name, counted)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, counted)
    return counts


def test_model_commands_build_each_complex_once(tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "c.json"
    path.write_text('{"c": {"12": "2", "13": "3", "23": "4"}}')
    base = ["--degrees", "2,3,4", "--coeffs", str(path)]
    counts = _count_builds(monkeypatch)
    assert cli.main(["homology"] + base) == 0
    assert cli.main(["homology"] + base + ["--which", "eta"]) == 0
    assert cli.main(["realize"] + base + ["--verify"]) == 0
    assert counts == {"build_boundary_complex": 2,
                      "build_unweighted_boundary_complex": 1}
    counts.update(dict.fromkeys(counts, 0))
    assert cli.main(["homology"] + base + ["--which", "generators"]) == 0
    assert counts == {"build_boundary_complex": 1,
                      "build_unweighted_boundary_complex": 1}
    capsys.readouterr()


# -- orders ----------------------------------------------------------------

def test_search_maps_to_l1_without_rational_solves(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rat_solve(*args)
    for module in (orders, lattices):
        for name, value in list(vars(module).items()):
            if value is rat_solve:
                monkeypatch.setattr(module, name, counted)
    result = orders.not_weighted_search(bad3_order())
    assert result.outcome == "not_weighted_certified"
    assert len(result.report["failures"]) == 2
    # candidates and triples map to L1 through one integer inverse, and the
    # decomposition reads its coordinates off integer Smith forms
    assert calls == []


def test_classify_without_rational_solves(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rat_solve(*args)
    for module in (orders, lattices):
        for name, value in list(vars(module).items()):
            if value is rat_solve:
                monkeypatch.setattr(module, name, counted)
    rng = random.Random(9100)
    for degrees in ((3, 3, 3), (3, 3, 5), (1, 2, 3), (1, 3, 4)):
        coeffs = CoefficientSequence(2, 3, 6, 12)
        inp = embedded_weighted_order(coeffs, degrees, rng=rng)
        assert orders.classify_order(inp).outcome == "weighted"
    assert calls == []
