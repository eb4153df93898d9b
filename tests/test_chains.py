import random
from math import gcd

import pytest

from sphereprod.chains import (
    ChainComplex,
    ChainMap,
    induced_on_homology,
    mapping_cone_of_degree_map,
    pushout_complex,
)
from sphereprod.errors import NotAComplex, NotACycle, NotSplitInclusion
from sphereprod.matrices import IntMatrix, rat_rank
from sphereprod.normal_forms import elementary_divisors_via_minors

from util import random_unimodular


def sphere_complex(k):
    """One 0-cell and one k-cell, zero boundary."""
    labels = {0: ["pt"]}
    if k == 0:
        labels[0] = ["pt", "top"]
    else:
        labels[k] = ["top"]
    return ChainComplex(labels, {})


def brute_force_homology(c, n):
    """Independent oracle: ranks by rational row reduction, torsion from
    gcds of minors of the incoming boundary."""
    bn = c.boundary(n)
    bnext = c.boundary(n + 1)
    rank_n = rat_rank(bn.to_rational()) if bn.cols and bn.rows else 0
    rank_next = rat_rank(bnext.to_rational()) if bnext.cols and bnext.rows \
        else 0
    free = c.dim(n) - rank_n - rank_next
    if bnext.cols and bnext.rows:
        divisors = elementary_divisors_via_minors(bnext)
    else:
        divisors = []
    torsion = sorted(d for d in divisors if d > 1)
    return free, torsion


def random_complex(rng, max_degree=3, max_dim=5, bound=4):
    dims = [rng.randint(0, max_dim) for _ in range(max_degree + 1)]
    if all(d == 0 for d in dims):
        dims[0] = 1
    labels = {n: [f"g{n}.{k}" for k in range(d)]
              for n, d in enumerate(dims) if d}
    boundaries = {}
    prev_kernel = None
    for n in range(1, max_degree + 1):
        rows, cols = dims[n - 1], dims[n]
        if rows == 0 or cols == 0:
            prev_kernel = None
            continue
        if n == 1 or prev_kernel is None:
            mat = IntMatrix([[rng.randint(-bound, bound)
                              for _ in range(cols)] for _ in range(rows)])
        else:
            # columns are integer combinations of the previous kernel
            mat_cols = []
            for _ in range(cols):
                col = [0] * rows
                for k in prev_kernel:
                    coeff = rng.randint(-2, 2)
                    col = [a + coeff * b for a, b in zip(col, k)]
                mat_cols.append(col)
            mat = IntMatrix.from_columns(mat_cols, rows=rows)
        boundaries[n] = mat
        from sphereprod.normal_forms import integer_kernel_basis
        prev_kernel = integer_kernel_basis(mat)
    return ChainComplex(labels, boundaries, check=True)


def test_sphere_homology():
    for k in (1, 2, 5):
        h = sphere_complex(k).homology()
        assert h.free_rank(0) == 1 and h.torsion(0) == []
        assert h.free_rank(k) == 1 and h.torsion(k) == []
        for n in range(1, k):
            assert h.is_trivial(n)


def test_moore_complex():
    # one 0-cell, one 1-cell, one 2-cell attached with degree 2
    c = ChainComplex(
        {0: ["v"], 1: ["e"], 2: ["f"]},
        {1: IntMatrix.zeros(1, 1), 2: IntMatrix([[2]])})
    h = c.homology()
    assert h.free_rank(0) == 1
    assert h.free_rank(1) == 0 and h.torsion(1) == [2]
    assert h.is_trivial(2)


def test_not_a_complex_rejected():
    with pytest.raises(NotAComplex):
        ChainComplex({0: ["a"], 1: ["b"], 2: ["c"]},
                     {1: IntMatrix([[1]]), 2: IntMatrix([[1]])})


def invariant_factors(divisors):
    """Canonical invariant-factor chain of (+) Z/d over the list."""
    from sphereprod.normal_forms import snf
    nontrivial = [d for d in divisors if d > 1]
    if not nontrivial:
        return []
    n = len(nontrivial)
    diag = IntMatrix([[nontrivial[i] if i == j else 0 for j in range(n)]
                      for i in range(n)])
    return [d for d in snf(diag).diagonal if d > 1]


def test_direct_sum_additivity():
    rng = random.Random(4001)
    for _ in range(10):
        c1 = random_complex(rng)
        c2 = random_complex(rng)
        s = c1.direct_sum(c2)
        hs, h1, h2 = s.homology(), c1.homology(), c2.homology()
        for n in range(s.top_degree + 1):
            assert hs.free_rank(n) == h1.free_rank(n) + h2.free_rank(n)
            assert invariant_factors(hs.torsion(n)) == invariant_factors(
                h1.torsion(n) + h2.torsion(n))


def test_homology_matches_oracle():
    rng = random.Random(4002)
    for _ in range(60):
        c = random_complex(rng, max_dim=6)
        h = c.homology()
        for n in range(c.top_degree + 1):
            free, torsion = brute_force_homology(c, n)
            assert h.free_rank(n) == free, (c, n)
            assert sorted(h.torsion(n)) == torsion, (c, n)


def test_representatives_are_reduced_cycles():
    rng = random.Random(4003)
    for _ in range(20):
        c = random_complex(rng)
        h = c.homology()
        for n in range(c.top_degree + 1):
            for rep in h.representatives(n):
                assert all(x == 0 for x in c.boundary(n).mul_vector(rep))


def test_euler_characteristic():
    rng = random.Random(4004)
    for _ in range(20):
        c = random_complex(rng)
        h = c.homology()
        chi = sum((-1) ** n * h.free_rank(n)
                  for n in range(c.top_degree + 1))
        assert chi == c.euler_characteristic()


def test_class_vector_torsion_reduction():
    c = ChainComplex(
        {0: ["v"], 1: ["e"], 2: ["f"]},
        {1: IntMatrix.zeros(1, 1), 2: IntMatrix([[3]])})
    h = c.homology()
    assert h.torsion(1) == [3]
    rep = h.representatives(1)[0]
    tripled = tuple(3 * x for x in rep)
    assert h.class_vector(1, tripled) == (0,)
    assert h.class_vector(1, rep) == (1,)


def test_mapping_cone_cases():
    s2 = sphere_complex(2)
    h = s2.homology()
    cycle = h.representatives(2)[0]

    wedge = mapping_cone_of_degree_map(2, 0, s2, cycle)
    hw = wedge.homology()
    assert hw.free_rank(3) == 1 and hw.free_rank(2) == 1

    killed = mapping_cone_of_degree_map(2, 1, s2, cycle)
    hk = killed.homology()
    assert hk.is_trivial(2) and hk.is_trivial(3)

    moore = mapping_cone_of_degree_map(2, 2, s2, cycle)
    hm = moore.homology()
    assert hm.free_rank(2) == 0 and hm.torsion(2) == [2]

    interval = ChainComplex({0: ["a", "b"], 1: ["e"]},
                            {1: IntMatrix([[1], [-1]])})
    with pytest.raises(NotACycle):
        mapping_cone_of_degree_map(1, 2, interval, (1,))


def test_pushout_identity_cases():
    rng = random.Random(4005)
    c = random_complex(rng)
    ident = ChainMap.identity(c)
    p, from_x, from_y = pushout_complex(ident, ident)
    hp, hc = p.homology(), c.homology()
    for n in range(c.top_degree + 1):
        assert hp.free_rank(n) == hc.free_rank(n)
        assert sorted(hp.torsion(n)) == sorted(hc.torsion(n))


def test_pushout_along_identity_gives_other_leg():
    from sphereprod.cellmodel import build_face_square
    from sphereprod.rings import CoefficientSequence
    i, j = build_face_square((2, 3, 3), CoefficientSequence(3, 1, 1, 3))
    a = i.source
    # pushout of the inclusion against the identity recovers the big leg
    p, from_x, from_y = pushout_complex(i, ChainMap.identity(a))
    hp, hx = p.homology(), i.target.homology()
    for n in range(p.top_degree + 1):
        assert p.dim(n) == i.target.dim(n)
        assert hp.free_rank(n) == hx.free_rank(n)
        assert sorted(hp.torsion(n)) == sorted(hx.torsion(n))


def test_pushout_square_commutes_for_mixed_inclusions():
    # split inclusions whose Smith form needs row and column operations, so
    # the pushout's coordinates use both transforms and their inverses
    rng = random.Random(4007)
    a = ChainComplex({0: ["a0", "a1"]}, {})
    x = ChainComplex({0: ["x0", "x1", "x2"]}, {})
    corner = IntMatrix([[1, 0], [0, 1], [0, 0]])
    for _ in range(20):
        m = random_unimodular(rng, 3) @ corner @ random_unimodular(rng, 2)
        i = ChainMap(a, x, {0: m})
        p, from_x, from_y = pushout_complex(i, ChainMap.identity(a))
        assert p.dim(0) == 3
        assert from_x.matrix(0) @ m == from_y.matrix(0)


def test_pushout_rejects_torsion_cokernel():
    a = ChainComplex({0: ["a"]}, {})
    x = ChainComplex({0: ["b"]}, {})
    doubling = ChainMap(a, x, {0: IntMatrix([[2]])}, check=False)
    with pytest.raises(NotSplitInclusion):
        pushout_complex(doubling, ChainMap.identity(a))


def test_induced_identity_and_multiplication():
    s3 = sphere_complex(3)
    ident = ChainMap.identity(s3)
    assert induced_on_homology(ident, 3) == IntMatrix([[1]])
    double = ChainMap.multiplication(s3, 2)
    assert induced_on_homology(double, 3) == IntMatrix([[2]])


def test_induced_functoriality():
    rng = random.Random(4006)
    for _ in range(10):
        c = random_complex(rng)
        f = ChainMap.multiplication(c, rng.randint(-3, 3))
        g = ChainMap.multiplication(c, rng.randint(-3, 3))
        gf = g.compose(f)
        h = c.homology()
        for n in range(c.top_degree + 1):
            lhs = induced_on_homology(gf, n, h, h)
            a = induced_on_homology(g, n, h, h)
            b = induced_on_homology(f, n, h, h)
            prod = a @ b
            # compare modulo the torsion orders of the target
            orders = h.torsion(n) + [0] * h.free_rank(n)
            assert lhs.shape == prod.shape
            for i in range(lhs.rows):
                for j in range(lhs.cols):
                    o = orders[i]
                    if o:
                        assert (lhs.entry(i, j) - prod.entry(i, j)) % o == 0
                    else:
                        assert lhs.entry(i, j) == prod.entry(i, j)
