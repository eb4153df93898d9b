"""Shared helpers: fixture orders, re-embeddings, and brute-force oracles."""

from fractions import Fraction
from math import gcd, lcm

from sphereprod.chains import ChainComplex
from sphereprod.matrices import IntMatrix, rat_inverse, rat_rank
from sphereprod.normal_forms import (
    elementary_divisors_via_minors,
    hnf,
    integer_kernel_basis,
)
from sphereprod.orders import (
    OrderGenerator,
    OrderInput,
    ambient_degrees,
    r_multiply,
)
from sphereprod.rings import CoefficientSequence, weighted_basis_masks


def bad3_order():
    """The rank-8 order with degrees (2, 2, 3) that is not a weighted model."""
    F = Fraction
    half = F(1, 2)
    gens = [
        (0, (1, 0, 0, 0, 0, 0, 0, 0)),
        (2, (0, 1, 0, 0, 0, 0, 0, 0)),
        (2, (0, 0, 1, 0, 0, 0, 0, 0)),
        (3, (0, 0, 0, 0, 1, 0, 0, 0)),
        (4, (0, 0, 0, 1, 0, 0, 0, 0)),
        (5, (0, 0, 0, 0, 0, 1, 0, 0)),
        (5, (0, 0, 0, 0, 0, half, half, 0)),
        (7, (0, 0, 0, 0, 0, 0, 0, half)),
    ]
    return OrderInput((2, 2, 3), gens)


def square_obstructed_order():
    """Order with degrees (3, 3, 6) admitting no square-zero generator in
    degree 6: the degree-6 basis vector has an odd top-square."""
    F = Fraction
    half = F(1, 2)
    gens = [
        (0, (1, 0, 0, 0, 0, 0, 0, 0)),
        (3, (0, 1, 0, 0, 0, 0, 0, 0)),
        (3, (0, 0, 1, 0, 0, 0, 0, 0)),
        (6, (0, 0, 0, half, 1, 0, 0, 0)),
        (6, (0, 0, 0, 1, 0, 0, 0, 0)),
        (9, (0, 0, 0, 0, 0, 1, 0, 0)),
        (9, (0, 0, 0, 0, 0, 0, 1, 0)),
        (12, (0, 0, 0, 0, 0, 0, 0, 1)),
    ]
    return OrderInput((3, 3, 6), gens)


def random_unimodular(rng, n, bound=5):
    if n == 0:
        return IntMatrix.identity(0)
    if n == 1:
        return IntMatrix([[rng.choice((-1, 1))]])
    while True:
        m = IntMatrix.identity(n).to_lists()
        for _ in range(rng.randint(2, 3 * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            a = rng.randint(-2, 2)
            if a:
                m[i] = [x + a * y for x, y in zip(m[i], m[j])]
        if all(abs(x) <= bound for row in m for x in row):
            return IntMatrix(m)


def embedded_weighted_order(coeffs, degrees, rng=None, bound=5):
    """The weighted model as an order, optionally re-embedded by a random
    degreewise-unimodular change of basis with bounded entries."""
    adeg = ambient_degrees(degrees)
    masks = weighted_basis_masks(degrees)
    vectors = []
    for mask in masks:
        vec = [Fraction(0)] * 8
        vec[mask] = Fraction(1, coeffs.value(mask))
        vectors.append(vec)
    gen_degrees = [adeg[m] for m in masks]
    if rng is not None:
        by_degree = {}
        for pos, deg in enumerate(gen_degrees):
            by_degree.setdefault(deg, []).append(pos)
        new_vectors = [None] * len(vectors)
        for deg, positions in by_degree.items():
            t = random_unimodular(rng, len(positions), bound=bound)
            for out_idx, pos_out in enumerate(positions):
                acc = [Fraction(0)] * 8
                for in_idx, pos_in in enumerate(positions):
                    coeff = t.entry(in_idx, out_idx)
                    if coeff:
                        acc = [a + coeff * b for a, b in
                               zip(acc, vectors[pos_in])]
                new_vectors[pos_out] = acc
        vectors = new_vectors
    gens = [OrderGenerator(deg, tuple(vec))
            for deg, vec in zip(gen_degrees, vectors)]
    return OrderInput(degrees, gens)


def random_unplanted_order(rng, degree, bound=3):
    """Order with degrees (d, d, d) that is not a weighted model by
    construction: L1 is a random nonsingular integer lattice on x1, x2, x3,
    L2 a random superlattice of the Z-span of every product in L1 * L1
    (squares included), and L3 the Z-span of L1 * L2."""
    degrees = (degree,) * 3

    def vector(entries):
        vec = [Fraction(0)] * 8
        for mask, x in entries:
            vec[mask] = Fraction(x)
        return tuple(vec)

    while True:
        m = IntMatrix([[rng.randint(-bound, bound) for _ in range(3)]
                       for _ in range(3)])
        if m.det():
            break
    singles, pairs = (1, 2, 4), (3, 5, 6)
    l1 = [vector(zip(singles, col)) for col in m.transpose().data]
    span = IntMatrix([[int(p[k]) for k in pairs] for p in
                      (r_multiply(u, v, degrees) for u in l1 for v in l1)])
    basis = [row for row in hnf(span)[0].data if any(row)]
    # a superlattice C of the span B satisfies B = S C with S integral
    while True:
        s = IntMatrix([[rng.randint(1, 2) if i == j else rng.randint(-2, 2)
                        for j in range(3)] for i in range(3)])
        if s.det():
            break
    c = rat_inverse(s.to_rational()) @ IntMatrix(basis)
    l2 = [vector(zip(pairs, row)) for row in c.data]
    tops = [r_multiply(u, v, degrees)[7] for u in l1 for v in l2]
    den = lcm(*(x.denominator for x in tops))
    top = Fraction(gcd(*(int(x * den) for x in tops)), den)
    gens = ([(0, vector([(0, 1)]))] + [(degree, v) for v in l1]
            + [(2 * degree, v) for v in l2]
            + [(3 * degree, vector([(7, top)]))])
    return OrderInput(degrees, gens)


def random_coefficients(rng, entry_bound=24):
    while True:
        c12, c13, c23 = (rng.randint(1, entry_bound) for _ in range(3))
        base = lcm(c12, c13, c23)
        if base > entry_bound:
            continue
        multiples = [k * base for k in range(1, entry_bound // base + 1)]
        return CoefficientSequence(c12, c13, c23, rng.choice(multiples))


def random_admissible_degrees(rng, max_degree=7):
    while True:
        d = tuple(rng.randint(1, max_degree) for _ in range(3))
        if all(d.count(v) == 1 or v % 2 == 1 for v in d):
            return d


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


def random_complex(rng, max_degree=3, max_dim=5, bound=4):
    """Random valid chain complex: each boundary is built from integer
    combinations of the previous kernel so that the square vanishes."""
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
            mat_cols = []
            for _ in range(cols):
                col = [0] * rows
                for k in prev_kernel:
                    coeff = rng.randint(-2, 2)
                    col = [a + coeff * b for a, b in zip(col, k)]
                mat_cols.append(col)
            mat = IntMatrix.from_columns(mat_cols, rows=rows)
        boundaries[n] = mat
        prev_kernel = integer_kernel_basis(mat)
    return ChainComplex(labels, boundaries, check=True)


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
