"""Seeded input generators for the three workloads.

Stdlib only and independent of ``sphereprod``: the program under test sees
nothing but the JSON files these objects are written to.  Every generator
takes a ``random.Random`` and returns plain JSON-ready data, so one seed
always yields the same inputs.

Monomials of the ambient algebra are indexed by subset masks 0..7 (bit i-1
set when generator i is in the subset); a mask's degree is the sum of the
degrees of its elements.
"""

from fractions import Fraction
from math import lcm

MASKS = tuple(range(8))

# grid.json's "classification" block
MAX_DEGREE = 7
ENTRY_BOUND = 24
REEMBED_BOUND = 5
# grid.json's "homology_grid" and "realize_grid" blocks
MODEL_DEGREES = (2, 3, 4)
MODEL_PAIRWISE = (1, 2, 3, 4, 6)
MODEL_TRIPLE_MULTIPLIERS = (1, 2)

SEARCH_KINDS = ("bad", "two_equal_even", "all_equal_even")


def mask_degree(mask, degrees):
    return sum(degrees[i] for i in range(3) if mask >> i & 1)


def mask_coefficient(coeffs, mask):
    """Weight of a subset: 1 for at most one element, else c12/c13/c23/c123."""
    return {0b011: coeffs["12"], 0b101: coeffs["13"], 0b110: coeffs["23"],
            0b111: coeffs["123"]}.get(mask, 1)


def coeffs_obj(coeffs):
    return {"c": {k: str(v) for k, v in coeffs.items()}}


def order_obj(degrees, generators):
    return {
        "degrees": list(degrees),
        "generators": [
            {"degree": deg, "vector": [_frac_str(x) for x in vec]}
            for deg, vec in generators],
    }


def _frac_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def random_unimodular(rng, n, bound=REEMBED_BOUND):
    """Random n x n integer matrix of determinant +-1, entries <= bound.

    Built from elementary row additions on the identity, so unimodularity
    holds by construction; draws with a larger entry are rejected.
    """
    if n == 1:
        return [[rng.choice((-1, 1))]]
    while True:
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(2, 3 * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            a = rng.randint(-2, 2)
            if a:
                m[i] = [x + a * y for x, y in zip(m[i], m[j])]
        if all(abs(x) <= bound for row in m for x in row):
            return m


def reembed(rng, generators, bound=REEMBED_BOUND):
    """Degreewise unimodular change of basis of (degree, vector) pairs.

    Generators of one degree are replaced by integer combinations of each
    other through a random unimodular matrix, so the lattice they span (the
    order) is unchanged while its presentation is not.
    """
    by_degree = {}
    for pos, (deg, _) in enumerate(generators):
        by_degree.setdefault(deg, []).append(pos)
    out = list(generators)
    for deg, positions in by_degree.items():
        t = random_unimodular(rng, len(positions), bound)
        for out_idx, pos_out in enumerate(positions):
            acc = [Fraction(0)] * 8
            for in_idx, pos_in in enumerate(positions):
                k = t[in_idx][out_idx]
                if k:
                    acc = [a + k * b for a, b in
                           zip(acc, generators[pos_in][1])]
            out[pos_out] = (deg, tuple(acc))
    return out


def weighted_generators(coeffs, degrees):
    """The weighted model as an order: (1/c_sigma) x_sigma in (degree, mask)
    order."""
    masks = sorted(MASKS, key=lambda m: (mask_degree(m, degrees), m))
    gens = []
    for mask in masks:
        vec = [Fraction(0)] * 8
        vec[mask] = Fraction(1, mask_coefficient(coeffs, mask))
        gens.append((mask_degree(mask, degrees), tuple(vec)))
    return gens


def random_coefficients(rng, entry_bound=ENTRY_BOUND):
    """Pairwise weights whose lcm stays within the bound, and a multiple of
    that lcm as the full weight."""
    while True:
        c12, c13, c23 = (rng.randint(1, entry_bound) for _ in range(3))
        base = lcm(c12, c13, c23)
        if base > entry_bound:
            continue
        multiples = [k * base for k in range(1, entry_bound // base + 1)]
        return {"12": c12, "13": c13, "23": c23,
                "123": rng.choice(multiples)}


def random_admissible_degrees(rng, max_degree=MAX_DEGREE):
    """Three degrees in 1..max_degree with no repeated even degree."""
    while True:
        d = tuple(rng.randint(1, max_degree) for _ in range(3))
        if all(d.count(v) == 1 or v % 2 == 1 for v in d):
            return d


def classify_case(rng):
    """A re-embedded weighted order of admissible degrees."""
    degrees = random_admissible_degrees(rng)
    coeffs = random_coefficients(rng)
    gens = reembed(rng, weighted_generators(coeffs, degrees))
    return {"kind": "weighted", "degrees": degrees,
            "order": order_obj(degrees, gens)}


def bad_family_generators(degrees):
    """The degree-(e, e, o) generalization of the shipped bad3 order.

    With one odd degree every sign is +1, so the structure constants match
    bad3's and the order is not a weighted model for any even e, odd o.
    """
    half = Fraction(1, 2)

    def unit(mask, scale=1):
        return tuple(Fraction(scale) if m == mask else Fraction(0)
                     for m in MASKS)

    mid = tuple(half if m in (0b101, 0b110) else Fraction(0) for m in MASKS)
    slots = [(0, unit(0)), (0b001, unit(0b001)), (0b010, unit(0b010)),
             (0b100, unit(0b100)), (0b011, unit(0b011)),
             (0b101, unit(0b101)), (0b101, mid), (0b111, unit(0b111, half))]
    return [(mask_degree(m, degrees), vec) for m, vec in slots]


def search_case(rng, kind):
    """An order with a repeated even degree, of the given kind.

    Two-equal-even degrees (e, e, 2e) are left out: on them the program's
    square-zero search certifies many weighted orders as not weighted, a
    known defect that ``test_perfbench.py::test_known_defect_e_e_2e``
    keeps visible.  Put them back once that test passes.
    """
    if kind == "bad":
        e = rng.choice((2, 4, 6))
        o = rng.choice((1, 3, 5, 7))
        degrees = (e, e, o)
        gens = reembed(rng, bad_family_generators(degrees))
        return {"kind": kind, "degrees": degrees,
                "order": order_obj(degrees, gens)}
    e = rng.choice((2, 4, 6))
    if kind == "two_equal_even":
        other = rng.choice([d for d in range(1, MAX_DEGREE + 1)
                            if d not in (e, 2 * e)])
        degrees = [e, e, other]
        rng.shuffle(degrees)
        degrees = tuple(degrees)
    elif kind == "all_equal_even":
        degrees = (e, e, e)
    else:
        raise ValueError(f"unknown search kind {kind!r}")
    coeffs = random_coefficients(rng)
    gens = reembed(rng, weighted_generators(coeffs, degrees))
    return {"kind": kind, "degrees": degrees,
            "order": order_obj(degrees, gens)}


def model_case(rng):
    """One point of the paper's degree/weight grid."""
    degrees = tuple(rng.choice(MODEL_DEGREES) for _ in range(3))
    c12, c13, c23 = (rng.choice(MODEL_PAIRWISE) for _ in range(3))
    c123 = lcm(c12, c13, c23) * rng.choice(MODEL_TRIPLE_MULTIPLIERS)
    coeffs = {"12": c12, "13": c13, "23": c23, "123": c123}
    return {"kind": "model", "degrees": degrees, "coeffs": coeffs}
