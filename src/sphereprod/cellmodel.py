"""Cellular chain models for weighted unions of cone-sphere products.

The model covers three cone-sphere pairs glued over the boundary of a
triangle.  Each factor contributes cells 1, x_i, y_i with |x_i| = d_i - 1,
|y_i| = d_i and dy_i = x_i; tensor words carry the Koszul sign convention.
In the weighted model the six words with two y-factors are replaced by
cells z12, z12*x3, z23, x1*z23, z13, z13~x2 whose differentials pick up the
pairwise weights, and the comparison map from the unweighted model
multiplies each cell by the weights of the factors it touches.
"""

from __future__ import annotations

from itertools import product

from .chains import ChainComplex, ChainMap
from .errors import DegreeTooSmall, InvalidCoefficientSequence
from .matrices import IntMatrix
from .rings import CoefficientSequence

FACTOR_CELLS = ("1", "x", "y")

Z_LABELS = ("z12", "z12*x3", "z23", "x1*z23", "z13", "z13~x2")


class PowerSequence3:
    """Per-face exponent triples for the three-factor weighted system.

    Off-face entries are 1 and entries divide along face inclusions."""

    __slots__ = ("table",)

    def __init__(self, table):
        table = {int(mask): tuple(int(v) for v in triple)
                 for mask, triple in table.items()}
        for mask in range(8):
            if mask not in table:
                raise InvalidCoefficientSequence(
                    f"power sequence misses face mask {mask}")
            triple = table[mask]
            if len(triple) != 3 or any(v < 1 for v in triple):
                raise InvalidCoefficientSequence(
                    "power sequence entries must be positive")
            for i in range(3):
                if not mask >> i & 1 and triple[i] != 1:
                    raise InvalidCoefficientSequence(
                        "entry off the face must be 1")
        for small in range(8):
            for big in range(8):
                if small & big == small:
                    for i in range(3):
                        if table[big][i] % table[small][i] != 0:
                            raise InvalidCoefficientSequence(
                                "divisibility along face inclusion fails")
        object.__setattr__(self, "table", table)

    def __setattr__(self, *args):
        raise AttributeError("PowerSequence3 is immutable")

    def entries(self, mask):
        return self.table[mask]

    def phi(self, mask):
        a, b, c = self.table[mask]
        return a * b * c

    def __eq__(self, other):
        return isinstance(other, PowerSequence3) and self.table == other.table


def power_sequence_from_coefficients(coeffs):
    """Power sequence carrying c12 on factor 1, c23 on factor 2, c13 on
    factor 3 over the matching faces (and the full face)."""
    if not isinstance(coeffs, CoefficientSequence):
        raise InvalidCoefficientSequence("expected a CoefficientSequence")
    table = {}
    for mask in range(8):
        triple = [1, 1, 1]
        if mask in (0b011, 0b111):
            triple[0] = coeffs.c12
        if mask in (0b110, 0b111):
            triple[1] = coeffs.c23
        if mask in (0b101, 0b111):
            triple[2] = coeffs.c13
        table[mask] = tuple(triple)
    return PowerSequence3(table)


def _word_degree(word, degrees):
    total = 0
    for i, kind in enumerate(word):
        if kind == "x":
            total += degrees[i] - 1
        elif kind == "y":
            total += degrees[i]
    return total


def word_label(word):
    parts = [f"{kind}{i + 1}" for i, kind in enumerate(word) if kind != "1"]
    return "*".join(parts) if parts else "1"


def _word_boundary(word, degrees):
    """Koszul differential of a tensor word, as {word: coefficient}."""
    out = {}
    shift = 0
    for i, kind in enumerate(word):
        if kind == "y":
            target = word[:i] + ("x",) + word[i + 1:]
            out[target] = out.get(target, 0) + (-1) ** shift
        if kind == "x":
            shift += degrees[i] - 1
        elif kind == "y":
            shift += degrees[i]
    return out


def _check_degrees(degrees):
    if len(degrees) != 3:
        raise DegreeTooSmall("exactly three degrees are required")
    if any(d < 2 for d in degrees):
        raise DegreeTooSmall("all degrees must be at least 2")


def _assemble(degrees, gen_degrees, diffs):
    """Build a ChainComplex from label -> degree and label -> {label: c}."""
    by_degree = {}
    for label, deg in gen_degrees:
        by_degree.setdefault(deg, []).append(label)
    labels = {deg: names for deg, names in sorted(by_degree.items())}
    position = {}
    for deg, names in labels.items():
        for k, name in enumerate(names):
            position[name] = (deg, k)
    boundaries = {}
    for deg, names in labels.items():
        if deg == 0:
            continue
        rows = len(labels.get(deg - 1, ()))
        if rows == 0:
            continue
        data = [[0] * len(names) for _ in range(rows)]
        for j, name in enumerate(names):
            for target, coeff in diffs.get(name, {}).items():
                tdeg, ti = position[target]
                if tdeg != deg - 1:
                    raise ValueError(
                        f"differential of {name} is not degree -1")
                data[ti][j] = coeff
        boundaries[deg] = IntMatrix(data, cols=len(names))
    return ChainComplex(labels, boundaries, check=True)


def unweighted_words():
    """The 26 tensor words of the plain boundary model (no triple-y word)."""
    return [w for w in product(FACTOR_CELLS, repeat=3)
            if sum(1 for k in w if k == "y") <= 2]


def weighted_words():
    """The 20 tensor words kept by the weighted model (at most one y)."""
    return [w for w in product(FACTOR_CELLS, repeat=3)
            if sum(1 for k in w if k == "y") <= 1]


def build_unweighted_boundary_complex(degrees):
    """Cell model of the plain (unweighted) boundary union."""
    _check_degrees(degrees)
    words = unweighted_words()
    gen_degrees = [(word_label(w), _word_degree(w, degrees)) for w in words]
    diffs = {}
    for w in words:
        diffs[word_label(w)] = {
            word_label(t): c for t, c in _word_boundary(w, degrees).items()}
    return _assemble(degrees, gen_degrees, diffs)


def _z_degrees(degrees):
    d1, d2, d3 = degrees
    return {
        "z12": d1 + d2,
        "z12*x3": d1 + d2 + d3 - 1,
        "z23": d2 + d3,
        "x1*z23": d1 + d2 + d3 - 1,
        "z13": d1 + d3,
        "z13~x2": d1 + d2 + d3 - 1,
    }


def _z_differentials(degrees, coeffs):
    d1, d2, _ = degrees
    c12, c13, c23 = coeffs.c12, coeffs.c13, coeffs.c23
    s1 = (-1) ** d1
    return {
        "z12": {"x1*y2": c12, "y1*x2": c12 * s1},
        "z12*x3": {"x1*y2*x3": c12, "y1*x2*x3": c12 * s1},
        "z23": {"x2*y3": c23, "y2*x3": c23 * (-1) ** d2},
        "x1*z23": {"x1*x2*y3": c23 * (-1) ** (d1 - 1),
                   "x1*y2*x3": c23 * (-1) ** (d1 + d2 - 1)},
        "z13": {"x1*y3": c13, "y1*x3": c13 * s1},
        "z13~x2": {"x1*x2*y3": c13,
                   "y1*x2*x3": c13 * (-1) ** (d1 + d2 - 1)},
    }


def build_boundary_complex(degrees, coeffs):
    """Cell model of the weighted boundary union.

    Twenty-six generators: the twenty words with at most one y-factor plus
    the six z-cells replacing the two-y words.
    """
    _check_degrees(degrees)
    if not isinstance(coeffs, CoefficientSequence):
        raise InvalidCoefficientSequence("expected a CoefficientSequence")
    words = weighted_words()
    gen_degrees = [(word_label(w), _word_degree(w, degrees)) for w in words]
    zdeg = _z_degrees(degrees)
    gen_degrees.extend((z, zdeg[z]) for z in Z_LABELS)
    diffs = {}
    for w in words:
        diffs[word_label(w)] = {
            word_label(t): c for t, c in _word_boundary(w, degrees).items()}
    diffs.update(_z_differentials(degrees, coeffs))
    return _assemble(degrees, gen_degrees, diffs)


def _comparison_images(degrees, coeffs):
    """Image of each unweighted word in the weighted model.

    Words touching factor i pick up the full-face weight of factor i,
    except that a y-pair's own face contributes nothing (its weight is
    already spent inside the face); two-y words land on z-cells.
    """
    full = (coeffs.c12, coeffs.c23, coeffs.c13)
    face_of_pair = {frozenset({0, 1}): (1, coeffs.c23, coeffs.c13),
                    frozenset({1, 2}): (coeffs.c12, 1, coeffs.c13),
                    frozenset({0, 2}): (coeffs.c12, coeffs.c23, 1)}
    z_target = {
        (frozenset({0, 1}), "1"): "z12",
        (frozenset({0, 1}), "x"): "z12*x3",
        (frozenset({1, 2}), "1"): "z23",
        (frozenset({1, 2}), "x"): "x1*z23",
        (frozenset({0, 2}), "1"): "z13",
        (frozenset({0, 2}), "x"): "z13~x2",
    }
    images = {}
    for w in unweighted_words():
        ys = frozenset(i for i, k in enumerate(w) if k == "y")
        if len(ys) <= 1:
            factor = 1
            for i, kind in enumerate(w):
                if kind != "1":
                    factor *= full[i]
            images[word_label(w)] = (word_label(w), factor)
        else:
            weights = face_of_pair[ys]
            factor = 1
            for i, kind in enumerate(w):
                if kind != "1":
                    factor *= weights[i]
            other = next(i for i in range(3) if i not in ys)
            images[word_label(w)] = (z_target[(ys, w[other])], factor)
    return images


def build_comparison_chain_map(degrees, coeffs):
    """Chain map from the unweighted boundary model to the weighted one."""
    source = build_unweighted_boundary_complex(degrees)
    target = build_boundary_complex(degrees, coeffs)
    images = _comparison_images(degrees, coeffs)
    mats = {}
    for n in range(source.top_degree + 1):
        src_names = source.labels(n)
        tgt_names = target.labels(n)
        tgt_index = {name: i for i, name in enumerate(tgt_names)}
        data = [[0] * len(src_names) for _ in range(len(tgt_names))]
        for j, name in enumerate(src_names):
            tname, factor = images[name]
            data[tgt_index[tname]][j] = factor
        if data and data[0:]:
            mats[n] = IntMatrix(data, cols=len(src_names))
    return ChainMap(source, target, mats, check=True)


def top_cycles(degrees, coeffs, comparison=None):
    """The canonical top-degree cycles of the two models.

    Returns (u, v) as coordinate vectors in degree d1+d2+d3-1 of the
    unweighted and weighted complexes respectively, which are read from
    the comparison map (built when not given).
    """
    _check_degrees(degrees)
    d1, d2, _ = degrees
    ell = coeffs.lcm_pairwise
    cm = comparison or build_comparison_chain_map(degrees, coeffs)
    source, target = cm.source, cm.target
    top = sum(degrees) - 1

    u_terms = {"y1*y2*x3": (-1) ** (d1 + d2),
               "y1*x2*y3": (-1) ** d1,
               "x1*y2*y3": 1}
    v_terms = {"z12*x3": (-1) ** (d1 + d2) * ell // coeffs.c12,
               "z13~x2": (-1) ** d1 * ell // coeffs.c13,
               "x1*z23": ell // coeffs.c23}

    u = [0] * source.dim(top)
    for k, name in enumerate(source.labels(top)):
        if name in u_terms:
            u[k] = u_terms[name]
    v = [0] * target.dim(top)
    for k, name in enumerate(target.labels(top)):
        if name in v_terms:
            v[k] = v_terms[name]
    return tuple(u), tuple(v)


def build_face_square(degrees, coeffs):
    """Inclusion/rescaling pair whose pushout models the weighted 12-face.

    Returns (i, j): i includes the boundary of the {1,2} face into the full
    face (adding the cells y1*y2 and y1*y2*x3), and j rescales every cell
    touching factor 1 by the pairwise weight of {1,2}.  Pushing out i
    against j must reproduce the weighted face model: two new cells whose
    differentials carry the weight.
    """
    _check_degrees(degrees)
    boundary_words = [w for w in product(FACTOR_CELLS, repeat=3)
                      if w[2] != "y" and (w[0], w[1]) != ("y", "y")]
    face_words = [w for w in product(FACTOR_CELLS, repeat=3)
                  if w[2] != "y"]

    def assemble(words):
        gen_degrees = [(word_label(w), _word_degree(w, degrees))
                       for w in words]
        diffs = {word_label(w): {word_label(t): c for t, c in
                                 _word_boundary(w, degrees).items()}
                 for w in words}
        return _assemble(degrees, gen_degrees, diffs)

    a = assemble(boundary_words)
    x = assemble(face_words)

    incl_mats = {}
    for n in range(x.top_degree + 1):
        src_names = a.labels(n)
        tgt_index = {name: k for k, name in enumerate(x.labels(n))}
        data = [[0] * len(src_names) for _ in range(x.dim(n))]
        for jcol, name in enumerate(src_names):
            data[tgt_index[name]][jcol] = 1
        if data:
            incl_mats[n] = IntMatrix(data, cols=len(src_names))
    i = ChainMap(a, x, incl_mats, check=True)

    scale_mats = {}
    for n in range(a.top_degree + 1):
        names = a.labels(n)
        data = [[0] * len(names) for _ in range(len(names))]
        for k, name in enumerate(names):
            touches_first = name.startswith(("x1", "y1")) or \
                "*x1" in name or "*y1" in name
            data[k][k] = coeffs.c12 if touches_first else 1
        if data:
            scale_mats[n] = IntMatrix(data, cols=len(names))
    j = ChainMap(a, a, scale_mats, check=True)
    return i, j


def top_comparison_multiplier(degrees, coeffs, comparison=None):
    """Integer m with [comparison(u)] = m [v] in top-degree homology."""
    cm = comparison or build_comparison_chain_map(degrees, coeffs)
    u, v = top_cycles(degrees, coeffs, cm)
    top = sum(degrees) - 1
    ht = cm.target.homology()
    image_class = ht.class_vector(top, cm.apply(top, u))
    v_class = ht.class_vector(top, v)
    if len(v_class) != 1 or abs(v_class[0]) != 1:
        raise ValueError("weighted top cycle does not generate")
    return image_class[0] * v_class[0]
