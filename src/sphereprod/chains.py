"""Finitely generated free Z-chain complexes and their homology.

Complexes are bounded below at degree 0 and above by a declared top degree.
Homology is computed from Smith normal forms over the integers alone: the
transform of one Smith form per degree gives both the cycle lattice and the
coordinates of a cycle in it.  The generator choice is deterministic given
the input ordering, and published representatives are reduced modulo
boundaries via the Hermite form of the boundary image.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    NotAComplex,
    NotACycle,
    NotSplitInclusion,
)
from .matrices import IntMatrix
from .normal_forms import hnf, snf


class ChainComplex:
    """Free chain complex given by labelled generators and boundary maps.

    ``boundaries[n]`` is the matrix of d_n : C_n -> C_{n-1}, with rows
    indexed by the degree-(n-1) generators.
    """

    __slots__ = ("_labels", "_boundaries", "top_degree", "_homology")

    def __init__(self, labels, boundaries, check=True):
        labels = {int(n): tuple(names) for n, names in labels.items()
                  if names}
        if any(n < 0 for n in labels):
            raise ValueError("generators in negative degree")
        top = max(labels, default=0)
        cleaned = {}
        for n, mat in boundaries.items():
            n = int(n)
            expected = (len(labels.get(n - 1, ())), len(labels.get(n, ())))
            if mat.shape != expected:
                raise DimensionMismatch(
                    f"boundary at degree {n} has shape {mat.shape}, "
                    f"expected {expected}")
            if not mat.is_zero():
                cleaned[n] = mat
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_boundaries", cleaned)
        object.__setattr__(self, "top_degree", top)
        object.__setattr__(self, "_homology", None)
        if check:
            self._check_square_zero()

    def __setattr__(self, *args):
        raise AttributeError("ChainComplex is immutable")

    def _check_square_zero(self):
        for n in range(1, self.top_degree + 1):
            prod = self.boundary(n) @ self.boundary(n + 1)
            if not prod.is_zero():
                raise NotAComplex(
                    f"boundary squared is nonzero between degrees "
                    f"{n + 1} and {n - 1}")

    def dim(self, n):
        return len(self._labels.get(n, ()))

    def labels(self, n):
        return self._labels.get(n, ())

    def degrees(self):
        return sorted(self._labels)

    def index_of(self, label):
        """(degree, position) of a generator label; labels must be unique."""
        for n, names in self._labels.items():
            if label in names:
                return n, names.index(label)
        raise KeyError(label)

    def boundary(self, n):
        mat = self._boundaries.get(n)
        if mat is not None:
            return mat
        return IntMatrix.zeros(self.dim(n - 1), self.dim(n))

    def euler_characteristic(self):
        return sum((-1) ** n * self.dim(n)
                   for n in range(self.top_degree + 1))

    def direct_sum(self, other):
        labels = {}
        boundaries = {}
        top = max(self.top_degree, other.top_degree)
        for n in range(top + 1):
            names = ([f"L.{x}" for x in self.labels(n)] +
                     [f"R.{x}" for x in other.labels(n)])
            if names:
                labels[n] = names
        for n in range(1, top + 1):
            a, b = self.boundary(n), other.boundary(n)
            rows = a.rows + b.rows
            cols = a.cols + b.cols
            if rows == 0 or cols == 0:
                continue
            data = [[0] * cols for _ in range(rows)]
            for i in range(a.rows):
                for j in range(a.cols):
                    data[i][j] = a.entry(i, j)
            for i in range(b.rows):
                for j in range(b.cols):
                    data[a.rows + i][a.cols + j] = b.entry(i, j)
            boundaries[n] = IntMatrix(data, cols=cols)
        return ChainComplex(labels, boundaries, check=False)

    def homology(self):
        """The complex's homology, computed on first use and then shared,
        so every caller reuses the same per-degree Smith forms."""
        if self._homology is None:
            object.__setattr__(self, "_homology", HomologyResult(self))
        return self._homology

    def __repr__(self):
        dims = {n: self.dim(n) for n in self.degrees()}
        return f"ChainComplex(dims={dims})"


class ChainMap:
    """Degree-0 map of chain complexes, one matrix per degree."""

    __slots__ = ("source", "target", "_mats")

    def __init__(self, source, target, mats, check=True):
        mats = {int(n): m for n, m in mats.items()}
        for n, m in mats.items():
            expected = (target.dim(n), source.dim(n))
            if m.shape != expected:
                raise DimensionMismatch(
                    f"chain map matrix at degree {n} has shape {m.shape}, "
                    f"expected {expected}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_mats", mats)
        if check:
            self._check_commutes()

    def __setattr__(self, *args):
        raise AttributeError("ChainMap is immutable")

    def matrix(self, n):
        mat = self._mats.get(n)
        if mat is not None:
            return mat
        return IntMatrix.zeros(self.target.dim(n), self.source.dim(n))

    def _check_commutes(self):
        top = max(self.source.top_degree, self.target.top_degree)
        for n in range(1, top + 1):
            left = self.target.boundary(n) @ self.matrix(n)
            right = self.matrix(n - 1) @ self.source.boundary(n)
            if left != right:
                raise ValueError(
                    f"chain map does not commute with boundaries at "
                    f"degree {n}")

    def apply(self, n, chain):
        return self.matrix(n).mul_vector(chain)

    def compose(self, earlier):
        """self o earlier, where earlier maps into self.source."""
        if earlier.target is not self.source:
            raise DimensionMismatch("chain maps are not composable")
        top = max(earlier.source.top_degree, self.target.top_degree)
        mats = {n: self.matrix(n) @ earlier.matrix(n)
                for n in range(top + 1)}
        return ChainMap(earlier.source, self.target, mats, check=False)

    @classmethod
    def identity(cls, complex_):
        mats = {n: IntMatrix.identity(complex_.dim(n))
                for n in complex_.degrees()}
        return cls(complex_, complex_, mats, check=False)

    @classmethod
    def multiplication(cls, complex_, k):
        mats = {n: IntMatrix.identity(complex_.dim(n)).scale(k)
                for n in complex_.degrees()}
        return cls(complex_, complex_, mats, check=False)


class _DegreeHomology:
    __slots__ = ("kernel", "coords", "u", "orders", "gen_indices",
                 "free_rank", "torsion", "representatives")

    def __init__(self, kernel, coords, u, orders, gen_indices, free_rank,
                 torsion, representatives):
        self.kernel = kernel
        self.coords = coords
        self.u = u
        self.orders = orders
        self.gen_indices = gen_indices
        self.free_rank = free_rank
        self.torsion = torsion
        self.representatives = representatives


class HomologyResult:
    """Homology of a chain complex, with explicit cycle representatives.

    Presented generators in each degree are the torsion generators (in
    divisor order) followed by the free generators.
    """

    def __init__(self, complex_):
        self._complex = complex_
        self._cache = {}

    @property
    def complex(self):
        return self._complex

    def _degree_data(self, n):
        if n in self._cache:
            return self._cache[n]
        c = self._complex
        dim = c.dim(n)
        if dim == 0:
            data = _DegreeHomology(IntMatrix.zeros(0, 0),
                                   IntMatrix.zeros(0, 0), None, [], [], 0,
                                   [], [])
            self._cache[n] = data
            return data
        bn = c.boundary(n)
        bnext = c.boundary(n + 1)
        # U @ d_n @ V = D: the columns of V past the rank span the saturated
        # cycle lattice, and the same rows of V^-1 map a cycle to its
        # coordinates in that basis
        smith = snf(bn)
        rank = smith.rank
        kernel = smith.V.submatrix(range(dim), range(rank, dim))
        coords = smith.Vinv.submatrix(range(rank, dim), range(dim))
        r = dim - rank
        w = coords @ bnext
        if kernel @ w != bnext:
            raise NotAComplex("boundary image escapes the cycle lattice")
        res = snf(w)
        s = res.rank
        diag = res.diagonal
        orders = [diag[i] if i < s else 0 for i in range(r)]
        gens = kernel @ res.Uinv
        # Hermite basis of the boundary image, used to reduce representatives
        image_h, _ = hnf(bnext.transpose())
        image_rows = [row for row in image_h.data if any(row)]
        gen_indices = [i for i in range(r) if orders[i] > 1] + \
                      [i for i in range(s, r) if orders[i] == 0]
        reps = []
        for i in gen_indices:
            vec = list(gens.column(i))
            for row in image_rows:
                pivot_col = next(j for j, x in enumerate(row) if x)
                q = vec[pivot_col] // row[pivot_col]
                if q:
                    vec = [a - q * b for a, b in zip(vec, row)]
            reps.append(tuple(vec))
        torsion = [orders[i] for i in range(r) if orders[i] > 1]
        data = _DegreeHomology(kernel, coords, res.U, orders, gen_indices,
                               r - s, torsion, reps)
        self._cache[n] = data
        return data

    def free_rank(self, n):
        return self._degree_data(n).free_rank

    def torsion(self, n):
        return list(self._degree_data(n).torsion)

    def representatives(self, n):
        return list(self._degree_data(n).representatives)

    def generator_count(self, n):
        return len(self._degree_data(n).gen_indices)

    def is_trivial(self, n):
        d = self._degree_data(n)
        return d.free_rank == 0 and not d.torsion

    def class_vector(self, n, chain):
        """Coordinates of a cycle's class in the presented generators.

        Torsion coordinates are reduced into [0, order).
        """
        if len(chain) != self._complex.dim(n):
            raise DimensionMismatch("chain has wrong length")
        data = self._degree_data(n)
        # the kernel basis recovers the chain from its coordinates exactly
        # when the chain is a cycle
        x = data.coords.mul_vector(chain)
        if data.kernel.mul_vector(x) != tuple(chain):
            raise NotACycle("chain is not a cycle")
        if not data.gen_indices:
            return ()
        y = data.u.mul_vector(x)
        out = []
        for i in data.gen_indices:
            if data.orders[i] > 1:
                out.append(y[i] % data.orders[i])
            else:
                out.append(y[i])
        return tuple(out)

    def summary(self):
        out = {}
        for n in range(self._complex.top_degree + 1):
            fr, tor = self.free_rank(n), self.torsion(n)
            if fr or tor:
                out[n] = (fr, tor)
        return out


def homology(complex_):
    return complex_.homology()


def mapping_cone_of_degree_map(n, multiplier, target, cycle):
    """Attach one (n+1)-cell along multiplier * cycle."""
    if len(cycle) != target.dim(n):
        raise DimensionMismatch("cycle has wrong length")
    if any(x != 0 for x in target.boundary(n).mul_vector(cycle)):
        raise NotACycle("attaching chain is not a cycle")
    labels = {m: list(target.labels(m))
              for m in range(target.top_degree + 1) if target.dim(m)}
    cell = "cone"
    existing = set()
    for names in labels.values():
        existing.update(names)
    while cell in existing:
        cell += "'"
    labels.setdefault(n + 1, [])
    labels[n + 1] = list(labels[n + 1]) + [cell]
    boundaries = {}
    for m in range(1, max(target.top_degree, n + 1) + 2):
        mat = target.boundary(m)
        rows = len(labels.get(m - 1, ()))
        cols = len(labels.get(m, ()))
        if rows == 0 or cols == 0:
            continue
        data = [[0] * cols for _ in range(rows)]
        for i in range(mat.rows):
            for j in range(mat.cols):
                data[i][j] = mat.entry(i, j)
        if m == n + 1:
            for i in range(target.dim(n)):
                data[i][cols - 1] = multiplier * cycle[i]
        boundaries[m] = IntMatrix(data, cols=cols)
    return ChainComplex(labels, boundaries, check=True)


def pushout_complex(i, j):
    """Pushout of chain complexes along i : A -> X and j : A -> Y.

    Requires i to be degreewise injective with free cokernel.  The result
    is presented on the generators of Y together with a complement of the
    image of A in X; returns (pushout, from_x, from_y).
    """
    if i.source is not j.source:
        raise DimensionMismatch("the two maps must share their source")
    a, x, y = i.source, i.target, j.target
    top = max(x.top_degree, y.top_degree, a.top_degree)

    comp_cols = {}
    decomp_inv = {}
    for n in range(top + 1):
        mat = i.matrix(n)
        res = snf(mat)
        diag = res.diagonal
        if sum(1 for d in diag if d != 0) != a.dim(n):
            raise NotSplitInclusion(
                f"inclusion is not injective at degree {n}")
        if any(d not in (0, 1) for d in diag):
            raise NotSplitInclusion(
                f"cokernel of the inclusion has torsion at degree {n}")
        na, nx = a.dim(n), x.dim(n)
        comp_cols[n] = [res.Uinv.column(k) for k in range(na, nx)]
        # mat = U^-1 D V^-1 with D = (I; 0), so the basis (mat | comp) of
        # X_n is U^-1 diag(V^-1, I), whose inverse is diag(V, I) U
        head = res.V @ res.U.submatrix(range(na), range(nx))
        decomp_inv[n] = IntMatrix(head.data + res.U.data[na:], cols=nx)

    labels = {}
    for n in range(top + 1):
        names = []
        y_names = set(y.labels(n))
        for k, col in enumerate(comp_cols[n]):
            support = [idx for idx, v in enumerate(col) if v != 0]
            if len(support) == 1 and abs(col[support[0]]) == 1:
                name = x.labels(n)[support[0]]
            else:
                name = f"po{n}.{k}"
            while name in y_names or name in names:
                name += "'"
            names.append(name)
        names.extend(y.labels(n))
        if names:
            labels[n] = names

    def push_x_vector(n, vec):
        """Class of (vec, 0) in the pushout, as a coordinate vector."""
        na = a.dim(n)
        ncomp = len(comp_cols[n])
        if x.dim(n) == 0:
            return [0] * (ncomp + y.dim(n))
        coords = decomp_inv[n].mul_vector(vec)
        a_part = coords[:na]
        c_part = list(coords[na:])
        y_part = list(j.matrix(n).mul_vector(a_part))
        return c_part + y_part

    boundaries = {}
    for n in range(1, top + 1):
        cols = []
        for col in comp_cols[n]:
            dx = x.boundary(n).mul_vector(col)
            cols.append(push_x_vector(n - 1, dx))
        by = y.boundary(n)
        ncomp_prev = len(comp_cols[n - 1])
        for k in range(y.dim(n)):
            cols.append([0] * ncomp_prev + list(by.column(k)))
        rows = len(labels.get(n - 1, ()))
        if cols and rows:
            boundaries[n] = IntMatrix.from_columns(cols, rows=rows)

    pushout = ChainComplex(labels, boundaries, check=True)

    from_x_mats = {}
    from_y_mats = {}
    for n in range(top + 1):
        cols = [push_x_vector(n, col)
                for col in IntMatrix.identity(x.dim(n)).columns()]
        from_x_mats[n] = IntMatrix.from_columns(cols, rows=pushout.dim(n))
        ncomp = len(comp_cols[n])
        ycols = [[0] * ncomp + list(col)
                 for col in IntMatrix.identity(y.dim(n)).columns()]
        from_y_mats[n] = IntMatrix.from_columns(ycols, rows=pushout.dim(n))
    from_x = ChainMap(x, pushout, from_x_mats, check=True)
    from_y = ChainMap(y, pushout, from_y_mats, check=True)
    return pushout, from_x, from_y


def induced_on_homology(f, n, source_homology=None, target_homology=None):
    """Matrix of H_n(f) in the presented homology generators."""
    hs = source_homology or f.source.homology()
    ht = target_homology or f.target.homology()
    cols = []
    for rep in hs.representatives(n):
        image = f.apply(n, rep)
        cols.append(ht.class_vector(n, image))
    return IntMatrix.from_columns(cols, rows=ht.generator_count(n))
