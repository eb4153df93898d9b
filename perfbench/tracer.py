"""Span tracer that wraps the layer functions of ``sphereprod`` from outside.

``Tracer.install`` replaces each traced function by a wrapper that records a
span (name, start, end, parent span, operation id) and then calls the
original.  Module-level functions are rebound in every ``sphereprod`` module
namespace that holds them, so names imported with ``from .x import f`` are
traced too; methods are patched on their class.  Nothing is installed for
an untraced run, which therefore executes the original functions.

A span's self time is its duration minus the durations of its child spans.
Children are nested inside their parent and disjoint from each other, since
the program is single-threaded, so that difference is exactly the part of
the interval that no child covers.
"""

import functools
import sys
import time
import types

PACKAGE = "sphereprod"

# Layer modules on the path of the three workloads, in bottom-up order.
LAYERS = ("matrices", "normal_forms", "lattices", "rings", "chains",
          "cellmodel", "realize", "orders", "alt2", "serialize", "cli")

# Functions and methods reported one by one, as "<layer>.<key>".  A key maps
# to the attribute paths it covers inside the layer module: a class stands
# for its constructor, HomologyResult for its public queries.
REPORTED = {
    "matrices": {
        "RatMatrix.mul_vector": ["RatMatrix.mul_vector"],
        "rat_inverse": ["rat_inverse"],
        "rat_solve": ["rat_solve"],
        "rat_rank": ["rat_rank"],
        "rat_kernel_basis": ["rat_kernel_basis"],
        "int_inverse_unimodular": ["int_inverse_unimodular"],
        "RatMatrix.det": ["RatMatrix.det"],
        "IntMatrix.det": ["IntMatrix.det"],
        "IntMatrix.matmul": ["IntMatrix.__matmul__"],
    },
    "normal_forms": {
        "snf": ["snf"],
        "hnf": ["hnf"],
        "snf_constrained_sl": ["snf_constrained_sl"],
        "integer_kernel_basis": ["integer_kernel_basis"],
    },
    "lattices": {
        "intersect_subspace": ["intersect_subspace"],
        "split_complement": ["split_complement"],
        "Lattice.membership": ["Lattice.membership"],
    },
    "rings": {
        "StructRing": ["StructRing.__init__"],
        "build_weighted_ring": ["build_weighted_ring"],
        "verify_ring_axioms": ["verify_ring_axioms"],
        "check_ring_map": ["check_ring_map"],
    },
    "chains": {
        "ChainComplex": ["ChainComplex.__init__"],
        "ChainMap": ["ChainMap.__init__"],
        "HomologyResult": [
            "HomologyResult." + q for q in (
                "free_rank", "torsion", "representatives",
                "generator_count", "is_trivial", "class_vector",
                "summary")],
        "induced_on_homology": ["induced_on_homology"],
    },
    "cellmodel": {
        "build_boundary_complex": ["build_boundary_complex"],
        "build_unweighted_boundary_complex":
            ["build_unweighted_boundary_complex"],
        "build_comparison_chain_map": ["build_comparison_chain_map"],
        "top_comparison_multiplier": ["top_comparison_multiplier"],
    },
    "realize": {"realize_ring": ["realize_ring"]},
    "orders": {
        "classify_order": ["classify_order"],
        "verify_order": ["verify_order"],
        "decompose": ["decompose"],
        "not_weighted_search": ["not_weighted_search"],
        "r_multiply": ["r_multiply"],
    },
    "alt2": {"alt2_section": ["alt2_section"]},
}

# Public helpers that run once per matrix entry, monomial or label inside
# inner loops.  They stay unwrapped so that the tracer's own cost does not
# swamp the layers; their time counts as self time of their caller.
PER_ELEMENT_HELPERS = {
    "rings": {"mask_elements", "mask_degree", "mask_label",
              "mask_from_elements", "sign_of_product"},
    "serialize": {"fraction_to_str", "fraction_from_str"},
    "cellmodel": {"word_label"},
    "lattices": {"column_degree"},
    "normal_forms": {"xgcd"},
    "orders": {"unit_vector", "ambient_degrees"},
}

# Functions whose return values are scanned for the largest entry.
ENTRY_BITS_SOURCES = ("normal_forms.snf", "normal_forms.hnf")


def _max_entry_bits(value):
    """Largest entry bit length in any integer matrix within a return value."""
    if isinstance(value, tuple):
        return max((_max_entry_bits(v) for v in value), default=0)
    mats = [getattr(value, f, None) for f in ("D", "U", "V")]
    if mats[0] is None:
        mats = [value]
    return max((abs(x).bit_length() for m in mats for row in m.data
                for x in row), default=0)


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names = []          # span name table, indexed by name id
        self.spans = []          # (name id, start ns, end ns, parent, op)
        self.op = -1             # id of the operation in progress
        self.paused = False      # set while the benchmark checks outputs
        self.max_entry_bits = 0
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------

    def traced_keys(self):
        """(layer, span key, attribute path) for every function to wrap."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            reported = REPORTED.get(layer, {})
            covered = set()
            for key, paths in reported.items():
                for path in paths:
                    out.append((layer, key, path))
                    covered.add(path)
            skip = PER_ELEMENT_HELPERS.get(layer, set())
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or name in covered or name in skip
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                out.append((layer, name, name))
        return out

    def install(self):
        """Wrap every traced function; raise if one of them is missing."""
        targets = []
        for layer, key, path in self.traced_keys():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None)
            if not callable(original):
                raise RuntimeError(
                    f"traced function {layer}.{path} does not exist")
            targets.append((f"{layer}.{key}", owner_name, owner, attr,
                            original))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, owner_name, owner, attr, original in targets:
            wrapper = self._wrap(name, original)
            if owner_name:
                self._rebind(owner, attr, original, wrapper)
                continue
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, bound, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        scan_bits = name in ENTRY_BITS_SOURCES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)
            if scan_bits:
                self.max_entry_bits = max(self.max_entry_bits,
                                          _max_entry_bits(result))
            return result

        wrapper.__perfbench_traced__ = True
        return wrapper

    # -- results ------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self time in ns)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for idx, (name_id, start, end, _, _) in enumerate(self.spans):
            calls[name_id] += 1
            self_ns[name_id] += end - start - child_ns[idx]
        out = {}
        for name_id, name in enumerate(self.names):
            c, s = out.get(name, (0, 0))
            out[name] = (c + calls[name_id], s + self_ns[name_id])
        return out

    def spans_obj(self):
        """The recorded spans in a compact JSON-ready form."""
        return {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "names": self.names,
                "spans": self.spans}
