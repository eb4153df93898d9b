"""Command-line interface.

Every command prints a single JSON document on standard output.  Domain
errors print {"error": ..., "kind": ...} and exit 1; usage errors exit 2.
Unresolvable --input paths fall back to the shipped fixtures, so e.g.
``classify --input bad3.json`` works out of the box.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cellmodel import (
    build_boundary_complex,
    build_comparison_chain_map,
    top_comparison_multiplier,
    top_cycles,
)
from .chains import induced_on_homology
from .errors import SphereProdError
from .orders import OrderInput, classify_order, verify_order
from .realize import realize_ring
from .rings import (
    CoefficientSequence,
    build_weighted_ring,
    verify_ring_axioms,
)
from .serialize import (
    chain_complex_to_obj,
    classification_to_obj,
    homology_to_obj,
    int_matrix_from_obj,
    int_matrix_to_obj,
    realized_ring_to_obj,
    struct_ring_to_obj,
)


def _parse_degrees(text):
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise SphereProdError(f"degrees must be integers, got {text!r}")
    if len(parts) != 3:
        raise SphereProdError("expected exactly three degrees")
    return tuple(parts)


def _load_json_file(path):
    if not os.path.exists(path):
        from .data import load_fixture_json
        try:
            return load_fixture_json(os.path.basename(path))
        except FileNotFoundError:
            raise SphereProdError(f"input file not found: {path}")
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise SphereProdError(f"input file is not valid JSON: {path}: "
                                  f"{exc}")


def _load_coeffs(path):
    return CoefficientSequence.from_json_obj(_load_json_file(path))


def cmd_homology(args):
    degrees = _parse_degrees(args.degrees)
    coeffs = _load_coeffs(args.coeffs)
    if args.which == "boundary":
        complex_ = build_boundary_complex(degrees, coeffs)
        h = complex_.homology()
        out = homology_to_obj(h, complex_.top_degree)
        out["complex"] = chain_complex_to_obj(complex_)
        return out
    if args.which == "eta":
        cm = build_comparison_chain_map(degrees, coeffs)
        top = sum(degrees) - 1
        multiplier = top_comparison_multiplier(degrees, coeffs, cm)
        return {
            "top_degree": top,
            "top_multiplier": str(multiplier),
            "induced_top_matrix": int_matrix_to_obj(
                induced_on_homology(cm, top)),
        }
    u, v = top_cycles(degrees, coeffs)
    cm = build_comparison_chain_map(degrees, coeffs)
    top = sum(degrees) - 1
    return {
        "top_degree": top,
        "unweighted_cycle": {
            "labels": list(cm.source.labels(top)),
            "entries": [str(x) for x in u]},
        "weighted_cycle": {
            "labels": list(cm.target.labels(top)),
            "entries": [str(x) for x in v]},
        "top_multiplier": str(top_comparison_multiplier(degrees, coeffs,
                                                        cm)),
    }


def cmd_realize(args):
    degrees = _parse_degrees(args.degrees)
    coeffs = _load_coeffs(args.coeffs)
    return realized_ring_to_obj(realize_ring(coeffs, degrees))


def cmd_classify(args):
    if args.height_bound < 0:
        raise SphereProdError("--height-bound must be non-negative")
    inp = OrderInput.from_json_obj(_load_json_file(args.input))
    result = classify_order(inp, height_bound=args.height_bound)
    return classification_to_obj(result)


def cmd_verify(args):
    if args.input:
        inp = OrderInput.from_json_obj(_load_json_file(args.input))
        ring = verify_order(inp)
        return {"order": True, "ring": struct_ring_to_obj(ring)}
    if not args.degrees or not args.coeffs:
        raise SphereProdError(
            "verify needs --input, or --degrees with --coeffs")
    degrees = _parse_degrees(args.degrees)
    coeffs = _load_coeffs(args.coeffs)
    ring = build_weighted_ring(coeffs, degrees)
    violations = verify_ring_axioms(ring)
    return {"ring": struct_ring_to_obj(ring), "violations": violations}


def cmd_alt2_section(args):
    from .alt2 import alt2, alt2_section
    matrix = int_matrix_from_obj(_load_json_file(args.matrix))
    y = alt2_section(matrix)
    return {"input": int_matrix_to_obj(matrix),
            "section": int_matrix_to_obj(y),
            "alt2_of_section": int_matrix_to_obj(alt2(y))}


def cmd_selftest(args):
    from .selftest import run_selftest
    results, ok = run_selftest()
    return {"checks": results,
            "passed": sum(1 for r in results if r["pass"]),
            "failed": sum(1 for r in results if not r["pass"]),
            "ok": ok}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphereprod",
        description="Exact arithmetic for weighted sphere-product rings, "
                    "their cell-model homology, and order classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology",
                       help="homology of the weighted boundary model")
    p.add_argument("--degrees", required=True,
                   help="comma-separated triple, e.g. 2,3,4")
    p.add_argument("--coeffs", required=True,
                   help="path to a coefficient-sequence JSON file")
    p.add_argument("--which", choices=("boundary", "eta", "generators"),
                   default="boundary")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("realize", help="build and certify the realized ring")
    p.add_argument("--degrees", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--verify", action="store_true",
                   help="accepted for compatibility; realize always "
                        "certifies the ring against the weighted ring")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("classify", help="classify an order given by JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--height-bound", type=int, default=8,
                   help="accepted for compatibility and ignored; the "
                        "square-zero search is exact (must be >= 0)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify",
                       help="verify an order, or the weighted-ring axioms")
    p.add_argument("--input")
    p.add_argument("--degrees")
    p.add_argument("--coeffs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("alt2-section",
                       help="section of the alternating square on SL(3, Z)")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_alt2_section)

    p = sub.add_parser("selftest", help="run the built-in example suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
    except SphereProdError as exc:
        print(json.dumps({"error": str(exc),
                          "kind": type(exc).__name__}, indent=2))
        return 1
    print(json.dumps(out, indent=2, sort_keys=True))
    if args.command == "selftest" and not out["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
