"""JSON wire formats.

All mathematical integers are decimal strings so arbitrary precision
survives any JSON parser; rationals are "p/q" strings with positive q.
Structural counts (rows, cols, degrees of the grading) stay plain JSON
numbers.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidMatrixInput
from .matrices import IntMatrix, RatMatrix


def fraction_to_str(x):
    if type(x) is int:
        return str(x)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def fraction_from_str(s):
    # Fraction() would also take a float's binary expansion and a bool as 0/1
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise TypeError(
            f"rational entry expected as an integer or a 'p/q' string, "
            f"got {type(s).__name__}")
    return Fraction(s)


def int_matrix_to_obj(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[str(x) for x in row] for row in m.data]}


def _int_from_json(x):
    # int() would also truncate a float and take a bool as 0 or 1
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"integer entry expected, got {type(x).__name__}")
    return int(x)


def int_matrix_from_obj(obj):
    try:
        entries = [[_int_from_json(x) for x in row] for row in obj["entries"]]
        return IntMatrix(entries, cols=obj["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidMatrixInput(
            f"malformed matrix JSON ({type(exc).__name__}: {exc})") from None


def rat_matrix_to_obj(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[fraction_to_str(x) for x in row]
                        for row in m.data]}


def rat_matrix_from_obj(obj):
    entries = [[fraction_from_str(x) for x in row]
               for row in obj["entries"]]
    return RatMatrix(entries, cols=obj["cols"])


def struct_ring_to_obj(ring):
    return {
        "basis": [{"label": label, "degree": degree}
                  for label, degree in zip(ring.labels, ring.degrees)],
        "unit": ring.labels[ring.unit_index],
        "products": {
            f"{ring.labels[p]}*{ring.labels[q]}":
                [fraction_to_str(x) for x in ring.table[p][q]]
            for p in range(ring.dim) for q in range(ring.dim)},
    }


def chain_complex_to_obj(c):
    out = {"top_degree": c.top_degree, "generators": {}, "boundaries": {}}
    for n in c.degrees():
        out["generators"][str(n)] = list(c.labels(n))
    for n in range(1, c.top_degree + 1):
        mat = c.boundary(n)
        if not mat.is_zero():
            out["boundaries"][str(n)] = int_matrix_to_obj(mat)
    return out


def homology_to_obj(h, top_degree):
    degrees = {}
    for n in range(top_degree + 1):
        free = h.free_rank(n)
        torsion = h.torsion(n)
        if free or torsion:
            degrees[str(n)] = {
                "free_rank": free,
                "torsion": [str(t) for t in torsion],
                "representatives": [[str(x) for x in rep]
                                    for rep in h.representatives(n)],
            }
    return {"degrees": degrees}


def realized_ring_to_obj(realized):
    provenance = {}
    for key, value in realized.provenance.items():
        if isinstance(value, bool):
            provenance[key] = value
        elif isinstance(value, (int, Fraction)):
            provenance[key] = fraction_to_str(value)
        elif isinstance(value, (list, tuple)):
            provenance[key] = [str(v) for v in value]
        else:
            provenance[key] = value
    return {
        "ring": struct_ring_to_obj(realized.ring),
        "provenance": provenance,
        "verified": realized.verified,
    }


def classification_to_obj(result):
    out = {"outcome": result.outcome, "case": result.case,
           "report": result.report}
    if result.coefficients is not None:
        out["coefficients"] = result.coefficients.to_json_obj()
    if result.witness is not None:
        out["witness"] = rat_matrix_to_obj(result.witness.matrix)
    return out
