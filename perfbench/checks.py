"""Correctness checks on each operation's output, run outside the timed
region.

Each check returns None when the output is right and a one-line reason when
it is not.  Witnesses and rings are re-checked with ``sphereprod``'s own
checkers on freshly built inputs, never by trusting the classifier's
verdict; the homology and multiplier checks use the paper's closed forms.
"""

import json
from math import lcm

from sphereprod.orders import OrderInput, verify_order
from sphereprod.rings import (
    CoefficientSequence,
    RingMapWitness,
    build_weighted_ring,
    check_ring_map,
)
from sphereprod.serialize import rat_matrix_from_obj, struct_ring_to_obj


def _coefficients(coeffs):
    return CoefficientSequence(coeffs["12"], coeffs["13"], coeffs["23"],
                               coeffs["123"])


def _witness_reason(case, obj):
    """Re-check a weighted outcome: its witness must be a ring isomorphism
    from the reported weighted model onto the input order."""
    if obj.get("outcome") != "weighted":
        return f"outcome {obj.get('outcome')!r}, expected 'weighted'"
    coeffs = CoefficientSequence.from_json_obj(obj["coefficients"])
    model = build_weighted_ring(coeffs, case["degrees"])
    order = verify_order(OrderInput.from_json_obj(case["order"]))
    witness = RingMapWitness(rat_matrix_from_obj(obj["witness"]))
    if not check_ring_map(witness, model, order):
        return "witness is not a ring isomorphism onto the order"
    return None


def check_classify(case, outputs):
    return _witness_reason(case, json.loads(outputs[0]))


def check_search(case, outputs):
    obj = json.loads(outputs[0])
    outcome = obj.get("outcome")
    if case["kind"] == "bad":
        if outcome != "not_weighted_certified":
            return f"outcome {outcome!r}, expected a certificate"
        if obj["report"].get("exhaustive") is not True:
            return "certificate is not exhaustive"
        return None
    if case["kind"] == "all_equal_even" and outcome == "inconclusive":
        return None
    return _witness_reason(case, obj)


def invariant_factors(divisors):
    """Invariant-factor chain of the direct sum of Z/d over the list."""
    powers = {}
    for d in divisors:
        p = 2
        while d > 1:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    chain = []
    for p, ps in powers.items():
        ps.sort(reverse=True)
        for i, q in enumerate(ps):
            if i == len(chain):
                chain.append(1)
            chain[i] *= q
    return sorted(chain)


def expected_homology(degrees, coeffs):
    """Closed-form homology of the weighted boundary model.

    Z in degree 0 and in the top degree d1+d2+d3-1, no free part one below
    the top, and below that torsion Z/c_ij in degree di+dj-1 for every
    pairwise weight above 1 and nothing else.  As in acceptance criterion
    1, torsion one below the top is not part of the table (None).
    """
    d1, d2, d3 = degrees
    top = d1 + d2 + d3 - 1
    torsion = {}
    for deg, c in ((d1 + d2 - 1, coeffs["12"]), (d1 + d3 - 1, coeffs["13"]),
                   (d2 + d3 - 1, coeffs["23"])):
        if c > 1:
            torsion.setdefault(deg, []).append(c)
    return {n: (1 if n in (0, top) else 0,
                None if n == top - 1 else
                invariant_factors(torsion.get(n, [])))
            for n in range(top + 1)}


def check_model(case, outputs):
    homology, eta, realized = (json.loads(o) for o in outputs)
    degrees, coeffs = case["degrees"], case["coeffs"]
    got = homology["degrees"]
    for n, (free, torsion) in expected_homology(degrees, coeffs).items():
        entry = got.get(str(n), {"free_rank": 0, "torsion": []})
        if entry["free_rank"] != free or torsion is not None and \
                invariant_factors(int(t) for t in entry["torsion"]) != torsion:
            return f"homology in degree {n} differs from the closed form"
    if set(map(int, got)) - set(range(sum(degrees))):
        return "homology reported outside the model's degrees"
    c12, c13, c23 = coeffs["12"], coeffs["13"], coeffs["23"]
    if int(eta["top_multiplier"]) != c12 * c23 * c13 // lcm(c12, c13, c23):
        return "top comparison multiplier differs from c12*c23*c13/lcm"
    if realized.get("verified") is not True:
        return "realized ring is not verified"
    model = struct_ring_to_obj(build_weighted_ring(_coefficients(coeffs),
                                                   degrees))
    if realized["ring"] != json.loads(json.dumps(model)):
        return "realized ring differs from the weighted ring"
    return None
