"""The three workloads: how each operation's inputs are drawn, which CLI
commands one operation runs, and how its output is checked.

Why these three (see README.md for the full table):

* classify - the main user task, the normal classification path over
  admissible degrees (orders, matrices, lattices, a little rings);
* search - orders with a repeated even degree, all routed to the bounded
  square-zero search (enumeration, triple checks, certificates);
* model - one point of the paper's homology/realization grid per operation,
  the only workload in cellmodel, chains and realize.
"""

import json
import os

import checks
import gen


class Workload:
    """Inputs, commands and check of one workload.

    ``block`` is the number of consecutive operations that together hold
    the workload's intended mix; runs stop only at block boundaries.
    ``trace_ops`` is the fixed operation count of a traced run, so that its
    counts repeat exactly for a given seed.
    """

    def __init__(self, name, make_case, commands, check, block, trace_ops):
        self.name = name
        self.make_case = make_case
        self.commands = commands
        self.check = check
        self.block = block
        self.trace_ops = trace_ops


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


def _classify_commands(case, workdir):
    path = os.path.join(workdir, "order.json")
    _write_json(path, case["order"])
    return [["classify", "--input", path]]


def _model_commands(case, workdir):
    path = os.path.join(workdir, "coeffs.json")
    _write_json(path, gen.coeffs_obj(case["coeffs"]))
    degrees = ",".join(str(d) for d in case["degrees"])
    base = ["--degrees", degrees, "--coeffs", path]
    return [["homology"] + base,
            ["homology"] + base + ["--which", "eta"],
            ["realize"] + base + ["--verify"]]


WORKLOADS = {
    "classify": Workload(
        "classify", lambda rng, i: gen.classify_case(rng),
        _classify_commands, checks.check_classify, block=1, trace_ops=60),
    "search": Workload(
        "search",
        lambda rng, i: gen.search_case(
            rng, gen.SEARCH_KINDS[i % len(gen.SEARCH_KINDS)]),
        _classify_commands, checks.check_search,
        block=len(gen.SEARCH_KINDS), trace_ops=30),
    "model": Workload(
        "model", lambda rng, i: gen.model_case(rng),
        _model_commands, checks.check_model, block=1, trace_ops=90),
}
