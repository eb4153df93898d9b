"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --t0 T --setup-probe
    python3 perfbench/worker.py --t0 T --workload W --seed N
        (--seconds S | --prefix [--trace --spans FILE])

``T`` is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so the time from ``T``
to the end of ``import sphereprod.cli`` is the set-up time, interpreter
start-up included.  Before that point the worker loads only modules that
the CLI loads as well.  The last line of standard output is one JSON
object.

``--prefix`` runs exactly the workload's first ``trace_ops`` operations, so
that a traced run and its untraced twin cover the same inputs.

One operation is one in-process call of ``sphereprod.cli.main(argv)`` per
command, with standard output captured, as a closed loop with one client.
Inputs are drawn and written to files, and outputs are checked, outside the
timed region.

An operation's time is the CPU time of this process over it
(CLOCK_PROCESS_CPUTIME_ID).  The program is single-threaded and compute
bound, so on an unshared machine that equals its wall-clock time; on a
shared virtual machine it leaves out the time the hypervisor steals, which
otherwise moves wall-clock p90 by a quarter between runs.  Wall-clock time
is recorded beside it.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run with fewer checked operations leaves under ten samples above p90.
MIN_OPS = 100
# Loop wall-clock cap, far inside the 180 s a run may take.
WALL_CAP_S = 140.0


def _setup(t0):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sphereprod.cli  # noqa: F401
    return time.monotonic() - t0


def search_triples(outputs):
    """Candidate triples the square-zero search tried, from its report: the
    failures it lists, plus one when it ended on a weighted basis."""
    if not outputs:
        return 0
    obj = json.loads(outputs[0])
    if obj.get("case") != "search":
        return 0
    return (len(obj["report"].get("failures", ())) +
            (obj["outcome"] == "weighted"))


def run_ops(workload, seed, seconds, fixed_ops, tracer, workdir):
    """Run operations of the seeded stream and check each one.

    With ``fixed_ops`` exactly that many run; otherwise the loop runs until
    ``seconds`` of operation time and ``MIN_OPS`` operations have both
    passed, ending on a block boundary, or until WALL_CAP_S.
    """
    import contextlib
    import gc
    import hashlib
    import io
    import random
    import traceback

    cli = sys.modules["sphereprod.cli"]
    rng = random.Random(f"perfbench/{workload.name}/{seed}")
    latencies, wall, failures = [], [], []
    digest = hashlib.sha256()
    busy = 0.0
    triples = 0
    loop_start = time.monotonic()
    i = 0
    while True:
        if fixed_ops is not None:
            if i >= fixed_ops:
                break
        elif (busy >= seconds and i - len(failures) >= MIN_OPS
              and i % workload.block == 0):
            break
        if time.monotonic() - loop_start > WALL_CAP_S:
            break
        case = workload.make_case(rng, i)
        argvs = workload.commands(case, workdir)
        outputs, reason = [], None
        if tracer is not None:
            tracer.op = i
            tracer.paused = False
        start, wall_start = time.process_time(), time.perf_counter()
        try:
            for argv in argvs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                outputs.append(buf.getvalue())
                if code != 0:
                    reason = f"exit code {code} from {argv[0]}"
                    break
        except Exception:
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.process_time() - start
        wall.append(time.perf_counter() - wall_start)
        if tracer is not None:
            tracer.paused = True
        busy += elapsed
        latencies.append(elapsed)
        if reason is None:
            try:
                reason = workload.check(case, outputs)
            except Exception:
                reason = "check raised " + traceback.format_exc(
                    limit=3).strip().splitlines()[-1]
        if reason is not None:
            failures.append({"op": i, "kind": case["kind"],
                             "degrees": list(case["degrees"]),
                             "reason": reason})
        if i < workload.trace_ops:
            for out in outputs:
                digest.update(out.encode())
        triples += search_triples(outputs)
        i += 1
        # collect the garbage of this operation and of its check now, so
        # that it is not collected inside the next operation's timing
        gc.collect()
    return {"attempted": i, "failed": len(failures), "busy_s": busy,
            "latencies_s": latencies, "wall_s": wall,
            "failed_ops": [f["op"] for f in failures],
            "failures": failures[:20],
            "search_triples": triples,
            "digest": digest.hexdigest() if i >= workload.trace_ops
            else None}


def main(argv):
    import argparse
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--prefix", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    setup_s = _setup(args.t0)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource
    import shutil
    import tempfile

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "out"))
    try:
        fixed_ops = workload.trace_ops if args.prefix else None
        result = run_ops(workload, args.seed, args.seconds, fixed_ops,
                         tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["self_times"] = tracer.self_times()
        result["max_entry_bits"] = tracer.max_entry_bits
        result["span_count"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w") as f:
                json.dump(tracer.spans_obj(), f, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
