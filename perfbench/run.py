"""sphereprod benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {classify,search,model} --seed N
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` without installing it.  Every measurement runs in a fresh
interpreter (``worker.py``).

--trace 0 prints the end-to-end metrics: set-up time as the median of
SETUP_PROBES fresh interpreters plus the measuring one, and throughput,
p50/p90 latency (medians over consecutive groups of operations) and peak
memory of one closed-loop run of S seconds of operation time, at least
worker.MIN_OPS checked operations.  Operation time is process CPU time
(see worker.py); wall-clock p50/p90 are in the context line.

--trace 1 prints the per-layer metrics: the workload's first ``trace_ops``
operations run once untraced and once traced, each in its own process; the
traced run's spans are written to perfbench/out/.

The last line of standard output is the result object; the line before it
carries the context (environment, sample count, output digest, failures),
which is also written to perfbench/out/.  Exit code 0 means the run
completed, whether or not every output was correct.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 10
MAX_GROUPS = 5
WORKER_TIMEOUT_S = 170

from tracer import LAYERS, REPORTED
from worker import MIN_OPS

WORKLOADS = ("classify", "search", "model")


def _worker(args):
    """Run worker.py in a fresh interpreter; return its result object."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--t0", repr(t0)] + args,
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit():
    """HEAD of the checkout if it is a git repository, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _p90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _consecutive_groups(samples, checked):
    """Split a run's operations, in order, into up to MAX_GROUPS consecutive
    groups holding about worker.MIN_OPS or more checked operations each.

    Timings are reported as the median over groups, so that a burst of
    machine noise in one part of the run moves one group, not the result.
    Throughput of a group is its checked operations per second of its
    operation time, failed operations included in the time.
    """
    k = max(1, min(MAX_GROUPS, checked // MIN_OPS))
    size = len(samples) // k
    return [samples[i * size:(i + 1) * size if i < k - 1 else None]
            for i in range(k)]


def end_to_end(workload, seed, seconds):
    # the first probe also compiles bytecode in a fresh checkout; discard it
    _worker(["--setup-probe"])
    setups = [_worker(["--setup-probe"])["setup_s"]
              for _ in range(SETUP_PROBES)]
    run = _worker(["--workload", workload, "--seed", str(seed),
                   "--seconds", repr(float(seconds))])
    setups.append(run["setup_s"])
    lat = run["latencies_s"]
    failed = set(run["failed_ops"])
    groups = [[(x, i not in failed) for i, x in g]
              for g in _consecutive_groups(list(enumerate(lat)),
                                           len(lat) - len(failed))]
    ok = [[x for x, good in g if good] for g in groups]
    if min(len(o) for o in ok) < 2:
        sys.exit(f"perfbench: only {len(lat) - len(failed)} of {len(lat)} "
                 "operations passed their checks; no timing to report")
    metrics = {
        "throughput_ops_s": _metric(statistics.median(
            len(o) / sum(x for x, _ in g) for g, o in zip(groups, ok)),
            "1/s"),
        "latency_p50_ms": _metric(
            statistics.median(statistics.median(o) for o in ok) * 1e3,
            "ms"),
        "latency_p90_ms": _metric(
            statistics.median(_p90(o) for o in ok) * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }
    wall = sorted(run["wall_s"])
    context = {
        "wall_latency_p50_ms": statistics.median(wall) * 1e3,
        "wall_latency_p90_ms": _p90(wall) * 1e3,
        "wait_share": 1 - sum(lat) / sum(wall),
        "samples": sum(len(o) for o in ok),
        "groups": len(groups),
        "samples_above_p90": min(sum(1 for x in o if x > _p90(o))
                                 for o in ok),
        "failed_ratio": run["failed"] / run["attempted"],
        "setup_samples_s": setups,
        "output_digest": run["digest"],
    }
    return run, metrics, context


def per_layer(workload, seed):
    base = ["--workload", workload, "--seed", str(seed), "--prefix"]
    plain = _worker(base)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    traced = _worker(base + ["--trace", "--spans", spans_path])
    n = traced["attempted"]
    times = traced["self_times"]
    metrics = {}
    for layer in LAYERS:
        names = [k for k in times if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = _metric(
            sum(times[k][0] for k in names) / n, "calls/op")
        metrics[f"{layer}.self_ms"] = _metric(
            sum(times[k][1] for k in names) / n / 1e6, "ms/op")
        for key in REPORTED.get(layer, {}):
            calls, self_ns = times.get(f"{layer}.{key}", (0, 0))
            metrics[f"{layer}.{key}.calls"] = _metric(calls / n, "calls/op")
            metrics[f"{layer}.{key}.self_ms"] = _metric(
                self_ns / n / 1e6, "ms/op")
    metrics["normal_forms.max_entry_bits"] = _metric(
        traced["max_entry_bits"], "bits")
    metrics["orders.search_triples"] = _metric(
        traced["search_triples"] / n, "triples/op")
    metrics["trace.overhead_ratio"] = _metric(
        traced["busy_s"] / plain["busy_s"] - 1, "ratio")
    failed = plain["failed"] + traced["failed"]
    context = {
        "samples": n,
        "span_count": traced["span_count"],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "output_digest": traced["digest"],
        "untraced_output_digest": plain["digest"],
    }
    run = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": failed,
           "failures": plain["failures"] + traced["failures"],
           "digest_match": plain["digest"] == traced["digest"]}
    return run, metrics, context


def main(argv=None):
    p = argparse.ArgumentParser(description="sphereprod benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sphereprod", "cli.py")):
        sys.exit("perfbench: no src/sphereprod next to the benchmark; run "
                 "it from the root of a sphereprod source checkout")
    os.makedirs(OUT, exist_ok=True)
    env = {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.trace:
        run, metrics, context = per_layer(args.workload, args.seed)
        correct = run["failed"] == 0 and run["digest_match"]
    else:
        run, metrics, context = end_to_end(args.workload, args.seed,
                                           args.seconds)
        correct = run["failed"] == 0
    context.update(env=env, failures=run["failures"])
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"result": result, "context": context}, f, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
