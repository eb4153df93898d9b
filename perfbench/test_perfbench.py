"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The smoke and repeatability tests start the benchmark as users do, so they
take about three minutes.
"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import sphereprod.cli  # noqa: E402  (loads every layer module)
import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, REPORTED, Tracer  # noqa: E402

WORKLOADS = ("classify", "search", "model")
SEED = 1


def run_bench(workload, trace, seed=SEED, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def _originals():
    """Every traced function as the program defines it:
    (name, owner, attribute, original)."""
    tracer = Tracer()
    out = []
    for layer, key, path in tracer.traced_keys():
        owner_name, _, attr = path.rpartition(".")
        mod = sys.modules[f"sphereprod.{layer}"]
        owner = getattr(mod, owner_name) if owner_name else mod
        out.append((f"{layer}.{path}", owner, attr, getattr(owner, attr)))
    return out


def test_every_reported_function_is_wrapped_everywhere():
    originals = _originals()
    reported = {f"{layer}.{p}" for layer, keys in REPORTED.items()
                for paths in keys.values() for p in paths}
    assert reported <= {name for name, *_ in originals}
    tracer = Tracer()
    tracer.install()
    try:
        for name, owner, attr, original in originals:
            assert getattr(owner, attr).__perfbench_traced__, name
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("sphereprod")]
        stale = {name for name, *_, original in originals for m in modules
                 for value in vars(m).values() if value is original}
        assert not stale, f"left unwrapped: {sorted(stale)}"
    finally:
        tracer.uninstall()
    for name, owner, attr, original in originals:
        assert getattr(owner, attr) is original, name


def test_a_renamed_function_fails_loudly(monkeypatch):
    monkeypatch.setitem(REPORTED, "orders",
                        dict(REPORTED["orders"], gone=["no_such_function"]))
    with pytest.raises(RuntimeError, match="no_such_function"):
        Tracer().install()


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.names = ["a", "b"]
    tracer.spans = [(0, 0, 100, -1, 0), (1, 10, 30, 0, 0),
                    (1, 40, 90, 0, 0), (0, 50, 60, 2, 0)]
    assert tracer.self_times() == {"a": (2, 100 - 20 - 50 + 10),
                                   "b": (2, 20 + 50 - 10)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failures(workload):
    context, result = run_bench(workload, trace=0)
    assert result["failed"] == 0, context["failures"]
    assert result["correct"] is True
    assert context["samples_above_p90"] >= 10
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exactly(workload):
    benchmark = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = {m["name"] for m in benchmark["per_layer"]}
    runs = [run_bench(workload, trace=1) for _ in range(2)]
    for context, result in runs:
        assert set(result["metrics"]) == names
        assert context["output_digest"] == context["untraced_output_digest"]
    (c1, r1), (c2, r2) = runs
    assert c1["output_digest"] == c2["output_digest"]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith(".calls") or k in (
                   "normal_forms.max_entry_bits", "orders.search_triples")}
              for r in (r1, r2)]
    assert counts[0] == counts[1]
    entered = {k.split(".")[0] for k, v in counts[0].items()
               if k.endswith(".calls") and v}
    # alt2 runs only for classify's rare all-equal odd degrees
    expected = {"classify": {"matrices", "normal_forms", "lattices",
                             "rings", "orders", "serialize", "cli"},
                "search": {"matrices", "normal_forms", "lattices", "rings",
                           "orders", "serialize", "cli"},
                "model": {"matrices", "normal_forms", "rings", "chains",
                          "cellmodel", "realize", "serialize", "cli"}}
    assert entered - {"alt2"} == expected[workload]
    assert "alt2" not in entered or workload == "classify"
    assert entered <= set(LAYERS)


def test_untraced_end_to_end_digest_matches_traced_prefix():
    context, _ = run_bench("model", trace=0)
    traced_context, _ = run_bench("model", trace=1)
    assert context["output_digest"] == traced_context["output_digest"]


def test_outside_a_checkout_it_fails_without_a_result():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if name.endswith((".py", ".md")):
                shutil.copy(os.path.join(HERE, name),
                            os.path.join(bare, "perfbench"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "model",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_known_defect_e_e_2e():
    """Weighted orders of degrees (2, 2, 4) must classify as weighted.

    Fails today: ``orders._exact_sqrt`` accepts only integer perfect
    squares, so a rational discriminant in ``_binary_square_zero_lines``
    drops the square-zero line, and ``not_weighted_search`` certifies many
    of these orders as not weighted.  The ``search`` workload leaves the
    (e, e, 2e) degrees out for that reason (see ``gen.search_case``).
    """
    rng = random.Random("perfbench/known-defect")
    wrong = []
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as wd:
        for _ in range(12):
            degrees = [2, 2, 4]
            rng.shuffle(degrees)
            degrees = tuple(degrees)
            coeffs = gen.random_coefficients(rng)
            order = gen.order_obj(degrees, gen.reembed(
                rng, gen.weighted_generators(coeffs, degrees)))
            case = {"kind": "two_equal_even", "degrees": degrees,
                    "order": order}
            argv = workloads._classify_commands(case, wd)[0]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                sphereprod.cli.main(argv)
            reason = checks.check_search(case, [out.getvalue()])
            if reason is not None:
                wrong.append((degrees, coeffs, reason))
    assert not wrong, wrong
