"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import tail_latency  # noqa: E402
from worker import DIGESTS, check_text, flag, op_key  # noqa: E402

from rankone.cli import load_spec  # noqa: E402
from rankone.construction import build_stage  # noqa: E402
from rankone.transform import Cursor  # noqa: E402


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = workloads.generate(workload, 7, 5)
    assert a == workloads.generate(workload, 7, 5)
    assert a != workloads.generate(workload, 8, 5)
    names = sorted(s.name for s in workloads.slots(workload))
    for rnd in a:
        assert sorted(name for name, _ in rnd) == names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_variant_runs_once_before_any_runs_twice(workload):
    table = workloads.slots(workload)
    deep = max(len(slot.variants) for slot in table)
    drawn = workloads.generate(workload, 3, 2 * deep)
    for slot in table:
        ops = [op for rnd in drawn for name, op in rnd if name == slot.name]
        n = len(slot.variants)
        assert sorted(ops[:n]) == sorted(slot.variants)
        assert sorted(ops[n:2 * n]) == sorted(slot.variants)


def test_every_catalogue_op_has_a_digest():
    table = json.loads(DIGESTS.read_text())
    assert sorted(table) == sorted(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        assert sorted(map(op_key, workloads.catalogue(workload))) == sorted(table[workload])


def _walk(op):
    """(spec, x, levels walked) for each orbit cursor the op runs."""
    budget = int(flag(op, "--stage-budget"))
    if op[0] == "orbit":
        return [(flag(op, "--spec"), flag(op, "--x"), int(flag(op, "--steps")))]
    if op[:2] == ("flow", "bands"):
        alpha = Fraction(flag(op, "--alpha"))
        n = int(flag(op, "-N")) - 1
        return [(flag(op, "--spec"), flag(op, "--x-a"), n * alpha.numerator),
                (flag(op, "--spec"), flag(op, "--x-b"), n * alpha.denominator)]
    n = int(flag(op, "-N")) - 1
    if op[1] == "disperse":
        n += max(int(t) for t in flag(op, "--n-list").split(","))
    assert int(flag(op, "--res")) == budget
    return [(flag(op, "--spec-a"), flag(op, "--x-a"), n),
            (flag(op, "--spec-b"), flag(op, "--x-b"), n)]


def test_orbit_ops_stay_inside_their_stage_budget():
    for op in workloads.catalogue("orbits"):
        budget = int(flag(op, "--stage-budget"))
        for token, x, walked in _walk(op):
            spec = load_spec(token, budget)
            cur = Cursor(spec, Fraction(x))
            cur.refine_to(budget)
            assert cur.index + walked < build_stage(spec, budget).height, op_key(op)


def test_dispersion_blocks_are_hit_at_tick_zero():
    for (token, j), levels in workloads._TICK0_LEVEL.items():
        for x, level in levels.items():
            cur = Cursor(load_spec(token), Fraction(x))
            cur.refine_to(j)
            assert cur.level_at(j) == level


def test_no_op_is_sized_to_exhaust_memory():
    for workload in workloads.WORKLOADS:
        for op in workloads.catalogue(workload):
            if "--kind" in op and flag(op, "--kind") == "product" or \
                    flag(op, "--matrix") == "product":
                assert int(flag(op, "--j")) <= 6, op_key(op)
            if op[0] == "return-profile":
                budget = flag(op, "--stage-budget")
                spec = load_spec(flag(op, "--spec"), int(budget) if budget else None)
                j, J = int(flag(op, "--j")), int(flag(op, "--res"))
                size = 1
                for k in range(j, J):
                    size *= spec.cuts(k)
                assert size <= 10 ** 6, op_key(op)
            budget = flag(op, "--stage-budget")
            assert budget is None or int(budget) <= 20, op_key(op)


def test_tail_latency_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]
    assert tail_latency(xs) == (90.0, 90, 10)
    value, q, beyond = tail_latency(xs[:57])
    assert beyond >= 10 and q == 82 and value == 47.0
    assert tail_latency(xs[:5]) == (5.0, 100, 0)


def test_counter_cost_is_in_no_self_time():
    tracer = tracing.Tracer()

    def slow_count(parent, args, kwargs, result):
        time.sleep(0.05)

    child = tracer.span("child", lambda: None, slow_count)
    parent = tracer.span("parent", lambda: child())
    parent()
    assert tracer.totals["child"][1] < 0.01
    assert tracer.totals["parent"][1] < 0.01


def test_layer_metrics_are_per_round():
    tracer = tracing.Tracer()
    tracer.counts["joinings.product_blocks.entries"] = 30
    tracer.totals["transform.cursor"] = [12, 0.6]
    out = tracer.metrics(bytes_out=900, rounds=3)
    assert out["joinings.product_blocks.entries"] == 10
    assert out["transform.cursor.steps"] == 4
    assert out["transform.cursor.self_s"] == pytest.approx(0.2)
    assert out["persist.bytes_out"] == 300


def test_document_checks_reject_bad_bounds_and_profiles():
    op = ("return-profile", "--spec", "staircase", "--j", "2", "--res", "5")
    good = '# {"lo": "1/3", "hi": "1/2"}\nz,lo_num,lo_den,hi_num,hi_den\n0,1,1,1,1\n'
    assert check_text(op, good) is None
    assert "lo 1/2 > hi 1/3" in check_text(op, good.replace('"1/3", "hi": "1/2"',
                                                            '"1/2", "hi": "1/3"'))
    assert "z=0" in check_text(op, good.replace("0,1,1,1,1", "0,1,2,1,1"))
    assert check_text(op, "not a document").startswith("malformed")


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert layer == {**tracing.LAYER_METRICS, "trace.overhead_ratio": "ratio"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_pass_on_the_pinned_seed(workload):
    proc = run_bench("--workload", workload, "--seed", str(workloads.PINNED_SEED),
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in doc["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reduced_traced_pass_reports_every_layer_metric():
    proc = run_bench("--workload", "averages", "--seed", str(workloads.HELD_OUT_SEED),
                     "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in doc["per_layer"]}
    assert result["metrics"]["transform.power_image.calls"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "returns", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
