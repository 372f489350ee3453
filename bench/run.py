"""rankone benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload returns --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 2 --seconds 10 --trace 1

One closed-loop client runs the workload's ops one after the other, in a
fresh worker process (``worker.py``) that imports ``rankone`` from
``src/``; nothing else runs meanwhile.  With ``--trace 0`` the run reports
the end-to-end metrics:

    ops_per_ref  ops completed per unit of op time, at the workload's op mix
    op_p50_ref   median op latency
    op_tail_ref  highest percentile of op latency with at least ten samples
                 beyond it
    peak_rss_mb  the worker's own peak resident set size
    setup_s      median over the worker's set-up probes, fresh processes
                 spread over the run, of the time from spawning the process
                 to its first timed op, in seconds of a nominal host

The ``*_ref`` timings are in units of a fixed reference kernel
(``reference.py``) timed on the same core before every round: each op's
latency is divided by the mean of the two reference runs around its round.
Each set-up probe is likewise divided by the mean of the two reference runs
around it, then multiplied by the fixed ``reference.NOMINAL_S``, so
``setup_s`` stays in seconds.
On the shared 2-core VM this benchmark was built on (CPython 3.11.7),
the host's speed drifted by up to half over minutes: over ten 30 s runs
per workload the wall-clock figures spread by up to 0.33 of their median
(interquartile range), the ratios by 0.06-0.14.  The same timings in wall-clock units
(``ops_per_s``, ``op_p50_ms``, ``op_tail_ms``, ``ref_ms``, ``setup_wall_s``) and ``fail_ratio``
(failed / attempted ops) are printed and recorded beside them.

An op fails when it exits non-zero, raises, or its stdout bytes differ from
the digest recorded in ``digests.json``, or when a check of its document
(run outside its latency) rejects it.  With ``--trace 1`` the run times an
untraced worker, then a traced one on the same ops, and reports the
per-layer metrics of ``tracing.LAYER_METRICS``, per round of ops, plus
``trace.overhead_ratio``, the traced op time over the untraced op time of
the ops both ran, in reference units, minus one.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; ``--workload all`` runs every workload and prefixes each
metric with its workload.  A full record of each run, with the environment,
sample counts and per-op latencies, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
TAIL_BEYOND = 10
# Reported in the result line and bounded in BENCHMARK.json.
END_TO_END = {"ops_per_ref": "1/ref", "op_p50_ref": "ref", "op_tail_ref": "ref",
              "peak_rss_mb": "MB", "setup_s": "s"}
# Printed and recorded beside them: the same timings in wall-clock units.
WALL_CLOCK = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ref_ms": "ms",
              "setup_wall_s": "s"}


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def spawn(args: List[str], timeout: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    cmd = [sys.executable, str(WORKER), *args, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, "PYTHONHASHSEED": "0"})
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: List[float]) -> Tuple[float, int, int]:
    """(value, percentile, samples beyond) of the highest whole percentile
    that leaves at least TAIL_BEYOND samples above its nearest-rank value;
    the maximum, with none beyond, when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, 0
    q = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(q * n / 100))
    return xs[rank - 1], q, n - rank


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(Path("src/rankone").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not the root of a git work
    tree (then the source digest identifies the code)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != Path.cwd():
        return None
    return lines[1]


def environment(workload: str, seed: int, report: dict) -> dict:
    kinds = Counter(op[1] for op in report["ops"])
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "rankone_version": report["rankone_version"],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "ops": len(report["ops"]),
        "rounds": report["rounds"],
        "op_mix": dict(sorted(kinds.items())),
    }


def failures(ops: List[list]) -> List[str]:
    return [f"{op[0]}: {op[3]}" for op in ops if op[3] is not None]


def relative(report: dict) -> List[float]:
    """Each op's latency in units of the mean of the reference runs that
    bracket its round."""
    refs = report["ref_s"]
    return [op[2] * 2 / (refs[op[4]] + refs[op[4] + 1]) for op in report["ops"]]


def end_to_end(workload: str, seed: int, seconds: float) -> Tuple[dict, dict, list]:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    report = spawn(common, 2 * seconds + 40)
    probes = report["setup_probes"]
    setups = [s / ref * reference.NOMINAL_S for s, ref in probes]
    lat = [op[2] for op in report["ops"]]
    tail, q, beyond = tail_latency(lat)
    n, timed = len(lat), report["timed_s"]
    refs = report["ref_s"]
    rel = relative(report)
    rel_tail = tail_latency(rel)[0]
    note = f"{len(refs)} reference runs"
    metrics = {
        "ops_per_ref": (n / sum(rel), f"n={n} ops, {note}"),
        "op_p50_ref": (statistics.median(rel), f"n={n}, {note}"),
        "op_tail_ref": (rel_tail, f"p{q}, n={n}, {beyond} beyond, {note}"),
        "peak_rss_mb": (report["peak_rss_mb"], "n=1 worker"),
        "setup_s": (statistics.median(setups), f"median of n={len(setups)} probes, "
                                               f"{reference.NOMINAL_S} s per reference"),
        "ops_per_s": (n / timed, f"n={n} ops over {timed:.3f} s"),
        "op_p50_ms": (1000 * statistics.median(lat), f"n={n}"),
        "op_tail_ms": (1000 * tail, f"p{q}, n={n}, {beyond} beyond"),
        "ref_ms": (1000 * statistics.median(refs), f"median of n={len(refs)}"),
        "setup_wall_s": (statistics.median(s for s, _ in probes),
                         f"median of n={len(probes)} probes"),
    }
    return metrics, report, report["ops"]


def per_layer(workload: str, seed: int, seconds: float) -> Tuple[dict, dict, list]:
    # A third of the time untraced, a third traced on the same op stream, so
    # a traced run, slowed by the tracing, takes no longer than an untraced one.
    third = seconds / 3
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(third),
              "--probes", "0"]
    plain = spawn(common, 2 * third + 40)
    spans = Path(workloads.WORK_DIR) / "trace" / f"{workload}-seed{seed}.spans.jsonl"
    report = spawn(common + ["--spans", str(spans)], 4 * third + 40)
    k = min(len(plain["ops"]), len(report["ops"]))
    # In reference units: the two workers run minutes apart on a host whose
    # speed drifts.
    untraced = sum(relative(plain)[:k])
    traced = sum(relative(report)[:k])
    layers = report["layers"]
    metrics = {name: (layers[name], "") for name in tracing.LAYER_METRICS}
    metrics["trace.overhead_ratio"] = (
        traced / untraced - 1, f"first {k} ops: {traced:.1f} ref traced, "
                               f"{untraced:.1f} ref untraced")
    return metrics, report, plain["ops"] + report["ops"]


def units(trace: bool) -> Dict[str, str]:
    """Units of the metrics the result line reports."""
    if not trace:
        return END_TO_END
    return {**tracing.LAYER_METRICS, "trace.overhead_ratio": "ratio"}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    measure = per_layer if trace else end_to_end
    metrics, report, ops = measure(workload, seed, seconds)
    reported = units(trace)
    unit = {**reported, **WALL_CLOCK}
    errs = failures(ops)
    attempted = len(ops)
    env = environment(workload, seed, report)
    print(f"== {workload} seed {seed} trace {int(trace)}: {len(report['ops'])} ops in "
          f"{report['rounds']} rounds, {report['timed_s']:.3f} s timed")
    for name, (value, note) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit[name]:6s} {note}")
    print(f"  {'fail_ratio':44s} {len(errs) / attempted:14.6g} ratio  "
          f"{len(errs)} failed of {attempted} attempted")
    if trace:
        op_time = sum(op[2] for op in report["ops"]) / report["rounds"]
        shares = sorted(((v, n) for n, (v, _) in metrics.items()
                         if n.endswith(".self_s")), reverse=True)
        print("  self time as a share of traced op time per round:")
        for v, n in shares[:8]:
            print(f"    {n:42s} {100 * v / op_time:6.1f} %")
    for e in errs[:10]:
        print(f"  FAILED {e}")
    print("  env " + json.dumps(env, sort_keys=True))
    out = Path(workloads.WORK_DIR) / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "env": env,
        "metrics": {n: {"value": v, "unit": unit[n], "samples": note}
                    for n, (v, note) in metrics.items()},
        "fail_ratio": len(errs) / attempted,
        "failures": errs,
        "ops": report["ops"],
        "ref_s": report["ref_s"],
        "setup_probes": report.get("setup_probes"),
    }, indent=1) + "\n")
    return {"correct": not errs, "attempted": attempted, "failed": len(errs),
            "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in reported.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    for needed in (Path("src/rankone/__init__.py"), BENCH / "digests.json"):
        if not needed.is_file():
            fail(f"{needed} not found; run from the root of a rankone checkout")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in names}
    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
