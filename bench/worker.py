"""One benchmark session: set up, run timed rounds of ops, check outputs.

Started by ``run.py`` as a fresh process from the checkout root.  Set-up is
everything from the process start to the first timed op: the interpreter,
``import rankone`` from ``src/``, op generation and the weights files.  The
timed region calls ``rankone.cli.main(argv)`` in-process, one op after the
other, in whole rounds until ``--seconds`` have passed; all ops of the
session share the process's stage registry, as in a library session.  A
reference kernel (``reference.py``) runs in a child process pinned to the
same core before every round and after the last.  Between rounds, spread
over the run, the worker also spawns ``--probes`` set-up probes (this
script with ``--setup-only``), each bracketed by two reference runs.  Every
document is checked as soon as its op has run, outside the op's latency and
the timed region; the two-path check on a sample of return profiles runs
after the timed region.  The last stdout line is a JSON report for
``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import workloads

DIGESTS = Path(__file__).with_name("digests.json")
# Two-path checks stay on profiles this shallow: the correlation route costs
# one power_image over all h_J levels per shift.
TWO_PATH_MAX_RES = 7
TWO_PATH_OPS = 2
TWO_PATH_SHIFTS = 3
SETUP_PROBES = 7


def flag(op, name: str) -> Optional[str]:
    return op[op.index(name) + 1] if name in op else None


def op_key(op) -> str:
    return " ".join(op)


def parse_doc(text: str):
    """(meta, rows-or-data, csv header) of a CSV or JSON document."""
    if text.startswith("# "):
        lines = text.rstrip("\n").split("\n")
        meta = json.loads(lines[0][2:])
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        return meta, rows, header
    doc = json.loads(text)
    return doc["meta"], doc["data"], None


def _bounds(node) -> Iterator[tuple]:
    if isinstance(node, dict):
        for lo, hi in (("lo", "hi"), ("max_lo", "max_hi")):
            if lo in node and hi in node:
                yield node[lo], node[hi]
        for value in node.values():
            yield from _bounds(value)
    elif isinstance(node, list):
        for value in node:
            yield from _bounds(value)


def check_doc(op, text: str) -> Optional[str]:
    """Structural checks that hold for every correct document."""
    meta, data, header = parse_doc(text)
    pairs = list(_bounds(meta))
    if header is None:
        pairs += list(_bounds(data))
    elif "lo_num" in header:
        pairs += [(f"{r['lo_num']}/{r['lo_den']}", f"{r['hi_num']}/{r['hi_den']}")
                  for r in data]
    for lo, hi in pairs:
        if Fraction(lo) > Fraction(hi):
            return f"bound lo {lo} > hi {hi}"
    if op[0] == "return-profile":
        first = data[0]
        if first["z"] != "0" or Fraction(f"{first['lo_num']}/{first['lo_den']}") != 1 \
                or Fraction(f"{first['hi_num']}/{first['hi_den']}") != 1:
            return "return profile at z=0 is not exactly 1/1"
    return None


def check_two_path(op, text: str, rng: random.Random) -> Optional[str]:
    """The profile equals the correlation route mu(E_j meet T^z E_j) / w_j
    on z = 0 and a few sampled shifts, as in acceptance test 3."""
    from rankone.cli import load_spec
    from rankone.construction import build_stage
    from rankone.measure import IntervalSet
    from rankone.stats import correlation

    budget = flag(op, "--stage-budget")
    spec = load_spec(flag(op, "--spec"), int(budget) if budget else None)
    j, J, zmax = int(flag(op, "--j")), int(flag(op, "--res")), int(flag(op, "--zmax"))
    st = build_stage(spec, j)
    E = IntervalSet((st.base,))
    _, rows, _ = parse_doc(text)
    for z in [0] + rng.sample(range(1, zmax + 1), min(TWO_PATH_SHIFTS, zmax)):
        r = rows[z]
        prof = (Fraction(int(r["lo_num"]), int(r["lo_den"])),
                Fraction(int(r["hi_num"]), int(r["hi_den"])))
        geo = correlation(spec, E, E, z, J).scale(1 / st.width)
        if (geo.lo, geo.hi) != prof:
            return f"two-path mismatch at z={z}: profile {prof}, correlation {geo}"
    return None


class Reference:
    """The reference kernel in a child process; see reference.py."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("reference.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_op(rankone_cli, op):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call; an
    escaped exception is reported in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rankone_cli.main(list(op))
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def check_text(op, text: str) -> Optional[str]:
    try:
        return check_doc(op, text)
    except (ValueError, KeyError, IndexError) as exc:
        return f"malformed document: {type(exc).__name__}: {exc}"


def two_path_candidate(op) -> bool:
    return op[0] == "return-profile" and int(flag(op, "--res")) <= TWO_PATH_MAX_RES


def probe_setup(argv: List[str], reference: Reference) -> Tuple[float, float]:
    """(set-up seconds of one fresh --setup-only worker, mean time of the
    reference runs just before and after it)."""
    r0 = reference.time()
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only",
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    return setup_s, (r0 + reference.time()) / 2


def run_ops(rankone_cli, rounds: Iterator, seconds: float, digests: Dict[str, str],
            reference: Reference, probe_argv: List[str], n_probes: int, tracer=None):
    """Timed region: whole rounds until `seconds` have passed, with a
    reference run before each round and after the last one, and the set-up
    probes spread evenly over the run.  Neither reference, probe nor check
    time is op time."""
    records: List[list] = []
    verdicts: Dict[str, Optional[str]] = {}
    kept: Dict[str, str] = {}
    refs: List[float] = []
    probes: List[Tuple[float, float]] = []
    bytes_out = 0
    n_rounds = 0
    op_time = 0.0
    began = time.perf_counter()
    deadline = began + seconds
    while time.perf_counter() < deadline:
        while (len(probes) < n_probes and time.perf_counter() - began
               >= len(probes) * seconds / n_probes):
            probes.append(probe_setup(probe_argv, reference))
        refs.append(reference.time())
        start = time.perf_counter()
        checking = 0.0
        for slot, op in next(rounds):
            if tracer is not None:
                tracer.op_id = len(records)
            code, text, err, latency = run_op(rankone_cli, op)
            c0 = time.perf_counter()
            key = op_key(op)
            if code != 0:
                reason = f"exit {code}: {err.strip()[:200]}"
            elif sha256(text.encode()).hexdigest() != digests.get(key):
                reason = "stdout digest mismatch" if key in digests else "no recorded digest"
            else:
                if key not in verdicts:
                    verdicts[key] = check_text(op, text)
                    if verdicts[key] is None and two_path_candidate(op):
                        kept[key] = text
                reason = verdicts[key]
            bytes_out += len(text.encode())
            records.append([slot, op[0] if op[0] not in ("joining", "flow")
                            else f"{op[0]} {op[1]}", latency, reason, n_rounds, key])
            checking += time.perf_counter() - c0
        op_time += time.perf_counter() - start - checking
        n_rounds += 1
    refs.append(reference.time())
    while len(probes) < n_probes:
        probes.append(probe_setup(probe_argv, reference))
    return records, kept, op_time, n_rounds, bytes_out, refs, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was spawned")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probes", type=int, default=SETUP_PROBES,
                    help="set-up probes to spread over the run")
    ap.add_argument("--spans", help="trace the layers and write spans here")
    args = ap.parse_args(argv)

    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    import rankone
    import rankone.cli
    if Path(rankone.__file__).resolve().parent != src / "rankone":
        raise SystemExit(f"imported rankone from {rankone.__file__}, not {src}")
    rounds = workloads.rounds(args.workload, args.seed)
    drawn = [next(rounds) for _ in range(max(8, int(2 * args.seconds)))]
    workloads.write_weights(workloads.catalogue(args.workload))
    digests = json.loads(DIGESTS.read_text()).get(args.workload, {})
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # The reference must run on the core the ops run on: the two cores of a
    # shared host are not equally contended.  Probes inherit the pinning.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
    reference = Reference()
    try:
        records, kept, timed_s, n_rounds, bytes_out, refs, probes = run_ops(
            rankone.cli, itertools.chain(drawn, rounds), args.seconds, digests,
            reference, probe_argv, args.probes, tracer)
    finally:
        reference.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        layers = tracer.metrics(bytes_out, n_rounds)
        tracer.op_id = -1

    # The two-path check, outside the timed region and after the layer totals.
    rng = random.Random(f"check:{args.workload}:{args.seed}")
    bad: Dict[str, str] = {}
    for key in rng.sample(sorted(kept), min(TWO_PATH_OPS, len(kept))):
        msg = check_two_path(tuple(key.split()), kept[key], rng)
        if msg:
            bad[key] = msg
    for r in records:
        if r[3] is None and r[5] in bad:
            r[3] = bad[r[5]]
    if tracer is not None:
        tracer.write_spans(Path(args.spans))

    print(json.dumps({
        "rankone_version": rankone.__version__,
        "timed_s": timed_s,
        "ref_s": refs,
        "setup_probes": probes,
        "rounds": n_rounds,
        "ops": [r[:5] for r in records],
        "peak_rss_mb": peak_rss_mb,
        "bytes_out": bytes_out,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
