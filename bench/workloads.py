"""Seeded op streams for the rankone benchmark.

An op is one argv list for ``rankone.cli.main``.  Each workload is a list of
slots.  A slot fixes the command and the sizes that set its cost (stage,
resolution, z range, step and tick counts) and lists a handful of variants
that differ only in inputs that leave the cost roughly unchanged: start
points, level sets, thresholds and ``random:K`` spacer seeds.  The op stream
for a seed is a sequence of rounds; every round runs each slot once, in a
seeded order.  Each slot deals its variants from a seeded shuffle, so every
variant runs once before any runs twice.  So every seed runs the same op mix
at the same sizes, which keeps throughput comparable across seeds, while the
concrete inputs and their order change with the seed.  Dealing matters
because the ops of a run share the stage registry: the first run of a
variant builds its stages, and with free draws the number of distinct
variants in a run, hence its share of first runs and its peak memory,
varied with the seed.

The variants of all slots form a finite catalogue.  ``digests.json`` holds
the sha256 of every catalogue op's stdout, so the output of every op of
every seed is checked byte for byte (``record_digests.py`` rewrites it).

This module imports nothing from rankone: input generation is part of the
measured set-up and must not build stages.

Why each workload, and its sizes
--------------------------------
returns
    Return-time statistics on deep stages.  ``return-profile`` at staircase
    and ``random:K`` resolutions 7-9 (heights 2.4k-170k), chacon 9-10 and
    odometer 14-16 (with ``--stage-budget 18``) hold occurrence tuples of
    5k-65k ints and spend their time in the occurrence x shift loop of
    ``stats.return_profile``; z ranges shrink as the stage deepens, and as
    the occurrence set grows, so each op stays near 50-250 ms and the
    variants of one slot cost about the same.  ``correlate`` at resolutions 6-7 and
    ``joining blocks --kind graph`` add ``transform.power_image`` over
    implicit stage-7 levels and occurrence scans.  Nothing here steps an
    orbit cursor or adds step functions.  Stages deeper than these take
    seconds per op and would leave too few ops per run.
orbits
    Exact orbit iteration.  ``orbit`` (2k-6k steps), ``joining disperse``,
    ``joining blocks --kind empirical`` (10k-30k ticks) and ``flow bands
    --matrix empirical`` run cursors with stage budgets staircase 10,
    chacon 14 and odometer 20, so towers are 10^6 levels tall and no
    start point leaves its budget: every start point listed below sits at
    least 64k levels below the top of its budget stage, more than any op
    here walks (``bench/tests`` checks this through the library).  Time
    goes to ``TowerStage.ancestor_index`` and the joinings histograms; it
    never calls ``occurrences`` or ``power_image``.  Orbit documents are
    the largest outputs (about 0.1 MB each), so JSON rendering shows.
averages
    Weighted averages and product joinings at shallow, materialized stages.
    ``blum-hanson`` with uniform weights of length 10-50 at resolutions 5-6
    makes hundreds of single-interval ``power_image`` calls and
    ``StepFunction.add`` merges; ``joining light`` and ``joining
    trivialize --kind product`` at j 4-5 and resolutions 5-7 build dense
    product block dicts (up to 78 x 121 entries) and ``flow bands
    --matrix product`` weighs them.  Product matrices stop at j = 5 because
    their dicts grow with h_j^2.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

WORKLOADS = ("returns", "orbits", "averages")
PINNED_SEED = 1
HELD_OUT_SEED = 2

# Relative to the checkout root, which is the benchmark's working directory.
WORK_DIR = Path(".bench_work")
WEIGHTS_DIR = WORK_DIR / "weights"

Op = Tuple[str, ...]


@dataclass(frozen=True)
class Slot:
    """One op of every round: a command at fixed sizes and its variants."""

    name: str
    variants: Tuple[Op, ...]


def _argv(text: str) -> Op:
    return tuple(text.split())


def _slot(name: str, texts: Sequence[str]) -> Slot:
    return Slot(name, tuple(_argv(t) for t in texts))


# Orbit start points; each leaves at least 64k levels of room below the top of
# its budget stage (staircase 10, chacon 14, odometer 20).
_STARTS = ("1/3", "2/5", "3/7", "1/4", "5/8", "2/9", "7/10", "4/11",
           "6/13", "1/6", "5/7", "8/9")
_RANDOM = tuple(f"random:{k}" for k in range(1, 9))
# Stage-j level of the first six start points.  A paired orbit from
# (0, x) sits in block (0, level) at tick 0, so conditioning on that block
# never comes up empty.
_TICK0_LEVEL = {
    ("staircase", 2): {"1/3": 0, "2/5": 0, "3/7": 0, "1/4": 0, "5/8": 1, "2/9": 0},
    ("chacon", 3): {"1/3": 1, "2/5": 1, "3/7": 1, "1/4": 9, "5/8": 10, "2/9": 9},
}
_STAIR_LIKE = ("staircase",) + _RANDOM


def _weights_path(n: int) -> str:
    return str(WEIGHTS_DIR / f"uniform-{n}.json")


def _returns() -> List[Slot]:
    rp = "return-profile --spec {s} --j {j} --res {J} --zmax {z}"
    return [
        _slot("profile-stair-7",
              [rp.format(s=s, j=2, J=7, z=z) for s in _STAIR_LIKE for z in (380, 420)]),
        _slot("profile-stair-8",
              [rp.format(s=s, j=2, J=8, z=z) for s in _STAIR_LIKE for z in (90, 110)]),
        _slot("profile-stair-9",
              [rp.format(s=s, j=2, J=9, z=z) for s in _STAIR_LIKE for z in (28, 32)]),
        _slot("profile-chacon-9",
              [rp.format(s="chacon", j=1, J=9, z=z) + " --stage-budget 12"
               for z in range(140, 161, 4)]),
        _slot("profile-chacon-10",
              [rp.format(s="chacon", j=1, J=10, z=z) + " --stage-budget 12"
               for z in range(50, 71, 4)]),
        _slot("profile-odometer-14",
              [rp.format(s="odometer", j=j, J=14, z=j * z) + " --stage-budget 18"
               for j in (1, 2) for z in (150, 170, 190)]),
        _slot("profile-odometer-16",
              [rp.format(s="odometer", j=1, J=16, z=z) + " --stage-budget 18"
               for z in (26, 30, 34)]),
        _slot("correlate-6",
              [f"correlate --spec {s} --A {a} --B {b} --j 3 --mmax 8 --res 6"
               for s in _STAIR_LIKE[:4] for a, b in (("0", "0,1"), ("0,2", "1"))]),
        _slot("correlate-7",
              [f"correlate --spec {s} --A {a} --B {b} --j 2 --mmax 2 --res 7"
               for s in _STAIR_LIKE[:4] for a, b in (("0", "0,1"), ("1", "0"))]),
        _slot("flow-window-8",
              [f"flow window --spec {s} --alpha {a} --grid 2 --j 2 --res 8 --zmax 60"
               for s in _STAIR_LIKE[:4] for a in ("2", "3/2")]),
        _slot("graph-blocks",
              [f"joining blocks --kind graph --spec {s} --k {k} --j 3 --res 8"
               for s in _RANDOM for k in (1, 2)]),
    ]


def _orbits() -> List[Slot]:
    orbit = "orbit --spec {s} --x {x} --steps {n} --stage-budget {b}"
    disperse = ("joining disperse --spec-a {s} --spec-b {s} --x-a 0/1 --x-b {x}"
                " -N {n} --z 0,{z} --n-list 0,{d},{e} --j {j} --res {b} --stage-budget {b}")
    empirical = ("joining blocks --kind empirical --spec-a {s} --spec-b {s}"
                 " --x-a {xa} --x-b {xb} -N {n} --j {j} --res {b} --stage-budget {b}")
    pairs = list(zip(_STARTS, _STARTS[1:] + _STARTS[:1]))
    return [
        _slot("orbit-staircase",
              [orbit.format(s="staircase", x=x, n=6000, b=10) for x in _STARTS]),
        _slot("orbit-chacon",
              [orbit.format(s="chacon", x=x, n=3000, b=14) for x in _STARTS]),
        _slot("orbit-odometer",
              [orbit.format(s="odometer", x=x, n=2000, b=20) for x in _STARTS]),
        _slot("disperse-staircase",
              [disperse.format(s="staircase", x=x, z=z, n=15000, d=d, e=d + 2,
                               j=2, b=10)
               for x, z in _TICK0_LEVEL["staircase", 2].items() for d in (3, 5)]),
        _slot("disperse-chacon",
              [disperse.format(s="chacon", x=x, z=z, n=15000, d=d, e=d + 2,
                               j=3, b=14)
               for x, z in _TICK0_LEVEL["chacon", 3].items() for d in (3, 5)]),
        _slot("empirical-staircase",
              [empirical.format(s="staircase", xa=a, xb=b, n=20000, j=3, b=10)
               for a, b in pairs]),
        _slot("empirical-chacon",
              [empirical.format(s="chacon", xa=a, xb=b, n=20000, j=3, b=14)
               for a, b in pairs]),
        _slot("empirical-odometer",
              [empirical.format(s="odometer", xa=a, xb=b, n=30000, j=4, b=20)
               for a, b in pairs]),
        _slot("bands-empirical",
              [f"flow bands --spec staircase --alpha 2 --j 3 --res 10 --side right"
               f" --offsets 0,1,2 --matrix empirical --x-a 0/1 --x-b {x} -N 10000"
               f" --stage-budget 10"
               for x in _STARTS]),
    ]


def _averages() -> List[Slot]:
    bh = "blum-hanson --spec {s} --weights {w} --f {f} --j {j} --res {J}"
    light = ("joining light --kind product --spec-a {a} --spec-b {b} --j {j}"
             " --res {J} --epsilon {e}")
    triv = ("joining trivialize --kind product --spec-a staircase --spec-b chacon"
            " --j {j} --res {J} --delta {d} --w {w} --shifts {h} --A 0 --B 0"
            " --cond-stage 1")
    return [
        _slot("blum-hanson-staircase",
              [bh.format(s="staircase", w=_weights_path(n), f=f, j=2, J=5)
               for n in (10, 12, 14, 16) for f in ("0", "0,1", "1")]),
        _slot("blum-hanson-odometer",
              [bh.format(s="odometer", w=_weights_path(n), f=f, j=1, J=6)
               for n in (40, 45, 50) for f in ("0", "1", "0,1")]),
        _slot("blum-hanson-chacon",
              [bh.format(s="chacon", w=_weights_path(n), f=f, j=2, J=5)
               for n in (20, 25, 30) for f in ("0", "1", "2")]),
        _slot("light-product-4",
              [light.format(a="staircase", b=b, j=4, J=J, e=e)
               for b in ("odometer", "chacon") for J in (5, 6) for e in ("1/4", "1/2")]),
        _slot("light-product-5",
              [light.format(a="staircase", b="chacon", j=5, J=J, e=e)
               for J in (6, 7) for e in ("1/4", "1/2", "3/4")]),
        _slot("trivialize-4",
              [triv.format(j=4, J=J, d=d, w=0, h=h)
               for J in (5, 6) for d in ("1/4", "1/3") for h in ("0,1", "0,2")]),
        _slot("trivialize-5",
              [triv.format(j=5, J=6, d=d, w=w, h=h) for d in ("1/4", "1/5")
               for w in (0, 1) for h in ("0,1,2", "1,2,3")]),
        _slot("bands-product",
              [f"flow bands --spec staircase --alpha {a} --j 5 --res 6 --side right"
               f" --offsets {o}"
               for a in ("2", "3/2", "5/2") for o in ("0,1,2,3", "1,3,5,7")]),
    ]


_BUILDERS = {"returns": _returns, "orbits": _orbits, "averages": _averages}


def slots(workload: str) -> List[Slot]:
    try:
        return _BUILDERS[workload]()
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {', '.join(WORKLOADS)}") from None


def catalogue(workload: str) -> List[Op]:
    """Every op the workload can generate, in a fixed order."""
    return [op for slot in slots(workload) for op in slot.variants]


def rounds(workload: str, seed: int) -> Iterator[List[Tuple[str, Op]]]:
    """Endless seeded rounds of (slot name, op) pairs."""
    table = slots(workload)
    rng = random.Random(f"{workload}:{seed}")
    decks: Dict[str, List[Op]] = {slot.name: [] for slot in table}
    while True:
        order = rng.sample(table, len(table))
        for slot in order:
            if not decks[slot.name]:
                decks[slot.name] = rng.sample(slot.variants, len(slot.variants))
        yield [(slot.name, decks[slot.name].pop()) for slot in order]


def generate(workload: str, seed: int, n_rounds: int) -> List[List[Tuple[str, Op]]]:
    it = rounds(workload, seed)
    return [next(it) for _ in range(n_rounds)]


def weights_needed(ops: Sequence[Op]) -> Dict[str, Dict[str, str]]:
    """Weights files the ops read, path -> document."""
    out = {}
    for op in ops:
        if "--weights" in op:
            path = op[op.index("--weights") + 1]
            n = int(Path(path).stem.split("-")[1])
            out[path] = {str(z): f"1/{n}" for z in range(n)}
    return out


def write_weights(ops: Sequence[Op]) -> None:
    for path, doc in weights_needed(ops).items():
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(doc, sort_keys=True))
