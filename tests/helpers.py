"""Helpers that only the tests call, kept out of the library: each takes
the object it used to be a method or property of as its first argument and
computes what that method computed.  Also the oracles that library fast
paths are checked against, and the capped child-process runner."""

import dataclasses
import os
import subprocess
import sys
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import chain, product, repeat
from math import lcm
from operator import add
from pathlib import Path
from types import SimpleNamespace

import pytest

import rankone
from rankone import joinings, stats
from rankone.averaging import WeightSequence
from rankone.construction import build_stage
from rankone.errors import EmptyFSetError, SpecError
from rankone.joinings import BlockIndex, FSetSpec, LightBlockReport, TrivializationRecord
from rankone.measure import (BoundSeries, Interval, IntervalSet, MeasureBound, as_fraction,
                             canonicalize)


# --------------------------------------------------------- BlockMassMatrix
#
# The oracle of the count matrices: the route block masses took before a
# matrix held integer counts of one unit, a dict of one Fraction per block,
# and the functions that read that dict.

def dict_matrix(m):
    """m's fields, with masses rebuilt as a dict of one Fraction per block
    in row-major order: product, the two level measures' product on every
    block; graph, w_J / M_J times each nonzero lag count of E_j on the
    blocks of its lag; empirical, each block count over N."""
    J = m.meta["J"]
    if m.kind == "product":
        per = (build_stage(m.spec_a, m.j).width / build_stage(m.spec_a, J).total
               * build_stage(m.spec_b, m.j).width / build_stage(m.spec_b, J).total)
        masses = {BlockIndex(*z): per for z in product(range(m.h_a), range(m.h_b))}
    elif m.kind == "graph":
        h, k, stJ = m.h_a, m.meta["k"], build_stage(m.spec_a, J)
        lags = stats._stage_counts(m.spec_a, (m.j, 1), (m.j, 1), range(k - h + 1, k + h), J)[0]
        w = stJ.width / stJ.total
        masses = {BlockIndex(z1, z2): n * w for z1 in range(h) for z2 in range(h)
                  if (n := lags[z2 - z1 + h - 1])}
    else:
        N = m.meta["N"]
        chunks, *_ = joinings._paired_codes(m.spec_a, m.spec_b, *map(Fraction, m.meta["seeds"]),
                                            N, m.j, J, m.meta["step_a"], m.meta["step_b"])
        blocks = joinings._block_counts(Counter(chain.from_iterable(chunks)).items(), m.h_a, m.h_b)
        masses = {z: Fraction(c, N) for z, c in sorted(blocks.items())}
    return SimpleNamespace(**{**{f.name: getattr(m, f.name) for f in dataclasses.fields(m)},
                              "masses": masses})


def dict_mass_of(d, blocks):
    return sum(map(d.masses.get, blocks, repeat(0)), Fraction(0))


def dict_light_blocks(d, epsilon):
    """light_blocks(d, epsilon) with its light set built as a dict of every
    light block and its mass, by walking the whole h_a x h_b grid in
    row-major order; a block absent from the dict weighs 0."""
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise SpecError("epsilon must be positive")
    threshold = eps * d.level_mass_b
    light = {z: x for z in map(BlockIndex._make, product(range(d.h_a), range(d.h_b)))
             if (x := d.masses.get(z, Fraction(0))) < threshold}
    return LightBlockReport(epsilon=eps, j=d.j, kind=d.kind, light_set=light,
                            covered_mass=sum(light.values(), Fraction(0)),
                            total_blocks=d.h_a * d.h_b)


def column(d, delta, w):
    """(delta, the column blocks (w+i, i), i = 0..floor(delta*h_b)) of
    columns_and_F, with its refusals of delta, w and the first tower: the
    tuple walk that FSetSpec's (w, i_max) replaced."""
    delta = as_fraction(delta)
    if not (0 < delta < 1):
        raise SpecError("delta must lie strictly between 0 and 1")
    if w < 0:
        raise SpecError("column offset w must be nonnegative")
    i_max = int(delta * d.h_b)
    if w + i_max > d.h_a - 1:
        raise SpecError(f"column blocks (w+i, i) run out of the first tower: "
                        f"w={w}, i_max={i_max}, h={d.h_a}")
    return delta, tuple(BlockIndex(w + i, i) for i in range(i_max + 1))


def column_blocks(F):
    """F's column blocks (w+i, i), i = 0..i_max, as a tuple."""
    return tuple(BlockIndex(F.w + i, i) for i in range(F.i_max + 1))


def dict_columns_and_F(d, delta, w, shifts):
    delta, members = column(d, delta, w)
    if not shifts:
        raise SpecError("shift set must be nonempty")
    if len(set(shifts)) != len(shifts):
        raise SpecError("shift set has duplicates")
    joinings._check_column(d, members[-1].z2, shifts)
    per_shift = {h: dict_mass_of(d, ((z1, z2 + h) for z1, z2 in members))
                 for h in sorted(shifts)}
    nu_F = sum(per_shift.values(), Fraction(0))
    if nu_F == 0:
        raise EmptyFSetError(f"F set carries no joining mass (column w={w}, "
                             f"shifts {sorted(shifts)})")
    weights = WeightSequence(tuple((h, v / nu_F) for h, v in per_shift.items()))
    return FSetSpec(delta=delta, w=w, i_max=members[-1].z2, shifts=tuple(sorted(shifts)),
                    nu_F=nu_F, weights=weights)


def dict_trivialization_check(d, F, A, B, k):
    """trivialization_check over the dict, each mass sum a sum of Fractions,
    walking the column as a tuple of blocks."""
    if not (1 <= k <= d.j):
        raise SpecError(f"need 1 <= k <= j, got k={k}, j={d.j}")
    members = column_blocks(F)
    if any(not (0 <= z1 < d.h_a and 0 <= z2 < d.h_b) for z1, z2 in members):
        raise SpecError(f"column blocks run out of the block grid "
                        f"(h_a={d.h_a}, h_b={d.h_b})")
    if F.nu_F <= 0 or not set(F.weights.support) <= set(F.shifts):
        raise SpecError("F needs nu_F > 0 and its weights on its own shifts")
    joinings._check_column(d, max((z2 for _, z2 in members), default=0), F.shifts)
    in_sets = []
    for label, spec, S in (("A", d.spec_a, A), ("B", d.spec_b, B)):
        found = stats._classes(build_stage(spec, k), S)
        if found.keys() - {(0, 1, 1)}:
            raise SpecError(f"{label} is not a union of stage-{k} levels")
        in_sets.append(build_stage(spec, d.j).occurrence_bits(*found.get((0, 1, 1), (k, 0))))
    in_A, in_B = in_sets
    per_shift = {h: dict_mass_of(d, ((z1, z2 + h) for z1, z2 in members
                                     if in_A >> z1 & 1 and in_B >> (z2 + h) & 1))
                 for h in F.shifts}
    conditional = sum(per_shift.values(), Fraction(0)) / F.nu_F
    reference = (stats._measure(d.spec_a, A) / d.norm_a) * (stats._measure(d.spec_b, B) / d.norm_b)
    nu_C = dict_mass_of(d, members)
    display_sum = display_gap = None
    if nu_C > 0:
        sel = [bi for bi in members if in_A >> bi.z1 & 1]
        if d.kind == "empirical":
            lo = hi = sum((a_h * per_shift[h] for h, a_h in F.weights.weights), Fraction(0))
        elif not sel:
            lo = hi = Fraction(0)
        else:
            stJ = build_stage(d.spec_b, d.meta["J"])
            if d.kind == "product":
                s, escape = d.level_mass_a * stJ.width / d.norm_b, [0] * d.h_b
            else:
                s, kk = stJ.width / d.norm_a, d.meta["k"]
                escape = stats._stage_counts(d.spec_b, (d.j, 1), (d.j, 1),
                                             range(kk, kk + d.h_b), d.meta["J"])[1]
            lo = out = Fraction(0)
            for h, a_h in F.weights.weights:
                hit = [bi for bi in sel if in_B >> (bi.z2 + h) & 1]
                lo += a_h * dict_mass_of(d, hit)
                out += a_h * ((in_B & ((1 << h) - 1)).bit_count()
                              + sum(escape[z2] for _, z2 in hit))
            hi = lo + s * out
        display_sum = MeasureBound(lo / nu_C, hi / nu_C)
        d0, d1 = display_sum.lo - conditional, display_sum.hi - conditional
        display_gap = MeasureBound(max(Fraction(0), d0, -d1), max(abs(d0), abs(d1)))
    return TrivializationRecord(
        conditional=conditional, reference=reference, gap=abs(conditional - reference),
        display_sum=display_sum, display_gap=display_gap)


def light_shifts(m, delta, w, epsilon=None, mass_threshold=None):
    """Shift set selection for F assembly.

    With epsilon (the default mode): all h whose shifted column consists
    entirely of epsilon-light blocks.  With mass_threshold: all h whose
    whole shifted-column mass is strictly below the threshold.  Either way
    only shifts keeping the column inside the second tower qualify.
    """
    if (epsilon is None) == (mass_threshold is None):
        raise SpecError("pass exactly one of epsilon, mass_threshold")
    members = column(m, delta, w)[1]

    def ok(h):
        shifted = [m.mass_of([BlockIndex(z1, z2 + h)]) for z1, z2 in members]
        if epsilon is not None:
            return max(shifted) < as_fraction(epsilon) * m.level_mass_b
        return sum(shifted, Fraction(0)) < as_fraction(mass_threshold)
    return tuple(filter(ok, range(m.h_b - members[-1].z2)))


def total_block_mass(m):
    return 1 - m.residual


def row_sum(m, z1):
    return m.mass_of((z1, z2) for z2 in range(m.h_b))


def col_sum(m, z2):
    return m.mass_of((z1, z2) for z1 in range(m.h_a))


# ------------------------------------------------------------ StepFunction

def value_at(f, x):
    x = as_fraction(x)
    k = bisect_right(f.segments, x, key=lambda s: s[0]) - 1
    if k >= 0 and x < f.segments[k][1]:
        return f.segments[k][2]
    return Fraction(0)


def support(f):
    return canonicalize([Interval(lo, hi) for lo, hi, _ in f.segments])


def sup_abs(f):
    return max((abs(v) for _, _, v in f.segments), default=Fraction(0))


def l2_inner(f, g):
    """Exact inner product (f, g) = integral of f*g, one merge of the two
    segment lists.

    Bilinear and positive definite on step functions: (f, f) = 0 forces f to
    vanish off a null set, which for step functions means no segments at all.
    """
    total = Fraction(0)
    i = j = 0
    a, b = f.segments, g.segments
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            total += (hi - lo) * a[i][2] * b[j][2]
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


# ------------------------------------------------------------ BoundSeries

def series_of(bounds):
    """The BoundSeries of a {key: MeasureBound} mapping over the lcm of its
    denominators."""
    keys = tuple(sorted(bounds))
    bs = [bounds[k] for k in keys]
    den = lcm(*(f.denominator for b in bs for f in (b.lo, b.hi)))
    return BoundSeries(keys, [b.lo.numerator * (den // b.lo.denominator) for b in bs],
                       [b.hi.numerator * (den // b.hi.denominator) for b in bs], den)


# ------------------------------------------------------------ MeasureBound

def is_exact(b):
    return b.lo == b.hi


def contains_value(b, value):
    v = as_fraction(value)
    return b.lo <= v <= b.hi


def is_subinterval_of(b, other):
    return other.lo <= b.lo and b.hi <= other.hi


# -------------------------------------------------- Interval, IntervalSet

def contains(A, x):
    """x in the Interval or IntervalSet A, the set searched by bisection."""
    x = as_fraction(x)
    if isinstance(A, Interval):
        return A.lo <= x < A.hi
    k = bisect_right(A.intervals, x, key=lambda iv: iv.lo) - 1
    return k >= 0 and x < A.intervals[k].hi


def shifted(A, offset):
    """The Interval or IntervalSet A translated by offset."""
    d = as_fraction(offset)
    if isinstance(A, Interval):
        return Interval(A.lo + d, A.hi + d)
    return IntervalSet(tuple(shifted(iv, d) for iv in A.intervals))


def set_union(a, b):
    return canonicalize(a.intervals + b.intervals)


def set_difference(a, b):
    out = []
    j = 0
    bv = b.intervals
    for iv in a.intervals:
        lo = iv.lo
        while j < len(bv) and bv[j].hi <= lo:
            j += 1
        k = j
        while k < len(bv) and bv[k].lo < iv.hi:
            if bv[k].lo > lo:
                out.append(Interval(lo, bv[k].lo))
            lo = max(lo, bv[k].hi)
            if bv[k].hi >= iv.hi:
                break
            k += 1
        if lo < iv.hi:
            out.append(Interval(lo, iv.hi))
    return IntervalSet(tuple(out))


def contains_interval(a, other):
    return other.is_empty() or (a.lo <= other.lo and other.hi <= a.hi)


def is_subset_of(A, B):
    return set_difference(A, B).is_empty()


# -------------------------------------------------------------- TowerStage

def level_lo(stage, i):
    return stage.cell(i) * stage.width


def top(stage):
    return stage.level(stage.height - 1)


def ambient(stage):
    return Interval(Fraction(0), stage.total)


def height_ratio_profile(spec_a, spec_b, J):
    """Exact per-stage height ratios min(h, h')/max(h, h') for stages 1..J.

    The smaller height goes in the numerator stage by stage, so identical
    specs give a profile of ones.
    """
    if J < 1:
        raise SpecError("ratio profile needs J >= 1")
    hs = [(build_stage(spec_a, j).height, build_stage(spec_b, j).height)
          for j in range(1, J + 1)]
    return tuple(Fraction(min(pair), max(pair)) for pair in hs)


def level_bits(stage, A):
    """What stage.level_bits gave for a set A in [0, M): A's one piece class
    (stats._classes) when A is a union of whole levels of a stage up to
    this one, else None."""
    classes = stats._classes(stage, A)
    return None if classes.keys() - {(0, 1, 1)} else classes.get((0, 1, 1), (1, 0))


def lifted_bits(stage, A):
    """A as a bitset over the levels of this stage, or None when A is no
    union of levels of a stage up to it."""
    found = level_bits(stage, A)
    return None if found is None else stage.occurrence_bits(*found)


# ------------------------------------------- FlowSkeletonSpec, WeightSequence

def coarse_height(fspec, j):
    return build_stage(fspec.base, j).height // fspec.grid_inverse


def delta_weights(z=0):
    """The weight sequence with all its mass on shift z."""
    return WeightSequence(((z, Fraction(1)),))


def as_dict(w):
    return dict(w.weights)


# -------------------------------------------------------------- count kernel

def hits(a, b, ms):
    """The levels i of B with i + m in A for each shift m in ms, for level
    bitsets a, b: one shifted `&` a lag, the route stats._lag_counts takes
    where its lane product costs more."""
    return [(a & (b >> -m) if m < 0 else a >> m & b).bit_count() for m in ms]


def counts(a, b, ms, h):
    """(resolved, escaped) level counts of A intersect T^m B for each m in
    ms, a range of step 1, for level bitsets a, b of a height-h tower: the
    count kernel on one stage's own bitsets, which stats._stage_counts
    must agree with on the stage-J lifts."""
    neg, pos = range(ms.start, min(ms.stop, 0)), range(max(ms.start, 0), ms.stop)
    return hits(a, b, ms), stats._escapes(b, neg, pos, h)


def cross(x, weights):
    """What stats._cross gives, one pass of x a shift: y[d] = sum over the
    shifts s of weights[s] X(d - s), for d = 0..len(x), where X(w) =
    x[w - 1] for w >= 1 and 0 below."""
    y = [0] * (len(x) + 1)
    for s, n in weights.items():
        y[s + 1:] = map(add, y[s + 1:], [n * v for v in x])
    return y


# ------------------------------------------------------------------ Cursor

def level_run(cur, j):
    """(cur.level_at(j), levels left in its run from the current one up):
    the next `left - 1` forward steps stay in the same stage-j copy, one
    level up each, or among the spacers of the same column of one stage."""
    i = cur.index
    lo, hi, copy, _, _ = cur.stage_obj.ancestor_run(i, j)
    return (i - lo if copy else None), hi - i


def levels(cur, j, step=1):
    """The stage-j level of each tick of the cursor's orbit, None in spacer
    mass unborn at stage j: the pieces of Cursor.codes(j, step) read as
    one stream, with its unborn code h_j read as None."""
    codes = chain.from_iterable(cur.codes(j, step))
    unborn = build_stage(cur.spec, j).height
    return (None if c == unborn else c for c in codes)


def points(cur):
    """The point at each forward step of the cursor's orbit, tick 0 the
    current point: the Fraction view of Cursor.point_runs."""
    return chain.from_iterable(map(Fraction, numerators, repeat(den))
                               for den, numerators in cur.point_runs())


# ---------------------------------------------------------- child process

def run_capped(argv, cap_mb=512, timeout=60):
    """(CompletedProcess, wall seconds) of `python *argv`, run with the
    library on its path in a child process under a cap_mb address-space
    cap (RLIMIT_AS); for the command line, argv starts "-m", "rankone.cli"."""
    resource = pytest.importorskip("resource")
    cap = cap_mb << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(rankone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *argv], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=timeout)
    return proc, time.monotonic() - t0
