"""Return-time statistics with two-sided bounds.

One kernel, `_stage_counts`, counts mu(A intersect T^m B) at stage J over
a range or list of m, for A and B each whole levels of its own stage k, an
int bitset (k, bits): the levels of B with i + m in A and those off the
tower, by `_hits` (a shifted `&` each) and `_escapes` (a prefix count per
edge) at the first stage taller than every |m|, plus the pairs crossing
between adjacent copies above it, with no stage-J set.  Interval sets go
by piece classes (`_classes`), one count per class pair.  Escaped mass widens
the upper bound.  Callers: flow, joinings' graph views, averaging.

Bound tables are measure.BoundSeries, the counts as numerators over one
shared denominator: |S| for a^z_j = mu(T^z E_j | E_j), S the occurrences of
E_j (dividing by mu(E_j) = |S| w_J cancels the unknown global
normalization), D/w_J for correlations, D = 1 for unions of whole levels.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, sub
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

from .construction import ConstructionSpec, LevelSet, TowerStage, bit_indices, build_stage
from .errors import SpecError
from .measure import BoundSeries, Interval, IntervalSet, MeasureBound, as_interval_set

Segment = Tuple[Fraction, Fraction, Fraction]
# A set, given as intervals or as whole levels of one stage
SetLike = Union[IntervalSet, Interval, LevelSet]

__all__ = [
    "ReturnProfile",
    "CorrelationSeries",
    "return_profile",
    "max_profile",
    "window_sums",
    "correlation",
    "correlation_series",
]


# Entries a profile or series may hold.  10^5 cost a staircase return-profile 0.4 s at J=8,
# 3.1 s at J=10, 3.9 s at J=20: mostly a shift of the first stage over 10^5 levels an entry.
MAX_ENTRIES = 100_000


def _entries(n: int, name: str) -> range:
    """range(n + 1), refused before any work when n < 0 or too long."""
    if n < 0:
        raise SpecError(f"{name} must be nonnegative")
    if n >= MAX_ENTRIES:
        raise SpecError(f"{n + 1} entries requested, more than the limit of {MAX_ENTRIES}")
    return range(n + 1)


def _stage_counts(spec: ConstructionSpec, a: Tuple[int, int], b: Tuple[int, int],
                  ms: Sequence[int], J: int) -> Tuple[List[int], List[int]]:
    """(resolved, escaped) level counts of A intersect T^m B at stage J for
    A, B given as level_bits gives them, (k, bits) over the stage-k levels,
    without their stage-J lifts: resolved at each m in ms (a range of step
    1 or a sorted list), escaped at each m from ms[0] to ms[-1].

    With Z = max|m|, the base is the first stage from the deeper k on taller
    than Z, or J.  _hits and _escapes run there, on the lifts to the base.
    Above it each stage t is r_t copies of stage t-1, which is taller than Z, so only
    adjacent copies c, c+1 meet under T^m; with spacer s_c between them,
    hits_t(m) = r_t hits_{t-1}(m) + sum_{c < r_t - 1} X_t(|m| - s_c).  For
    m > 0, X_t(w) counts the levels of B in the top w levels of stage t-1
    that land on A in its bottom w; m < 0 swaps A and B.  Stage t-1's
    bottom is the base's, and its top is the base's pushed up by S_t, the
    last-column spacers s_{r-1} of the stages between: so X_t(w) =
    X(w - S_t), X read on the base sets where some m needs it, and the
    escapes at J are _escapes at the base height plus S_{J+1}.  Cost: two
    shifted `&`s per lag at the base, and O(Z) adds per distinct spacer above.
    """
    span = range(ms[0], ms[-1] + 1) if ms else ms
    dense = len(span) == len(ms)  # a range, or a list without gaps
    z = max(-span.start, span.stop - 1, 0)
    chain = [build_stage(spec, J)]  # stages from the deeper k to J
    while chain[0].stage > max(a[0], b[0]):
        chain.insert(0, chain[0].prev)
    i = next((i for i, t in enumerate(chain) if t.height > z), len(chain) - 1)
    st, above = chain[i], chain[i + 1:]
    a, b, h = st.occurrence_bits(*a), st.occurrence_bits(*b), st.height
    hits, outs = _hits(a, b, ms), _escapes(b, span, h + sum(t.spacers[-1] for t in above))
    ups = accumulate((t.spacers[-1] for t in above), initial=0)  # S_t
    shifts = [[s + up for s in t.spacers[:-1] if s + up < z] for t, up in zip(above, ups)]
    need = range(min(span.start, 0), max(span.stop, 0)) if dense and any(shifts) else {
        m - s if m > 0 else m + s for m in ms if m for sh in shifts for s in sh}
    neg, pos = range(span.start, min(span.stop, 0)), range(max(span.start, 0), span.stop)
    # X(|w|) where some m needs it: a >> (h + w) & b for m < 0, b >> (h - w) & a for m > 0
    x = {w: (a >> (h + w) & b if w < 0 else b >> (h - w) & a).bit_count() for w in need if w}
    xn = list(map(x.get, range(-1, neg.start - 1, -1), repeat(0))) if above else []
    xp = list(map(x.get, range(1, pos.stop), repeat(0))) if above else []
    for t, sh in zip(above, shifts):
        cross = _cross(xn, sh)[-neg.start:-neg.stop:-1] if neg else []
        cross += _cross(xp, sh)[pos.start:] if pos else []
        cross = cross if dense else [cross[m - span.start] for m in ms]
        hits = list(map(add, map(t.cut.__mul__, hits), cross))
    return hits, outs


def _cross(x: List[int], shifts: Sequence[int]) -> List[int]:
    """y[d] = sum over s in shifts of X(d - s), for d = 0..len(x), where
    X(w) = x[w - 1] for w >= 1 and 0 below."""
    y = [0] * (len(x) + 1)
    for s, n in Counter(shifts).items():
        y[s + 1:] = map(add, y[s + 1:], x if n == 1 else [n * v for v in x])
    return y


def _hits(a: int, b: int, ms: Iterable[int]) -> List[int]:
    """The levels i of B with i + m in A, for each shift m in ms."""
    return [(a & (b >> -m) if m < 0 else a >> m & b).bit_count() for m in ms]


def _escapes(b: int, ms: range, h: int) -> List[int]:
    """The levels i of B with i + m outside [0, h), for each m in the step-1 range ms."""
    neg, pos = range(ms.start, min(ms.stop, 0)), range(max(ms.start, 0), ms.stop)
    below = _edge(b, range(-neg[-1], 1 - neg[0]), h, False)[::-1] if neg else []
    return below + (_edge(b, pos, h, True) if pos else [])


def _edge(b: int, ds: range, h: int, top: bool) -> List[int]:
    """Ones of b in its d top (or bottom) levels of [0, h), each d in ds."""
    d0, d1 = min(ds[0], h), min(ds[-1], h)
    w = d1 - d0
    bits = f"{(b >> (h - d1 if top else d0)) & ((1 << w) - 1) | 1 << w:b}"[1:]
    base = (b >> (h - d0) if top else b & ((1 << d0) - 1)).bit_count()
    counts = list(accumulate(map(int, bits if top else bits[::-1]), initial=base))
    return counts + counts[-1:] * (len(ds) - len(counts))


def _bounds(keys: range, hits: List[int], outs: List[int], cap: int,
            unit: Fraction) -> BoundSeries:
    """{key: [hit, min(hit + out, cap)] times unit}, over unit's denominator."""
    n = unit.numerator
    return BoundSeries(keys, [hit * n for hit in hits],
                       [min(hit + out, cap) * n for hit, out in zip(hits, outs)],
                       unit.denominator)


@dataclass(frozen=True)
class ReturnProfile:
    """Bounds on a^z_j at resolution J for z = 0..z_max.

    Entries with z >= h_J are vacuous [0, 1] enclosures (no occurrence can
    resolve that far at this resolution); their z values are listed in
    `degenerate` so callers can tell a weak bound from an uninformative one.
    A plain {z: MeasureBound} dict given as values is made a BoundSeries.
    """

    j: int
    J: int
    values: BoundSeries
    degenerate: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.values, BoundSeries):
            object.__setattr__(self, "values", BoundSeries.of(self.values))

    @property
    def z_max(self) -> int:
        return self.values.domain[-1]

    def __getitem__(self, z: int) -> MeasureBound:
        return self.values[z]


def _check_resolution(j: int, J: int) -> None:
    if not (1 <= j <= J):
        raise SpecError(f"need 1 <= j <= J, got j={j}, J={J}")


def return_profile(spec: ConstructionSpec, j: int, J: int, z_max: int) -> ReturnProfile:
    _check_resolution(j, J)
    zs = _entries(z_max, "z_max")
    hits, outs = _stage_counts(spec, (j, 1), (j, 1), zs, J)  # hits[0] = |S|
    values = _bounds(zs, hits, outs, hits[0], Fraction(1, hits[0]))
    return ReturnProfile(j=j, J=J, values=values,
                         degenerate=frozenset(range(build_stage(spec, J).height, z_max + 1)))


def max_profile(profile: ReturnProfile, z_lo: int = 0) -> MeasureBound:
    """Enclosure of max a^z over z in (z_lo, z_max]: componentwise max of
    the lower and the upper bounds."""
    start = bisect_right(profile.values.domain, z_lo)
    if start == len(profile.values):
        raise SpecError(f"empty range: no profile entries above z={z_lo}")
    return profile.values.maximum(start)


def window_sums(profile: ReturnProfile, q: int) -> BoundSeries:
    """Bounds on the window sums sum_{w=z}^{z+q} a^w for every z the profile
    covers in full, as differences of prefix sums of the bounds."""
    if q < 0:
        raise SpecError("window length q must be nonnegative")
    z_max, s = profile.z_max, profile.values
    if q > z_max:
        raise SpecError(f"window 0..{q} exceeds the profile range 0..{z_max}")
    if s.domain[0] != 0 or len(s) != z_max + 1:
        raise SpecError(f"the profile does not hold every z in 0..{z_max}")
    lo, hi = (list(accumulate(v, initial=0)) for v in (s.lo, s.hi))
    return BoundSeries(range(z_max - q + 1), list(map(sub, lo[q + 1:], lo)),
                       list(map(sub, hi[q + 1:], hi)), s.den)


@dataclass(frozen=True)
class CorrelationSeries:
    """Bounds on mu(A intersect T^m B) in raw interval-length units.

    target is mu(A) mu(B) / normalization, the mixing limit expressed in the
    same units, where normalization is the stage-J ambient measure.  Spacers
    added at later stages enlarge the ambient, so the target itself carries
    stage-J normalization; that caveat travels in `normalization`.
    """

    A: Union[IntervalSet, LevelSet]
    B: Union[IntervalSet, LevelSet]
    values: BoundSeries
    target: Fraction
    normalization: Fraction


def _measure(spec: ConstructionSpec, S: Union[IntervalSet, LevelSet]) -> Fraction:
    """mu(S); a LevelSet's is its level count times w_k."""
    if isinstance(S, LevelSet):
        return S.bits.bit_count() * build_stage(spec, S.k).width
    return S.measure


def correlation(spec: ConstructionSpec, A: SetLike, B: SetLike, m: int, J: int) -> MeasureBound:
    """Bound on mu(A intersect T^m B) at stage J.

    The lower bound is the exact overlap of A with the part of B that T^m
    keeps on the stage-J tower; the mass it moves off could land anywhere,
    so it widens the upper bound, clamped by min(mu A, mu B).
    """
    A, B = as_interval_set(A), as_interval_set(B)
    return _correlations(spec, A, B, range(m, m + 1), J)[m]


def _classes(st: TowerStage, f: Union[Sequence[Segment], IntervalSet, LevelSet],
             ) -> Dict[Segment, LevelSet]:
    """The sorted segments f of a step function, or the indicator of a set,
    cut at the cells of stage st into piece classes {(lo, hi, v): (k, bits)}:
    the part of f in one cell relative to the cell, and the cells holding it
    as level_bits gives them.  f must vanish off [0, M).  A LevelSet of a
    stage up to st's is its own one class [0, 1).  The cut reads each end
    as an integer over one denominator D, in which a cell is W = w D wide."""
    if isinstance(f, LevelSet):
        if f.k <= st.stage:
            return {(0, 1, 1): f}
        f = build_stage(st.spec, f.k).levels_set(bit_indices(f.bits))
    if isinstance(f, IntervalSet):
        f = [(iv.lo, iv.hi, 1) for iv in f.intervals]
    if f and (f[0][0] < 0 or f[-1][1] > st.total):
        raise SpecError("set extends beyond the stage ambient interval")
    w, runs = st.width, {}
    D = math.lcm(w.denominator, *(x.denominator for lo, hi, _ in f for x in (lo, hi)))
    W = w.numerator * (D // w.denominator)
    for lo, hi, v in f:
        (c0, a), (c1, b) = (divmod(x.numerator * (D // x.denominator), W) for x in (lo, hi))
        # [lo, hi) in cells d0..d1-1: within one cell, or head, whole cells, tail
        parts = ([(a, b, c0, c0 + 1)] if c0 == c1 else
                 [(a, W, c0, c0 + 1), (0, W, c0 + 1, c1), (0, b, c1, c1 + 1)])
        for a, b, d0, d1 in parts:
            if a < b and d0 < d1:  # a class's runs are disjoint: ^ joins adjacent ones
                runs.setdefault((a, b, v), set()).symmetric_difference_update((d0, d1))
    return {(Fraction(a, W), Fraction(b, W), v): st.level_bits(sorted(ends))
            for (a, b, v), ends in runs.items()}


def _correlations(spec: ConstructionSpec, A: SetLike, B: SetLike, ms: range, J: int
                  ) -> BoundSeries:
    """correlation for each m in the range ms, in units of w_J / D: over the
    piece classes k of A and l of B (as in average_moments), sum_kl |[lo_k,
    hi_k) cap [lo_l, hi_l)| hits_kl(m) resolved, sum_l (hi_l - lo_l) escapes_l(m)."""
    st = build_stage(spec, J)
    ca = _classes(st, A)
    cb = ca if B == A else _classes(st, B)  # an autocorrelation converts its set once
    D = math.lcm(*(x.denominator for lo, hi, _ in (*ca, *cb) for x in (lo, hi)))
    hits, outs = [0] * len(ms), [0] * len(ms)
    for (lo, hi, _), b in cb.items():
        out = None
        for (lo2, hi2, _), a in ca.items():
            if (n := int((min(hi, hi2) - max(lo, lo2)) * D)) > 0:
                x, out = _stage_counts(spec, a, b, ms, J)
                hits = list(map(add, hits, map(n.__mul__, x)))
        out = out or _stage_counts(spec, (b[0], 0), b, ms, J)[1]  # escapes only
        outs = list(map(add, outs, map(int((hi - lo) * D).__mul__, out)))
    cap = min(_measure(spec, A), _measure(spec, B)) * D // st.width
    return _bounds(ms, hits, outs, cap, st.width / D)


def correlation_series(spec: ConstructionSpec, A: SetLike, B: SetLike, m_max: int,
                       J: int) -> CorrelationSeries:
    A, B = as_interval_set(A), as_interval_set(B)
    values = _correlations(spec, A, B, _entries(m_max, "m_max"), J)
    M = build_stage(spec, J).total
    return CorrelationSeries(A=A, B=B, values=values, normalization=M,
                             target=_measure(spec, A) * _measure(spec, B) / M)
