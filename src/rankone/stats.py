"""Return-time statistics with two-sided bounds.

One kernel, `_stage_counts`, counts mu(A intersect T^m B) at stage J over
a range or list of m, for A and B each whole levels of its own stage k, an
int bitset (k, bits): the levels of B with i + m in A, every lag from one
big-int product of byte lanes or by a shift each (`_lag_counts`), and those
off the tower (`_escapes`, a prefix count per edge), at the first stage
taller than every |m|, plus the pairs crossing between adjacent copies above
it (`_cross`), with no stage-J set.  Interval sets go by piece classes
(`_classes`), one count per class pair.  Escaped mass widens the upper bound.

Bound tables are measure.BoundSeries, the counts as numerators over one
shared denominator: |S| for a^z_j = mu(T^z E_j | E_j), S the occurrences of
E_j (dividing by mu(E_j) = |S| w_J cancels the unknown global
normalization), D/w_J for correlations, D = 1 for unions of whole levels.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, sub
from sys import byteorder
from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

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


# Entries a profile or series may hold.  10^5 cost a staircase return-profile 0.1 s at J=8,
# 0.7 s at J=10 and at J=20: mostly one lane product of the first stage taller than 10^5.
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
    than Z, or J.  _lag_counts and _escapes run there, on the lifts to the base.
    Above it each stage t is r_t copies of stage t-1, which is taller than Z, so only
    adjacent copies c, c+1 meet under T^m; with spacer s_c between them,
    hits_t(m) = r_t hits_{t-1}(m) + sum_{c < r_t - 1} X_t(|m| - s_c).  For
    m > 0, X_t(w) counts the levels of B in the top w levels of stage t-1
    that land on A in its bottom w; m < 0 swaps A and B.  Stage t-1's
    bottom is the base's, and its top is the base's pushed up by S_t, the
    last-column spacers s_{r-1} of the stages between: so X_t(w) =
    X(w - S_t), X(w) the base's lag count at w - h (h + w for w < 0), and the
    escapes at J are _escapes at the base height plus S_{J+1}.  Unrolled,
    that is one _cross of X over every shifted spacer, weighted by the cuts
    above its stage.  Cost: one lane product, or a shift a lag, at the base.
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
    ups = list(accumulate((t.spacers[-1] for t in above), initial=0))  # S_t, then S_{J+1}
    neg, pos = range(span.start, min(span.stop, 0)), range(max(span.start, 0), span.stop)
    outs = _escapes(b, neg, pos, h + ups[-1])
    weights, c = Counter(), 1  # c: the product of the cuts above stage t
    for t, up in zip(reversed(above), reversed(ups[:-1])):
        for s in (s + up for s in t.spacers[:-1] if s + up < z):
            weights[s] += c
        c *= t.cut
    hits, xn, xp = _lag_counts(a, b, h, [ms, range(h + neg.start, h), range(1 - h, pos.stop - h)]
                               if weights else [ms, (), ()])
    hits = list(map(c.__mul__, hits))
    if weights:
        xn.reverse()  # X(-1), X(-2), ...
        cross = _cross(xn, weights)[-neg.start:-neg.stop:-1] if neg else []
        cross += _cross(xp, weights)[pos.start:] if pos else []
        hits = list(map(add, hits, cross if dense else [cross[m - span.start] for m in ms]))
    return hits, outs


def _cross(x: List[int], weights: Dict[int, int]) -> List[int]:
    """y[d] = sum over shifts s of weights[s] X(d - s), for d = 0..len(x), where
    X(w) = x[w - 1] for w >= 1 and 0 below: one pass of x a shift or, when the
    weight steps at fewer shifts b, one pass a step of P, the prefix sums of X:
    y[d] = sum_b (weights[b] - weights[b - 1]) P(d - b), as over runs of shifts."""
    steps = Counter(weights)
    steps.subtract({s + 1: n for s, n in weights.items()})
    steps = [(s, n) for s, n in steps.items() if n]
    v, steps = ((list(accumulate(x, initial=0)), steps) if len(steps) < len(weights)
                else (x, [(s + 1, n) for s, n in weights.items()]))
    y = [0] * (len(x) + 1)
    for s, n in steps:
        y[s:] = map(add, y[s:], v if n == 1 else map(n.__mul__, v))
    return y


def _lag_counts(a: int, b: int, h: int, wants: Sequence[Sequence[int]]) -> List[List[int]]:
    """[popcount(a >> m & b) for m in ms] for each ms in wants, a range of
    step 1 or a sorted list, for a, b below 2^h: a shift a lag, or lane m + h - 1
    of one _lane_product of their bits, B's from the top, one a lane of L
    bytes.  Costs on a 2-core x86-64 VM, CPython 3.11: (0.12 + h/9,500) us a
    shift, 8 + 9e-4 (h L)^1.585 us the product."""
    L = next(w for w in (1, 2, 4) if min(a.bit_count(), b.bit_count()) >> 8 * w == 0)
    if sum(map(len, wants)) * (0.12 + h / 9500) < 8 + 9e-4 * (h * L) ** 1.585:
        return [[(a & (b >> -m) if m < 0 else a >> m & b).bit_count() for m in ms]
                for ms in wants]
    x, y, bit = bytearray(h * L), bytearray(h * L), bytes.maketrans(b"01", b"\0\1")
    x[::L] = format(b, f"0{h}b").encode().translate(bit)  # little-endian lanes
    y[L - 1::L] = format(a, f"0{h}b").encode().translate(bit)  # big-endian lanes
    v = array("BHI"[L.bit_length() - 1], _lane_product(x, y, L))
    if byteorder == "big":
        v.byteswap()
    return [v[ms.start + h - 1:ms.stop + h - 1].tolist()
            if type(ms) is range and 1 - h <= ms.start and ms.stop <= h
            else [v[m + h - 1] if -h < m < h else 0 for m in ms] for ms in wants]


def _lane_product(x: bytes, y: bytes, width: int) -> bytes:
    """Kronecker substitution: lane e of x * y (read little- and big-endian, each a run of
    width-byte lanes) sums x_i y_j over i + j = e, y's lanes counted from its end."""
    return (int.from_bytes(x, "little") * int.from_bytes(y, "big")).to_bytes(
        len(x) + len(y) - width, "little")


def _escapes(b: int, neg: range, pos: range, h: int) -> List[int]:
    """The levels i of B with i + m outside [0, h), for each m in neg, then in pos."""
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
    n, hi = unit.numerator, list(map(min, map(add, hits, outs), repeat(cap)))
    return BoundSeries(keys, *(v if n == 1 else list(map(n.__mul__, v)) for v in (hits, hi)),
                       unit.denominator)


@dataclass(frozen=True)
class ReturnProfile:
    """Bounds on a^z_j at resolution J for z = 0..z_max.

    Entries with z >= h_J are vacuous [0, 1] enclosures (no occurrence can
    resolve that far at this resolution); their z values are listed in
    `degenerate` so callers can tell a weak bound from an uninformative one.
    """

    j: int
    J: int
    values: BoundSeries
    degenerate: FrozenSet[int] = field(default_factory=frozenset)

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
    return _correlations(spec, as_interval_set(A), as_interval_set(B), range(m, m + 1), J)[m]


def _classes(st: TowerStage, f: Union[Sequence[Segment], IntervalSet, LevelSet],
             ) -> Dict[Segment, LevelSet]:
    """The sorted segments f of a step function, or the indicator of a set,
    cut at the cells of stage st into piece classes {(lo, hi, v): (k, bits)}:
    the part of f in one cell relative to the cell, and the cells holding it
    as level_bits gives them.  f must vanish off [0, M).  A LevelSet of a
    stage up to st's is its own one class [0, 1).  The cut reads each end
    as an integer over one denominator D, in which a cell is W = w D wide.
    A LevelSet with a bit at or past h_k is refused."""
    if isinstance(f, LevelSet):
        stk = build_stage(st.spec, f.k)
        if f.bits >> stk.height:  # a negative int has bits past every height
            raise SpecError(f"level {f.bits.bit_length() - 1} outside stage {f.k} "
                            f"(height {stk.height})")
        if f.k <= st.stage:
            return {(0, 1, 1): f}
        f = stk.levels_set(bit_indices(f.bits))
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
