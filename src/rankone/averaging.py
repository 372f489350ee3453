"""Averaging machinery for flatness-style arguments.

A weight sequence is a finitely supported probability vector a^z over
nonnegative shifts.  The operator P f = sum_z a^z (f composed with T^{-z})
pushes each piece of f forward z steps at a chosen resolution; adjoint
composition collapses to the convolution b^w = sum_z a^{w+z} a^z, and the
L2 deviation of P f from its mean is enclosed exactly, with escaped mass
charged at its worst possible pointwise value.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from typing import Dict, List, Tuple

from .construction import ConstructionSpec, build_stage
from .errors import SpecError
from .measure import (Interval, IntervalSet, MeasureBound, RationalLike,
                      StepFunction, as_fraction)

Segment = Tuple[Fraction, Fraction, Fraction]

__all__ = [
    "WeightSequence",
    "flatness",
    "adjoint_convolution",
    "average_apply",
    "l2_deviation",
]


@dataclass(frozen=True)
class WeightSequence:
    """Finitely supported weights a^z >= 0 over z >= 0 with sum exactly 1."""

    weights: Tuple[Tuple[int, Fraction], ...]

    def __post_init__(self):
        seen = {}
        for z, a in self.weights:
            if z < 0:
                raise SpecError(f"weight index {z} is negative")
            a = as_fraction(a)
            if a < 0:
                raise SpecError(f"weight at z={z} is negative")
            if z in seen:
                raise SpecError(f"duplicate weight index {z}")
            seen[z] = a
        kept = tuple(sorted((z, a) for z, a in seen.items() if a > 0))
        if sum((a for _, a in kept), Fraction(0)) != 1:
            raise SpecError("weights must sum to exactly 1")
        object.__setattr__(self, "weights", kept)

    @classmethod
    def from_dict(cls, weights: Dict[int, RationalLike]) -> "WeightSequence":
        return cls(tuple((z, as_fraction(a)) for z, a in weights.items()))

    @classmethod
    def delta(cls, z: int = 0) -> "WeightSequence":
        return cls(((z, Fraction(1)),))

    @classmethod
    def uniform(cls, n: int) -> "WeightSequence":
        if n < 1:
            raise SpecError("uniform weights need n >= 1")
        return cls(tuple((z, Fraction(1, n)) for z in range(n)))

    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.weights)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(z for z, _ in self.weights)


def flatness(w: WeightSequence, q: int = 0) -> Fraction:
    """Largest mass any window of q+1 consecutive shifts carries; q = 0 is
    the largest single weight.  Some window starting at a support point
    carries the largest mass, so only those are summed, from prefix sums."""
    if q < 0:
        raise SpecError("window length q must be nonnegative")
    zs = w.support
    cum = list(accumulate((a for _, a in w.weights), initial=Fraction(0)))
    return max(cum[bisect_right(zs, z + q)] - cum[k] for k, z in enumerate(zs))


def adjoint_convolution(w: WeightSequence) -> Dict[int, Fraction]:
    """b^w = sum_z a^{w+z} a^z over all integer lags w, positive and
    negative; sums to 1 and never exceeds the flatness of a."""
    d = w.as_dict()
    out: Dict[int, Fraction] = {}
    for z1, a1 in d.items():
        for z2, a2 in d.items():
            lag = z1 - z2
            out[lag] = out.get(lag, Fraction(0)) + a1 * a2
    return dict(sorted(out.items()))


def average_apply(spec: ConstructionSpec, w: WeightSequence, f: StepFunction,
                  J: int, direction: str = "forward",
                  ) -> Tuple[StepFunction, MeasureBound]:
    """P f = sum_z a^z (f composed with T^{-z}) at resolution J.

    Mass on stage-J level i moves z levels up (down for
    direction="backward", giving the adjoint); mass pushed past the top
    (below the bottom) escapes, and escaped support measure accumulates
    weighted by a^z.  The returned function is exact on resolved mass and
    silently zero where mass escaped.  f must vanish off the stage-J
    ambient interval [0, M_J).

    f is cut at stage-J cell boundaries into pieces (lo, hi, v), the part
    of f in one cell relative to the cell in units of w_J; a run of whole
    cells is one slice of the level table.  Each (piece, shift) pair adds
    one integer hit to its target level, counted per weighted piece (lo,
    hi, a^z v).  The levels are read in cell order, and each distinct
    hit-count vector is summed once and laid on every cell of its run.
    That costs |pieces of f| * |w| integer adds plus O(h_J) per weighted
    piece.
    """
    if direction not in ("forward", "backward"):
        raise SpecError(f"direction must be forward or backward, got {direction!r}")
    sign = 1 if direction == "forward" else -1
    st = build_stage(spec, J)
    if f.segments and (f.segments[0][0] < 0 or f.segments[-1][1] > st.total):
        raise SpecError("set extends beyond the stage ambient interval")
    if not f.segments:
        return StepFunction.zero(), MeasureBound.zero()
    width, h = st.width, st.height
    level_at = [0] * h
    for i, c in enumerate(st.level_cells()):
        level_at[c] = i
    # support[(lo, hi, v)]: the levels whose cell holds that piece of f
    support: Dict[Segment, List[int]] = {}
    for lo, hi, v in f.segments:
        x0, x1 = lo / width, hi / width
        c0, c1 = math.ceil(x0), math.floor(x1)
        if c0 > c1:
            support.setdefault((x0 - c1, x1 - c1, v), []).append(level_at[c1])
            continue
        if x0 < c0:
            support.setdefault((x0 - c0 + 1, 1, v), []).append(level_at[c0 - 1])
        if c0 < c1:
            support.setdefault((0, 1, v), []).extend(level_at[c0:c1])
        if c1 < x1:
            support.setdefault((0, x1 - c1, v), []).append(level_at[c1])
    # hits[(lo, hi, a v)][t]: the (piece, shift) pairs with weight a that
    # land on level t; pairs whose target leaves the tower escape
    shifts: Dict[Fraction, List[int]] = {}
    for z, a in w.weights:
        shifts.setdefault(a, []).append(sign * z)
    hits: Dict[Segment, List[int]] = {}
    escaped = Fraction(0)
    for a, offsets in shifts.items():
        for (lo, hi, v), levels in support.items():
            count = hits.setdefault((lo, hi, a * v), [0] * h)
            n_out = 0
            for off in offsets:
                for i in levels:
                    t = i + off
                    if 0 <= t < h:
                        count[t] += 1
                    else:
                        n_out += 1
            escaped += a * (hi - lo) * n_out
    # walk the levels in cell order, one run per equal count vector
    counts = list(zip(*hits.values()))
    cell_sums: Dict[Tuple[int, ...], List[Segment]] = {}
    pieces = []
    c = 0
    for key, run in groupby(counts[i] for i in level_at):
        n = len(list(run))
        parts = cell_sums.get(key)
        if parts is None:
            parts = cell_sums[key] = _cell_sum(hits, key)
        if len(parts) == 1 and parts[0][:2] == (0, 1):
            spans = [(c, c + n, parts[0][2])]
        else:
            spans = [(k + lo, k + hi, v) for k in range(c, c + n)
                     for lo, hi, v in parts]
        pieces.extend((IntervalSet((Interval(lo * width, hi * width),)), v)
                      for lo, hi, v in spans)
        c += n
    return StepFunction.from_pieces(pieces), MeasureBound.exact(escaped * width)


def _cell_sum(hits, key) -> List[Segment]:
    """The sum of n * (lo, hi, c) over the weighted pieces hit n times, as
    nonzero segments of the unit cell."""
    terms = [(lo, hi, c * n) for (lo, hi, c), n in zip(hits, key) if n]
    cuts = sorted({x for lo, hi, _ in terms for x in (lo, hi)})
    sums = [(lo, hi, sum(v for a, b, v in terms if a <= lo < b))
            for lo, hi in zip(cuts, cuts[1:])]
    return [s for s in sums if s[2]]


def l2_deviation(Pf: StepFunction, mean: RationalLike, escaped: MeasureBound,
                 ambient_measure: RationalLike,
                 sup_f: RationalLike) -> MeasureBound:
    """Enclosure of the squared L2 distance of P f from a constant mean over
    the ambient interval.

    The computed P f can differ from the true one only on escaped support,
    where both lie within sup|f| of zero; each unit of escaped measure moves
    the integral by at most (sup|f| + |mean|)^2.  sup_f must bound |f| for
    the f that P was applied to: the computed P f is zero where mass
    escaped, so its own sup does not bound the true P f.
    """
    mean = as_fraction(mean)
    M = as_fraction(ambient_measure)
    if M <= 0:
        raise SpecError("ambient measure must be positive")
    s = abs(as_fraction(sup_f))
    d0 = Pf.l2_norm_sq() - 2 * mean * Pf.integral() + mean * mean * M
    c = (s + abs(mean)) ** 2
    slack = c * escaped.hi
    return MeasureBound(max(Fraction(0), d0 - slack), d0 + slack)
