"""Averaging machinery for flatness-style arguments.

A weight sequence is a finitely supported probability vector a^z over
nonnegative shifts.  The operator P f = sum_z a^z (f composed with T^{-z})
pushes each piece of f forward z steps at a chosen resolution; adjoint
composition collapses to the convolution b^w = sum_z a^{w+z} a^z, and the
L2 deviation of P f from its mean is enclosed exactly, with escaped mass
charged at its worst possible pointwise value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from .construction import ConstructionSpec, TowerStage, build_stage
from .errors import SpecError
from .measure import (
    Interval,
    IntervalSet,
    MeasureBound,
    RationalLike,
    StepFunction,
    as_fraction,
)
from .transform import power_image

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
    the largest single weight."""
    if q < 0:
        raise SpecError("window length q must be nonnegative")
    d = w.as_dict()
    if not d:
        return Fraction(0)
    zs = sorted(d)
    best = Fraction(0)
    for start in range(max(0, zs[0] - q), zs[-1] + 1):
        s = sum((d.get(z, Fraction(0)) for z in range(start, start + q + 1)),
                Fraction(0))
        if s > best:
            best = s
    return best


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

    Two paths give the same result.  When f is constant on every stage-J
    level (every segment endpoint a multiple of w_J), P f is computed on
    the levels, with no power_image call: each (support level, shift)
    pair adds one integer hit to its target level, counted per distinct
    coefficient a^z v, and the levels are read in cell order into one
    StepFunction.from_pieces.  That costs |supp f| * |w| integer adds
    plus O(h_J) per coefficient.  Any other f takes the interval path:
    each constant piece rides through power_image once per shift, O(cells
    of the piece * J) per (shift, piece), and the images are summed with
    StepFunction.add.
    """
    if direction not in ("forward", "backward"):
        raise SpecError(f"direction must be forward or backward, got {direction!r}")
    sign = 1 if direction == "forward" else -1
    st = build_stage(spec, J)
    if f.segments and (f.segments[0][0] < 0 or f.segments[-1][1] > st.total):
        raise SpecError("set extends beyond the stage ambient interval")
    on_levels = _average_on_levels(st, w, f, sign)
    if on_levels is not None:
        return on_levels
    return _average_by_pieces(spec, w, f, J, sign)


def _average_on_levels(st: TowerStage, w: WeightSequence, f: StepFunction,
                       sign: int) -> Optional[Tuple[StepFunction, MeasureBound]]:
    """P f on the levels of stage st, or None when f is not constant on
    every level of st."""
    if not f.segments:
        return StepFunction.zero(), MeasureBound.zero()
    width, h = st.width, st.height
    level_at = [0] * h
    for i, c in enumerate(st.level_cells()):
        level_at[c] = i
    support: Dict[Fraction, List[int]] = {}
    for lo, hi, v in f.segments:
        c0, c1 = lo / width, hi / width
        if c0.denominator != 1 or c1.denominator != 1:
            return None
        support.setdefault(v, []).extend(level_at[int(c0):int(c1)])
    # hits[c][t]: the (level, shift) pairs with coefficient c = a v that
    # land on level t; lost[a]: the pairs with weight a whose target
    # leaves the tower
    shifts: Dict[Fraction, List[int]] = {}
    for z, a in w.weights:
        shifts.setdefault(a, []).append(sign * z)
    hits: Dict[Fraction, List[int]] = {}
    lost: Dict[Fraction, int] = {}
    for a, offsets in shifts.items():
        n_out = 0
        for v, levels in support.items():
            count = hits.setdefault(a * v, [0] * h)
            for off in offsets:
                for i in levels:
                    t = i + off
                    if 0 <= t < h:
                        count[t] += 1
                    else:
                        n_out += 1
        lost[a] = n_out
    # P f is sum_c c * count_c on each level: walk the levels in cell
    # order and make one piece per run of equal count vectors
    counts = list(zip(*hits.values()))
    pieces = []
    lo = Fraction(0)
    for key, run in groupby(counts[i] for i in level_at):
        hi = lo + len(list(run)) * width
        value = sum(c * n for c, n in zip(hits, key))
        if value:
            pieces.append((IntervalSet((Interval(lo, hi),)), value))
        lo = hi
    escaped = sum((a * n for a, n in lost.items()), Fraction(0)) * width
    return StepFunction.from_pieces(pieces), MeasureBound.exact(escaped)


def _average_by_pieces(spec: ConstructionSpec, w: WeightSequence,
                       f: StepFunction, J: int,
                       sign: int) -> Tuple[StepFunction, MeasureBound]:
    """P f by imaging each constant piece of f through power_image."""
    out = StepFunction.zero()
    escaped = Fraction(0)
    for z, a in w.weights:
        for lo, hi, v in f.segments:
            img, esc = power_image(spec, IntervalSet((Interval(lo, hi),)),
                                   sign * z, J)
            escaped += a * esc.hi
            if img.measure > 0:
                out = out.add(StepFunction.indicator(img, a * v))
    return out, MeasureBound.exact(escaped)


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
