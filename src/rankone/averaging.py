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
from typing import Dict, Tuple

from .construction import ConstructionSpec
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

    Each constant piece of f rides forward z steps through power_image
    (backward for direction="backward", giving the adjoint); escaped support
    measure accumulates weighted by a^z.  The returned function is exact on
    resolved mass and silently zero where mass escaped.
    """
    if direction not in ("forward", "backward"):
        raise SpecError(f"direction must be forward or backward, got {direction!r}")
    sign = 1 if direction == "forward" else -1
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
