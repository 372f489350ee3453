"""Averaging machinery for flatness-style arguments.

A weight sequence is a finitely supported probability vector a^z over
nonnegative shifts, counted as integers n_z over one denominator D.  The
operator P f = sum_z a^z (f composed with T^{-z}) pushes each piece of f
forward z steps at a chosen resolution; adjoint composition collapses to
the convolution b^w = sum_z a^{w+z} a^z, and the L2 deviation of P f from
its mean is enclosed exactly, with escaped mass charged at its worst
possible pointwise value.  average_apply sums one segment per piece class
of f and stage-J level into P f; average_moments reads the norm, integral
and escape from stats' two kernels, building neither P f nor a stage-J set.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Dict, Iterable, Tuple, Union

from .construction import ConstructionSpec, LevelSet, bit_indices, build_stage
from .errors import SpecError
from .measure import IntervalSet, MeasureBound, RationalLike, StepFunction, as_fraction
from .stats import _classes, _escapes, _lane_product, _stage_counts

__all__ = [
    "WeightSequence",
    "flatness",
    "adjoint_convolution",
    "average_apply",
    "average_moments",
    "l2_deviation",
]


@dataclass(frozen=True, init=False)
class WeightSequence:
    """Weights a^z >= 0 over z >= 0 summing to exactly 1, as int numerators
    (z, n_z > 0) in shift order over one denominator den, in lowest terms.
    Built from (z, a) pairs, a^z = a / den, with a an int or a rational."""

    numerators: Tuple[Tuple[int, int], ...]
    den: int

    def __init__(self, weights: Iterable[Tuple[int, RationalLike]], den: int = 1):
        if den < 1:
            raise SpecError(f"weight denominator {den} is not positive")
        seen = {}
        for z, a in weights:
            if z < 0:
                raise SpecError(f"weight index {z} is negative")
            a = a if isinstance(a, int) else as_fraction(a)
            if a < 0:
                raise SpecError(f"weight at z={z} is negative")
            if z in seen:
                raise SpecError(f"duplicate weight index {z}")
            seen[z] = a
        D = math.lcm(*(a.denominator * den for a in seen.values()))
        ns = {z: a.numerator * (D // (a.denominator * den)) for z, a in sorted(seen.items()) if a}
        if sum(ns.values()) != D:
            raise SpecError("weights must sum to exactly 1")
        g = math.gcd(D, *ns.values())
        object.__setattr__(self, "numerators", tuple((z, n // g) for z, n in ns.items()))
        object.__setattr__(self, "den", D // g)

    @classmethod
    def uniform(cls, n: int) -> "WeightSequence":
        if n < 1:
            raise SpecError("uniform weights need n >= 1")
        return cls(((z, 1) for z in range(n)), n)

    @property
    def weights(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple((z, Fraction(n, self.den)) for z, n in self.numerators)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(z for z, _ in self.numerators)


def _correlate(xs: Dict[int, int], ys: Dict[int, int]) -> Dict[int, int]:
    """{m: sum_i xs[i + m] ys[i]} over the lags m of some pair, for positive
    ints on nonnegative keys: a pair loop when the keys are sparse, else one
    stats._lane_product with a lane per key lo..hi, xs packed from lo up and
    ys from hi down, so that lane e holds lag e + 1 - n."""
    lo, hi = min([*xs, *ys], default=0), max([*xs, *ys], default=0)
    n, out = hi - lo + 1, {}
    if len(xs) * len(ys) <= 4 * n:
        for (k, x), (i, y) in product(xs.items(), ys.items()):
            out[k - i] = out.get(k - i, 0) + x * y
        return out
    nb = (sum(xs.values()) * sum(ys.values())).bit_length() // 8 + 1
    prod = _lane_product(*(b"".join(d.get(i, 0).to_bytes(nb, order) for i in range(lo, hi + 1))
                           for d, order in ((xs, "little"), (ys, "big"))), nb)
    return {e + 1 - n: v for e in range(2 * n - 1)
            if (v := int.from_bytes(prod[e * nb:(e + 1) * nb], "little"))}


def flatness(w: WeightSequence, q: int = 0) -> Fraction:
    """Largest mass any window of q+1 consecutive shifts carries; q = 0 is
    the largest single weight.  Some window starting at a support point
    carries the largest mass, so only those are summed, from prefix sums."""
    if q < 0:
        raise SpecError("window length q must be nonnegative")
    zs, cum = w.support, list(accumulate((n for _, n in w.numerators), initial=0))
    return Fraction(max(cum[bisect_right(zs, z + q)] - cum[k] for k, z in enumerate(zs)), w.den)


def adjoint_convolution(w: WeightSequence) -> Dict[int, Fraction]:
    """b^w = sum_z a^{w+z} a^z over all integer lags w, positive and
    negative; sums to 1 and never exceeds the flatness of a."""
    ns = dict(w.numerators)
    return {m: Fraction(b, w.den ** 2) for m, b in sorted(_correlate(ns, ns).items())}


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

    Each (level of a piece class (lo, hi, v) of f, shift z) pair adds n_z
    to the class's count n at its target level t, a^z = n_z / D.  The sweep
    StepFunction.summed adds the segments v n / D on (cell(t) + [lo, hi)) w_J.
    """
    if direction not in ("forward", "backward"):
        raise SpecError(f"direction must be forward or backward, got {direction!r}")
    sign = 1 if direction == "forward" else -1
    st = build_stage(spec, J)
    width, h, D = st.width, st.height, w.den
    pieces, escaped = [], Fraction(0)
    for (lo, hi, v), kb in _classes(st, f.segments).items():
        levels = bit_indices(st.occurrence_bits(*kb))
        # count[t]: n_z summed over the pairs landing on level t; the rest escape
        count = [0] * h
        for z, n in w.numerators:
            for t in levels:
                t += sign * z
                if 0 <= t < h:
                    count[t] += n
        escaped += (hi - lo) * (D * len(levels) - sum(count))
        for t, n in enumerate(count):
            if n:
                c = st.cell(t)
                pieces.append(((c + lo) * width, (c + hi) * width, v * n / D))
    return StepFunction.summed(pieces), MeasureBound.exact(escaped * width / D)


def average_moments(spec: ConstructionSpec, w: WeightSequence,
                    f: Union[StepFunction, IntervalSet, LevelSet], J: int,
                    ) -> Tuple[Fraction, Fraction, MeasureBound]:
    """(||P f||^2, integral of P f, escaped) of average_apply(spec, w, f, J),
    forward, without building P f; a set f stands for its indicator.  For
    the piece classes k = (lo_k, hi_k, v_k) of f (`stats._classes`) on level
    sets S_k, tail_k(z) the levels of S_k that z pushes off the top, b_m =
    sum_z n_{z+m} n_z, X_kl(m) = #{u in S_k : u + m in S_l} and c_k(t) =
    sum_z n_z [t - z in S_k]:
      integral = w_J/D sum_k v_k (hi_k - lo_k) sum_z n_z (|S_k| - tail_k(z))
      escaped = w_J/D sum_k (hi_k - lo_k) sum_z n_z tail_k(z)
      ||P f||^2 = w_J/D^2 sum_kl v_k v_l |[lo_k, hi_k) cap [lo_l, hi_l)|
                  (sum_m b_m X_kl(m) - sum_{t >= h_J} c_k(t) c_l(t))
    Shifts z >= h_J only escape.  Cost: one stats._stage_counts per class
    pair at b's lags and 0, and one stats._escapes a class at 0..L, L < h_J the last z.
    """
    st = build_stage(spec, J)
    h, width, D = st.height, st.width, w.den
    near = {z: n for z, n in w.numerators if z < h}
    L = max(near, default=0)
    # b_m for m >= 0, with b_{-m} = b_m folded in
    b = {m: (2 if m else 1) * v for m, v in _correlate(near, near).items() if m >= 0}
    lags = sorted({*b, 0})
    classes = []
    for piece, kb in _classes(st, f.segments if isinstance(f, StepFunction) else f).items():
        hits, tails = _stage_counts(spec, kb, kb, lags, J), _escapes(spec, kb, range(L + 1), J)
        out = (D - sum(near.values())) * hits[0] + sum(n * tails[z] for z, n in near.items())
        # c_k(h - 1 + m) = c[m]; level h - 1 - r is in S_k iff tail_k steps at r
        top = {r: 1 for r in range(L) if tails[r + 1] > tails[r]}
        classes.append((piece, kb, hits, out, _correlate(near, top)))
    sq = integral = escaped = Fraction(0)
    for (lo, hi, v), kb, hits, out, c in classes:
        integral += v * (hi - lo) * (D * hits[0] - out)
        escaped += (hi - lo) * out
        for (lo2, hi2, v2), kb2, _, _, c2 in classes:
            if min(hi, hi2) > max(lo, lo2):
                x = hits if kb2 == kb else _stage_counts(spec, kb2, kb, lags, J)
                pairs = sum(b.get(m, 0) * n for m, n in zip(lags, x))
                pairs -= sum(y * c2.get(m, 0) for m, y in c.items() if m > 0)
                sq += v * v2 * (min(hi, hi2) - max(lo, lo2)) * pairs
    return (width * sq / (D * D), width * integral / D,
            MeasureBound.exact(width * escaped / D))


def l2_deviation(Pf: Union[StepFunction, Tuple[Fraction, Fraction]],
                 mean: RationalLike, escaped: MeasureBound,
                 ambient_measure: RationalLike,
                 sup_f: RationalLike) -> MeasureBound:
    """Enclosure of the squared L2 distance of P f from a constant mean over
    the ambient interval.  Pf is P f, or its (||P f||^2, integral of P f)
    from average_moments.

    The computed P f can differ from the true one only on escaped support,
    where both lie within sup|f| of zero; each unit of escaped measure moves
    the integral by at most (sup|f| + |mean|)^2.  sup_f must bound |f| for
    the f that P was applied to: the computed P f is zero where mass
    escaped, so its own sup does not bound the true P f.
    """
    sq, integral = (Pf.l2_norm_sq(), Pf.integral()) if isinstance(Pf, StepFunction) else Pf
    mean, M = as_fraction(mean), as_fraction(ambient_measure)
    if M <= 0:
        raise SpecError("ambient measure must be positive")
    s = abs(as_fraction(sup_f))
    d0 = sq - 2 * mean * integral + mean * mean * M
    slack = (s + abs(mean)) ** 2 * escaped.hi
    return MeasureBound(max(Fraction(0), d0 - slack), d0 + slack)
