"""Return-time statistics with two-sided bounds.

Sets made of whole stage-J levels are held as int bitsets over the levels,
and one kernel, `_overlap`, resolves mu(A intersect T^m B) on them: the
levels i of B with i + m in A are the popcount of a shifted `&`, and the
levels pushed past the top (m > 0) or below the bottom (m < 0) escape, so
their mass, w_J apiece, could land anywhere and widens the upper bound.

The conditional return quantity a^z_j = mu(T^z E_j | E_j) is that overlap
with A = B = E_j, held as its occurrence bitset.  Dividing by
mu(E_j) = |S| w_J keeps everything rational and makes the unknown global
normalization cancel.  Correlations of level unions run the same kernel,
converting A and B once per call; any other set goes through power_image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Dict, FrozenSet, Iterable, Tuple, Union

from .construction import ConstructionSpec, build_stage
from .errors import SpecError
from .measure import (Interval, IntervalSet, MeasureBound, as_interval_set,
                      set_intersection)
from .transform import power_image

__all__ = [
    "ReturnProfile",
    "CorrelationSeries",
    "return_profile",
    "max_profile",
    "window_sums",
    "correlation",
    "correlation_series",
]


def _overlap(a: int, b: int, m: int, h: int) -> Tuple[int, int]:
    """(resolved, escaped) level counts of A intersect T^m B for level
    bitsets a, b of a height-h tower: the levels i of B with i + m in A,
    and those with i + m outside [0, h)."""
    if m >= 0:
        return ((a >> m) & b).bit_count(), (b >> max(h - m, 0)).bit_count()
    return (a & (b >> -m)).bit_count(), (b & ((1 << min(-m, h)) - 1)).bit_count()


@dataclass(frozen=True)
class ReturnProfile:
    """Bounds on a^z_j at resolution J for z = 0..z_max.

    Entries with z >= h_J are vacuous [0, 1] enclosures (no occurrence can
    resolve that far at this resolution); their z values are listed in
    `degenerate` so callers can tell a weak bound from an uninformative one.
    """

    j: int
    J: int
    values: Dict[int, MeasureBound]
    degenerate: FrozenSet[int] = field(default_factory=frozenset)

    @property
    def z_max(self) -> int:
        return max(self.values)

    def __getitem__(self, z: int) -> MeasureBound:
        return self.values[z]


def return_profile(spec: ConstructionSpec, j: int, J: int, z_max: int) -> ReturnProfile:
    if not (1 <= j <= J):
        raise SpecError(f"need 1 <= j <= J, got j={j}, J={J}")
    if z_max < 0:
        raise SpecError("z_max must be nonnegative")
    st = build_stage(spec, J)
    B = st.occurrence_bits(j)
    count = B.bit_count()
    h = st.height
    values: Dict[int, MeasureBound] = {}
    for z in range(z_max + 1):
        hit, tail = _overlap(B, B, z, h)
        lo = Fraction(hit, count)
        values[z] = MeasureBound(lo, lo + Fraction(tail, count))
    return ReturnProfile(j=j, J=J, values=values,
                         degenerate=frozenset(range(h, z_max + 1)))


def max_profile(profile: ReturnProfile, z_lo: int = 0) -> MeasureBound:
    """Enclosure of max a^z over z in (z_lo, z_max]: componentwise max of
    the lower and the upper bounds."""
    zs = [z for z in profile.values if z > z_lo]
    if not zs:
        raise SpecError(f"empty range: no profile entries above z={z_lo}")
    lo = max(profile.values[z].lo for z in zs)
    hi = max(profile.values[z].hi for z in zs)
    return MeasureBound(lo, hi)


def window_sums(profile: ReturnProfile, q: int) -> Dict[int, MeasureBound]:
    """Bounds on the window sums sum_{w=z}^{z+q} a^w for every z the profile
    covers in full, as differences of prefix sums of the bounds."""
    if q < 0:
        raise SpecError("window length q must be nonnegative")
    z_max = profile.z_max
    if q > z_max:
        raise SpecError(f"window 0..{q} exceeds the profile range 0..{z_max}")
    bounds = [profile.values[z] for z in range(z_max + 1)]
    lo = list(accumulate((b.lo for b in bounds), initial=Fraction(0)))
    hi = list(accumulate((b.hi for b in bounds), initial=Fraction(0)))
    return {z: MeasureBound(lo[z + q + 1] - lo[z], hi[z + q + 1] - hi[z])
            for z in range(z_max - q + 1)}


@dataclass(frozen=True)
class CorrelationSeries:
    """Bounds on mu(A intersect T^m B) in raw interval-length units.

    target is mu(A) mu(B) / normalization, the mixing limit expressed in the
    same units, where normalization is the stage-J ambient measure.  Spacers
    added at later stages enlarge the ambient, so the target itself carries
    stage-J normalization; that caveat travels in `normalization`.
    """

    A: IntervalSet
    B: IntervalSet
    values: Dict[int, MeasureBound]
    target: Fraction
    normalization: Fraction


def correlation(spec: ConstructionSpec, A: Union[IntervalSet, Interval],
                B: Union[IntervalSet, Interval], m: int, J: int) -> MeasureBound:
    """Bound on mu(A intersect T^m B) via the stage-J image of B.

    The lower bound is the exact overlap with the resolved image; escaped
    mass could in principle land anywhere, so it widens the upper bound,
    clamped by min(mu A, mu B).
    """
    return _correlations(spec, as_interval_set(A), as_interval_set(B), (m,), J)[m]


def _correlations(spec: ConstructionSpec, A: IntervalSet, B: IntervalSet,
                  ms: Iterable[int], J: int) -> Dict[int, MeasureBound]:
    """correlation for each m in ms, with A and B made bitsets once."""
    st = build_stage(spec, J)
    a = st.level_bits(A)
    b = st.level_bits(B) if a is not None else None
    values: Dict[int, MeasureBound] = {}
    for m in ms:
        if b is None:
            img, escaped = power_image(spec, B, m, J)
            lo = set_intersection(A, img).measure
            esc = escaped.hi
        else:
            hit, out = _overlap(a, b, m, st.height)
            lo, esc = hit * st.width, out * st.width
        hi = min(lo + esc, A.measure, B.measure)
        values[m] = MeasureBound(lo, max(lo, hi))
    return values


def correlation_series(spec: ConstructionSpec, A: Union[IntervalSet, Interval],
                       B: Union[IntervalSet, Interval], m_max: int,
                       J: int) -> CorrelationSeries:
    A, B = as_interval_set(A), as_interval_set(B)
    if m_max < 0:
        raise SpecError("m_max must be nonnegative")
    M = build_stage(spec, J).total
    values = _correlations(spec, A, B, range(m_max + 1), J)
    return CorrelationSeries(A=A, B=B, values=values,
                             target=A.measure * B.measure / M, normalization=M)
