"""Return-time statistics with two-sided bounds.

The conditional return quantity a^z_j = mu(T^z E_j | E_j) is computed
combinatorially from the occurrence set S of E_j inside tower J, held as an
int bitset B over the stage-J levels: each occurrence p with p + z resolving
inside the tower contributes w_J to the numerator exactly when p + z is
again an occurrence, so the resolved count is popcount(B & (B >> z));
occurrences pushed past the top (the bits at or above h_J - z) contribute
undetermined mass, which widens the upper bound by w_J apiece.  Dividing by
mu(E_j) = |S| w_J keeps everything rational and makes the unknown global
normalization cancel.

Correlations of sets made of whole levels use the same bitsets: T^m is a
shift masked to the tower, escaped mass is the popcount of the bits shifted
out, and intersection is `&`.  Any other set goes through power_image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Dict, FrozenSet, Union

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
        lo = Fraction((B & (B >> z)).bit_count(), count)
        tail = (B >> max(h - z, 0)).bit_count()
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
    A, B = as_interval_set(A), as_interval_set(B)
    st = build_stage(spec, J)
    a_bits = st.level_bits(A)
    b_bits = st.level_bits(B) if a_bits is not None else None
    if b_bits is None:
        img, escaped = power_image(spec, B, m, J)
        lo = set_intersection(A, img).measure
        esc = escaped.hi
    else:
        img, out = st.power_bits(b_bits, m)
        lo = (a_bits & img).bit_count() * st.width
        esc = out.bit_count() * st.width
    hi = min(lo + esc, A.measure, B.measure)
    return MeasureBound(lo, max(lo, hi))


def correlation_series(spec: ConstructionSpec, A: Union[IntervalSet, Interval],
                       B: Union[IntervalSet, Interval], m_max: int,
                       J: int) -> CorrelationSeries:
    A, B = as_interval_set(A), as_interval_set(B)
    if m_max < 0:
        raise SpecError("m_max must be nonnegative")
    M = build_stage(spec, J).total
    values = {m: correlation(spec, A, B, m, J) for m in range(m_max + 1)}
    return CorrelationSeries(A=A, B=B, values=values,
                             target=A.measure * B.measure / M, normalization=M)
