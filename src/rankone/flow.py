"""Discrete skeletons of a flow pair on a rational time grid.

A flow is represented only through the tower map S it induces on a time
grid of mesh t_j = 1/q: the pair (time-alpha flow, flow) with rational
alpha = p/q' becomes the pair of powers (S^p, S^q').  Thickened bases,
windowed return statistics, and the two band families all live on this
grid; continuous-time objects are out of scope, and irrational alpha is
not representable here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from typing import FrozenSet, Iterable, Iterator, Optional

from .construction import ConstructionSpec, build_stage
from .errors import SpecError
from .joinings import BlockIndex, BlockMassMatrix
from .measure import BoundSeries, IntervalSet, MeasureBound, as_fraction
from .stats import correlation, return_profile, window_sums

__all__ = [
    "FlowSkeletonSpec",
    "ThickenedBase",
    "FlowWindowReport",
    "ConsequenceRecord",
    "thickened_base",
    "windowed_return_flow",
    "consequence_check",
    "band_indices",
    "band_masses",
]


@dataclass(frozen=True)
class FlowSkeletonSpec:
    """Grid skeleton: base construction, grid fineness q = 1/t_j, and the
    speed ratio alpha = p/q' > 1 realized as the power pair (S^p, S^q')."""

    base: ConstructionSpec
    grid_inverse: int
    alpha: Fraction

    def __post_init__(self):
        if not isinstance(self.grid_inverse, int) or self.grid_inverse < 1:
            raise SpecError("grid_inverse must be a positive integer")
        a = as_fraction(self.alpha)
        if a <= 1:
            raise SpecError(f"alpha must exceed 1, got {a}")
        object.__setattr__(self, "alpha", a)

    @property
    def t(self) -> Fraction:
        return Fraction(1, self.grid_inverse)

    @classmethod
    def doubled(cls, base: ConstructionSpec, grid_inverse: int = 1,
                ) -> "FlowSkeletonSpec":
        """The default pair (S^2, S)."""
        return cls(base=base, grid_inverse=grid_inverse, alpha=Fraction(2))


@dataclass(frozen=True)
class ThickenedBase:
    j: int
    E1: IntervalSet
    coarse_levels: int

    @property
    def measure(self) -> Fraction:
        return self.E1.measure


def thickened_base(fspec: FlowSkeletonSpec, j: int, J: int,
                   q: Optional[int] = None) -> ThickenedBase:
    """Union of the bottom q+1 levels of tower j (the base swept for one
    coarse grid step).  q defaults to the skeleton's grid_inverse; q = 0
    degenerates to the plain base.
    """
    q = fspec.grid_inverse if q is None else q
    if q < 0:
        raise SpecError("thickening q must be nonnegative")
    if j > J:
        raise SpecError(f"need j <= J, got j={j}, J={J}")
    st = build_stage(fspec.base, j)
    if q + 1 > st.height:
        raise SpecError(f"thickening q+1 = {q + 1} exceeds tower height "
                        f"{st.height} at stage {j}")
    E1 = st.levels_set(range(q + 1))
    coarse = st.height // q if q >= 1 else st.height
    return ThickenedBase(j=j, E1=E1, coarse_levels=coarse)


@dataclass(frozen=True)
class FlowWindowReport:
    j: int
    J: int
    q: int
    values: BoundSeries
    max_bound: MeasureBound


def windowed_return_flow(fspec: FlowSkeletonSpec, j: int, J: int,
                         z_range: Iterable[int],
                         q: Optional[int] = None) -> FlowWindowReport:
    """Return-profile mass of windows [z, z+q] for each requested z, plus
    the componentwise max over the range.  The window values are computed
    by statistics.window_sums on the stage profile, so they agree with it
    exactly.  q defaults to the skeleton's grid_inverse; q = 0 degenerates
    to the plain return profile.  An ascending range is used without listing it."""
    zs = (z_range if isinstance(z_range, range) and z_range.step > 0
          else tuple(sorted(set(z_range))))
    if not zs:
        raise SpecError("z_range is empty")
    if zs[0] < 0:
        raise SpecError("window starts must be nonnegative")
    q = fspec.grid_inverse if q is None else q
    if q < 0:
        raise SpecError("window length q must be nonnegative")
    prof = return_profile(fspec.base, j, J, zs[-1] + q)
    ws = window_sums(prof, q)
    values = BoundSeries(zs, [ws.lo[z] for z in zs], [ws.hi[z] for z in zs], ws.den)
    return FlowWindowReport(j=j, J=J, q=q, values=values, max_bound=values.maximum())


@dataclass(frozen=True)
class ConsequenceRecord:
    """Two independent enclosures of mu(E1_j intersect T^z E_j): the window
    route (profile sums rescaled by mu(E_j)) and the geometric route
    (resolved image intersection widened by escape)."""

    j: int
    J: int
    z: int
    window_route: MeasureBound
    geometric_route: MeasureBound

    @property
    def consistent(self) -> bool:
        return self.window_route.overlaps(self.geometric_route)


def consequence_check(fspec: FlowSkeletonSpec, j: int, J: int,
                      z: int) -> ConsequenceRecord:
    """Cross-check the thickened-base overlap mu(E1_j intersect T^z E_j)
    two ways.

    The routes attribute unresolved escape differently (per window shift
    versus once for the whole image), so the enclosures need not coincide;
    each encloses the true overlap, hence they must intersect.  When the
    image resolves with no escape the geometric route is exact.

    The geometric route is correlation(base, E1_j, E_j, z, J): the resolved
    overlap widened by the escaped mass of T^z E_j.  Its clamp by
    min(mu E1_j, mu E_j) never binds, because E_j lies in E1_j and the
    resolved and escaped parts of T^z E_j are disjoint.
    """
    q = fspec.grid_inverse
    if z < q:
        raise SpecError(f"need z >= grid_inverse for the window route, "
                        f"got z={z} < q={q}")
    st = build_stage(fspec.base, j)
    prof = return_profile(fspec.base, j, J, z)
    ws = window_sums(prof, q)
    window = ws[z - q].scale(st.width)
    e1 = thickened_base(fspec, j, J).E1
    geometric = correlation(fspec.base, e1, st.base, z, J)
    return ConsequenceRecord(j=j, J=J, z=z, window_route=window,
                             geometric_route=geometric)


# Blocks one flow band may walk: staircase j = 10 at alpha 2, offset 0 walks 1,218,960.
MAX_TABLE = 1 << 22


def _band(fspec: FlowSkeletonSpec, h_a: int, h_b: int, offset: int, side: str,
          z_bound: Optional[int]) -> Iterator[BlockIndex]:
    """One band's blocks on the stage-j grid, each once, in sorted order.

    side "right" (offset w): blocks (p*z/q' + w, z + h) over grid-aligned z,
    the multiples of q' (alpha = p/q' in lowest terms), with 0 <= z <= h_b - w
    and 0 <= h <= q.  side "left" (offset v): blocks (p*z/q', z + h + v) with
    0 <= z <= z_bound, which must be given.  Only z with z1 < h_a and h with
    z2 < h_b are walked.  Before the first block, an empty band is refused,
    and so is one past MAX_TABLE blocks, q + 1 at most for each z walked.
    """
    p, qp, q = fspec.alpha.numerator, fspec.alpha.denominator, fspec.grid_inverse
    if offset < 0:
        raise SpecError("band offset must be nonnegative")
    if side == "right":
        if offset > h_a - 1:
            raise SpecError(f"band offset w={offset} outside the first tower (height {h_a})")
        z_top, d1, d2 = h_b - offset, offset, 0
    elif side == "left":
        if z_bound is None:
            raise SpecError("left bands need an explicit z_bound")
        if z_bound < 0:
            raise SpecError("z_bound must be nonnegative")
        z_top, d1, d2 = z_bound, 0, offset
    else:
        raise SpecError(f"side must be 'right' or 'left', got {side!r}")
    z_end = max(0, min(z_top + 1, h_b - d2, -(-(h_a - d1) * qp // p)))  # p z / q' + d1 < h_a
    if (n := -(-z_end // qp) * min(q + 1, h_b - d2)) > MAX_TABLE:
        raise SpecError(f"{n} band blocks requested, more than the limit of {MAX_TABLE}")
    if not z_end:
        raise SpecError(f"band ({side}, offset {offset}) is empty after "
                        f"clipping to the tower square")
    for z1, z in zip(count(d1, p), range(d2, z_end + d2, qp)):  # z shifted up by d2
        yield from map(tuple.__new__, repeat(BlockIndex),
                       zip(repeat(z1), range(z, min(z + q + 1, h_b))))


def band_indices(fspec: FlowSkeletonSpec, h_a: int, h_b: int, offset: int, side: str,
                 z_bound: Optional[int] = None) -> FrozenSet[BlockIndex]:
    """Block index set of one band on the stage-j grid: _band's blocks."""
    return frozenset(_band(fspec, h_a, h_b, offset, side, z_bound))


def band_masses(m: BlockMassMatrix, fspec: FlowSkeletonSpec, offset: int,
                side: str, z_bound: Optional[int] = None) -> Fraction:
    """Total matrix mass of one band's blocks, summed as _band walks them."""
    return m.mass_of(_band(fspec, m.h_a, m.h_b, offset, side, z_bound))
