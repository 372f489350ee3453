"""The transformation realized at a finite stage.

At stage J the map sends level i onto level i+1 by translation, for every
i < h_J - 1; it is undefined on the top level.  Orbit iteration refines to
the next stage automatically when a point reaches an undefined level, up to
the spec's stage budget.  Set images track the mass that leaves the defined
region exactly, so every result is either exact or a two-sided enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .construction import ConstructionSpec, build_stage
from .errors import OrbitEscaped, SpecError
from .measure import (
    Interval,
    IntervalSet,
    MeasureBound,
    as_fraction,
    canonicalize,
    set_intersection,
)

__all__ = [
    "OrbitPoint",
    "apply_power",
    "power_image",
]


@dataclass(frozen=True)
class OrbitPoint:
    """A point of the ambient interval together with the number of stage
    refinements spent locating its orbit so far."""

    x: Fraction
    history: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", as_fraction(self.x))


class Cursor:
    """Mutable orbit-iteration state: (stage, level index, offset within the
    level).  Stepping is O(1) integer work except at tower tops and bottoms,
    where the representation refines one stage and retries.  The point value
    is materialized only on demand."""

    __slots__ = ("spec", "budget", "stage_obj", "index", "u", "refinements")

    def __init__(self, spec: ConstructionSpec, x, stage_budget: Optional[int] = None):
        x = as_fraction(x)
        self.spec = spec
        self.budget = spec.max_stage if stage_budget is None else min(stage_budget,
                                                                      spec.max_stage)
        if x < 0:
            raise SpecError(f"orbit start {x} below the ambient interval")
        st = None
        for j in range(1, self.budget + 1):
            cand = build_stage(spec, j)
            if x < cand.total:
                st = cand
                break
        if st is None:
            raise SpecError(
                f"orbit start {x} outside the stage-{self.budget} ambient interval")
        self.stage_obj = st
        self.index = st.locate(x)
        self.u = x - st.level_lo(self.index)
        self.refinements = 0

    @property
    def x(self) -> Fraction:
        return self.stage_obj.level_lo(self.index) + self.u

    def _refine(self, steps_done: int) -> None:
        st = self.stage_obj
        if st.stage >= self.budget:
            raise OrbitEscaped(
                f"orbit point {self.x} needs refinement beyond stage {self.budget}",
                point=self.x, stage_budget=self.budget, steps_done=steps_done)
        nxt = build_stage(self.spec, st.stage + 1)
        c = int(self.u // nxt.width)
        self.index = nxt.offsets[c] + self.index
        self.u -= c * nxt.width
        self.stage_obj = nxt
        self.refinements += 1

    def step_forward(self, steps_done: int = 0) -> None:
        while self.index == self.stage_obj.height - 1:
            self._refine(steps_done)
        self.index += 1

    def step_backward(self, steps_done: int = 0) -> None:
        while self.index == 0:
            self._refine(steps_done)
        self.index -= 1

    def advance(self, n: int) -> None:
        step = self.step_forward if n >= 0 else self.step_backward
        for k in range(abs(n)):
            step(k)

    def refine_to(self, j: int, steps_done: int = 0) -> None:
        """Refine the representation until the cursor's stage is at least j."""
        while self.stage_obj.stage < j:
            self._refine(steps_done)

    def level_at(self, j: int) -> Optional[int]:
        """Level of tower j currently occupied, or None while the point sits
        in spacer mass unborn at stage j."""
        if j > self.stage_obj.stage:
            raise SpecError(f"cursor at stage {self.stage_obj.stage} cannot "
                            f"answer for finer stage {j}")
        return self.stage_obj.ancestor_index(self.index, j)


def apply_power(spec: ConstructionSpec, x: Union[OrbitPoint, Fraction, int, str],
                n: int, stage_budget: Optional[int] = None) -> OrbitPoint:
    """Exact T^n x with automatic stage refinement up to the budget.

    Raises OrbitEscaped when the orbit needs a stage beyond the budget; the
    exception carries the last resolved point and the steps completed.
    """
    pt = x if isinstance(x, OrbitPoint) else OrbitPoint(as_fraction(x))
    if n == 0:
        return pt
    cur = Cursor(spec, pt.x, stage_budget)
    cur.advance(n)
    return OrbitPoint(cur.x, pt.history + cur.refinements)


def _as_interval_set(A: Union[IntervalSet, Interval]) -> IntervalSet:
    if isinstance(A, Interval):
        return IntervalSet(()) if A.is_empty() else IntervalSet((A,))
    return A


def power_image(spec: ConstructionSpec, A: Union[IntervalSet, Interval], n: int,
                J: int) -> Tuple[IntervalSet, MeasureBound]:
    """Image of A under T^n at resolution J with cumulative escape.

    Mass starting in the top |n| levels (bottom |n| for n < 0) cannot be
    followed for all |n| steps at this resolution and is counted escaped;
    everything else translates level i to level i+n in one pass, which
    agrees with stepping the stage-J map |n| times.
    """
    A = _as_interval_set(A)
    if n == 0:
        return A, MeasureBound.exact(Fraction(0))
    st = build_stage(spec, J)
    moved = []
    covered = Fraction(0)
    lo_i = 0 if n > 0 else -n
    hi_i = st.height - 1 - n if n > 0 else st.height - 1
    for i in range(lo_i, hi_i + 1):
        src = st.level(i)
        off = st.level_lo(i + n) - src.lo
        for iv in A.intervals:
            lo, hi = max(iv.lo, src.lo), min(iv.hi, src.hi)
            if lo < hi:
                moved.append(Interval(lo + off, hi + off))
                covered += hi - lo
    inside = set_intersection(A, IntervalSet((st.ambient,))).measure
    if inside != A.measure:
        raise SpecError("set extends beyond the stage ambient interval")
    escaped = A.measure - covered
    return canonicalize(moved), MeasureBound.exact(escaped)
