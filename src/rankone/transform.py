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
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional, Tuple, Union

from .construction import ConstructionSpec, build_stage
from .errors import OrbitEscaped, SpecError
from .measure import (
    Interval,
    IntervalSet,
    MeasureBound,
    as_fraction,
    as_interval_set,
    canonicalize,
)

__all__ = [
    "Cursor",
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
    where the representation refines one stage and retries; forward(n) moves
    n steps with one add per tower top it meets.

    Questions about a coarser stage k are answered per run, one copy of
    the stage-k tower or one spacer run (TowerStage.ancestor_run).  The
    cursor keeps a descent chain per k, so a query restarts inside the
    current copy, and the next run's descent starts at the smallest cached
    copy still holding the level: amortized O(1) stages per run forward.
    level_run(j) and levels(j) read stage-j runs from the chain; x keeps
    the last run of the deepest materialized stage k and reads it as
    levels_k[i - lo].lo + shift + u, the shift of a copy run being
    level_lo(lo).  The run and the chains belong to the stage object, so a
    refinement drops them all."""

    __slots__ = ("spec", "budget", "stage_obj", "index", "u", "refinements",
                 "_xrun", "_chains")

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
        c = x // st.width
        self.index = st.level_of_cell(c)
        self.u = x - c * st.width
        self.refinements = 0
        # _xrun: (levels_k, lo, hi, lo or None on a spacer run, shift + u);
        # _chains: k -> ancestor_run chain
        self._xrun = None
        self._chains = {}

    def _ancestor_run(self, k: int) -> Tuple[int, int, bool]:
        return self.stage_obj.ancestor_run(self.index, k,
                                           self._chains.setdefault(k, []))

    @property
    def x(self) -> Fraction:
        st, i = self.stage_obj, self.index
        run = self._xrun
        if run is None or not run[1] <= i < run[2]:
            levels = st
            while levels is not None and levels._levels is None:
                levels = levels.prev
            if levels is None:
                return st.level_lo(i) + self.u
            lo, hi, copy = self._ancestor_run(levels.stage)
            # u changes only with the stage object, so shift + u is per run
            run = self._xrun = (levels._levels, lo, hi, lo if copy else None,
                                st.level_lo(lo) + self.u if copy else None)
        if run[3] is None:
            return st.level_lo(i) + self.u
        return run[0][i - run[3]].lo + run[4]

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
        self._xrun = None
        self._chains = {}

    def step_forward(self, steps_done: int = 0) -> None:
        while self.index == self.stage_obj.height - 1:
            self._refine(steps_done)
        self.index += 1

    def step_backward(self, steps_done: int = 0) -> None:
        while self.index == 0:
            self._refine(steps_done)
        self.index -= 1

    def forward(self, n: int, steps_done: int = 0) -> None:
        """n forward steps: one integer add up to the tower top, and one
        refinement wherever a step leaves it."""
        while n > 0:
            room = min(self.stage_obj.height - 1 - self.index, n)
            self.index += room
            steps_done += room
            n -= room
            if n:
                self.step_forward(steps_done)
                steps_done += 1
                n -= 1

    def advance(self, n: int) -> None:
        if n >= 0:
            self.forward(n)
            return
        for k in range(-n):
            self.step_backward(k)

    def refine_to(self, j: int, steps_done: int = 0) -> None:
        """Refine the representation until the cursor's stage is at least j."""
        while self.stage_obj.stage < j:
            self._refine(steps_done)

    def level_at(self, j: int) -> Optional[int]:
        """Level of tower j currently occupied, or None while the point sits
        in spacer mass unborn at stage j."""
        return self.level_run(j)[0]

    def level_run(self, j: int) -> Tuple[Optional[int], int]:
        """(level_at(j), levels left in its run from the current one up):
        the next `left - 1` forward steps stay in the same stage-j copy,
        one level up each, or in the same spacer run."""
        if j > self.stage_obj.stage:
            raise SpecError(f"cursor at stage {self.stage_obj.stage} cannot "
                            f"answer for finer stage {j}")
        i = self.index
        lo, hi, copy = self._ancestor_run(j)
        return (i - lo if copy else None), hi - i

    def levels(self, j: int, step: int = 1) -> Iterator[Optional[int]]:
        """The stage-j level of each tick of the orbit (None in spacer
        mass unborn at stage j), tick 0 at the current point refined to
        stage j and each later tick `step` forward steps on: one range or
        run of None per stage-j run, so ticks cost C-level work.  The cursor
        moves when the first tick past a run is asked for."""
        if step < 1:
            raise SpecError("step sizes must be >= 1")
        return chain.from_iterable(self._level_runs(j, step))

    def _level_runs(self, j: int, step: int) -> Iterator[Iterable[Optional[int]]]:
        self.refine_to(j)
        done = 0
        while True:
            i = self.index
            lo, hi, copy = self._ancestor_run(j)
            span = -(-(hi - i) // step)
            yield (range(i - lo, i - lo + span * step, step) if copy
                   else repeat(None, span))
            self.forward(span * step, done)
            done += span * step


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


def power_image(spec: ConstructionSpec, A: Union[IntervalSet, Interval], n: int,
                J: int) -> Tuple[IntervalSet, MeasureBound]:
    """Image of A under T^n at resolution J with cumulative escape.

    Mass starting in the top |n| levels (bottom |n| for n < 0) cannot be
    followed for all |n| steps at this resolution and is counted escaped;
    everything else translates level i to level i+n, which agrees with
    stepping the stage-J map |n| times.  Only the stage-J cells A meets are
    visited: the piece of A in cell c lies in level i = level_of_cell(c)
    and moves by (cell(i + n) - c) w_J, so a call costs O(cells of A * J).
    """
    A = as_interval_set(A)
    if n == 0:
        return A, MeasureBound.exact(Fraction(0))
    st = build_stage(spec, J)
    ivs = A.intervals
    if ivs and (ivs[0].lo < 0 or ivs[-1].hi > st.total):
        raise SpecError("set extends beyond the stage ambient interval")
    w, h = st.width, st.height
    moved = []
    escaped = Fraction(0)
    for iv in ivs:
        for c in range(iv.lo // w, -(-iv.hi // w)):
            lo, hi = max(iv.lo, c * w), min(iv.hi, (c + 1) * w)
            i = st.level_of_cell(c) + n
            if 0 <= i < h:
                off = (st.cell(i) - c) * w
                moved.append(Interval(lo + off, hi + off))
            else:
                escaped += hi - lo
    return canonicalize(moved), MeasureBound.exact(escaped)
