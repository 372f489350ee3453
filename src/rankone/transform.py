"""The transformation realized at a finite stage.

At stage J the map sends level i onto level i+1 by translation, for every
i < h_J - 1; it is undefined on the top level.  Orbit iteration refines to
the next stage automatically when a point reaches an undefined level, up to
the spec's stage budget.  Set images track the mass that leaves the defined
region exactly, so every result is either exact or a two-sided enclosure.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

from .construction import ConstructionSpec, TowerStage, build_stage
from .errors import OrbitEscaped, SpecError
from .measure import (Interval, IntervalSet, MeasureBound, as_fraction, as_interval_set,
                      canonicalize)

__all__ = ["Cursor", "OrbitPoint", "apply_power", "power_image"]


@dataclass(frozen=True)
class OrbitPoint:
    """A point of the ambient interval together with the number of stage
    refinements spent locating its orbit so far."""

    x: Fraction
    history: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", as_fraction(self.x))


# A cursor reads its orbit off copies of its coarse stage, the deepest stage
# at most COARSE_LIMIT levels tall, and at most CHUNK ticks of a run at a time.
COARSE_LIMIT = 1024
CHUNK = 4096


class Cursor:
    """Mutable orbit-iteration state: (stage, level index, offset within the
    level).  advance(n) moves |n| steps, of the sign of n, with one add up
    to each tower top or bottom it meets, where the representation refines
    one stage; step_forward is advance(1), level_at(k) one descent, and x
    cell(index) * w + u.

    The streams codes and point_runs share one run walker, _runs, which
    reads the orbit off the runs of ancestor_run down to the coarse stage m
    (the deepest stage at most COARSE_LIMIT levels tall, never below j):
    copies of m, and the spacers of one column each, at most CHUNK ticks of
    a run at a time.  codes slices m's scaled stage name, packed once per
    coarse stage when it is given a typecode; point_runs reads a tick's cell
    as the run's add + scale * c, c its stage-m cell on a copy and its
    offset in the run on spacers.  The cursor keeps nothing between calls."""

    __slots__ = ("spec", "budget", "stage_obj", "index", "u", "refinements")

    def __init__(self, spec: ConstructionSpec, x, stage_budget: Optional[int] = None):
        x = as_fraction(x)
        self.spec = spec
        self.budget = spec.max_stage if stage_budget is None else min(stage_budget,
                                                                      spec.max_stage)
        if x < 0:
            raise SpecError(f"orbit start {x} below the ambient interval")
        for j in range(1, self.budget + 1):
            st = build_stage(spec, j)
            if x < st.total:
                break
        else:
            raise SpecError(
                f"orbit start {x} outside the stage-{self.budget} ambient interval")
        self.stage_obj = st
        c = x // st.width
        self.index = st.level_of_cell(c)
        self.u = x - c * st.width
        self.refinements = 0

    def _coarse(self, j: int) -> TowerStage:
        """The deepest stage, between j and the cursor's stage, at most
        COARSE_LIMIT levels tall; stage j if none is."""
        st = self.stage_obj
        while st.stage > j and st.height > COARSE_LIMIT:
            st = st.prev
        return st

    @property
    def x(self) -> Fraction:
        st = self.stage_obj
        return st.cell(self.index) * st.width + self.u

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
        self.advance(1, steps_done)

    def advance(self, n: int, steps_done: int = 0) -> None:
        """|n| steps, forward for n > 0 and backward for n < 0: one integer
        add up to the tower top (or bottom), and one refinement wherever a
        step leaves it."""
        sign, n = (1 if n > 0 else -1), abs(n)
        while n:
            i = self.index
            room = min(self.stage_obj.height - 1 - i if sign > 0 else i, n)
            self.index = i + sign * room
            steps_done += room
            n -= room
            if n:
                self._refine(steps_done)

    def refine_to(self, j: int, steps_done: int = 0) -> None:
        """Refine the representation until the cursor's stage is at least j."""
        while self.stage_obj.stage < j:
            self._refine(steps_done)

    def level_at(self, j: int) -> Optional[int]:
        """Level of tower j currently occupied, or None while the point sits
        in spacer mass unborn at stage j."""
        return self.stage_obj.ancestor_index(self.index, j)

    def _runs(self, j: int, step: int, word: Callable[[TowerStage], Sequence]
              ) -> Iterator[Tuple[int, int, int, bool, int, int, Sequence]]:
        """The orbit from the current point refined to stage j, one run of
        the current stage per item, a copy of the coarse stage m or the
        spacers of one column, cut after CHUNK ticks: (lo, i, hi, copy, add,
        scale, word(m)) with the run's cells as ancestor_run gives them, the
        run's ticks being the levels i, i + step, ... below hi.  word(m) is
        built once per coarse stage.  The cursor stays at level i while the
        run is read and moves past it when the next run is asked for."""
        self.refine_to(j)
        done, m = 0, None
        while True:
            st, i = self.stage_obj, self.index
            coarse = self._coarse(j)
            if coarse is not m:
                m, m_word = coarse, word(coarse)
            lo, hi, copy, add, scale = st.ancestor_run(i, m.stage)
            hi = min(hi, i + CHUNK * step)
            yield lo, i, hi, copy, add, scale, m_word
            n = -(-(hi - i) // step) * step
            self.advance(n, done)
            done += n

    def codes(self, j: int, step: int = 1, scale: int = 1,
              typecode: Optional[str] = None) -> Iterator[Iterable[int]]:
        """scale times the stage-j level of each tick of the orbit, and
        scale * h_j at ticks in spacer mass unborn at stage j; tick 0 is the
        current point refined to stage j and each later tick `step` forward
        steps on.  A piece per run: a slice of the coarse stage's scaled name,
        packed above stage j as an array of typecode if given, or a repeat."""
        if step < 1:
            raise SpecError("step sizes must be >= 1")
        unborn = scale * build_stage(self.spec, j).height
        runs = self._runs(j, step, lambda m: m.stage_name(j, scale) if typecode is None
                          or m.stage == j else array(typecode, m.stage_name(j, scale)))
        return (name[i - lo:hi - lo:step] if copy else repeat(unborn, -(-(hi - i) // step))
                for lo, i, hi, copy, _, _, name in runs)

    def point_runs(self) -> Iterator[Tuple[int, Iterator[int]]]:
        """The orbit from the current point, one run per item: (den, numerators)
        with each tick's point n / den (n >= 0, den > 0), fixed when the run is
        yielded.  The cursor moves past a run when the next one is asked for."""
        for lo, i, hi, copy, add, scale, m_cells in self._runs(1, 1, TowerStage.level_cells):
            w, u = self.stage_obj.width, self.u
            den = lcm(w.denominator, u.denominator)
            wn, un = w.numerator * (den // w.denominator), u.numerator * (den // u.denominator)
            # tick i' has cell add + scale * c, c its stage-m cell or i' - lo
            cells = m_cells[i - lo:hi - lo] if copy else range(i - lo, hi - lo)
            yield den, map((add * wn + un).__add__, map((scale * wn).__mul__, cells))


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
