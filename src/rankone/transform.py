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
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from .construction import ConstructionSpec, TowerStage, build_stage
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


# A cursor reads its orbit off copies of its coarse stage: the deepest
# stage at most this many levels tall.  One copy is one slice of the stage
# name in levels and one list of integer cells in x.
COARSE_LIMIT = 1024


class Cursor:
    """Mutable orbit-iteration state: (stage, level index, offset within the
    level).  Stepping is O(1) integer work except at tower tops and bottoms,
    where the representation refines one stage and retries; forward(n) and
    backward(n) move n steps with one add per tower top or bottom they meet.

    Questions about a coarser stage k are answered per run, one copy of
    the stage-k tower or one spacer run (TowerStage.ancestor_run).  The
    cursor keeps a descent chain per k, so a query restarts inside the
    current copy, and the next run's descent starts at the smallest cached
    copy still holding the level: amortized O(1) stages per run forward.
    level_run(j) reads stage-j runs from the chain.  levels(j) and x read
    runs of the coarse stage m, the deepest stage at most COARSE_LIMIT
    levels tall (levels never goes below stage j): a copy run starting at
    level lo holds the stage-m levels 0..h_m-1, so levels slices the stage
    name of m (TowerStage.stage_name) and x reads the point at level i as
    cells_m[i - lo] * w_m + cell(lo) * w + u, one integer numerator over
    one denominator per run.  Names and cells are built once per cursor;
    the x run and the chains belong to the stage object, so a refinement
    drops them."""

    __slots__ = ("spec", "budget", "stage_obj", "index", "u", "refinements",
                 "_xrun", "_chains", "_words")

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
        # _xrun: (lo, hi, cells or None, scale, add, den), the point at
        # level i of [lo, hi) being (cells[i - lo] or cell(i)) * scale + add
        # over den; _chains: k -> ancestor_run chain; _words: (m, j) ->
        # stage name, (m, None) -> level cells of the coarse stage m
        self._xrun = None
        self._chains = {}
        self._words = {}

    def _ancestor_run(self, k: int) -> Tuple[int, int, bool]:
        return self.stage_obj.ancestor_run(self.index, k,
                                           self._chains.setdefault(k, []))

    def _coarse(self, j: int = 1) -> TowerStage:
        """The deepest stage, between j and the cursor's stage, at most
        COARSE_LIMIT levels tall; stage j if none is."""
        st = self.stage_obj
        while st.stage > j and st.height > COARSE_LIMIT:
            st = st.prev
        return st

    def _word(self, m: TowerStage, j: Optional[int]) -> Sequence[Optional[int]]:
        key = (m.stage, j)
        word = self._words.get(key)
        if word is None:
            word = self._words[key] = (m.level_cells() if j is None
                                       else m.stage_name(j))
        return word

    @property
    def x(self) -> Fraction:
        i = self.index
        run = self._xrun
        if run is None or not run[0] <= i < run[1]:
            run = self._xrun = self._x_run()
        lo, _, cells, scale, add, den = run
        c = self.stage_obj.cell(i) if cells is None else cells[i - lo]
        return Fraction(c * scale + add, den)

    def _x_run(self) -> tuple:
        st, u = self.stage_obj, self.u
        w = st.width
        den = lcm(w.denominator, u.denominator)
        scale = w.numerator * (den // w.denominator)
        add = u.numerator * (den // u.denominator)
        m = self._coarse()
        if m.height > COARSE_LIMIT:
            return 0, st.height, None, scale, add, den
        lo, hi, copy = self._ancestor_run(m.stage)
        if not copy:
            return lo, hi, None, scale, add, den
        # a copy of m at lo: stage-m cell p is cell p * (w_m / w) + cell(lo)
        return (lo, hi, self._word(m, None), scale * (m.width // w),
                st.cell(lo) * scale + add, den)

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

    def backward(self, n: int, steps_done: int = 0) -> None:
        """n backward steps: one integer subtraction down to the tower
        bottom, and one refinement wherever a step leaves it."""
        while n > 0:
            room = min(self.index, n)
            self.index -= room
            steps_done += room
            n -= room
            if n:
                self.step_backward(steps_done)
                steps_done += 1
                n -= 1

    def advance(self, n: int) -> None:
        if n >= 0:
            self.forward(n)
        else:
            self.backward(-n)

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
        stage j and each later tick `step` forward steps on: one slice of
        a stage name per coarse copy, or one run of None per spacer run,
        so ticks cost C-level work.  The cursor moves when the first tick
        past a run is asked for."""
        if step < 1:
            raise SpecError("step sizes must be >= 1")
        return chain.from_iterable(self._level_runs(j, step))

    def _level_runs(self, j: int, step: int) -> Iterator[Iterable[Optional[int]]]:
        self.refine_to(j)
        done = 0
        st = None
        while True:
            if self.stage_obj is not st:
                st = self.stage_obj
                m = self._coarse(j)
                name = self._word(m, j)
            i = self.index
            lo, hi, copy = self._ancestor_run(m.stage)
            span = -(-(hi - i) // step)
            yield name[i - lo:hi - lo:step] if copy else repeat(None, span)
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
