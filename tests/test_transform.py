"""The stage-J map: orbit iteration and set images under T^n."""

import time
from fractions import Fraction
from itertools import chain, islice, starmap
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rankone.construction import ConstructionSpec, CutRule, SpacerRule, build_stage
from rankone.errors import OrbitEscaped, SpecError
from rankone.measure import (
    Interval,
    IntervalSet,
    MeasureBound,
    canonicalize,
    set_intersection,
)
from rankone import transform
from rankone.persist import frac_str, frac_strs
from rankone.transform import Cursor, OrbitPoint, apply_power, power_image
from helpers import (ambient, contains, is_exact, level_lo, level_run, levels, points,
                     set_difference, shifted, top)

F = Fraction

PRESETS = [
    ConstructionSpec.odometer(),
    ConstructionSpec.staircase(),
    ConstructionSpec.chacon(),
    ConstructionSpec.random_spacers(seed=5),
]


def levels_set(spec, J, indices):
    st_ = build_stage(spec, J)
    return canonicalize([st_.level(i) for i in indices])


def step_image(spec, A, J):
    """Oracle for one step of the stage-J map: level i onto level i+1 for
    i < h_J - 1, with the mass of A on the top level reported escaped."""
    st_ = build_stage(spec, J)
    moved = []
    for i in range(st_.height - 1):
        off = level_lo(st_, i + 1) - level_lo(st_, i)
        part = set_intersection(A, IntervalSet((st_.level(i),)))
        moved.extend(Interval(iv.lo + off, iv.hi + off) for iv in part)
    img = canonicalize(moved)
    return img, MeasureBound.exact(A.measure - img.measure)


def oracle_power_image(spec, A, n, J):
    """The level scan power_image replaced: every stage-J level i with
    i + n in the tower moves A's part in it onto level i + n."""
    if n == 0:
        return A, MeasureBound.exact(F(0))
    st_ = build_stage(spec, J)
    moved = []
    covered = F(0)
    lo_i = 0 if n > 0 else -n
    hi_i = st_.height - 1 - n if n > 0 else st_.height - 1
    for i in range(lo_i, hi_i + 1):
        src = st_.level(i)
        off = level_lo(st_, i + n) - src.lo
        for iv in A.intervals:
            lo, hi = max(iv.lo, src.lo), min(iv.hi, src.hi)
            if lo < hi:
                moved.append(Interval(lo + off, hi + off))
                covered += hi - lo
    inside = set_intersection(A, IntervalSet((ambient(st_),))).measure
    if inside != A.measure:
        raise SpecError("set extends beyond the stage ambient interval")
    return canonicalize(moved), MeasureBound.exact(A.measure - covered)


@st.composite
def rational_sets(draw, stage):
    """A union of intervals whose ends lie on the grid of 1/d of a stage
    cell: d = 1 gives whole cells, d > 1 pieces that split them."""
    d = draw(st.sampled_from((1, 2, 3, 7)))
    grid = stage.height * d
    ends = sorted(draw(st.lists(st.integers(0, grid), max_size=8, unique=True)))
    step = stage.width / d
    return canonicalize(Interval(a * step, b * step)
                        for a, b in zip(ends[::2], ends[1::2]))


class TestPowerImageCells:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.sampled_from(PRESETS),
                     st.integers(0, 10_000).map(ConstructionSpec.random_spacers)),
           st.integers(min_value=1, max_value=6), st.data())
    def test_matches_level_scan(self, spec, J, data):
        st_ = build_stage(spec, J)
        h = st_.height
        A = data.draw(rational_sets(st_))
        n = data.draw(st.one_of(st.integers(-4, 4), st.integers(-h - 2, h + 2),
                                st.sampled_from((h, -h))))
        assert power_image(spec, A, n, J) == oracle_power_image(spec, A, n, J)

    def test_set_beyond_ambient_refused(self):
        spec = ConstructionSpec.chacon()
        M = build_stage(spec, 3).total
        for A in (Interval(M - 1, M + F(1, 3)), Interval(F(-1, 9), F(1, 9))):
            with pytest.raises(SpecError, match="beyond the stage ambient"):
                power_image(spec, A, 1, 3)

    def test_deep_sub_level_interval(self):
        # staircase stage 9 has 135,436 levels; a scan of all of them took
        # seconds, the piece's one cell takes two descents
        spec = ConstructionSpec.staircase()
        t0 = time.perf_counter()
        st9 = build_stage(spec, 9)
        i = st9.height // 3
        lv = st9.level(i)
        A = Interval(lv.lo + lv.length / 3, lv.hi)
        img, esc = power_image(spec, A, 7, 9)
        assert time.perf_counter() - t0 < 5
        assert img == IntervalSet((shifted(A, st9.level(i + 7).lo - lv.lo),))
        assert esc == MeasureBound.exact(0)


class TestRealize:
    """One step of the stage-J map: power_image(spec, A, +-1, J)."""

    def test_odometer_stage1(self):
        spec = ConstructionSpec.odometer()
        img, esc = power_image(spec, Interval(F(0), F(1, 2)), 1, 1)
        assert img.intervals == (Interval(F(1, 2), F(1)),)
        assert esc == MeasureBound.exact(0)
        img, esc = power_image(spec, Interval(F(1, 2), F(1)), 1, 1)
        assert img.measure == 0 and esc == MeasureBound.exact(F(1, 2))

    def test_odometer_stage2_three_pieces(self):
        spec = ConstructionSpec.odometer()
        q = F(1, 4)
        for lo, to in ((F(0), F(1, 2)), (F(1, 2), F(1, 4)), (F(1, 4), F(3, 4))):
            img, esc = power_image(spec, Interval(lo, lo + q), 1, 2)
            assert img.intervals == (Interval(to, to + q),)
            assert esc == MeasureBound.exact(0)
        img, esc = power_image(spec, Interval(F(3, 4), F(1)), 1, 2)  # top level
        assert img.measure == 0 and esc == MeasureBound.exact(q)

    def test_piece_count_and_defined_measure(self):
        for spec in PRESETS:
            for J in range(1, 5):
                st_ = build_stage(spec, J)
                for n in (1, -1):
                    img, esc = power_image(spec, ambient(st_), n, J)
                    assert img.measure == (st_.height - 1) * st_.width
                    assert esc == MeasureBound.exact(st_.width)

    def test_forward_image_of_level_is_next_level(self):
        for spec in PRESETS:
            for J in range(1, 6):
                st_ = build_stage(spec, J)
                for i in range(st_.height - 1):
                    img, esc = power_image(spec, st_.level(i), 1, J)
                    assert esc == MeasureBound.exact(0)
                    assert img.intervals == (st_.level(i + 1),)

    def test_image_measure_matches_domain(self):
        # the image of everything but the top level is everything but the
        # base level, and backward the other way round
        spec = ConstructionSpec.staircase()
        st_ = build_stage(spec, 4)
        whole = IntervalSet((ambient(st_),))
        img, _ = power_image(spec, whole, 1, 4)
        assert img == set_difference(whole, IntervalSet((st_.base,)))
        img, _ = power_image(spec, whole, -1, 4)
        assert img == set_difference(whole, IntervalSet((top(st_),)))


class TestApplyPower:
    def test_odometer_orbit_of_zero(self):
        spec = ConstructionSpec.odometer()
        xs = [apply_power(spec, 0, n).x for n in range(4)]
        assert xs == [F(0), F(1, 2), F(1, 4), F(3, 4)]

    def test_identity_and_inverse(self):
        spec = ConstructionSpec.chacon()
        x = F(5, 27)
        assert apply_power(spec, x, 0).x == x
        for n in (1, 4, -3, 11):
            y = apply_power(spec, x, n)
            assert apply_power(spec, y, -n).x == x

    def test_orbit_escape_forward(self):
        spec = ConstructionSpec.odometer(max_stage=2)
        with pytest.raises(OrbitEscaped) as exc:
            apply_power(spec, 0, 4)
        assert exc.value.stage_budget == 2
        assert exc.value.steps_done == 3
        assert exc.value.point == F(3, 4)

    def test_orbit_escape_backward_at_zero(self):
        # the left endpoint of the base never leaves the base under
        # refinement, so stepping backward exhausts any finite budget
        spec = ConstructionSpec.odometer(max_stage=4)
        with pytest.raises(OrbitEscaped):
            apply_power(spec, 0, -1)

    def test_history_counts_refinements(self):
        spec = ConstructionSpec.odometer()
        pt = apply_power(spec, 0, 3)
        assert pt.history == 1  # one refinement: stage 1 to stage 2

    def test_point_outside_ambient_rejected(self):
        spec = ConstructionSpec.odometer()
        with pytest.raises(SpecError):
            apply_power(spec, F(3, 2), 1)

    def test_orbit_visits_spacer_mass(self):
        # chacon stage 2 tower is 4 levels over [0, 4/3); the orbit from 0
        # must pass through the spacer level [1, 4/3)
        spec = ConstructionSpec.chacon()
        xs = [apply_power(spec, 0, n).x for n in range(4)]
        assert xs == [F(0), F(1, 3), F(1), F(2, 3)]

    @settings(max_examples=30, deadline=None)
    @given(st.fractions(min_value=0, max_value=F(99, 100), max_denominator=729),
           st.integers(min_value=-20, max_value=20))
    def test_inverse_identity_random(self, x, n):
        spec = ConstructionSpec.chacon(max_stage=10)
        try:
            y = apply_power(spec, x, n)
            back = apply_power(spec, y, -n)
        except OrbitEscaped:
            return
        assert back.x == F(x)

    def test_cursor_level_tracking(self):
        spec = ConstructionSpec.staircase()
        cur = Cursor(spec, F(1, 417), stage_budget=6)
        st4 = build_stage(spec, 4)
        for _ in range(30):
            idx = cur.level_at(4) if cur.stage_obj.stage >= 4 else None
            if idx is not None:
                assert contains(st4.level(idx), cur.x)
            cur.step_forward()


WALK_SPECS = PRESETS[:3] + [ConstructionSpec.random_spacers(seed=k) for k in (1, 2, 3)]


def born(stage, i, j):
    """The stage above j that level i of the stage was born at, a spacer
    unborn at stage j: the first stage it is a level of."""
    return min(s for s in range(j + 1, stage.stage + 1)
               if stage.ancestor_index(i, s) is not None)


class TestCursorRuns:
    """The cursor answers level_at, level_run and x from one descent; the
    oracle is the stage object's own ancestor_index and level_lo at the
    current index, and advance(n) is checked against |n| single steps of
    the sign of n, escapes included."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(WALK_SPECS),
           st.fractions(min_value=0, max_value=F(99, 100), max_denominator=997),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8),
           st.lists(st.tuples(st.sampled_from(("up", "down", "jump", "leap back")),
                              st.integers(min_value=1, max_value=40)),
                    min_size=1, max_size=8),
           st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=4))
    def test_walk_matches_stage_object(self, spec, x, budget, start, moves, js):
        cur = Cursor(spec, x, stage_budget=budget)
        tick = 0

        def check():
            nonlocal tick
            st_, i = cur.stage_obj, cur.index
            for j in (js[tick % len(js)], js[(tick + 1) % len(js)]):
                if j > st_.stage:
                    with pytest.raises(SpecError):
                        cur.level_at(j)
                    continue
                z = st_.ancestor_index(i, j)
                assert cur.level_at(j) == z
                z2, left = level_run(cur, j)
                assert z2 == z and left >= 1
                # the run goes on, one level up per step, exactly `left` levels
                end = st_.ancestor_index(i + left - 1, j)
                assert end == (None if z is None else z + left - 1)
                if z is None:
                    assert born(st_, i, j) == born(st_, i + left - 1, j)
                if i + left < st_.height:
                    # past a copy's top, or past the spacers born at one stage
                    after = st_.ancestor_index(i + left, j)
                    assert (after is None) != (z is None) or (
                        z is not None and after != z + left) or (
                        z is None and born(st_, i + left, j) != born(st_, i, j))
            assert cur.x == level_lo(st_, i) + cur.u
            tick += 1

        try:
            check()
            cur.refine_to(min(start, cur.budget))
            check()
            for kind, length in moves:
                if kind in ("jump", "leap back"):
                    n = length if kind == "jump" else -length
                    twin = Cursor(spec, cur.x, stage_budget=budget)
                    twin.refine_to(cur.stage_obj.stage)
                    step = twin.step_forward if n > 0 else lambda done: twin.advance(-1, done)
                    try:
                        for done in range(length):
                            step(done)
                    except OrbitEscaped as twin_exc:
                        with pytest.raises(OrbitEscaped) as exc:
                            cur.advance(n)
                        assert (exc.value.point, exc.value.steps_done) == (
                            twin_exc.point, twin_exc.steps_done)
                        return
                    cur.advance(n)
                    assert (cur.stage_obj, cur.index, cur.u) == (
                        twin.stage_obj, twin.index, twin.u)
                    check()
                    continue
                for _ in range(length):
                    if kind == "up":
                        cur.step_forward()
                    else:
                        cur.advance(-1)
                    check()
        except OrbitEscaped:
            pass

    def test_run_cache_is_per_stage_object(self):
        # the stage-2 top level is a spacer, and refining to stage 3 keeps
        # the point in column 0, right below one more spacer: each stage
        # object reads the stage-2 spacer as a run of its own, in its own
        # cells, and the stage-3 spacer above it as another run
        spec = ConstructionSpec(h1=2, cut_rule=CutRule("constant", value=2),
                                spacer_rule=SpacerRule("list", rows=((0, 1), (1, 0))),
                                max_stage=3)
        cur = Cursor(spec, 1)
        assert (cur.stage_obj.stage, cur.index) == (2, 4)
        assert level_run(cur, 1) == (None, 1)
        assert cur.stage_obj.ancestor_run(4, 1) == (4, 5, False, 4, 1)
        assert cur.x == 1
        cur.refine_to(3)
        assert (cur.stage_obj.stage, cur.index) == (3, 4)
        assert level_run(cur, 1) == (None, 1)
        assert cur.stage_obj.ancestor_run(4, 1) == (4, 5, False, 8, 2)
        assert cur.stage_obj.ancestor_run(5, 1) == (5, 6, False, 10, 1)
        assert cur.x == 1

    @pytest.mark.parametrize("spec, j, step", [
        (WALK_SPECS[1], 3, 1), (WALK_SPECS[2], 2, 2), (WALK_SPECS[3], 3, 3),
        (ConstructionSpec.staircase(h1=3), 6, 1)])
    def test_levels_match_single_steps(self, spec, j, step):
        # one range per run against level_at after each single step; the
        # h1 = 3 staircase orbit reaches stage 8, where the top spacers of a
        # stage-7 copy and the stage-8 spacers above them are two runs
        # between stage-6 copies
        stream = levels(Cursor(spec, F(2, 7), stage_budget=9), j, step)
        cur = Cursor(spec, F(2, 7), stage_budget=9)
        cur.refine_to(j)
        for _ in range(400):
            assert next(stream) == cur.level_at(j)
            for _ in range(step):
                cur.step_forward()
        for bad in (0, -1):
            with pytest.raises(SpecError, match="step sizes must be >= 1"):
                levels(cur, j, bad)

    def test_run_cache_follows_refinement(self):
        # the odometer orbit of 1/3 refines 12 times in 3000 steps, from
        # stage 1 to stage 13 (heights past the coarse limit); each
        # refinement moves it to a new stage object with its own runs
        cur = Cursor(ConstructionSpec.odometer(max_stage=20), F(1, 3))
        for _ in range(3000):
            st_ = cur.stage_obj
            assert cur.level_at(1) == st_.ancestor_index(cur.index, 1)
            assert cur.x == level_lo(st_, cur.index) + cur.u
            cur.step_forward()
        assert cur.refinements == 12


COARSE_SPECS = WALK_SPECS + [ConstructionSpec.staircase(h1=3)]
# coarse limits: 1 makes stage j (or, for x, no stage) the coarse stage;
# small ones put coarse copies and their spacer runs a few stages above j
COARSE_LIMITS = st.sampled_from([1, 3, 10, 50, transform.COARSE_LIMIT])
STARTS = st.fractions(min_value=0, max_value=F(99, 100), max_denominator=997)


def escape_outcome(exc):
    return str(exc), exc.point, exc.steps_done


def oracle_levels(spec, x, budget, j, step, ticks):
    """The stage-j level of each tick by single steps and the stage
    object's ancestor_index; the escape outcome, or the stage the
    cursor sits at on the last tick."""
    cur = Cursor(spec, x, stage_budget=budget)
    out, done = [], 0
    try:
        cur.refine_to(j)
        for t in range(ticks):
            if t:
                for _ in range(step):
                    cur.step_forward(done)
                    done += 1
            out.append(cur.stage_obj.ancestor_index(cur.index, j))
    except OrbitEscaped as exc:
        return out, escape_outcome(exc)
    return out, cur.stage_obj.stage


def oracle_points(spec, x, budget, steps):
    """The orbit's points by one step_forward and one x per step; the
    escape outcome, or the cursor's stage and refinements at the end."""
    cur = Cursor(spec, x, stage_budget=budget)
    out = [cur.x]
    try:
        for k in range(steps):
            cur.step_forward(k)
            out.append(cur.x)
    except OrbitEscaped as exc:
        return out, escape_outcome(exc)
    return out, (cur.stage_obj.stage, cur.refinements)


def oracle_point_strs(spec, x, budget, steps):
    """The orbit as `rankone orbit` rendered it point by point: frac_str of
    each Fraction from points(); the escape outcome, or the cursor's stage
    and refinements at the end."""
    cur = Cursor(spec, x, stage_budget=budget)
    out = []
    try:
        for p in islice(points(cur), steps + 1):
            out.append(frac_str(p))
    except OrbitEscaped as exc:
        return out, escape_outcome(exc)
    return out, (cur.stage_obj.stage, cur.refinements)


@st.composite
def orbit_starts(draw, spec, budget):
    """A start anywhere (STARTS), in the top level of a stage k <= budget,
    or in a spacer level of stage k >= 2 unborn at stage k - 1."""
    kind = draw(st.sampled_from(("any", "top", "spacer")))
    k = draw(st.integers(min_value=1, max_value=4))
    if kind == "any" or k > budget or (kind == "spacer" and k == 1):
        return draw(STARTS)
    stage = build_stage(spec, k)
    if kind == "top":
        i = stage.height - 1
    else:
        spacers = [i for i in range(stage.height)
                   if stage.ancestor_index(i, k - 1) is None]
        if not spacers:
            return draw(STARTS)
        i = draw(st.sampled_from(spacers))
    u = draw(st.fractions(min_value=0, max_value=1, max_denominator=97)
             .filter(lambda f: f < 1))
    return level_lo(stage, i) + u * stage.width


class TestCoarseRuns:
    """levels and points read copies of the coarse stage (the deepest stage at
    most COARSE_LIMIT levels tall); both are checked per tick against the
    stage object, with the limit varied so that copies and spacer runs of
    stages above j, and escapes part-way through a copy, all occur."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(COARSE_SPECS), STARTS, COARSE_LIMITS,
           st.integers(min_value=1, max_value=7),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=600))
    def test_levels_match_per_tick_oracle(self, spec, x, limit, budget, j,
                                          step, ticks):
        budget = min(budget, spec.max_stage)
        if j > budget:
            return
        expected, end = oracle_levels(spec, x, budget, j, step, ticks)
        got = []
        with mock.patch.object(transform, "COARSE_LIMIT", limit):
            cur = Cursor(spec, x, stage_budget=budget)
            try:
                for z in islice(levels(cur, j, step), ticks):
                    got.append(z)
            except OrbitEscaped as exc:
                assert escape_outcome(exc) == end
            else:
                assert cur.stage_obj.stage == end
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(COARSE_SPECS), STARTS, COARSE_LIMITS,
           st.integers(min_value=1, max_value=7),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=600),
           st.integers(min_value=1, max_value=10 ** 7),
           st.sampled_from([None, "Q"]))
    def test_codes_are_scaled_levels(self, spec, x, limit, budget, j, step,
                                     ticks, scale, typecode):
        # scale * z for a stage-j level z, scale * h_j for an unborn one,
        # with the coarse names read as tuples or packed as arrays of typecode
        budget = min(budget, spec.max_stage)
        if j > budget:
            return
        expected, end = oracle_levels(spec, x, budget, j, step, ticks)
        h = build_stage(spec, j).height
        got = []
        with mock.patch.object(transform, "COARSE_LIMIT", limit):
            cur = Cursor(spec, x, stage_budget=budget)
            try:
                pieces = cur.codes(j, step, scale, typecode)
                got.extend(islice(chain.from_iterable(pieces), ticks))
            except OrbitEscaped as exc:
                assert escape_outcome(exc) == end
            else:
                assert cur.stage_obj.stage == end
        assert got == [scale * (h if z is None else z) for z in expected]

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(COARSE_SPECS), STARTS, COARSE_LIMITS,
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=1500))
    # the orbit of 0 climbs the whole stage-6 tower, through every stack of
    # spacer runs of stages 3 to 6 over stage-2 copies
    @example(ConstructionSpec.staircase(h1=3), F(0), 3, 6, 600)
    def test_points_match_single_steps(self, spec, x, limit, budget, steps):
        expected, end = oracle_points(spec, x, budget, steps)
        got = []
        with mock.patch.object(transform, "COARSE_LIMIT", limit):
            cur = Cursor(spec, x, stage_budget=budget)
            try:
                for p in islice(points(cur), steps + 1):
                    got.append(p)
            except OrbitEscaped as exc:
                assert escape_outcome(exc) == end
            else:
                assert (cur.stage_obj.stage, cur.refinements) == end
        assert got == expected

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(COARSE_SPECS), COARSE_LIMITS,
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=1500), st.data())
    def test_rendered_runs_match_fraction_points(self, spec, limit, budget,
                                                 steps, data):
        budget = min(budget, spec.max_stage)
        x = data.draw(orbit_starts(spec, budget))
        with mock.patch.object(transform, "COARSE_LIMIT", limit):
            expected, end = oracle_point_strs(spec, x, budget, steps)
            cur = Cursor(spec, x, stage_budget=budget)
            got = []
            try:
                runs = starmap(frac_strs, cur.point_runs())
                for s in islice(chain.from_iterable(runs), steps + 1):
                    got.append(s)
            except OrbitEscaped as exc:
                assert escape_outcome(exc) == end
            else:
                assert (cur.stage_obj.stage, cur.refinements) == end
        assert got == expected

    def test_runs_read_after_later_runs_keep_their_points(self):
        # each run's numerators are fixed when it is yielded, so runs taken
        # ahead of reading them still give the orbit's points
        spec = ConstructionSpec.staircase()
        runs = list(islice(Cursor(spec, F(1, 3), stage_budget=10).point_runs(), 6))
        got = [F(n, den) for den, numerators in runs for n in numerators]
        assert len(runs) == 6 and len(got) > 6
        assert got == list(islice(points(Cursor(spec, F(1, 3), stage_budget=10)),
                                  len(got)))

    def test_levels_slice_coarse_copies_above_j(self):
        # staircase stages 3..6 are 5, 18, 78 and 400 levels tall: with the
        # limit at 100 a stage-7 cursor reads stage-5 copies for j = 3, and
        # a budget of 7 ends the stream inside one
        spec = ConstructionSpec.staircase()
        with mock.patch.object(transform, "COARSE_LIMIT", 100):
            cur = Cursor(spec, F(1, 3), stage_budget=7)
            cur.refine_to(7)
            assert cur._coarse(3).stage == 5
            ticks = 2 * build_stage(spec, 7).height
            got = []
            with pytest.raises(OrbitEscaped) as exc:
                got.extend(islice(levels(cur, 3, 2), ticks))
        expected, end = oracle_levels(spec, F(1, 3), 7, 3, 2, ticks)
        assert escape_outcome(exc.value) == end
        assert got == expected and None in got

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(COARSE_SPECS), STARTS, COARSE_LIMITS,
           st.integers(min_value=1, max_value=8),
           st.lists(st.integers(min_value=-60, max_value=200),
                    min_size=1, max_size=6))
    def test_x_is_cell_times_width_plus_u(self, spec, x, limit, budget, moves):
        with mock.patch.object(transform, "COARSE_LIMIT", limit):
            cur = Cursor(spec, x, stage_budget=budget)
            assert cur.x == F(x)
            try:
                for n in moves:
                    for _ in range(abs(n)):
                        if n > 0:
                            cur.step_forward()
                        else:
                            cur.advance(-1)
                        st_ = cur.stage_obj
                        assert cur.x == st_.cell(cur.index) * st_.width + cur.u
            except OrbitEscaped as exc:
                st_ = cur.stage_obj
                assert exc.point == st_.cell(cur.index) * st_.width + cur.u

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(COARSE_SPECS), STARTS,
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=3000))
    def test_advance_backward_matches_step_loop(self, spec, x, budget, n):
        cur = Cursor(spec, x, stage_budget=budget)
        twin = Cursor(spec, x, stage_budget=budget)
        try:
            for k in range(n):
                twin.advance(-1, k)
        except OrbitEscaped as exc:
            with pytest.raises(OrbitEscaped) as got:
                cur.advance(-n)
            assert escape_outcome(got.value) == escape_outcome(exc)
            return
        cur.advance(-n)
        assert (cur.stage_obj, cur.index, cur.u, cur.refinements, cur.x) == (
            twin.stage_obj, twin.index, twin.u, twin.refinements, twin.x)


class TestImageSet:
    """Set images under one step of the stage-J map, forward and backward."""

    def test_base_maps_to_level_one(self):
        for spec in PRESETS:
            st_ = build_stage(spec, 3)
            img, esc = power_image(spec, st_.base, 1, 3)
            assert esc == MeasureBound.exact(0)
            assert img.intervals == (st_.level(1),)

    def test_top_level_escapes_entirely(self):
        spec = ConstructionSpec.staircase()
        st_ = build_stage(spec, 3)
        img, esc = power_image(spec, top(st_), 1, 3)
        assert img.measure == 0
        assert esc == MeasureBound.exact(st_.width)

    def test_odometer_stage2_half_interval(self):
        img, esc = power_image(ConstructionSpec.odometer(),
                               Interval(F(0), F(1, 2)), 1, 2)
        assert esc == MeasureBound.exact(0)
        assert img.intervals == (Interval(F(1, 2), F(1)),)

    def test_backward_inverts_forward(self):
        spec = ConstructionSpec.chacon()
        A = IntervalSet((Interval(F(0), F(1, 9)), Interval(F(1, 3), F(10, 27))))
        fwd, esc = power_image(spec, A, 1, 3)
        assert esc == MeasureBound.exact(0)
        back, esc2 = power_image(spec, fwd, -1, 3)
        assert esc2 == MeasureBound.exact(0)
        assert back == A

    def test_measure_conservation(self):
        spec = ConstructionSpec.random_spacers(seed=5)
        A = IntervalSet((Interval(F(1, 10), F(2, 5)), Interval(F(1, 2), F(9, 10))))
        img, esc = power_image(spec, A, 1, 4)
        assert img.measure + esc.lo == A.measure
        assert is_exact(esc)


@st.composite
def level_subsets(draw):
    spec = draw(st.sampled_from(PRESETS))
    J = draw(st.integers(min_value=1, max_value=4))
    st_ = build_stage(spec, J)
    picks = draw(st.lists(st.integers(min_value=0, max_value=st_.height - 1),
                          min_size=0, max_size=6, unique=True))
    return spec, J, levels_set(spec, J, picks)


class TestPowerImage:
    def test_zero_power_is_identity(self):
        spec = ConstructionSpec.odometer()
        A = IntervalSet((Interval(F(1, 8), F(3, 8)),))
        img, esc = power_image(spec, A, 0, 3)
        assert img == A and esc == MeasureBound.exact(0)

    def test_odometer_base_shift_two(self):
        spec = ConstructionSpec.odometer()
        E1 = build_stage(spec, 1).base
        img, esc = power_image(spec, E1, 2, 3)
        # occurrences {0,2,4,6}: indices 0,2,4 resolve onto 2,4,6; index 6
        # runs off the 8-level tower
        assert img == levels_set(spec, 3, [2, 4, 6])
        assert img.measure == F(3, 8)
        assert esc == MeasureBound.exact(F(1, 8))

    def test_negative_power_symmetry(self):
        spec = ConstructionSpec.odometer()
        E1 = build_stage(spec, 1).base
        img, esc = power_image(spec, E1, -2, 3)
        assert img == levels_set(spec, 3, [0, 2, 4])
        assert esc == MeasureBound.exact(F(1, 8))

    @settings(max_examples=40, deadline=None)
    @given(level_subsets(), st.integers(min_value=-6, max_value=6))
    def test_measure_conservation_random(self, sja, n):
        spec, J, A = sja
        img, esc = power_image(spec, A, n, J)
        assert img.measure + esc.lo == A.measure
        assert is_exact(esc)

    @settings(max_examples=25, deadline=None)
    @given(level_subsets(), st.integers(min_value=1, max_value=4))
    def test_matches_iterated_single_steps(self, sja, n):
        spec, J, A = sja
        cur, total = A, F(0)
        for _ in range(n):
            cur, e = step_image(spec, cur, J)
            total += e.lo
        img, esc = power_image(spec, A, n, J)
        assert img == cur
        assert esc == MeasureBound.exact(total)

    def test_point_and_set_agree(self):
        spec = ConstructionSpec.staircase()
        x = F(3, 20)
        for n in (1, 2, 5, -2):
            y = apply_power(spec, x, n)
            st_ = build_stage(spec, 5)
            i = st_.locate(x)
            img, _ = power_image(spec, st_.level(i), n, 5)
            if img.measure > 0:
                assert contains(img, y.x)

    def test_escape_monotone_in_n(self):
        spec = ConstructionSpec.chacon()
        A = build_stage(spec, 2).base
        prev = F(0)
        for n in range(8):
            _, esc = power_image(spec, A, n, 3)
            assert esc.lo >= prev
            prev = esc.lo
