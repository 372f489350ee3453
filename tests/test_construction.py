"""Tower construction: recurrences, geometry, occurrence sets."""

from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rankone.construction import (
    ConstructionSpec,
    CutRule,
    SpacerRule,
    build_stage,
)
from rankone.errors import SpecError
from rankone.measure import canonicalize
from helpers import ambient, contains_interval, height_ratio_profile, level_lo, shifted

F = Fraction


def heights(spec, J):
    return [build_stage(spec, j).height for j in range(1, J + 1)]


class TestHeights:
    def test_odometer_heights_doubling(self):
        assert heights(ConstructionSpec.odometer(), 10) == [2 ** j for j in range(1, 11)]

    def test_staircase_heights_h1_2(self):
        # recurrence h_{j+1} = j*h_j + j(j-1)/2 starting at 2
        assert heights(ConstructionSpec.staircase(), 10) == [
            2, 2, 5, 18, 78, 400, 2415, 16926, 135436, 1218960]

    def test_staircase_heights_h1_3(self):
        assert heights(ConstructionSpec.staircase(h1=3), 10) == [
            3, 3, 7, 24, 102, 520, 3135, 21966, 175756, 1581840]

    def test_chacon_heights(self):
        # h_{j+1} = 3 h_j + 1 from h_1 = 1
        assert heights(ConstructionSpec.chacon(), 6) == [1, 4, 13, 40, 121, 364]

    def test_staircase_series_oracle(self):
        # Independent route to the staircase heights: dividing the
        # recurrence h_{j+1} = j h_j + j(j-1)/2 by j! gives the telescoping
        # series c_j = h_j/(j-1)! = h_1 + sum_{k=2}^{j-1} 1/(2 (k-2)!),
        # so h_j = (j-1)! * (h_1 + partial series).
        import math

        for h1 in (2, 3):
            spec = ConstructionSpec.staircase(h1=h1)
            for j in range(1, 11):
                series = F(h1) + sum(
                    (F(1, 2 * math.factorial(k - 2)) for k in range(2, j)), F(0))
                expect = series * math.factorial(j - 1)
                assert build_stage(spec, j).height == expect

    def test_height_ratio_profile_converges(self):
        prof = height_ratio_profile(ConstructionSpec.staircase(h1=2),
                                    ConstructionSpec.staircase(h1=3), 8)
        assert all(0 < r <= 1 for r in prof)
        assert prof[7] == F(16926, 21966)
        # limit is (2 + e/2) / (3 + e/2) ~ 0.77056
        assert abs(float(prof[7]) - 0.77056) < 0.01

    def test_ratio_profile_identical_specs(self):
        spec = ConstructionSpec.chacon()
        assert height_ratio_profile(spec, spec, 5) == (F(1),) * 5


class TestGeometry:
    def test_stage1_fills_unit_interval(self):
        st1 = build_stage(ConstructionSpec.odometer(), 1)
        assert st1.width == F(1, 2)
        assert st1.total == 1
        assert st1.level(0).lo == 0
        assert st1.level(1) == shifted(st1.base, F(1, 2))

    def test_tower_covers_ambient_exactly(self):
        for spec in (ConstructionSpec.odometer(), ConstructionSpec.staircase(),
                     ConstructionSpec.chacon(),
                     ConstructionSpec.random_spacers(seed=7)):
            for j in range(1, 6):
                st_ = build_stage(spec, j)
                assert st_.height * st_.width == st_.total
                cov = canonicalize([st_.level(i) for i in range(st_.height)])
                assert cov.intervals == (ambient(st_),)

    def test_levels_nested_in_parents(self):
        spec = ConstructionSpec.staircase()
        for j in range(2, 6):
            st_ = build_stage(spec, j)
            for i in range(st_.height):
                p = oracle_parent_index(st_, i)
                lv = st_.level(i)
                if p is None:
                    assert lv.lo >= st_.prev.total
                else:
                    assert contains_interval(st_.prev.level(p), lv)

    def test_locate_inverts_level(self):
        spec = ConstructionSpec.chacon()
        for j in (1, 3, 5):
            st_ = build_stage(spec, j)
            for i in range(st_.height):
                lv = st_.level(i)
                assert st_.locate(lv.lo) == i
                assert st_.locate(lv.lo + lv.length / 3) == i
        assert st_.locate(st_.total) is None

    def test_locate_beyond_materialization(self):
        # staircase stage 7 has height 2415, past the cursors' coarse limit
        st_ = build_stage(ConstructionSpec.staircase(), 7)
        for i in (0, 1, 1000, st_.height - 1):
            lv = st_.level(i)
            assert lv.length == st_.width
            assert st_.locate(lv.lo) == i

    def test_spacer_mass_growth(self):
        # M_{j+1} - M_j = w_{j+1} * sum(spacers)
        spec = ConstructionSpec.staircase()
        for j in range(1, 6):
            a, b = build_stage(spec, j), build_stage(spec, j + 1)
            assert b.total - a.total == b.width * sum(spec.spacers(j))

    def test_ancestor_index_chains(self):
        spec = ConstructionSpec.staircase()
        st5 = build_stage(spec, 5)
        for i in range(0, st5.height, 7):
            a = st5.ancestor_index(i, 3)
            if a is not None:
                assert contains_interval(build_stage(spec, 3).level(a), st5.level(i))


class TestOccurrences:
    def test_odometer_occurrence_sets(self):
        spec = ConstructionSpec.odometer()
        assert build_stage(spec, 2).occurrences(1) == (0, 2)
        assert build_stage(spec, 3).occurrences(1) == (0, 2, 4, 6)
        assert build_stage(spec, 3).occurrences(3) == (0,)

    def test_occurrences_match_containment(self):
        for spec in (ConstructionSpec.odometer(), ConstructionSpec.staircase(),
                     ConstructionSpec.chacon(),
                     ConstructionSpec.random_spacers(seed=1)):
            for J in range(1, 6):
                stJ = build_stage(spec, J)
                for k in range(1, J + 1):
                    base_k = build_stage(spec, k).base
                    direct = tuple(i for i in range(stJ.height)
                                   if contains_interval(base_k, stJ.level(i)))
                    assert stJ.occurrences(k) == direct

    def test_gaps_at_least_h_k(self):
        for spec in (ConstructionSpec.staircase(), ConstructionSpec.chacon()):
            for J in range(2, 6):
                stJ = build_stage(spec, J)
                for k in range(1, J):
                    occ = stJ.occurrences(k)
                    hk = build_stage(spec, k).height
                    assert all(b - a >= hk for a, b in zip(occ, occ[1:]))
                    assert occ[-1] + hk <= stJ.height  # blocks fit

    def test_base_occurrences_mass(self):
        # E_k is covered exactly by its stage-J occurrences: mu(E_k) = |S| w_J
        spec = ConstructionSpec.staircase()
        stJ = build_stage(spec, 5)
        assert len(stJ.occurrences(2)) * stJ.width == build_stage(spec, 2).width

    def test_occurrence_k_above_J_rejected(self):
        with pytest.raises(SpecError, match=r"^occurrence stage 4 out of range$"):
            build_stage(ConstructionSpec.odometer(), 3).occurrences(4)


class TestSpecSerialization:
    def test_round_trip_presets(self):
        for spec in (ConstructionSpec.odometer(), ConstructionSpec.staircase(h1=3),
                     ConstructionSpec.chacon(),
                     ConstructionSpec.random_spacers(seed=42, bound=3)):
            again = ConstructionSpec.from_json(spec.to_json())
            assert again == spec
            assert heights(again, 4) == heights(spec, 4)

    def test_preset_defaults_fill_in(self):
        spec = ConstructionSpec.from_json({"preset": "odometer", "max_stage": 6})
        assert spec.h1 == 2
        assert heights(spec, 4) == [2, 4, 8, 16]

    def test_rule_json_lists_set_fields_in_order(self):
        cases = ((CutRule("list", values=(2, 3)), {"kind": "list", "values": [2, 3]}),
                 (CutRule("constant", value=2), {"kind": "constant", "value": 2}),
                 (CutRule("stage"), {"kind": "stage"}),
                 (SpacerRule("list", rows=((0, 1), (2,))),
                  {"kind": "list", "rows": [[0, 1], [2]]}),
                 (SpacerRule("random", bound=3), {"kind": "random", "bound": 3}))
        for rule, doc in cases:
            got = rule.to_json()
            assert got == doc and list(got) == list(doc)
            assert all(type(v) is list for v in got.values() if not isinstance(v, (str, int)))
            assert all(type(r) is list for r in got.get("rows", ()))
            assert type(rule).from_json(got) == rule
        for cls, name in ((CutRule, "cut_rule"), (SpacerRule, "spacer_rule")):
            for bad in ([], {}, {"value": 2}):
                with pytest.raises(SpecError, match=f"^{name} must be a JSON object with a kind$"):
                    cls.from_json(bad)

    def test_unknown_preset_rejected(self):
        with pytest.raises(SpecError):
            ConstructionSpec.from_json({"preset": "mystery"})

    def test_custom_list_rules(self):
        spec = ConstructionSpec(
            h1=1,
            cut_rule=CutRule("list", values=(2, 3)),
            spacer_rule=SpacerRule("list", rows=((1, 0), (0, 0, 2))),
            max_stage=3,
        )
        assert heights(spec, 3) == [1, 3, 11]
        with pytest.raises(SpecError):
            build_stage(spec, 4)  # exceeds max_stage before list runs out

    def test_stage_budget_enforced(self):
        spec = ConstructionSpec.odometer(max_stage=3)
        build_stage(spec, 3)
        with pytest.raises(SpecError):
            build_stage(spec, 4)

    def test_random_requires_seed(self):
        spec = ConstructionSpec(h1=2, cut_rule=CutRule("stage"),
                                spacer_rule=SpacerRule("random", bound=2))
        with pytest.raises(SpecError):
            build_stage(spec, 2)

    def test_random_deterministic_per_seed(self):
        a = ConstructionSpec.random_spacers(seed=99)
        b = ConstructionSpec.random_spacers(seed=99)
        c = ConstructionSpec.random_spacers(seed=100)
        assert heights(a, 6) == heights(b, 6)
        assert heights(a, 6) != heights(c, 6) or a.spacers(3) != c.spacers(3)

    def test_chacon_spacers_need_three_cuts(self):
        spec = ConstructionSpec(h1=1, cut_rule=CutRule("constant", value=2),
                                spacer_rule=SpacerRule("chacon"))
        with pytest.raises(SpecError):
            build_stage(spec, 2)


@st.composite
def small_specs(draw):
    h1 = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["constant", "stage", "list"]))
    if kind == "constant":
        cut = CutRule("constant", value=draw(st.integers(min_value=1, max_value=4)))
    elif kind == "stage":
        cut = CutRule("stage")
    else:
        cut = CutRule("list", values=tuple(
            draw(st.lists(st.integers(min_value=1, max_value=4), min_size=5, max_size=5))))
    skind = draw(st.sampled_from(["none", "staircase", "random"]))
    if skind == "random":
        spacer = SpacerRule("random", bound=draw(st.integers(min_value=0, max_value=3)))
        seed = draw(st.integers(min_value=0, max_value=2 ** 20))
    else:
        spacer = SpacerRule(skind)
        seed = None
    return ConstructionSpec(h1=h1, cut_rule=cut, spacer_rule=spacer,
                            max_stage=5, seed=seed)


class TestConstructionProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_specs(), st.integers(min_value=1, max_value=5))
    def test_invariants_any_spec(self, spec, J):
        stJ = build_stage(spec, J)
        assert stJ.height * stJ.width == stJ.total
        prev_total = build_stage(spec, J - 1).total if J > 1 else None
        if prev_total is not None:
            assert stJ.total >= prev_total
        for k in range(1, J + 1):
            occ = stJ.occurrences(k)
            base_k = build_stage(spec, k).base
            got = canonicalize([stJ.level(i) for i in occ])
            assert got.intervals == (base_k,)

    @settings(max_examples=40, deadline=None)
    @given(small_specs(), st.integers(min_value=1, max_value=5))
    def test_level_cells_are_the_level_geometry(self, spec, J):
        stJ = build_stage(spec, J)
        cells = stJ.level_cells()
        assert sorted(cells) == list(range(stJ.height))
        for i, c in enumerate(cells):
            assert stJ.level(i).lo == c * stJ.width


# --------------------------------------------------------- ancestor runs

PRESETS = (ConstructionSpec.odometer(), ConstructionSpec.staircase(),
           ConstructionSpec.chacon())
# Every level of a run is checked against the oracle; cap the run length.
RUN_CHECK_MAX_HEIGHT = 3300


# ------------------------------------------------------ geometry oracles
#
# The Fraction recursions TowerStage used before its levels became integer
# cells: level i of stage j sits in column c at row rel of that column, that
# is c w_j above level rel of stage j-1, or among the column's spacers
# past M_{j-1}.

def oracle_column(stage, i):
    c = bisect_right(stage.offsets, i) - 1
    return c, i - stage.offsets[c]


def oracle_parent_index(stage, i):
    """Level of the previous stage containing level i, or None for a spacer
    level introduced at this stage."""
    c, rel = oracle_column(stage, i)
    return rel if rel < stage.prev.height else None


def oracle_level_lo(stage, i):
    if stage.prev is None:
        return i * stage.width
    c, rel = oracle_column(stage, i)
    if rel < stage.prev.height:
        return oracle_level_lo(stage.prev, rel) + c * stage.width
    t = rel - stage.prev.height
    return stage.prev.total + (stage.spacer_cum[c] + t) * stage.width


def oracle_locate(stage, x):
    if x >= stage.total:
        return None
    if stage.prev is None:
        return int(x // stage.width)
    if x < stage.prev.total:
        pi = oracle_locate(stage.prev, x)
        c = int((x - oracle_level_lo(stage.prev, pi)) // stage.width)
        return stage.offsets[c] + pi
    t = int((x - stage.prev.total) // stage.width)
    c = bisect_right(stage.spacer_cum, t) - 1
    return stage.offsets[c] + stage.prev.height + (t - stage.spacer_cum[c])


def oracle_ancestor(stage, i, k):
    """The parent_index walk ancestor_run replaced: one bisect per stage."""
    while stage.stage > k:
        i = oracle_parent_index(stage, i)
        if i is None:
            return None
        stage = stage.prev
    return i


def oracle_ancestor_run(stage, i, k):
    """The plain descent, column by column from this stage down to k, to a
    stage-k copy or the spacers of the column it lands in, with the cells
    read off the Fraction geometry: add is the run's first cell and scale
    the width of the stage it ends in over this stage's width."""
    st_, rel, lo = stage, i, 0
    while st_.stage > k:
        c, rel = oracle_column(st_, rel)
        lo += st_.offsets[c]
        if rel >= st_.prev.height:
            lo += st_.prev.height
            hi, copy = lo + st_.spacers[c], False
            break
        st_ = st_.prev
    else:
        hi, copy = lo + st_.height, True
    return (lo, hi, copy, oracle_level_lo(stage, lo) / stage.width,
            st_.width / stage.width)


def birth_stage(stage, i, k):
    """The stage above k at which spacer level i (relative to k) was added."""
    return min(s for s in range(k + 1, stage.stage + 1)
               if oracle_ancestor(stage, i, s) is not None)


CHAIN_SPECS = st.one_of(
    st.sampled_from(PRESETS + (ConstructionSpec.staircase(h1=3),)),
    st.integers(0, 10_000).map(ConstructionSpec.random_spacers))


class TestChainedDescent:
    """ancestor_run against the oracle along walks through the tower:
    forward skips, and revisits anywhere in it."""

    @settings(max_examples=80, deadline=None)
    @given(CHAIN_SPECS, st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=9),
           st.floats(min_value=0, max_value=1, exclude_max=True),
           st.lists(st.one_of(
               st.tuples(st.just("skip"), st.integers(min_value=1, max_value=40)),
               st.tuples(st.just("revisit"),
                         st.floats(min_value=0, max_value=1, exclude_max=True))),
               min_size=1, max_size=60))
    def test_walk_matches_one_shot_descent(self, spec, R, k, where, moves):
        k = min(k, R)
        stR = build_stage(spec, R)
        h = stR.height
        i = int(where * h)
        for kind, value in [("skip", 0)] + moves:
            i = (i + value) % h if kind == "skip" else int(value * h)
            assert stR.ancestor_run(i, k) == oracle_ancestor_run(stR, i, k)

    @pytest.mark.parametrize("spec, R, k", [
        (ConstructionSpec.staircase(), 6, 2),
        (ConstructionSpec.staircase(h1=3), 5, 1),
        (ConstructionSpec.random_spacers(seed=3), 6, 2),
    ])
    def test_spacer_runs_split_between_stages(self, spec, R, k):
        # every level in order: the runs tile the tower, a spacer run holds
        # spacers born at one stage, and some spacer runs sit right on top
        # of one another, born at rising stages (a tower's top stacks the
        # last-column spacers of every stage above k)
        stR = build_stage(spec, R)
        i, stacked, below = 0, 0, None
        while i < stR.height:
            run = stR.ancestor_run(i, k)
            lo, hi, copy = run[:3]
            assert lo == i < hi
            for i2 in range(lo, hi):
                assert stR.ancestor_run(i2, k) == run == oracle_ancestor_run(stR, i2, k)
            born = None
            if not copy:
                births = {birth_stage(stR, i2, k) for i2 in range(lo, hi)}
                assert len(births) == 1
                born = births.pop()
                if below is not None:
                    assert below < born
                    stacked += 1
            below, i = born, hi
        assert stacked > 0


class TestAncestorRuns:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.sampled_from(PRESETS),
                     st.integers(0, 10_000).map(ConstructionSpec.random_spacers)),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8),
           st.floats(min_value=0, max_value=1, exclude_max=True))
    def test_run_matches_parent_walk(self, spec, R, k, where):
        k = min(k, R)
        stR, stk = build_stage(spec, R), build_stage(spec, k)
        i = int(where * stR.height)
        lo, hi, copy, add, scale = stR.ancestor_run(i, k)
        assume(hi - lo <= RUN_CHECK_MAX_HEIGHT)
        assert 0 <= lo <= i < hi <= stR.height
        assert stR.ancestor_index(i, k) == oracle_ancestor(stR, i, k)
        for i2 in range(lo, hi):
            a = oracle_ancestor(stR, i2, k)
            cell = oracle_level_lo(stR, i2) / stR.width
            if copy:
                assert a == i2 - lo
                # a copy run is the stage-k tower translated by the start
                # of its first level (Cursor.x reads points this way)
                assert level_lo(stR, i2) == level_lo(stk, a) + level_lo(stR, lo)
                assert cell == add + scale * oracle_level_lo(stk, a) / stk.width
            else:
                assert a is None
                assert cell == add + scale * (i2 - lo)
        if copy:
            assert hi - lo == stk.height
        else:
            # one stage's spacers: the levels just outside the run lie in
            # stage-k copies or are spacers born at another stage
            born = birth_stage(stR, lo, k)
            assert {birth_stage(stR, i2, k) for i2 in range(lo, hi)} == {born}
            for out in (lo - 1, hi):
                if 0 <= out < stR.height and oracle_ancestor(stR, out, k) is None:
                    assert birth_stage(stR, out, k) != born

    @settings(max_examples=60, deadline=None)
    @given(CHAIN_SPECS, st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    def test_runs_tile_the_tower(self, spec, R, k):
        # walked from level 0 the runs tile the tower; a spacer run is
        # exactly the spacers of one column of the stage they are born at,
        # and every level has the oracle's ancestor and the run's cell
        k = min(k, R)
        stR, stk = build_stage(spec, R), build_stage(spec, k)
        i = 0
        while i < stR.height:
            lo, hi, copy, add, scale = stR.ancestor_run(i, k)
            assert lo == i < hi <= stR.height
            if not copy:
                stb = build_stage(spec, birth_stage(stR, lo, k))
                c, rel = oracle_column(stb, oracle_ancestor(stR, lo, stb.stage))
                assert rel == stb.prev.height and hi - lo == stb.spacers[c]
            for i2 in range(lo, hi):
                a = oracle_ancestor(stR, i2, k)
                assert a == (i2 - lo if copy else None)
                assert stR.cell(i2) == add + scale * (stk.cell(a) if copy else i2 - lo)
            i = hi

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.sampled_from(PRESETS + (ConstructionSpec.staircase(h1=3),)),
                     st.integers(0, 10_000).map(ConstructionSpec.random_spacers)),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.sampled_from([1, 2, 7, 10 ** 6]))
    def test_stage_name_is_every_ancestor(self, spec, R, j, scale):
        # unborn levels read as scale * h_j; stage j's own name stays a
        # range, however tall the stage
        j = min(j, R)
        stR = build_stage(spec, R)
        unborn = scale * build_stage(spec, j).height
        name = stR.stage_name(j, scale)
        assert list(name) == [unborn if a is None else scale * a
                              for a in (oracle_ancestor(stR, i, j)
                                        for i in range(stR.height))]
        assert isinstance(name, range if j == R else tuple)
        assert list(stR.stage_name(j)) == list(stR.stage_name(j, 1))
        for bad in (0, R + 1):
            with pytest.raises(SpecError):
                stR.stage_name(bad)

    def test_own_stage_is_one_copy(self):
        st5 = build_stage(ConstructionSpec.staircase(), 5)
        for i in (0, 40, st5.height - 1):
            assert st5.ancestor_run(i, 5) == (0, st5.height, True, 0, 1)

    def test_rejects_stage_out_of_range(self):
        st3 = build_stage(ConstructionSpec.chacon(), 3)
        for k in (0, 4):
            with pytest.raises(SpecError):
                st3.ancestor_run(0, k)


# ---------------------------------------------------------- cell geometry

GEOMETRY_SPECS = st.one_of(
    st.sampled_from(PRESETS + (ConstructionSpec.staircase(h1=3),)),
    st.integers(0, 10_000).map(ConstructionSpec.random_spacers))


class TestCellGeometry:
    @settings(max_examples=60, deadline=None)
    @given(GEOMETRY_SPECS, st.integers(min_value=1, max_value=8), st.data())
    def test_cells_match_the_fraction_recursion(self, spec, J, data):
        stJ = build_stage(spec, J)
        h, w = stJ.height, stJ.width
        cells = stJ.level_cells()
        levels = data.draw(st.lists(st.integers(0, h - 1), min_size=1,
                                    max_size=12))
        for i in levels + [0, h - 1]:
            c = stJ.cell(i)
            assert cells[i] == c
            assert stJ.level_of_cell(c) == i
            assert stJ.level_of_cell(i) == cells.index(i)
            lv = stJ.level(i)
            assert lv.lo == oracle_level_lo(stJ, i) == c * w
            assert lv.hi == lv.lo + w
        for _ in range(6):
            x = stJ.total * F(data.draw(st.integers(0, 10 ** 6)), 10 ** 6)
            assert stJ.locate(x) == oracle_locate(stJ, x)
        for i in levels:
            lo = oracle_level_lo(stJ, i)
            assert stJ.locate(lo) == stJ.locate(lo + w * F(2, 3)) == i

    def test_cells_and_levels_out_of_range(self):
        st3 = build_stage(ConstructionSpec.chacon(), 3)
        for bad in (-1, st3.height):
            with pytest.raises(SpecError):
                st3.cell(bad)
            with pytest.raises(SpecError):
                st3.level_of_cell(bad)
            with pytest.raises(SpecError):
                st3.level(bad)
