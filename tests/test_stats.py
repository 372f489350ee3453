"""Return profiles, maxima, window sums, correlations."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rankone import stats
from rankone.construction import ConstructionSpec, TowerStage, build_stage
from rankone.errors import SpecError
from rankone.measure import (Interval, IntervalSet, MeasureBound, canonicalize,
                             set_intersection)
from rankone.stats import (
    ReturnProfile,
    correlation,
    correlation_series,
    max_profile,
    return_profile,
    window_sums,
)
from rankone.transform import power_image
from helpers import is_subinterval_of, series_of

F = Fraction

PRESETS = [
    ConstructionSpec.odometer(),
    ConstructionSpec.staircase(),
    ConstructionSpec.chacon(),
    ConstructionSpec.random_spacers(seed=5),
]


class TestReturnProfile:
    def test_z_zero_is_one(self):
        for spec in PRESETS:
            prof = return_profile(spec, 2, 4, 0)
            assert prof[0] == MeasureBound.exact(F(1))

    def test_small_z_exactly_zero(self):
        for spec in PRESETS:
            for j in (1, 2, 3):
                hj = build_stage(spec, j).height
                prof = return_profile(spec, j, j + 2, hj - 1)
                for z in range(1, hj):
                    assert prof[z] == MeasureBound.exact(0)

    def test_odometer_z2_bounds_sharpen(self):
        spec = ConstructionSpec.odometer()
        assert return_profile(spec, 1, 3, 2)[2] == MeasureBound(F(3, 4), F(1))
        assert return_profile(spec, 1, 4, 2)[2] == MeasureBound(F(7, 8), F(1))

    def test_staircase_exact_value_at_height(self):
        # at J = 5 every occurrence of E_3 resolves z = 5, giving the exact
        # conditional measure 4/12
        prof = return_profile(ConstructionSpec.staircase(), 3, 5, 5)
        assert prof[5] == MeasureBound.exact(F(1, 3))

    def test_bounds_nest_as_resolution_grows(self):
        for spec in PRESETS:
            for j in (1, 2, 3):
                hj = build_stage(spec, j).height
                zmax = 2 * hj
                for J in range(j, 6):
                    a = return_profile(spec, j, J, zmax)
                    b = return_profile(spec, j, J + 1, zmax)
                    for z in range(zmax + 1):
                        assert is_subinterval_of(b[z], a[z]), (spec.preset, j, J, z)

    def test_degenerate_entries_flagged(self):
        spec = ConstructionSpec.odometer()
        hJ = build_stage(spec, 3).height
        prof = return_profile(spec, 1, 3, hJ + 2)
        for z in (hJ, hJ + 1, hJ + 2):
            assert z in prof.degenerate
            assert prof[z] == MeasureBound(F(0), F(1))
        assert hJ - 1 not in prof.degenerate

    def test_rejects_bad_stage_order(self):
        with pytest.raises(SpecError):
            return_profile(ConstructionSpec.odometer(), 3, 2, 1)


class TestMaxProfile:
    def test_range_inside_tower_height_is_zero(self):
        spec = ConstructionSpec.staircase()
        prof = return_profile(spec, 3, 5, 4)  # h_3 = 5, so z in 1..4
        assert max_profile(prof, 0) == MeasureBound.exact(0)

    def test_empty_range_refused(self):
        prof = return_profile(ConstructionSpec.odometer(), 1, 3, 2)
        with pytest.raises(SpecError):
            max_profile(prof, 5)

    def test_odometer_rigidity_upper_is_one(self):
        # T^{h_j} fixes E_j exactly for the odometer, so the upper bound at
        # z = h_j is 1 at every resolution
        spec = ConstructionSpec.odometer()
        for j in (1, 2, 3):
            hj = build_stage(spec, j).height
            for J in range(j + 1, 7):
                prof = return_profile(spec, j, J, hj)
                assert prof[hj].hi == 1
                assert max_profile(prof, 0).hi == 1

    def test_staircase_upper_below_one(self):
        spec = ConstructionSpec.staircase()
        for j in (3, 4):
            hj = build_stage(spec, j).height
            prof = return_profile(spec, j, j + 2, hj)
            assert prof[hj].hi < 1

    def test_staircase_trend_j3_below_j2(self):
        spec = ConstructionSpec.staircase()
        J = 6
        hJ = build_stage(spec, J).height
        vals = {}
        for j in (2, 3):
            hj = build_stage(spec, j).height
            prof = return_profile(spec, j, J, hJ - hj)
            vals[j] = max_profile(prof, hj)
        assert vals[3].hi < vals[2].hi


class TestWindowSums:
    def test_window_inside_tower_is_zero(self):
        spec = ConstructionSpec.staircase()
        prof = return_profile(spec, 3, 5, 4)
        sums = window_sums(prof, 2)
        assert sums[1] == MeasureBound.exact(0)
        assert sums[2] == MeasureBound.exact(0)

    def test_q_zero_reproduces_profile(self):
        prof = return_profile(ConstructionSpec.odometer(), 1, 4, 6)
        sums = window_sums(prof, 0)
        assert sums == prof.values

    def test_odometer_window_oracle(self):
        prof = return_profile(ConstructionSpec.odometer(), 1, 4, 4)
        sums = window_sums(prof, 3)
        assert sums[1] == MeasureBound(F(13, 8), F(17, 8))
        assert sums[1].lo >= F(7, 8)

    def test_lower_bounds_add_exactly(self):
        prof = return_profile(ConstructionSpec.chacon(), 2, 4, 10)
        sums = window_sums(prof, 2)
        for z, mb in sums.items():
            assert mb.lo == sum(prof[w].lo for w in range(z, z + 3))
            assert mb.hi == sum(prof[w].hi for w in range(z, z + 3))

    def test_oversized_window_refused(self):
        prof = return_profile(ConstructionSpec.odometer(), 1, 3, 4)
        with pytest.raises(SpecError):
            window_sums(prof, 5)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.fractions(0, 1, max_denominator=60),
                              st.fractions(0, 1, max_denominator=60)),
                    min_size=1, max_size=30),
           st.data())
    def test_matches_naive_sums(self, pairs, data):
        values = {z: MeasureBound(min(a, b), max(a, b))
                  for z, (a, b) in enumerate(pairs)}
        prof = ReturnProfile(j=1, J=1, values=series_of(values))
        q = data.draw(st.integers(0, prof.z_max))
        assert window_sums(prof, q) == naive_window_sums(prof, q)


def naive_window_sums(profile, q):
    out = {}
    for z in range(profile.z_max - q + 1):
        total = MeasureBound.exact(0)
        for w in range(z, z + q + 1):
            total = total + profile.values[w]
        out[z] = total
    return out


class TestCorrelation:
    def test_m_zero_exact(self):
        spec = ConstructionSpec.odometer()
        st3 = build_stage(spec, 3)
        A = canonicalize([st3.level(0), st3.level(3)])
        B = canonicalize([st3.level(3), st3.level(5)])
        got = correlation(spec, A, B, 0, 3)
        assert got == MeasureBound.exact(st3.width)

    def test_disjoint_level_unions(self):
        spec = ConstructionSpec.chacon()
        st3 = build_stage(spec, 3)
        A = canonicalize([st3.level(0), st3.level(2)])
        B = canonicalize([st3.level(1), st3.level(4)])
        assert correlation(spec, A, B, 0, 3) == MeasureBound.exact(0)

    def test_odometer_base_m2_oracle(self):
        spec = ConstructionSpec.odometer()
        E1 = IntervalSet((build_stage(spec, 1).base,))
        assert correlation(spec, E1, E1, 2, 3) == MeasureBound(F(3, 8), F(1, 2))

    def test_upper_clamped_by_min_measure(self):
        spec = ConstructionSpec.odometer()
        st2 = build_stage(spec, 2)
        A = IntervalSet((st2.level(0),))
        B = IntervalSet((build_stage(spec, 1).base,))
        got = correlation(spec, A, B, 3, 2)
        assert got.hi <= min(A.measure, B.measure)

    def test_series_carries_target(self):
        spec = ConstructionSpec.staircase()
        E2 = IntervalSet((build_stage(spec, 2).base,))
        series = correlation_series(spec, E2, E2, 5, 4)
        M = build_stage(spec, 4).total
        assert series.normalization == M
        assert series.target == E2.measure ** 2 / M
        assert set(series.values) == set(range(6))

    def test_intervals_coerce_like_power_image(self):
        # an Interval, empty or not, is read as the set of it, the same way
        # power_image reads it
        spec = ConstructionSpec.staircase()
        st3 = build_stage(spec, 3)
        x = st3.level(2).lo
        B = IntervalSet((st3.level(1),))
        assert correlation(spec, Interval(x, x), B, 1, 3) == MeasureBound.exact(0)
        assert correlation(spec, B, Interval(x, x), 1, 3) == MeasureBound.exact(0)
        assert correlation(spec, st3.level(2), st3.level(1), 1, 3) == \
            correlation(spec, IntervalSet((st3.level(2),)), B, 1, 3)
        series = correlation_series(spec, Interval(x, x), B, 2, 3)
        assert series.A.is_empty() and series.target == 0
        assert all(v == MeasureBound.exact(0) for v in series.values.values())

    def test_two_path_agreement(self):
        # combinatorial occurrence overlap vs geometric image pushing must
        # produce identical enclosures
        for spec in PRESETS:
            for j in (1, 2, 3):
                hj = build_stage(spec, j).height
                Ej = IntervalSet((build_stage(spec, j).base,))
                mu = Ej.measure
                for J in range(j, 6):
                    prof = return_profile(spec, j, J, 2 * hj)
                    for z in range(2 * hj + 1):
                        geo = correlation(spec, Ej, Ej, z, J)
                        assert geo.scale(1 / mu) == prof[z], (spec.preset, j, J, z)


SERIES_SPECS = st.one_of(
    st.sampled_from(PRESETS + [ConstructionSpec.staircase(h1=3)]),
    st.integers(0, 10_000).map(ConstructionSpec.random_spacers))


def draw_set(data, spec, J, whole_levels):
    """A union of whole stage-k levels for some k <= J, or with
    whole_levels False that union plus a part of one stage-J level, which
    no union of levels of stages 1..J equals."""
    k = data.draw(st.integers(1, J))
    stk = build_stage(spec, k)
    levels = data.draw(st.sets(st.integers(0, stk.height - 1), max_size=4))
    ivs = [stk.level(i) for i in levels]
    if not whole_levels:
        stJ = build_stage(spec, J)
        lvl = stJ.level(data.draw(st.integers(0, stJ.height - 1)))
        d = data.draw(st.integers(2, 5))
        a = data.draw(st.integers(0, d - 1))
        b = data.draw(st.integers(a + 1, d).filter(lambda b: (a, b) != (0, d)))
        w = lvl.length
        ivs.append(Interval(lvl.lo + w * a / d, lvl.lo + w * b / d))
    return canonicalize(ivs)


class TestCorrelationSeries:
    @settings(max_examples=60, deadline=None)
    @given(SERIES_SPECS, st.integers(1, 4), st.booleans(), st.booleans(),
           st.data())
    def test_series_entries_are_correlations(self, spec, J, whole_a, whole_b,
                                             data):
        hJ = build_stage(spec, J).height
        A = draw_set(data, spec, J, whole_a)
        B = draw_set(data, spec, J, whole_b)
        m_max = data.draw(st.integers(0, min(hJ + 3, 40)))
        series = correlation_series(spec, A, B, m_max, J)
        assert set(series.values) == set(range(m_max + 1))
        for m, value in series.values.items():
            assert value == correlation(spec, A, B, m, J), m

    @settings(max_examples=40, deadline=None)
    @given(SERIES_SPECS, st.integers(1, 4), st.booleans(), st.booleans(), st.data())
    def test_kernel_matches_power_image(self, spec, J, whole_a, whole_b, data):
        # level unions and sets with part of a stage-J level both take the
        # lag kernel, by piece classes; the oracle pushes B through
        # power_image, for shifts of either sign and past the tower
        hJ = build_stage(spec, J).height
        A = draw_set(data, spec, J, whole_a)
        B = draw_set(data, spec, J, whole_b)
        m = data.draw(st.integers(-hJ - 2, hJ + 2))
        img, esc = power_image(spec, B, m, J)
        lo = set_intersection(A, img).measure
        hi = max(lo, min(lo + esc.hi, A.measure, B.measure))
        assert correlation(spec, A, B, m, J) == MeasureBound(lo, hi)

    def test_levels_made_bitsets_once_per_set(self):
        spec = ConstructionSpec.staircase(h1=3)
        st3 = build_stage(spec, 3)
        A, B = st3.levels_set([0, 2]), st3.levels_set([1])
        with mock.patch.object(TowerStage, "level_bits", autospec=True,
                               side_effect=TowerStage.level_bits) as spy:
            series = correlation_series(spec, A, B, 30, 5)
        assert spy.call_count == 2
        assert series.values[1].lo > 0


class TestEntryLimit:
    """Oversized ranges are refused before any stage is built."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started on an oversized request")
        monkeypatch.setattr(stats, "build_stage", refuse)

    def test_huge_profile_and_series_refused_first(self, no_work):
        huge = 10**100
        limit = stats.MAX_ENTRIES
        msg = f"^{huge + 1} entries requested, more than the limit of {limit}$"
        E = build_stage(PRESETS[0], 1).levels_set([0])
        with pytest.raises(SpecError, match=msg):
            return_profile(PRESETS[0], 1, 3, huge)
        with pytest.raises(SpecError, match=msg):
            correlation_series(PRESETS[0], E, E, huge, 3)

    def test_limit_counts_entries(self, monkeypatch):
        monkeypatch.setattr(stats, "MAX_ENTRIES", 5)
        spec = PRESETS[1]
        E = build_stage(spec, 1).levels_set([0])
        assert return_profile(spec, 1, 3, 4).z_max == 4
        assert max(correlation_series(spec, E, E, 4, 3).values) == 4
        with pytest.raises(SpecError, match="^6 entries requested, "
                                            "more than the limit of 5$"):
            return_profile(spec, 1, 3, 5)
        with pytest.raises(SpecError, match="^6 entries requested"):
            correlation_series(spec, E, E, 5, 3)
