"""Exact interval substrate: intervals, interval sets, bounds, step
functions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rankone.measure import (
    EMPTY_SET,
    Interval,
    IntervalSet,
    MeasureBound,
    StepFunction,
    as_fraction,
    canonicalize,
    set_intersection,
)
from helpers import (contains, contains_value, is_exact, l2_inner, set_difference,
                     set_union, shifted, sup_abs, value_at)

F = Fraction


def iv(a, b):
    return Interval(F(a), F(b))


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=64)


@st.composite
def interval_sets(draw, max_intervals=4):
    cuts = sorted(draw(st.lists(fractions_st, min_size=2, max_size=2 * max_intervals,
                                unique=True)))
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if draw(st.booleans()):
            pieces.append(Interval(lo, hi))
    return canonicalize(pieces)


@st.composite
def step_functions(draw, max_pieces=4):
    cuts = sorted(draw(st.lists(fractions_st, min_size=2, max_size=2 * max_pieces,
                                unique=True)))
    values = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2)])
    return StepFunction.from_pieces(
        [(IntervalSet((Interval(lo, hi),)), draw(values))
         for lo, hi in zip(cuts[:-1], cuts[1:])])


@st.composite
def overlapping_segments(draw, max_segments=8):
    """(lo, hi, v) segments, lo < hi, with ends on a grid of thirds so that
    ends are shared and segments nest; some come with their negation, so
    that sums cancel to 0 where those two overlap."""
    grid = st.integers(-6, 6).map(lambda k: F(k, 3))
    values = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(3)])
    segs = []
    for a, b, v, cancel in draw(st.lists(st.tuples(grid, grid, values, st.booleans()),
                                         max_size=max_segments)):
        if a != b:
            segs.append((min(a, b), max(a, b), v))
            if cancel:
                c, d = sorted(draw(st.lists(grid, min_size=2, max_size=2, unique=True)))
                segs.append((c, d, -v))
    return segs


def assert_canonical(f):
    for lo, hi, v in f.segments:
        assert lo < hi and v != 0
    for (_, hi, v), (lo, _, w) in zip(f.segments, f.segments[1:]):
        assert hi <= lo
        assert hi < lo or v != w


class TestAsFraction:
    def test_accepts_int_str_fraction(self):
        assert as_fraction(3) == F(3)
        assert as_fraction("2/7") == F(2, 7)
        assert as_fraction(F(1, 3)) == F(1, 3)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestInterval:
    def test_length_and_contains(self):
        a = iv("1/4", "3/4")
        assert a.length == F(1, 2)
        assert contains(a, F(1, 4))
        assert not contains(a, F(3, 4))  # half-open on the right
        assert not contains(a, F(0))

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            iv(1, 0)

    def test_shift(self):
        assert shifted(iv(0, 1), F(1, 2)) == iv("1/2", "3/2")


class TestCanonicalize:
    def test_merges_adjacent_and_overlapping(self):
        got = canonicalize([iv(0, "1/2"), iv("1/2", 1), iv(2, 3), iv("5/2", "7/2")])
        assert got.intervals == (iv(0, 1), iv(2, "7/2"))

    def test_drops_empty(self):
        assert canonicalize([iv(1, 1), iv(0, 1)]).intervals == (iv(0, 1),)

    def test_empty_input(self):
        assert canonicalize([]) is not None
        assert canonicalize([]).measure == 0

    def test_constructor_refuses_non_canonical_data(self):
        for ivs, message in (((iv(0, 1), iv(1, 2)), "sorted and disjoint"),
                             ((iv(0, 2), iv(1, 3)), "sorted and disjoint"),
                             ((iv(2, 3), iv(0, 1)), "sorted and disjoint"),
                             ((iv(0, 1), iv(2, 2)), "empty intervals")):
            with pytest.raises(ValueError, match=message):
                IntervalSet(ivs)
        assert IntervalSet((iv(0, 1), iv(F(3, 2), 2))).measure == F(3, 2)

    @given(interval_sets())
    def test_idempotent(self, s):
        assert canonicalize(s.intervals) == s


class TestSetAlgebra:
    def test_union_intersection_difference_example(self):
        a = IntervalSet((iv(0, 1), iv(2, 3)))
        b = IntervalSet((iv("1/2", "5/2"),))
        assert set_union(a, b).intervals == (iv(0, 3),)
        assert set_intersection(a, b).intervals == (iv("1/2", 1), iv(2, "5/2"))
        assert set_difference(a, b).intervals == (iv(0, "1/2"), iv("5/2", 3))

    def test_difference_to_empty(self):
        a = IntervalSet((iv(0, 1),))
        assert set_difference(a, a) == EMPTY_SET

    @given(interval_sets(), interval_sets())
    def test_inclusion_exclusion(self, a, b):
        u = set_union(a, b)
        i = set_intersection(a, b)
        assert u.measure + i.measure == a.measure + b.measure

    @given(interval_sets(), interval_sets())
    def test_difference_partitions(self, a, b):
        assert set_difference(a, b).measure + set_intersection(a, b).measure == a.measure

    @given(interval_sets(), fractions_st)
    def test_shift_preserves_measure(self, a, t):
        assert shifted(a, t).measure == a.measure

    @given(interval_sets(), interval_sets(), fractions_st)
    def test_point_membership_consistent(self, a, b, x):
        assert contains(set_union(a, b), x) == (contains(a, x) or contains(b, x))
        assert contains(set_intersection(a, b), x) == (contains(a, x) and contains(b, x))


class TestMeasureBound:
    def test_exact_and_width(self):
        mb = MeasureBound.exact(F(1, 3))
        assert is_exact(mb) and mb.width == 0
        wide = MeasureBound(F(1, 4), F(1, 2))
        assert wide.width == F(1, 4)
        assert contains_value(wide, F(1, 3))
        assert not contains_value(wide, F(3, 4))

    def test_rejects_bad_order_and_negative(self):
        with pytest.raises(ValueError):
            MeasureBound(F(1, 2), F(1, 4))
        with pytest.raises(ValueError):
            MeasureBound(F(-1, 4), F(1, 4))

    def test_add_and_scale(self):
        s = MeasureBound(F(0), F(1, 4)) + MeasureBound(F(1, 8), F(1, 8))
        assert (s.lo, s.hi) == (F(1, 8), F(3, 8))
        sc = s.scale(F(2))
        assert (sc.lo, sc.hi) == (F(1, 4), F(3, 4))

    @staticmethod
    def outcome(make, lo, hi):
        try:
            ends = make(lo, hi)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)
        return [(type(x), x) for x in ends]

    @staticmethod
    def ends_of(lo, hi):
        mb = MeasureBound(lo, hi)
        return mb.lo, mb.hi

    @staticmethod
    def oracle(lo, hi):
        """The check on Fractions: coerce both ends, then 0 <= lo <= hi."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if not (0 <= lo <= hi):
            raise ValueError(f"invalid measure bound [{lo}, {hi}]")
        return lo, hi

    rationals = (fractions_st | st.fractions() | st.integers(-4, 4)
                 | fractions_st.map(str))
    ends = rationals | st.floats(-4, 4, allow_nan=False) | st.booleans()

    @settings(max_examples=400)
    @given(ends, ends)
    def test_integer_check_matches_fraction_check(self, lo, hi):
        got = self.outcome(self.ends_of, lo, hi)
        assert got == self.outcome(self.oracle, lo, hi)
        if isinstance(lo, float) or isinstance(hi, float):
            assert got[0] is TypeError


class TestStepFunction:
    def test_indicator_integral(self):
        s = IntervalSet((iv(0, "1/2"), iv(1, 2)))
        f = StepFunction.indicator(s)
        assert f.integral() == F(3, 2)
        assert value_at(f, F("1/4")) == 1
        assert value_at(f, F("3/4")) == 0

    def test_add_and_inner(self):
        f = StepFunction.from_pieces([(IntervalSet((iv(0, 1),)), F(2))])
        g = StepFunction.from_pieces([(IntervalSet((iv("1/2", "3/2"),)), F(3))])
        h = f.add(g)
        assert value_at(h, F("1/4")) == 2
        assert value_at(h, F("3/4")) == 5
        assert value_at(h, F("5/4")) == 3
        assert h.integral() == f.integral() + g.integral()
        # inner product: overlap is [1/2, 1) with product 6
        assert l2_inner(f, g) == F(3)

    def test_l2_norm(self):
        f = StepFunction.from_pieces([
            (IntervalSet((iv(0, "1/2"),)), F(2)),
            (IntervalSet((iv("1/2", 1),)), F(-1)),
        ])
        assert f.l2_norm_sq() == F(4, 2) + F(1, 2)
        assert sup_abs(f) == 2

    @given(step_functions(max_pieces=8))
    def test_l2_norm_sq_is_the_self_inner_product(self, f):
        assert f.l2_norm_sq() == l2_inner(f, f)

    @given(step_functions(), step_functions(), st.lists(fractions_st, max_size=6))
    def test_add_matches_pointwise_sum(self, f, g, xs):
        h = f.add(g)
        assert_canonical(h)
        ends = {x for s in f.segments + g.segments for x in s[:2]}
        cuts = sorted(ends)
        probes = ends | set(xs) | {(a + b) / 2 for a, b in zip(cuts, cuts[1:])}
        if cuts:
            probes |= {cuts[0] - 1, cuts[-1] + 1}
        for x in probes:
            assert value_at(h, x) == value_at(f, x) + value_at(g, x)
        # the canonical form is unique: it is the one from_pieces builds
        assert h == StepFunction.from_pieces(
            [(IntervalSet((Interval(a, b),)), value_at(f, a) + value_at(g, a))
             for a, b in zip(cuts, cuts[1:])])
        assert g.add(f) == h and h.integral() == f.integral() + g.integral()

    @given(overlapping_segments(), st.lists(fractions_st, max_size=4))
    @example([], [F(0)])
    @example([(F(0), F(2), F(1)), (F(1, 3), F(1), F(-1))], [])  # nested
    @example([(F(0), F(1), F(1, 2)), (F(1), F(2), F(1, 2))], [])  # shared end, equal values
    @example([(F(0), F(1), F(3)), (F(0), F(1), F(-3)), (F(1), F(2), F(1))], [])  # cancels
    def test_summed_is_the_sum_over_covering_segments(self, segs, xs):
        f = StepFunction.summed(segs)
        assert_canonical(f)
        cuts = sorted({x for s in segs for x in s[:2]})
        probes = set(cuts) | set(xs) | {(a + b) / 2 for a, b in zip(cuts, cuts[1:])}
        if cuts:
            probes |= {cuts[0] - 1, cuts[-1] + 1}
        for x in probes:
            assert value_at(f, x) == sum((v for lo, hi, v in segs if lo <= x < hi), F(0))

    def test_from_pieces_skips_zero_pieces_and_merges_equal_neighbours(self):
        # a zero value may overlap anything; equal adjacent values are one segment
        f = StepFunction.from_pieces([(IntervalSet((iv(0, 2),)), 0),
                                      (IntervalSet((iv(1, 3),)), 5),
                                      (IntervalSet((iv(3, 4), iv(5, 6))), "5"),
                                      (IntervalSet((iv(0, 9),)), "0/7")])
        assert f.segments == ((1, 4, 5), (5, 6, 5))
        assert all(type(x) is F for seg in f.segments for x in seg)
        assert StepFunction.from_pieces([(EMPTY_SET, 3), (IntervalSet((iv(0, 1),)), 0)]) \
            == StepFunction(())

    def test_from_pieces_refuses_overlapping_pieces(self):
        with pytest.raises(ValueError, match="disjoint"):
            StepFunction.from_pieces([(IntervalSet((iv(0, 1),)), 1),
                                      (IntervalSet((iv("1/2", 2),)), 1)])

    @settings(max_examples=50)
    @given(interval_sets(), fractions_st)
    def test_contains_and_value_at_agree_with_scans(self, a, x):
        assert contains(a, x) == any(contains(iv, x) for iv in a.intervals)
        f = StepFunction.indicator(a, F(3))
        assert value_at(f, x) == (3 if contains(a, x) else 0)

    @given(interval_sets(), interval_sets())
    def test_indicator_inner_is_intersection_measure(self, a, b):
        got = l2_inner(StepFunction.indicator(a), StepFunction.indicator(b))
        assert got == set_intersection(a, b).measure
