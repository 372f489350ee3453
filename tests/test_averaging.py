"""Weight sequences, adjoint convolution, averaging operator, L2 bounds.

average_apply counts hits of the pieces of f, cut at stage-J cell
boundaries, on the stage-J levels.  The differential tests check it against
`pieces_oracle`, which images each segment of f through power_image once
per shift and sums the images with StepFunction.add (the sweep
StepFunction.summed, checked pointwise in test_measure), and average_moments
against the norm, integral and escape of average_apply's P f; `flatness`
is checked against a scan of every window start, adjoint_convolution
against the sums over all pairs of weights.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rankone.averaging import (
    WeightSequence,
    adjoint_convolution,
    average_apply,
    average_moments,
    flatness,
    l2_deviation,
)
from rankone.construction import ConstructionSpec, build_stage
from rankone.errors import SpecError
from rankone.measure import (
    Interval,
    IntervalSet,
    MeasureBound,
    StepFunction,
    set_intersection,
)
from rankone.transform import power_image
from helpers import (ambient, as_dict, delta_weights, l2_inner, sup_abs, support, top,
                     value_at)

F = Fraction


@st.composite
def weight_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    zs = draw(st.lists(st.integers(min_value=0, max_value=12), min_size=n,
                       max_size=n, unique=True))
    raw = [draw(st.integers(min_value=1, max_value=9)) for _ in zs]
    total = sum(raw)
    return WeightSequence(tuple((z, F(r, total)) for z, r in zip(zs, raw)))


class TestWeightSequence:
    def test_rejects_bad_sums(self):
        with pytest.raises(SpecError):
            WeightSequence(((0, F(1, 2)),))
        with pytest.raises(SpecError):
            WeightSequence(((0, F(1, 2)), (1, F(2, 3))))

    def test_rejects_negative(self):
        with pytest.raises(SpecError):
            WeightSequence(((0, F(3, 2)), (1, F(-1, 2))))
        with pytest.raises(SpecError):
            WeightSequence(((-1, F(1)),))

    def test_drops_zero_entries(self):
        w = WeightSequence(((0, F(1)), (5, F(0))))
        assert w.support == (0,)

    def test_uniform_and_delta(self):
        assert as_dict(WeightSequence.uniform(4)) == {z: F(1, 4) for z in range(4)}
        assert as_dict(delta_weights(3)) == {3: F(1)}


class TestFlatness:
    def test_delta_is_one(self):
        assert flatness(delta_weights(0), 0) == 1

    def test_uniform(self):
        assert flatness(WeightSequence.uniform(7), 0) == F(1, 7)

    def test_uniform_window(self):
        assert flatness(WeightSequence.uniform(10), 2) == F(3, 10)

    def test_window_spans_gap(self):
        w = WeightSequence(((0, F(1, 2)), (5, F(1, 2))))
        assert flatness(w, 0) == F(1, 2)
        assert flatness(w, 5) == F(1)

    @settings(max_examples=50, deadline=None)
    @given(weight_sequences(), st.integers(min_value=0, max_value=6))
    def test_monotone_in_q(self, w, q):
        assert flatness(w, q) <= flatness(w, q + 1)
        assert flatness(w, q) >= flatness(w, 0)

    @settings(max_examples=100, deadline=None)
    @given(weight_sequences(), st.integers(min_value=0, max_value=15))
    def test_matches_scan_of_every_start(self, w, q):
        assert flatness(w, q) == scan_flatness(w, q)

    def test_far_shift_costs_nothing(self):
        w = WeightSequence(((0, F(1, 2)), (10**12, F(1, 2))))
        t0 = time.monotonic()
        assert flatness(w, 0) == F(1, 2)
        assert flatness(w, 10**12 - 1) == F(1, 2)
        assert flatness(w, 10**12) == 1
        assert time.monotonic() - t0 < 1.0


def scan_flatness(w, q):
    """The largest window sum over every start from the first support point
    minus q to the last support point."""
    d = as_dict(w)
    zs = sorted(d)
    best = Fraction(0)
    for start in range(max(0, zs[0] - q), zs[-1] + 1):
        s = sum((d.get(z, Fraction(0)) for z in range(start, start + q + 1)),
                Fraction(0))
        best = max(best, s)
    return best


class TestAdjointConvolution:
    def test_delta(self):
        assert adjoint_convolution(delta_weights(0)) == {0: F(1)}
        assert adjoint_convolution(delta_weights(4)) == {0: F(1)}

    def test_uniform_two(self):
        got = adjoint_convolution(WeightSequence.uniform(2))
        assert got == {-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}

    def test_uniform_diagonal(self):
        for n in (3, 5, 8):
            got = adjoint_convolution(WeightSequence.uniform(n))
            assert got[0] == F(1, n)

    @settings(max_examples=60, deadline=None)
    @given(weight_sequences())
    def test_normalization_and_proof_inequality(self, w):
        b = adjoint_convolution(w)
        assert sum(b.values()) == 1
        cap = flatness(w, 0)
        assert all(v <= cap for v in b.values())
        # symmetry of the autocorrelation
        assert all(b.get(-lag) == v for lag, v in b.items())

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=40, unique=True),
           st.lists(st.integers(0, 10**12), max_size=3), st.data())
    def test_matches_the_pair_sums(self, near, far, data):
        # dense supports take one big-int product, sparse ones the pair
        # loop; both give every lag of some pair, as Fractions over D^2
        zs = sorted(set(near + far))
        raw = [data.draw(st.integers(1, 9)) for _ in zs]
        w = WeightSequence(tuple((z, F(r, sum(raw))) for z, r in zip(zs, raw)))
        want = {}
        for z1, a1 in w.weights:
            for z2, a2 in w.weights:
                want[z1 - z2] = want.get(z1 - z2, 0) + a1 * a2
        assert adjoint_convolution(w) == want
        assert list(adjoint_convolution(w)) == sorted(want)


def indicator_of_base(spec, j):
    return StepFunction.indicator(IntervalSet((build_stage(spec, j).base,)))


class TestAverageApply:
    def test_delta_is_identity(self):
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, delta_weights(0), f, 2)
        assert Pf == f
        assert esc == MeasureBound.exact(0)

    def test_odometer_uniform_smooths_to_constant(self):
        # E_1 and T E_1 tile [0,1), so the two-term average is 1/2
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, WeightSequence.uniform(2), f, 2)
        assert esc == MeasureBound.exact(0)
        assert Pf.segments == ((F(0), F(1), F(1, 2)),)

    def test_escape_accounting(self):
        # shifting E_1 by 3 at stage 2 resolves one occurrence and loses one
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, delta_weights(3), f, 2)
        assert esc == MeasureBound.exact(F(1, 4))
        assert Pf.integral() == F(1, 4)
        # mean preservation up to escape
        assert abs(f.integral() - Pf.integral()) <= sup_abs(f) * esc.hi

    def test_linearity_on_resolved_mass(self):
        spec = ConstructionSpec.chacon()
        st3 = build_stage(spec, 3)
        w = WeightSequence.uniform(3)
        f = StepFunction.indicator(IntervalSet((st3.level(2),)), F(2))
        g = StepFunction.indicator(IntervalSet((st3.level(5),)), F(-1))
        Pf, ef = average_apply(spec, w, f, 3)
        Pg, eg = average_apply(spec, w, g, 3)
        Pfg, efg = average_apply(spec, w, f.add(g), 3)
        assert Pfg == Pf.add(Pg)
        assert efg == ef + eg

    def test_backward_direction_is_adjoint(self):
        # (P f, g) = (f, P* g) when nothing escapes either way
        spec = ConstructionSpec.odometer()
        st3 = build_stage(spec, 3)
        w = WeightSequence.uniform(2)
        f = StepFunction.indicator(IntervalSet((st3.level(3),)))
        g = StepFunction.indicator(IntervalSet((st3.level(4),)))
        Pf, ef = average_apply(spec, w, f, 3)
        Pstar_g, eg = average_apply(spec, w, g, 3, direction="backward")
        assert ef == MeasureBound.exact(0) and eg == MeasureBound.exact(0)
        assert l2_inner(Pf, g) == l2_inner(f, Pstar_g)

    def test_support_outside_ambient_refused_for_every_weight(self):
        # level 4 of staircase stage 3 is spacer mass added after stage 2;
        # z = 0 alone moves nothing, and f is still checked
        spec = ConstructionSpec.staircase()
        f = StepFunction.indicator(build_stage(spec, 3).levels_set([4]))
        for w in (delta_weights(0), WeightSequence.uniform(2)):
            for direction in ("forward", "backward"):
                with pytest.raises(SpecError, match="beyond the stage ambient"):
                    average_apply(spec, w, f, 2, direction)
        assert average_apply(spec, delta_weights(0), f, 3)[0] == f


# ------------------------------------------- level path against the oracle

PRESETS = (ConstructionSpec.odometer(), ConstructionSpec.staircase(),
           ConstructionSpec.chacon())
specs = st.one_of(st.sampled_from(PRESETS),
                  st.integers(0, 10_000).map(ConstructionSpec.random_spacers))
# The oracle images every piece through power_image once per shift.
ORACLE_MAX_HEIGHT = 130
VALUES = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-5, 3)])


@st.composite
def resolutions(draw):
    spec = draw(specs)
    J = draw(st.integers(1, 6))
    h = build_stage(spec, J).height
    assume(h <= ORACLE_MAX_HEIGHT)
    return spec, J, h


@st.composite
def weights_reaching(draw, h):
    """delta_0, or weights on a run of consecutive shifts plus scattered
    ones, some at or past h."""
    if draw(st.integers(0, 5)) == 0:
        return delta_weights(0)
    z0 = draw(st.integers(0, h + 2))
    zs = set(range(z0, z0 + draw(st.integers(1, 6))))
    zs |= set(draw(st.lists(st.integers(0, h + 3), max_size=4)))
    raw = {z: draw(st.sampled_from([1, 1, 1, 2, 3])) for z in zs}
    total = sum(raw.values())
    return WeightSequence(tuple((z, F(r, total)) for z, r in raw.items()))


@st.composite
def level_functions(draw, spec, k, M=None):
    """Signed multi-valued step functions on levels of stage k, inside
    [0, M) when M is given."""
    stk = build_stage(spec, k)
    levels = draw(st.lists(st.integers(0, stk.height - 1), max_size=6, unique=True))
    pieces = [(IntervalSet((stk.level(i),)), draw(VALUES)) for i in levels
              if M is None or stk.level(i).hi <= M]
    return StepFunction.from_pieces(pieces)


def pieces_oracle(spec, w, f, J, direction="forward"):
    """P f by imaging each segment of f through power_image once per shift."""
    sign = 1 if direction == "forward" else -1
    out = StepFunction(())
    escaped = Fraction(0)
    for z, a in w.weights:
        for lo, hi, v in f.segments:
            img, esc = power_image(spec, IntervalSet((Interval(lo, hi),)),
                                   sign * z, J)
            escaped += a * esc.hi
            if img.measure > 0:
                out = out.add(StepFunction.indicator(img, a * v))
    return out, MeasureBound.exact(escaped)


class TestLevelPath:
    @settings(max_examples=80, deadline=None)
    @given(resolutions(), st.sampled_from(["forward", "backward"]), st.data())
    def test_level_path_matches_interval_oracle(self, case, direction, data):
        # f on levels of a stage k <= J: whole stage-J cells only
        spec, J, h = case
        k = data.draw(st.integers(1, J))
        f = data.draw(level_functions(spec, k))
        w = data.draw(weights_reaching(h))
        assert average_apply(spec, w, f, J, direction) == pieces_oracle(
            spec, w, f, J, direction)

    @settings(max_examples=40, deadline=None)
    @given(resolutions(), st.sampled_from(["forward", "backward"]), st.data())
    def test_finer_levels_take_the_interval_path(self, case, direction, data):
        # levels of a stage k > J, narrower than w_J: not unions of stage-J
        # levels, so some cells hold part-cell pieces
        spec, J, h = case
        k = data.draw(st.integers(J + 1, J + 2))
        stJ = build_stage(spec, J)
        assume(build_stage(spec, k).width < stJ.width)
        f = data.draw(level_functions(spec, k, M=stJ.total))
        # pieces of f may still join into whole stage-J levels
        assume(any((x / stJ.width).denominator != 1
                   for seg in f.segments for x in seg[:2]))
        w = data.draw(weights_reaching(h))
        assert average_apply(spec, w, f, J, direction) == pieces_oracle(
            spec, w, f, J, direction)

    @settings(max_examples=40, deadline=None)
    @given(resolutions(), st.data())
    def test_part_of_a_level_takes_the_interval_path(self, case, data):
        spec, J, h = case
        stJ = build_stage(spec, J)
        i = data.draw(st.integers(0, h - 1))
        lvl = stJ.level(i)
        half = Interval(lvl.lo, lvl.lo + lvl.length / 2)
        f = StepFunction.from_pieces([(IntervalSet((half,)), data.draw(VALUES))])
        w = data.draw(weights_reaching(h))
        assert average_apply(spec, w, f, J) == pieces_oracle(spec, w, f, J)

    @settings(max_examples=60, deadline=None)
    @given(resolutions(), st.sampled_from(["forward", "backward"]), st.data())
    def test_rational_segments_match_oracle(self, case, direction, data):
        # segment ends on a 1/d grid of stage-J cells, spanning up to four
        # cells: pieces inside one cell, whole middles and both partial ends
        spec, J, h = case
        stJ = build_stage(spec, J)
        d = data.draw(st.sampled_from([1, 2, 3, 7]))
        ends = data.draw(st.lists(st.integers(0, h * d), min_size=2, max_size=8,
                                  unique=True).map(sorted))
        pieces = []
        for a, b in zip(ends[::2], ends[1::2]):
            b = min(b, a + 4 * d)
            pieces.append((IntervalSet((Interval(F(a, d) * stJ.width,
                                                 F(b, d) * stJ.width),)),
                           data.draw(VALUES)))
        f = StepFunction.from_pieces(pieces)
        w = data.draw(weights_reaching(h))
        assert average_apply(spec, w, f, J, direction) == pieces_oracle(
            spec, w, f, J, direction)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("weights, top_piece, meet", [
        # level 0 moved one level up meets level 1 unmoved, and back
        ({0: F(1, 2), 1: F(1, 2)}, False, {"forward": 1, "backward": 0}),
        # forward they meet two levels up while the piece on the top level
        # escapes entirely; backward the piece on level 0 escapes entirely
        ({1: F(1, 2), 2: F(1, 2)}, True, {"forward": 2}),
    ])
    def test_overlapping_classes_on_one_level(self, direction, weights, top_piece, meet):
        # 1 on the first half of level 0's cell and 2 on the middle half of
        # level 1's: two piece classes whose parts of a cell overlap
        spec, J = ConstructionSpec.odometer(), 3
        stJ = build_stage(spec, J)

        def part(i, a, b):
            lvl = stJ.level(i)
            return IntervalSet((Interval(lvl.lo + a * lvl.length, lvl.lo + b * lvl.length),))

        pieces = [(part(0, 0, F(1, 2)), 1), (part(1, F(1, 4), F(3, 4)), 2)]
        if top_piece:
            pieces.append((part(stJ.height - 1, F(1, 2), 1), -1))
        f = StepFunction.from_pieces(pieces)
        w = WeightSequence(tuple(weights.items()))
        Pf, esc = average_apply(spec, w, f, J, direction)
        assert (Pf, esc) == pieces_oracle(spec, w, f, J, direction)
        if direction in meet:
            # each lands there at weight 1/2: 1/2 + 1 on the quarter they share
            shared = part(meet[direction], F(1, 4), F(1, 2)).intervals[0]
            assert value_at(Pf, shared.lo) == value_at(Pf, (shared.lo + shared.hi) / 2) == F(3, 2)
        else:
            # all of level 0's half cell, and level 1's at z = 2 (weight 1/2)
            assert esc.hi == stJ.width * (F(1, 2) + F(1, 2) * F(1, 2))

    def test_many_classes_within_budget(self):
        # 100 pieces on a 1/7 grid of stage-10 cells, with assorted values:
        # well over 100 piece classes, whose segments overlap on most levels
        spec, J = ConstructionSpec.odometer(), 10
        stJ = build_stage(spec, J)
        rng = random.Random(7)
        ends = sorted(rng.sample(range(7 * stJ.height), 200))
        f = StepFunction.from_pieces([
            (IntervalSet((Interval(F(a, 7) * stJ.width, F(b, 7) * stJ.width),)),
             F(rng.choice([-3, -2, -1, 1, 2, 3, 4, 5]), rng.choice([1, 2, 3, 5])))
            for a, b in zip(ends[::2], ends[1::2])])
        t0 = time.monotonic()
        Pf, _ = average_apply(spec, WeightSequence.uniform(32), f, J)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"average_apply took {elapsed:.2f} s"
        # on level t >= 31 the 32 shifts back all stay in the tower: the
        # value at x is the mean of f at x's place in the cells of levels
        # t - 31, ..., t
        for _ in range(50):
            t, u = rng.randrange(31, stJ.height), F(rng.randrange(14) * 2 + 1, 28)
            at = [stJ.level(t - z).lo + u * stJ.width for z in range(32)]
            assert value_at(Pf, at[0]) == sum(value_at(f, x) for x in at) / 32

    def test_zero_function(self):
        spec = ConstructionSpec.chacon()
        got = average_apply(spec, WeightSequence.uniform(3), StepFunction(()), 4)
        assert got == (StepFunction(()), MeasureBound.exact(0))

    def test_deep_odometer_within_budget(self):
        # h_12 = 4096: the interval path images each piece once per shift
        spec = ConstructionSpec.odometer()
        f = StepFunction.indicator(build_stage(spec, 3).levels_set([0, 2, 3, 5, 6]))
        t0 = time.monotonic()
        Pf, esc = average_apply(spec, WeightSequence.uniform(256), f, 12)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"average_apply took {elapsed:.2f} s"
        assert esc.hi > 0
        assert Pf.integral() + esc.hi == f.integral()
        # stage-3 level l lifts to the stage-12 levels i = l mod 8; far from
        # the tower ends the 256 shifts see each residue 32 times
        assert value_at(Pf, build_stage(spec, 12).level(2000).lo) == F(5, 8)

    def test_part_cell_function_within_budget(self):
        # every third stage-10 level is a quarter of a stage-8 cell; imaged
        # segment by segment and summed with StepFunction.add, this took
        # about 100 s
        spec = ConstructionSpec.odometer()
        f = StepFunction.indicator(build_stage(spec, 10).levels_set(range(0, 1024, 3)))
        w = WeightSequence.uniform(64)
        t0 = time.monotonic()
        Pf, esc = average_apply(spec, w, f, 8)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"average_apply took {elapsed:.2f} s"
        assert Pf.integral() + esc.hi == f.integral()
        # a stage-10 level i whose stage-8 level i mod 256 is at least 63
        # stays in its copy for all 64 shifts back
        st10 = build_stage(spec, 10)
        for i in (63, 100, 400, 700, 1023):
            hits = sum(1 for z in range(64) if (i - z) % 3 == 0)
            assert value_at(Pf, st10.level(i).lo) == F(hits, 64)


@st.composite
def moment_weights(draw, h):
    """weights_reaching, or a run of up to 40 equal weights (dense enough
    for the big-int correlation), with half the mass moved past 10^12 in a
    quarter of the draws."""
    if draw(st.booleans()):
        w = draw(weights_reaching(h))
    else:
        z0, n = draw(st.integers(0, h + 2)), draw(st.integers(1, 40))
        w = WeightSequence(tuple((z0 + i, F(1, n)) for i in range(n)))
    if draw(st.integers(0, 3)) == 0:
        w = WeightSequence(tuple((z, a / 2) for z, a in w.weights)
                           + ((10**12, F(1, 2)),))
    return w


@st.composite
def two_stage_functions(draw, spec, J):
    """One value on levels of a stage k1 and another on levels of a finer
    stage k2 <= J off them: two piece classes whose own stages differ,
    unless the fine levels cover whole coarse ones."""
    k2 = draw(st.integers(2, J))
    coarse, fine = build_stage(spec, draw(st.integers(1, k2 - 1))), build_stage(spec, k2)
    A = coarse.levels_set(draw(st.lists(st.integers(0, coarse.height - 1), min_size=1,
                                        max_size=3, unique=True)))
    free = [i for i in range(fine.height)
            if not any(iv.lo <= fine.level(i).lo < iv.hi for iv in A.intervals)]
    v = draw(VALUES)
    pieces = [(A, v)]
    if free:
        B = fine.levels_set(draw(st.lists(st.sampled_from(free), min_size=1, max_size=3,
                                          unique=True)))
        pieces.append((B, draw(VALUES.filter(lambda x: x != v))))
    return StepFunction.from_pieces(pieces)


@st.composite
def moment_functions(draw, spec, J):
    """Signed step functions on levels of a stage k <= J, on levels of a
    finer stage, on levels of two stages k1 < k2 <= J (piece classes whose
    own stages differ), or on a 1/d grid of stage-J cells (part-cell
    pieces)."""
    stJ = build_stage(spec, J)
    mode = draw(st.integers(0, 3))
    if mode == 0:
        return draw(level_functions(spec, draw(st.integers(1, J))))
    if mode == 1 and J + 1 <= spec.max_stage:
        return draw(level_functions(spec, J + 1, M=stJ.total))
    if mode == 2 and J >= 2:
        return draw(two_stage_functions(spec, J))
    d = draw(st.sampled_from([1, 2, 3, 7]))
    ends = draw(st.lists(st.integers(0, stJ.height * d), min_size=2, max_size=8,
                         unique=True).map(sorted))
    return StepFunction.from_pieces(
        [(IntervalSet((Interval(F(a, d) * stJ.width, F(min(b, a + 4 * d), d) * stJ.width),)),
          draw(VALUES)) for a, b in zip(ends[::2], ends[1::2])])


class TestMoments:
    @settings(max_examples=150, deadline=None)
    @given(resolutions(), st.data())
    def test_moments_match_the_built_average(self, case, data):
        # average_apply is the oracle: its P f's norm, integral and escape
        spec, J, h = case
        f = data.draw(moment_functions(spec, J))
        w = data.draw(moment_weights(h))
        Pf, esc = average_apply(spec, w, f, J)
        assert average_moments(spec, w, f, J) == (Pf.l2_norm_sq(), Pf.integral(), esc)

    def test_deviation_from_moments_equals_the_built_route(self):
        spec = ConstructionSpec.chacon()
        f = StepFunction.indicator(build_stage(spec, 3).levels_set([2, 5, 9]), F(-5, 3))
        w = WeightSequence(((0, F(1, 2)), (3, F(1, 3)), (40, F(1, 6))))
        M = build_stage(spec, 4).total
        Pf, esc = average_apply(spec, w, f, 4)
        sq, integral, esc2 = average_moments(spec, w, f, 4)
        assert esc2 == esc and esc.hi > 0
        assert l2_deviation((sq, integral), F(1, 3), esc, M, 2) == l2_deviation(
            Pf, F(1, 3), esc, M, 2)

    def test_zero_function_and_refusal(self):
        spec = ConstructionSpec.staircase()
        w = WeightSequence.uniform(3)
        assert average_moments(spec, w, StepFunction(()), 4) == (
            0, 0, MeasureBound.exact(0))
        f = StepFunction.indicator(build_stage(spec, 3).levels_set([4]))
        with pytest.raises(SpecError, match="beyond the stage ambient"):
            average_moments(spec, w, f, 2)


class TestL2Deviation:
    def test_constant_equals_mean(self):
        Pf = StepFunction.from_pieces(
            [(IntervalSet((ambient(build_stage(ConstructionSpec.odometer(), 1)),)),
              F(1, 2))])
        got = l2_deviation(Pf, F(1, 2), MeasureBound.exact(0), F(1), sup_f=F(1, 2))
        assert got == MeasureBound.exact(0)

    def test_smoothed_odometer_deviation_zero(self):
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, WeightSequence.uniform(2), f, 2)
        got = l2_deviation(Pf, F(1, 2), esc, build_stage(spec, 2).total, sup_f=1)
        assert got == MeasureBound.exact(0)

    def test_indicator_variance(self):
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, delta_weights(0), f, 2)
        got = l2_deviation(Pf, F(1, 2), esc, F(1), sup_f=1)
        assert got == MeasureBound.exact(F(1, 4))

    def test_escape_widens_symmetrically(self):
        Pf = StepFunction.indicator(
            IntervalSet((build_stage(ConstructionSpec.odometer(), 1).base,)))
        esc = MeasureBound.exact(F(1, 8))
        got = l2_deviation(Pf, F(1, 2), esc, F(1), sup_f=F(1))
        exact_part = F(1, 4)
        slack = (F(1) + F(1, 2)) ** 2 * F(1, 8)
        assert got == MeasureBound(exact_part - slack if exact_part > slack else F(0),
                                   exact_part + slack)

    def test_enclosures_at_two_resolutions_overlap(self):
        # f = 100 on the top level of stage 3 and weights delta_1: at J=3 the
        # whole support escapes, so the computed P f is zero there and only
        # sup|f| = 100 keeps the J=3 enclosure around the J=7 one
        spec = ConstructionSpec.odometer()
        f = StepFunction.indicator(IntervalSet((top(build_stage(spec, 3)),)), 100)
        devs = []
        for J in (3, 7):
            M = build_stage(spec, J).total
            Pf, esc = average_apply(spec, delta_weights(1), f, J)
            devs.append(l2_deviation(Pf, f.integral() / M, esc, M, sup_f=100))
        coarse, fine = devs
        assert fine.lo == F(479375, 512)
        assert coarse.lo <= fine.hi and fine.lo <= coarse.hi

    def test_duality_two_paths(self):
        # ||P f||^2 against (P* P f, f), and against the convolution route
        spec = ConstructionSpec.odometer()
        st3 = build_stage(spec, 3)
        w = WeightSequence.uniform(2)
        f = StepFunction.indicator(IntervalSet((st3.level(3),)))
        Pf, ef = average_apply(spec, w, f, 3)
        assert ef == MeasureBound.exact(0)
        direct = Pf.l2_norm_sq()
        PstarPf, eb = average_apply(spec, w, Pf, 3, direction="backward")
        assert eb == MeasureBound.exact(0)
        assert direct == l2_inner(PstarPf, f) == F(1, 16)
        # convolution route: sum_w b^w (T^w f, f) with only the w=0 term
        # surviving for a single mid-tower level
        b = adjoint_convolution(w)
        conv = sum((bw * correlation_term(spec, f, lag) for lag, bw in b.items()),
                   F(0))
        assert conv == direct


def correlation_term(spec, f, lag):
    sup = support(f)
    img, esc = power_image(spec, sup, lag, 3)
    assert esc.hi == 0
    return set_intersection(sup, img).measure
