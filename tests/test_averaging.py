"""Weight sequences, adjoint convolution, averaging operator, L2 bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankone.averaging import (
    WeightSequence,
    adjoint_convolution,
    average_apply,
    flatness,
    l2_deviation,
)
from rankone.construction import ConstructionSpec, build_stage
from rankone.errors import SpecError
from rankone.measure import (
    IntervalSet,
    MeasureBound,
    StepFunction,
    l2_inner,
    set_intersection,
)
from rankone.transform import power_image

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
        assert WeightSequence.uniform(4).as_dict() == {z: F(1, 4) for z in range(4)}
        assert WeightSequence.delta(3).as_dict() == {3: F(1)}


class TestFlatness:
    def test_delta_is_one(self):
        assert flatness(WeightSequence.delta(0), 0) == 1

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


class TestAdjointConvolution:
    def test_delta(self):
        assert adjoint_convolution(WeightSequence.delta(0)) == {0: F(1)}
        assert adjoint_convolution(WeightSequence.delta(4)) == {0: F(1)}

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


def indicator_of_base(spec, j):
    return StepFunction.indicator(IntervalSet((build_stage(spec, j).base,)))


class TestAverageApply:
    def test_delta_is_identity(self):
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, WeightSequence.delta(0), f, 2)
        assert Pf == f
        assert esc == MeasureBound.zero()

    def test_odometer_uniform_smooths_to_constant(self):
        # E_1 and T E_1 tile [0,1), so the two-term average is 1/2
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, WeightSequence.uniform(2), f, 2)
        assert esc == MeasureBound.zero()
        assert Pf.segments == ((F(0), F(1), F(1, 2)),)

    def test_escape_accounting(self):
        # shifting E_1 by 3 at stage 2 resolves one occurrence and loses one
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, WeightSequence.delta(3), f, 2)
        assert esc == MeasureBound.exact(F(1, 4))
        assert Pf.integral() == F(1, 4)
        # mean preservation up to escape
        assert abs(f.integral() - Pf.integral()) <= f.sup_abs() * esc.hi

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
        assert ef == MeasureBound.zero() and eg == MeasureBound.zero()
        assert l2_inner(Pf, g) == l2_inner(f, Pstar_g)


class TestL2Deviation:
    def test_constant_equals_mean(self):
        Pf = StepFunction.from_pieces(
            [(IntervalSet((build_stage(ConstructionSpec.odometer(), 1).ambient,)),
              F(1, 2))])
        got = l2_deviation(Pf, F(1, 2), MeasureBound.zero(), F(1), sup_f=F(1, 2))
        assert got == MeasureBound.zero()

    def test_smoothed_odometer_deviation_zero(self):
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, WeightSequence.uniform(2), f, 2)
        got = l2_deviation(Pf, F(1, 2), esc, build_stage(spec, 2).total, sup_f=1)
        assert got == MeasureBound.zero()

    def test_indicator_variance(self):
        spec = ConstructionSpec.odometer()
        f = indicator_of_base(spec, 1)
        Pf, esc = average_apply(spec, WeightSequence.delta(0), f, 2)
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
        f = StepFunction.indicator(IntervalSet((build_stage(spec, 3).top,)), 100)
        devs = []
        for J in (3, 7):
            M = build_stage(spec, J).total
            Pf, esc = average_apply(spec, WeightSequence.delta(1), f, J)
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
        assert ef == MeasureBound.zero()
        direct = Pf.l2_norm_sq()
        PstarPf, eb = average_apply(spec, w, Pf, 3, direction="backward")
        assert eb == MeasureBound.zero()
        assert direct == l2_inner(PstarPf, f) == F(1, 16)
        # convolution route: sum_w b^w (T^w f, f) with only the w=0 term
        # surviving for a single mid-tower level
        b = adjoint_convolution(w)
        conv = sum((bw * correlation_term(spec, f, lag) for lag, bw in b.items()),
                   F(0))
        assert conv == direct


def correlation_term(spec, f, lag):
    sup = f.support
    img, esc = power_image(spec, sup, lag, 3)
    assert esc.hi == 0
    return set_intersection(sup, img).measure
