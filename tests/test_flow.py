"""Grid skeletons of flow pairs: thickened bases, windowed returns, bands."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankone.construction import ConstructionSpec, build_stage
from rankone.errors import SpecError
from rankone.flow import (
    FlowSkeletonSpec,
    band_indices,
    band_masses,
    consequence_check,
    thickened_base,
    windowed_return_flow,
)
from rankone.joinings import BlockIndex, empirical_joining, product_blocks
from rankone.measure import MeasureBound, set_intersection
from rankone.stats import return_profile, window_sums
from rankone.transform import Cursor, power_image
from helpers import coarse_height, is_exact, lifted_bits

ODO = ConstructionSpec.odometer()
ST2 = ConstructionSpec.staircase(h1=2)
CHA = ConstructionSpec.chacon()
PRESETS = [ODO, ST2, CHA, ConstructionSpec.random_spacers(seed=7)]


# ---------------------------------------------------------------- spec

def test_flow_spec_validation():
    with pytest.raises(SpecError):
        FlowSkeletonSpec(base=ODO, grid_inverse=1, alpha=F(1))
    with pytest.raises(SpecError):
        FlowSkeletonSpec(base=ODO, grid_inverse=1, alpha=F(1, 2))
    with pytest.raises(SpecError):
        FlowSkeletonSpec(base=ODO, grid_inverse=0, alpha=F(2))
    with pytest.raises(TypeError):
        FlowSkeletonSpec(base=ODO, grid_inverse=1, alpha=1.5)


def test_flow_spec_alpha_reduced():
    fs = FlowSkeletonSpec(base=ODO, grid_inverse=2, alpha=F(4, 2))
    assert (fs.alpha.numerator, fs.alpha.denominator) == (2, 1)
    assert fs.t == F(1, 2)
    fs32 = FlowSkeletonSpec(base=ODO, grid_inverse=1, alpha=F(3, 2))
    assert (fs32.alpha.numerator, fs32.alpha.denominator) == (3, 2)


def test_coarse_height():
    fs = FlowSkeletonSpec(base=ODO, grid_inverse=3, alpha=F(2))
    assert coarse_height(fs, 3) == 8 // 3
    assert coarse_height(FlowSkeletonSpec.doubled(ODO), 3) == 8


# ---------------------------------------------------------------- thickened base

def test_thickened_q0_is_base():
    fs = FlowSkeletonSpec.doubled(ODO)
    tb = thickened_base(fs, 2, 4, q=0)
    assert tb.E1 == build_stage(ODO, 2).levels_set([0])
    assert tb.measure == F(1, 4)


def test_thickened_odometer_frozen():
    fs = FlowSkeletonSpec.doubled(ODO)
    tb = thickened_base(fs, 2, 4)
    st = build_stage(ODO, 2)
    assert tb.E1 == st.levels_set([0, 1])
    assert tb.measure == F(1, 2)
    assert tb.coarse_levels == 4


def test_thickened_measure_identity():
    for spec in PRESETS:
        for j in (1, 2, 3, 4):
            st = build_stage(spec, j)
            fs = FlowSkeletonSpec.doubled(spec)
            for q in range(min(st.height, 6)):
                tb = thickened_base(fs, j, j, q=q)
                assert tb.measure == (q + 1) * st.width


def test_thickened_refusals():
    fs = FlowSkeletonSpec.doubled(CHA)
    with pytest.raises(SpecError):
        thickened_base(fs, 1, 4)        # q+1 = 2 > h_1 = 1
    fs8 = FlowSkeletonSpec(base=ODO, grid_inverse=8, alpha=F(2))
    with pytest.raises(SpecError):
        thickened_base(fs8, 2, 4)       # q+1 = 9 > h_2 = 4
    with pytest.raises(SpecError):
        thickened_base(fs, 3, 2)        # j > J


# ---------------------------------------------------------------- windows

def test_windowed_matches_window_sums():
    fs = FlowSkeletonSpec.doubled(ST2)
    rep = windowed_return_flow(fs, 2, 5, range(0, 8))
    prof = return_profile(ST2, 2, 5, 8 + 1)
    ws = window_sums(prof, 1)
    for z in range(8):
        assert rep.values[z] == ws[z]


def test_windowed_q0_reduces_to_profile():
    fs = FlowSkeletonSpec.doubled(ODO)
    rep = windowed_return_flow(fs, 2, 5, range(0, 6), q=0)
    prof = return_profile(ODO, 2, 5, 5)
    for z in range(6):
        assert rep.values[z] == prof[z]


def test_windowed_silent_zone():
    fs = FlowSkeletonSpec.doubled(ODO)
    rep = windowed_return_flow(fs, 3, 6, range(1, 7))
    for z in range(1, 7):
        assert rep.values[z].lo == 0 and rep.values[z].hi == 0
    assert rep.max_bound.hi == 0


def test_windowed_max_bound():
    fs = FlowSkeletonSpec.doubled(ODO)
    rep = windowed_return_flow(fs, 2, 5, range(0, 6))
    assert rep.max_bound.lo == 1            # the z = 0 window holds a^0 = 1
    assert rep.max_bound.hi == F(9, 8)
    with pytest.raises(SpecError):
        windowed_return_flow(fs, 2, 5, [])


# ---------------------------------------------------------------- consequence

def test_consequence_exact_when_no_escape():
    fs = FlowSkeletonSpec.doubled(ODO)
    for z in (1, 2, 3):
        rec = consequence_check(fs, 2, 5, z)
        assert is_exact(rec.geometric_route)
        assert rec.consistent
        assert rec.window_route.lo <= rec.geometric_route.lo \
            <= rec.window_route.hi


def test_consequence_with_escape_frozen():
    fs = FlowSkeletonSpec.doubled(ODO)
    rec = consequence_check(fs, 2, 5, 4)
    assert rec.window_route.lo == F(7, 32) and rec.window_route.hi == F(1, 4)
    assert rec.geometric_route.lo == F(7, 32)
    assert rec.geometric_route.hi == F(1, 4)
    assert rec.consistent


def test_consequence_always_overlaps():
    for spec in (ODO, ST2):
        fs = FlowSkeletonSpec.doubled(spec)
        hj = build_stage(spec, 3).height
        for z in (1, 2, hj - 1, hj, hj + 2):
            rec = consequence_check(fs, 3, 6, z)
            assert rec.consistent


def oracle_geometric_route(fspec, j, J, z):
    """mu(E1_j intersect T^z E_j) through the interval image of E_j."""
    img, esc = power_image(fspec.base, build_stage(fspec.base, j).levels_set([0]),
                           z, J)
    resolved = set_intersection(thickened_base(fspec, j, J).E1, img).measure
    return MeasureBound(resolved, resolved + esc.hi)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(PRESETS),
                 st.integers(0, 10_000).map(ConstructionSpec.random_spacers)),
       st.integers(1, 7), st.integers(1, 3), st.data())
def test_consequence_bits_match_power_image(spec, J, q, data):
    j = data.draw(st.integers(1, J))
    h, hJ = build_stage(spec, j).height, build_stage(spec, J).height
    assume(q + 1 <= h and hJ <= 2500)
    z = data.draw(st.one_of(st.integers(q, h + 2),
                            st.sampled_from([hJ - 1, hJ, hJ + 3])))
    assume(z >= q)
    fs = FlowSkeletonSpec(spec, q, F(2))
    rec = consequence_check(fs, j, J, z)
    assert rec.geometric_route == oracle_geometric_route(fs, j, J, z)


def power_bits_route(fspec, j, J, z):
    """The geometric route spelled out on level bitsets: the occurrence
    bitset of E_j shifted by z and masked to the tower, `&` the bits of
    E1_j, widened by the bits shifted past the top."""
    stJ = build_stage(fspec.base, J)
    bits, h = stJ.occurrence_bits(j), stJ.height
    img = (bits << z) & ((1 << h) - 1) if z < h else 0
    out = bits >> max(h - z, 0)
    e1 = lifted_bits(stJ, thickened_base(fspec, j, J).E1)
    resolved = (e1 & img).bit_count() * stJ.width
    return MeasureBound(resolved, resolved + out.bit_count() * stJ.width)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(PRESETS + [ConstructionSpec.staircase(h1=3)]),
                 st.integers(0, 10_000).map(ConstructionSpec.random_spacers)),
       st.integers(1, 7), st.integers(1, 3), st.data())
def test_consequence_matches_power_bits_formula(spec, J, q, data):
    j = data.draw(st.integers(1, J))
    h, hJ = build_stage(spec, j).height, build_stage(spec, J).height
    assume(q + 1 <= h and hJ <= 100_000)
    z = data.draw(st.one_of(st.integers(q, 3 * h),
                            st.sampled_from([hJ - 1, hJ, hJ + 3])))
    assume(z >= q)
    fs = FlowSkeletonSpec(spec, q, F(2))
    rec = consequence_check(fs, j, J, z)
    assert rec.geometric_route == power_bits_route(fs, j, J, z)


def test_consequence_z_below_q_refused():
    fs = FlowSkeletonSpec(base=ODO, grid_inverse=2, alpha=F(2))
    with pytest.raises(SpecError):
        consequence_check(fs, 2, 5, 1)


# ---------------------------------------------------------------- bands

def test_band_alpha2_matches_display():
    # brute-force transcription of the alpha = 2 index unions
    for spec in (ODO, ST2):
        fs = FlowSkeletonSpec.doubled(spec)
        for j in (1, 2, 3):
            h = build_stage(spec, j).height
            for w in range(h):
                brute = {(2 * z + w, z + hh)
                         for z in range(h - w + 1) for hh in (0, 1)
                         if 0 <= 2 * z + w <= h - 1 and 0 <= z + hh <= h - 1}
                if brute:
                    got = band_indices(fs, h, h, w, "right")
                    assert got == frozenset(BlockIndex(*b) for b in brute)
                else:
                    with pytest.raises(SpecError):
                        band_indices(fs, h, h, w, "right")
            for v in range(min(h, 4)):
                brute = {(2 * z, z + hh + v)
                         for z in range(h + 1) for hh in (0, 1)
                         if 0 <= 2 * z <= h - 1 and 0 <= z + hh + v <= h - 1}
                if brute:
                    got = band_indices(fs, h, h, v, "left", z_bound=h)
                    assert got == frozenset(BlockIndex(*b) for b in brute)
                else:
                    with pytest.raises(SpecError):
                        band_indices(fs, h, h, v, "left", z_bound=h)


def unclipped_band(fs, h_a, h_b, offset, side, z_bound):
    """band_indices' set by its first walk: every z up to z_top and h up
    to q, then the blocks off the h_a x h_b grid dropped."""
    p, qp, q = fs.alpha.numerator, fs.alpha.denominator, fs.grid_inverse
    z_top = h_b - offset if side == "right" else z_bound
    d1, d2 = (offset, 0) if side == "right" else (0, offset)
    out = {BlockIndex(p * z // qp + d1, z + d2 + h) for z in range(z_top + 1)
           if p * z % qp == 0 for h in range(q + 1)}
    return frozenset(b for b in out if 0 <= b.z1 < h_a and 0 <= b.z2 < h_b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 12), st.integers(1, 9),
       st.integers(1, 9), st.integers(0, 10), st.sampled_from(["left", "right"]),
       st.integers(0, 30))
def test_band_indices_walk_only_the_grid(qp, dp, q, h_a, h_b, offset, side, z_bound):
    # z_bound, q and the offsets run past the grid
    fs = FlowSkeletonSpec(base=ODO, grid_inverse=q, alpha=F(qp + dp, qp))
    want = unclipped_band(fs, h_a, h_b, offset, side, z_bound)
    if want and not (side == "right" and offset > h_a - 1):
        assert band_indices(fs, h_a, h_b, offset, side, z_bound=z_bound) == want
    else:
        with pytest.raises(SpecError):
            band_indices(fs, h_a, h_b, offset, side, z_bound=z_bound)


def test_band_alpha32_grid_alignment():
    # slope 3/2 admits only even z, landing at first coordinate 3z/2
    fs = FlowSkeletonSpec(base=ODO, grid_inverse=1, alpha=F(3, 2))
    got = band_indices(fs, 8, 8, 0, "right")
    assert got == frozenset({
        BlockIndex(0, 0), BlockIndex(0, 1), BlockIndex(3, 2),
        BlockIndex(3, 3), BlockIndex(6, 4), BlockIndex(6, 5)})


def test_band_product_mass_is_count():
    fs = FlowSkeletonSpec.doubled(ODO)
    m = product_blocks(ODO, ODO, 2, 4)
    idx = band_indices(fs, 4, 4, 0, "right")
    assert band_masses(m, fs, 0, "right") == len(idx) * F(1, 16) == F(1, 4)


def test_band_empirical_colocation():
    # the (S^2, S) pair from equal starts revisits the right w=0 band
    # exactly when the doubled coordinate is in phase
    fs = FlowSkeletonSpec.doubled(ODO)
    N = 128
    m = empirical_joining(ODO, ODO, 0, 0, N, 2, 10, step_a=2, step_b=1)
    mass = band_masses(m, fs, 0, "right")
    assert mass == F(1, 2)
    idx = band_indices(fs, m.h_a, m.h_b, 0, "right")
    ca = Cursor(ODO, F(0), stage_budget=10)
    cb = Cursor(ODO, F(0), stage_budget=10)
    ca.refine_to(2)
    cb.refine_to(2)
    hits = 0
    for n in range(N):
        za, zb = ca.level_at(2), cb.level_at(2)
        if za is not None and zb is not None and BlockIndex(za, zb) in idx:
            hits += 1
        if n + 1 < N:
            ca.step_forward(n)
            ca.step_forward(n)
            cb.step_forward(n)
    assert F(hits, N) == mass


def test_band_refusals():
    fs = FlowSkeletonSpec.doubled(ODO)
    with pytest.raises(SpecError):
        band_indices(fs, 4, 4, 4, "right")          # w beyond the tower
    with pytest.raises(SpecError):
        band_indices(fs, 4, 4, 0, "left")           # z_bound missing
    with pytest.raises(SpecError):
        band_indices(fs, 4, 4, 9, "left", z_bound=4)  # all blocks clipped
    with pytest.raises(SpecError):
        band_indices(fs, 4, 4, 0, "up")
    with pytest.raises(SpecError):
        band_indices(fs, 4, 4, -1, "right")


def test_band_multiplicity_bound():
    # across all right offsets, a block is hit at most q+1 times
    fs = FlowSkeletonSpec.doubled(ODO)
    h = build_stage(ODO, 3).height
    counts = {}
    for w in range(h):
        for b in band_indices(fs, h, h, w, "right"):
            counts[b] = counts.get(b, 0) + 1
    assert max(counts.values()) <= fs.grid_inverse + 1


def test_windowed_flow_refuses_a_huge_range_before_listing_it():
    # a range is not listed, so return_profile refuses the 10^100 + q
    # entries before any work
    fs = FlowSkeletonSpec.doubled(ODO)
    with pytest.raises(SpecError, match=r"^\d+ entries requested, more than "
                                        r"the limit of \d+$"):
        windowed_return_flow(fs, 2, 5, range(10**100))
    rep = windowed_return_flow(fs, 2, 5, range(6, 0, -2))
    assert list(rep.values) == [2, 4, 6]
