"""Differential tests for the int-bitset paths over whole stage-J levels.

Each oracle is the per-occurrence (or interval) computation the bitset
path replaced: the occurrence x shift loop of return_profile, the
per-shift overlap that the count kernel of stats batches over a range of
shifts, that kernel on stage-J lifts for `_stage_counts`, which builds
none, the plist/bisect loop of graph_blocks, the power_image route of
correlation, the level scans that trivialization_check used to find and
validate its level sets, the P f route (average_apply backward, one
inner product a level) of its product display, and the power_image route
of its graph display (B imaged by T^{-h}, each selected block's part
imaged by T^k).  Hypothesis draws every preset and random:K specs at
1 <= j <= J <= 8, shifts past the tower top and negative powers.
"""

import contextlib
import io
import random
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from hashlib import sha256
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankone import stats
from rankone.averaging import average_apply
from rankone.cli import main
from rankone.construction import (ConstructionSpec, TowerStage, bit_indices,
                                  build_stage)
from rankone.errors import SpecError
from rankone.joinings import (
    BlockIndex,
    columns_and_F,
    empirical_joining,
    graph_blocks,
    product_blocks,
    trivialization_check,
)
from rankone.measure import (
    Interval,
    IntervalSet,
    MeasureBound,
    StepFunction,
    canonicalize,
    set_intersection,
)
from rankone.stats import correlation, return_profile
from rankone.transform import power_image
from helpers import (column_blocks, counts, cross, dict_matrix, dict_trivialization_check,
                     is_subset_of, l2_inner, level_bits, lifted_bits, run_capped)

PRESETS = (ConstructionSpec.odometer(), ConstructionSpec.staircase(),
           ConstructionSpec.chacon())
specs = st.one_of(st.sampled_from(PRESETS),
                  st.integers(0, 10_000).map(ConstructionSpec.random_spacers))
# Correlation oracles scan every stage-J level per shift; cap the tower.
ORACLE_MAX_HEIGHT = 3300


# ----------------------------------------------------------------- oracles

def oracle_profile_entry(occ, h, z):
    occ_set = set(occ)
    resolved = tail = 0
    for p in occ:
        if p + z <= h - 1:
            if p + z in occ_set:
                resolved += 1
        else:
            tail += 1
    lo = F(resolved, len(occ))
    return MeasureBound(lo, lo + F(tail, len(occ)))


def oracle_overlap(a, b, m, h):
    """(resolved, escaped) level counts of A intersect T^m B for level
    bitsets a, b of a height-h tower, one shift at a time."""
    if m >= 0:
        return ((a >> m) & b).bit_count(), (b >> max(h - m, 0)).bit_count()
    return (a & (b >> -m)).bit_count(), (b & ((1 << min(-m, h)) - 1)).bit_count()


def oracle_graph_masses(spec, k, j, J):
    st_j, stJ = build_stage(spec, j), build_stage(spec, J)
    occ = stJ.occurrences(j)
    occ_set = set(occ)
    h, hJ = st_j.height, stJ.height
    w_norm = stJ.width / stJ.total
    masses = {}
    for delta in range(k - h + 1, k + h):
        plist = [p for p in occ if p + delta in occ_set]
        if not plist:
            continue
        for z2 in range(h):
            z1 = z2 + k - delta
            if not (0 <= z1 < h):
                continue
            cut = hJ - 1 - z2 - k
            if cut < 0:
                continue
            cnt = bisect_right(plist, cut)
            if cnt:
                masses[BlockIndex(z1, z2)] = cnt * w_norm
    return masses


def oracle_product_display(m, fs, A, B):
    """trivialization_check's display_sum for a product matrix: P 1_B by
    average_apply backward at stage J, one inner product per stage-j level
    of a column block inside A, and the escape of P once if any."""
    sb = build_stage(m.spec_b, m.j)
    in_A = oracle_levels_inside(build_stage(m.spec_a, m.j), A)
    sel = [z2 for z1, z2 in column_blocks(fs) if z1 in in_A]
    Pf, esc = average_apply(m.spec_b, fs.weights, StepFunction.indicator(B),
                            m.meta["J"], direction="backward")
    lo = sum((m.level_mass_a * l2_inner(Pf, StepFunction.indicator(
        IntervalSet((sb.level(z2),)))) / m.norm_b for z2 in sel), F(0))
    hi = lo + (m.level_mass_a * esc.hi / m.norm_b if sel else 0)
    nu_C = sum((m.mass_of([bi]) for bi in column_blocks(fs)), F(0))
    return MeasureBound(lo / nu_C, hi / nu_C)


def oracle_graph_display(m, fs, A, B):
    """trivialization_check's display_sum for a graph matrix: T^{-h}B by
    power_image, then each selected block's part of it imaged by T^k and
    met with its first-tower level inside A; B's escape under T^{-h} once
    per shift if any block is selected, and each T^k escape."""
    in_A = oracle_levels_inside(build_stage(m.spec_a, m.j), A)
    sel = [bi for bi in column_blocks(fs) if bi.z1 in in_A]
    J = m.meta["J"]
    kg = m.meta["k"]
    sa, sb = build_stage(m.spec_a, m.j), build_stage(m.spec_b, m.j)
    lo = hi = F(0)
    for h, a_h in fs.weights.weights:
        img, esc = power_image(m.spec_b, B, -h, J)
        t_lo = F(0)
        extra = F(0)
        for z1, z2 in sel:
            V = set_intersection(IntervalSet((sb.level(z2),)), img)
            W, esc2 = power_image(m.spec_a, V, kg, J)
            lvl = set_intersection(IntervalSet((sa.level(z1),)), A)
            t_lo += set_intersection(lvl, W).measure / m.norm_a
            extra += esc2.hi / m.norm_a
        lo += a_h * t_lo
        hi += a_h * (t_lo + extra + (esc.hi / m.norm_b if sel else F(0)))
    nu_C = sum((m.mass_of([bi]) for bi in column_blocks(fs)), F(0))
    return MeasureBound(lo / nu_C, hi / nu_C) if nu_C else None


def oracle_correlation(spec, A, B, m, J):
    img, escaped = power_image(spec, B, m, J)
    lo = set_intersection(A, img).measure
    hi = min(lo + escaped.hi, A.measure, B.measure)
    return MeasureBound(lo, max(lo, hi))


def oracle_levels_inside(stage, A):
    return frozenset(i for i in range(stage.height)
                     if is_subset_of(IntervalSet((stage.level(i),)), A))


def oracle_is_level_union(stage, A):
    inside = sorted(oracle_levels_inside(stage, A))
    return canonicalize([stage.level(i) for i in inside]) == A


@st.composite
def resolutions(draw, max_height=None):
    spec = draw(specs)
    J = draw(st.integers(1, 8))
    if max_height is not None:
        assume(build_stage(spec, J).height <= max_height)
    return spec, draw(st.integers(1, J)), J


@st.composite
def level_sets(draw, spec, J):
    k = draw(st.integers(1, J))
    stk = build_stage(spec, k)
    levels = draw(st.lists(st.integers(0, stk.height - 1), max_size=6))
    return stk.levels_set(sorted(set(levels)))


# --------------------------------------------------------------- level_bits

@settings(max_examples=80, deadline=None)
@given(resolutions(ORACLE_MAX_HEIGHT), st.data())
def test_level_bits_match_one_shift_per_level(case, data):
    # level_bits, reached through the cut of stats._classes, fills one
    # buffer; the oracle is its first formula, one shift per level summed
    # (O(levels x height) bit work), at the first stage whose levels A is a
    # union of, found by scanning every level
    spec, _, J = case
    stJ = build_stage(spec, J)
    k = data.draw(st.integers(1, J))
    stk = build_stage(spec, k)
    levels = data.draw(st.one_of(
        st.lists(st.integers(0, stk.height - 1), max_size=40),
        st.just(range(stk.height))))
    A = data.draw(st.one_of(st.just(stk.levels_set(sorted(set(levels)))),
                            level_sets(spec, J)))
    stages = [build_stage(spec, i) for i in range(1, J + 1)]
    want = next(((s.stage, sum(1 << i for i in oracle_levels_inside(s, A)))
                 for s in stages if oracle_is_level_union(s, A)), None)
    assert level_bits(stJ, A) == want


def test_whole_ambient_correlation_in_a_capped_child():
    # all 1,218,960 levels of staircase stage 10: summing one shift per
    # level ran past 20 s; the buffer answers in about 4 s (2-core VM,
    # CPython 3.11.7)
    script = ("from rankone import ConstructionSpec, Interval, IntervalSet, "
              "build_stage, correlation\n"
              "spec = ConstructionSpec.staircase()\n"
              "A = IntervalSet((Interval(0, build_stage(spec, 10).total),))\n"
              "print(correlation(spec, A, A, 1, 10))\n")
    proc, _ = run_capped(["-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[174137/103680, 1693/1008]\n"


# ------------------------------------------------------------ occurrences

@settings(max_examples=60, deadline=None)
@given(resolutions())
def test_occurrences_are_the_decoded_bits(case):
    spec, k, J = case
    stJ = build_stage(spec, J)
    bits = stJ.occurrence_bits(k)
    assert bits >> stJ.height == 0
    assert stJ.occurrences(k) == tuple(
        i for i in range(stJ.height) if bits >> i & 1)


@given(st.integers(0, 1 << 300))
def test_bit_indices_lists_set_bits(bits):
    got = bit_indices(bits)
    assert got == tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


# --------------------------------------------------------- return profiles

@settings(max_examples=60, deadline=None)
@given(resolutions(), st.data())
def test_return_profile_matches_occurrence_loop(case, data):
    spec, j, J = case
    stJ = build_stage(spec, J)
    h = stJ.height
    z_max = h + 2
    prof = return_profile(spec, j, J, z_max)
    assert prof.degenerate == frozenset(range(h, z_max + 1))
    occ = stJ.occurrences(j)
    zs = data.draw(st.lists(st.integers(0, z_max), max_size=8))
    for z in {0, h - 1, h, z_max, *zs}:
        assert prof[z] == oracle_profile_entry(occ, h, z)


kernel_specs = st.one_of(specs, st.just(ConstructionSpec.staircase(h1=3)))


@settings(max_examples=80, deadline=None)
@given(kernel_specs, st.data())
def test_count_kernel_matches_per_shift_overlap(spec, data):
    # A != B level unions, ranges of shifts of either sign, across zero,
    # past the top and below the bottom, and empty ones
    J = data.draw(st.integers(1, 8))
    stJ = build_stage(spec, J)
    h = stJ.height
    a = lifted_bits(stJ, data.draw(level_sets(spec, J)))
    b = lifted_bits(stJ, data.draw(level_sets(spec, J)))
    edges = st.sampled_from([-h - 3, -h, -h + 1, -150, -1, 0, h - 150, h - 1, h])
    for _ in range(3):
        start = data.draw(st.integers(-h - 3, h + 3) | edges)
        ms = range(start, start + data.draw(st.integers(0, min(2 * h + 6, 300))))
        hits, outs = counts(a, b, ms, h)
        assert len(hits) == len(outs) == len(ms)
        assert list(zip(hits, outs)) == [oracle_overlap(a, b, m, h) for m in ms]
    huge = h + 10**12
    for m in (-huge, huge):
        assert counts(a, b, range(m, m + 1), h) == tuple(
            [n] for n in oracle_overlap(a, b, m, h))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lag_product_matches_one_shift_per_lag(data):
    # every lag of one lane product against its own shift, and the
    # cross-copy counts X(w) against their own shifts (b's top w levels
    # onto a's bottom w for w > 0, a's onto b's for w < 0), on random
    # bitsets of 1 to 300 bits, over ranges past both ends of the tower,
    # empty ones and sorted lists; repeating the wants makes the product
    # the cheaper route
    h = data.draw(st.integers(1, 300) | st.sampled_from([1, 2, 255, 256]))
    a, b = (data.draw(st.integers(0, (1 << h) - 1) | st.sampled_from([0, 1, (1 << h) - 1]))
            for _ in "ab")
    lags = sorted(data.draw(st.sets(st.integers(-h - 3, h + 3), max_size=8)))
    lo = data.draw(st.integers(1 - h, h))
    inner = range(lo, data.draw(st.integers(lo, h)))  # within -h < m < h
    wants = [range(-h - 2, h + 3), lags, range(h, h), range(h + 5, h), inner] * 60
    with mock.patch.object(stats, "_lane_product", wraps=stats._lane_product) as product:
        got = stats._lag_counts(a, b, h, wants)
    assert product.call_count == 1
    assert got[0] == [oracle_overlap(a, b, m, h)[0] for m in wants[0]]
    assert got[1] == [oracle_overlap(a, b, m, h)[0] for m in lags]
    assert got[2] == got[3] == []
    assert got[4] == got[0][lo + h + 2:inner.stop + h + 2]
    for w in range(1 - h, h):
        x = (b >> (h - w) & a if w > 0 else a >> (h + w) & b).bit_count()
        assert got[0][(w - h if w > 0 else h + w) + h + 2] == x
    assert stats._lag_counts(a, b, h, wants[:3]) == got[:3]  # whichever route


@pytest.mark.parametrize("n", [255, 256, 65_535, 65_536])
def test_lag_product_lanes_hold_the_largest_count(n):
    # lag 0 of a with itself counts all n of its bits: the lanes must be
    # the narrowest width that holds n (1, 2, 2 and 4 bytes), or that count
    # carries into the next lag's lane
    rng = random.Random(n)
    h = n + n // 3
    a = sum(1 << i for i in rng.sample(range(h), n))
    b = a | rng.getrandbits(h)
    for x, y in ((a, a), (a, b), (b, a)):
        with mock.patch.object(stats, "_lane_product", wraps=stats._lane_product) as product:
            got, = stats._lag_counts(x, y, h, [range(1 - h, h)])
        assert product.call_count == 1
        for m in {0, 1, -1, h - 1, 1 - h, *rng.sample(range(1 - h, h), 30)}:
            assert got[m + h - 1] == oracle_overlap(x, y, m, h)[0], (x == y, m)


# shifts of a cross-copy sum: long runs of one weight, runs whose weight
# steps, gaps, isolated shifts, and shifts at or past the end of x
cross_weights = st.lists(
    st.tuples(st.integers(0, 70), st.integers(1, 40),
              st.lists(st.integers(1, 3) | st.integers(1, 10**30), min_size=1, max_size=3)),
    max_size=4).map(lambda runs: [
        (s, ns[i * len(ns) // k]) for start, k, ns in runs
        for i, s in enumerate(range(start, start + k))])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=80), cross_weights)
def test_run_length_cross_matches_per_shift_cross(x, shifts):
    weights = Counter()
    for s, n in shifts:  # overlapping runs add up, so weights repeat
        weights[s] += n
    assert stats._cross(x, weights) == cross(x, weights)


def check_split_kernel(spec, a, b, ms, J):
    """_stage_counts at each lag of ms and _escapes over its span, each
    against counts on the stage-J lifts; a, b are (k, bits)."""
    stJ = build_stage(spec, J)
    a_J, b_J, h = stJ.occurrence_bits(*a), stJ.occurrence_bits(*b), stJ.height
    span = range(ms[0], ms[-1] + 1) if ms else range(0)
    hits, outs = counts(a_J, b_J, span, h)
    assert stats._stage_counts(spec, a, b, ms, J) == [hits[m - span.start] for m in ms], ms
    assert stats._escapes(spec, b, ms, J) == outs, ms


@settings(max_examples=150, deadline=None)
@given(kernel_specs, st.data())
def test_stage_counts_match_counts_on_stage_J_lifts(spec, data):
    # A and B drawn at stages ka, kb in either order, each passed at its own
    # stage; ranges of either sign, across 0, ending at and past
    # +-h_{J-1} and +-h_J or at any stage height (so that several stages
    # sit above the base), empty ranges and lists, and Z = 0; the resolved
    # counts and the escapes are asked apart
    J = data.draw(st.integers(1, 8))
    ka, kb = data.draw(st.integers(1, J)), data.draw(st.integers(1, J))
    stJ = build_stage(spec, J)
    sets = []
    for i in (ka, kb):
        hi = build_stage(spec, i).height
        levels = data.draw(st.sets(st.integers(0, hi - 1) | st.sampled_from([0, hi - 1]),
                                   max_size=8))
        sets.append((i, sum(1 << x for x in levels)))
    h = stJ.height
    hp = build_stage(spec, J - 1).height if J > 1 else h
    heights = [build_stage(spec, t).height for t in range(1, J + 1)]
    ends = (st.sampled_from([-h - 2, -h, -hp - 1, -hp, 1 - hp, -1, 0, 1, hp - 1, hp,
                             hp + 1, h - 1, h, h + 2])
            | st.sampled_from(heights).flatmap(lambda x: st.sampled_from([-x, x - 1, x]))
            | st.integers(-h - 3, h + 3) | st.integers(-60, 60))
    ranges = [range(0, 1), range(0, 0), range(5, 5), range(-3, -3), []]
    for _ in range(3):
        lo, top = sorted(data.draw(ends) for _ in range(2))
        ranges.append(range(max(lo, top - 600), top + 1))
        ranges.append(range(lo, min(top, lo + 600)))
    for ms in ranges:
        check_split_kernel(spec, *sets, ms, J)
        if ms:
            # a sorted list: hits at its lags, escapes over its span
            check_split_kernel(spec, *sets, sorted(data.draw(
                st.sets(st.sampled_from(ms), min_size=1, max_size=4))), J)
    # sparse lists with gaps over a whole span, with lags past h_{J-1} and +-h_J
    lo, top = sorted(data.draw(ends) for _ in range(2))
    check_split_kernel(spec, *sets, sorted(
        {lo, top, *data.draw(st.sets(st.integers(lo, top), max_size=12))}), J)
    check_split_kernel(spec, *sets, [-h - 2, -h, 0, h, h + 2], J)


@settings(max_examples=100, deadline=None)
@given(kernel_specs, st.data())
def test_stage_counts_of_one_level_a_copy_match_counts(spec, data):
    # sparse sets: one level in each stage-(k-1) copy of stage k, so that
    # few levels sit far apart, against dense ranges past +-h_J and sparse
    # lists
    J = data.draw(st.integers(2, 8))
    h = build_stage(spec, J).height
    sets = []
    for _ in "ab":
        k = data.draw(st.integers(2, J))
        stk = build_stage(spec, k)
        hp = stk.prev.height
        sets.append((k, sum(1 << (off + data.draw(st.integers(0, hp - 1)))
                            for off in stk.offsets)))
    end = data.draw(st.integers(0, h + 3))
    ms = range(-end, end + 1)
    check_split_kernel(spec, *sets, ms, J)
    check_split_kernel(spec, *sets, sorted(
        {-end, end, *data.draw(st.sets(st.sampled_from(ms), max_size=10))}), J)


@settings(max_examples=40, deadline=None)
@given(kernel_specs, st.data())
def test_base_correlation_is_the_profile_entry(spec, data):
    # mu(E_j intersect T^z E_j) / w_j is a^z_j on both paths
    J = data.draw(st.integers(1, 8))
    j = data.draw(st.integers(1, J))
    stj = build_stage(spec, j)
    h = build_stage(spec, J).height
    E = IntervalSet((stj.base,))
    zs = data.draw(st.lists(st.integers(0, h + 2), min_size=1, max_size=6))
    prof = return_profile(spec, j, J, max(zs))
    for z in zs:
        assert correlation(spec, E, E, z, J).scale(1 / stj.width) == prof[z]


def test_deep_staircase_profile_matches_oracle_within_budget():
    # the seed's loop took about 12 s here; budget 5 s
    spec = ConstructionSpec.staircase()
    t0 = time.monotonic()
    prof = return_profile(spec, 2, 9, 2000)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"return_profile took {elapsed:.2f} s"
    stJ = build_stage(spec, 9)
    occ = stJ.occurrences(2)
    for z in (0, 1, 5, 17, 400, 1234, 2000):
        assert prof[z] == oracle_profile_entry(occ, stJ.height, z)


# ------------------------------------------------------------ graph blocks

@settings(max_examples=60, deadline=None)
@given(resolutions(), st.data())
def test_graph_blocks_match_plist_loop(case, data):
    # powers of either sign, within a stage-j copy, past it and past h_J
    spec, j, J = case
    h, hJ = build_stage(spec, j).height, build_stage(spec, J).height
    assume(h <= 128)
    k = data.draw(st.integers(-2 * h, 2 * h)
                  | st.sampled_from([-hJ - 3, -hJ, hJ - 1, hJ, hJ + 5, 10**4]))
    assert graph_blocks(spec, k, j, J).masses == oracle_graph_masses(spec, k, j, J)


# ------------------------------------------------------------- correlation

@settings(max_examples=60, deadline=None)
@given(resolutions(ORACLE_MAX_HEIGHT), st.data())
def test_level_set_correlation_matches_power_image(case, data):
    spec, _, J = case
    stJ = build_stage(spec, J)
    A = data.draw(level_sets(spec, J))
    B = data.draw(level_sets(spec, J))
    bits = lifted_bits(stJ, B)
    assert bits == sum(1 << i for i in oracle_levels_inside(stJ, B))
    h = stJ.height
    for m in {0, h, -h, *data.draw(st.lists(st.integers(-h - 2, h + 2),
                                            min_size=1, max_size=4))}:
        assert correlation(spec, A, B, m, J) == oracle_correlation(spec, A, B, m, J)


@settings(max_examples=40, deadline=None)
@given(resolutions(ORACLE_MAX_HEIGHT), st.integers(0, 2**32), st.data())
def test_non_level_sets_take_the_interval_path(case, seed, data):
    # random rational intervals as in acceptance test 1, every endpoint a
    # multiple of M_J / 10007, which no stage width divides: cut into
    # piece classes and counted by the lag kernel, with power_image, the
    # oracle's route, unreachable
    spec, _, J = case
    stJ = build_stage(spec, J)
    M = stJ.total
    assert M.numerator % 10007
    rng = random.Random(seed)
    pieces = []
    for _ in range(rng.randint(1, 3)):
        a, b = sorted(M * F(rng.randint(1, 10006), 10007) for _ in range(2))
        pieces.append(Interval(a, b))
    A = canonicalize(pieces)
    assume(not A.is_empty())
    B = data.draw(st.one_of(st.just(A), level_sets(spec, J)))
    assert level_bits(stJ, A) is None
    m = data.draw(st.integers(-stJ.height - 2, stJ.height + 2))
    want = oracle_correlation(spec, A, B, m, J), oracle_correlation(spec, B, A, m, J)
    with mock.patch("rankone.transform.power_image", side_effect=AssertionError):
        assert (correlation(spec, A, B, m, J), correlation(spec, B, A, m, J)) == want


@pytest.mark.parametrize("levels, j, J", [([0, 3], 3, 6), ([0, 3, 17], 11, 10)],
                         ids=["level union", "finer than J"])
def test_autocorrelation_converts_its_set_once(levels, j, J):
    # with B == A the piece classes of A serve both sides: level_bits runs
    # as often as for converting A alone (once per piece class of A), and
    # the bounds are the oracle's; the command's level list is a LevelSet,
    # which needs no level_bits when its stage is at most J
    spec = ConstructionSpec.staircase(max_stage=11)
    A = build_stage(spec, j).levels_set(levels)
    stJ = build_stage(spec, J)
    calls = []
    level_bits = TowerStage.level_bits

    def spy(stage, S):
        calls.append(S)
        return level_bits(stage, S)

    with mock.patch.object(TowerStage, "level_bits", spy):
        stats._classes(stJ, A)
        alone, calls[:] = len(calls), []
        got = [correlation(spec, A, A, m, J) for m in (0, 1, 5)]
        assert len(calls) == 3 * alone
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["correlate", "--spec", "staircase", "--A", ",".join(map(str, levels)),
                         "--B", ",".join(map(str, levels)), "--j", str(j), "--res", str(J),
                         "--stage-budget", "11", "--mmax", "5"]) == 0
        assert len(calls) == (alone if j > J else 0)
    assert alone == len(stats._classes(stJ, A))
    assert got == [oracle_correlation(spec, A, A, m, J) for m in (0, 1, 5)]


def test_correlations_ask_escapes_once_per_class_of_B():
    # each piece class of B has one escape vector, whatever classes of A it
    # meets: B's first interval meets two classes of A, and its second none
    spec, J = ConstructionSpec.staircase(), 5
    stJ = build_stage(spec, J)
    w = stJ.width
    A = canonicalize([Interval(w / 3, 2 * w), Interval(5 * w / 2, 4 * w)])
    B = canonicalize([Interval(w / 4, 7 * w / 3), Interval(9 * w + w / 7, 9 * w + w / 5)])
    classes = stats._classes(stJ, B)
    assert len(classes) > 2
    with mock.patch.object(stats, "_escapes", wraps=stats._escapes) as escapes:
        got = [correlation(spec, A, B, m, J) for m in (0, 1, 7)]
    assert [c.args[1] for c in escapes.call_args_list] == 3 * list(classes.values())
    assert got == [oracle_correlation(spec, A, B, m, J) for m in (0, 1, 7)]


def test_non_level_correlate_in_a_capped_child():
    # stage-11 levels at J = 10 are parts of stage-10 cells: imaging B
    # through power_image once per shift took 18-20 s for these 99,999
    # entries (2-core VM, CPython 3.11.7); by piece classes the lag kernel
    # answers in about 0.6 s with the same bytes
    proc, elapsed = run_capped(["-m", "rankone.cli", "correlate", "--spec", "staircase",
                                "--A", "0,3,17", "--B", "0,1,2,3", "--j", "11", "--res", "10",
                                "--stage-budget", "11", "--mmax", "99998"])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 5.0, f"correlate took {elapsed:.2f} s"
    assert sha256(proc.stdout.encode()).hexdigest() == \
        "c6565a83a236a3ae0c7a7df999e3bfe7b0977cc6777855bb1d19543008bec2d0"


# --------------------------------------------------- trivialization level sets

@settings(max_examples=60, deadline=None)
@given(specs, st.data())
def test_trivialization_level_sets_match_scan(spec, data):
    j = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, j))
    A = data.draw(level_sets(spec, k))
    stk, stj = build_stage(spec, k), build_stage(spec, j)
    assert level_bits(stk, A) is not None
    assert oracle_is_level_union(stk, A)
    assert frozenset(bit_indices(lifted_bits(stj, A))) == oracle_levels_inside(stj, A)


@settings(max_examples=40, deadline=None)
@given(specs, st.data())
def test_trivialization_conditional_uses_stage_j_levels(spec, data):
    # A and B refer to a coarser stage k than the blocks; the conditional
    # must select blocks by the stage-j levels inside A and B
    j = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, j - 1))
    A = data.draw(level_sets(spec, k))
    B = data.draw(level_sets(spec, k))
    m = empirical_joining(spec, spec, 0, 0, 128, j, 8)
    stj = build_stage(spec, j)
    i_max = stj.height // 4
    shifts = data.draw(st.lists(st.integers(1, stj.height - 1 - i_max),
                                max_size=2, unique=True))
    fs = columns_and_F(m, F(1, 4), 0, [0, *shifts])
    in_A, in_B = oracle_levels_inside(stj, A), oracle_levels_inside(stj, B)
    num = sum((m.mass_of([BlockIndex(z1, z2 + h)]) for h in fs.shifts
               for z1, z2 in column_blocks(fs) if z1 in in_A and z2 + h in in_B),
              F(0))
    rec = trivialization_check(m, fs, A, B, k)
    assert rec.conditional == num / fs.nu_F
    assert rec.display_sum.lo == rec.display_sum.hi == rec.conditional


@settings(max_examples=40, deadline=None)
@given(specs, st.data())
def test_trivialization_refuses_sets_that_split_levels(spec, data):
    # a union of stage-k levels plus half of one more stage-k level
    j = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, j))
    stk = build_stage(spec, k)
    whole = data.draw(level_sets(spec, k))
    lvl = stk.level(data.draw(st.integers(0, stk.height - 1)))
    assume(not is_subset_of(IntervalSet((lvl,)), whole))
    half = Interval(lvl.lo, lvl.lo + stk.width / 2)
    A = canonicalize([*whole, half])
    assert level_bits(stk, A) is None
    assert not oracle_is_level_union(stk, A)
    g = graph_blocks(spec, 0, j, j)
    fs = columns_and_F(g, F(1, 10), 0, [0])
    B = stk.levels_set([0])
    with pytest.raises(SpecError, match=rf"^A is not a union of stage-{k} levels$"):
        trivialization_check(g, fs, A, B, k)
    with pytest.raises(SpecError, match=rf"^B is not a union of stage-{k} levels$"):
        trivialization_check(g, fs, B, A, k)


@settings(max_examples=60, deadline=None)
@given(specs, specs, st.data())
def test_product_display_matches_average_apply_route(spec_a, spec_b, data):
    # shifts up to the top of the second tower, so P 1_B escapes below the
    # bottom; empty A selects no block and leaves no escape
    J = data.draw(st.integers(1, 6))
    assume(build_stage(spec_b, J).height <= ORACLE_MAX_HEIGHT)
    j = data.draw(st.integers(1, J))
    k = data.draw(st.integers(1, j))
    m = product_blocks(spec_a, spec_b, j, J)
    delta = F(1, data.draw(st.integers(2, 8)))
    i_max = int(delta * m.h_b)
    assume(i_max <= m.h_a - 1)
    col = data.draw(st.integers(0, m.h_a - 1 - i_max))
    shifts = data.draw(st.lists(st.integers(0, m.h_b - 1 - i_max), min_size=1,
                                max_size=4, unique=True))
    fs = columns_and_F(m, delta, col, shifts)
    A = data.draw(level_sets(spec_a, k))
    B = data.draw(level_sets(spec_b, k))
    check_display(m, fs, A, B, k, oracle_product_display(m, fs, A, B))


def check_display(m, fs, A, B, k, want):
    """trivialization_check's conditional from a block scan, and its
    display fields from the display oracle's enclosure `want`."""
    in_A = oracle_levels_inside(build_stage(m.spec_a, m.j), A)
    in_B = oracle_levels_inside(build_stage(m.spec_b, m.j), B)
    cond = sum((m.mass_of([BlockIndex(z1, z2 + h)]) for h in fs.shifts
                for z1, z2 in column_blocks(fs) if z1 in in_A and z2 + h in in_B),
               F(0)) / fs.nu_F
    rec = trivialization_check(m, fs, A, B, k)
    assert rec.conditional == cond
    assert rec.display_sum == want
    if want is None:
        assert rec.display_gap is None
        return
    assert rec.display_gap == MeasureBound(
        max(F(0), want.lo - cond, cond - want.hi),
        max(abs(cond - want.lo), abs(cond - want.hi)))


@settings(max_examples=60, deadline=None)
@given(kernel_specs, st.data())
def test_graph_display_matches_power_image_route(spec, data):
    # graph powers of either sign and 0; shifts up to the top of the tower,
    # so B escapes below the bottom under T^{-h}, and blocks leave the
    # tower under T^kg; A may select no block
    J = data.draw(st.integers(1, 6))
    assume(build_stage(spec, J).height <= ORACLE_MAX_HEIGHT)
    j = data.draw(st.integers(1, J))
    k = data.draw(st.integers(1, j))
    h = build_stage(spec, j).height
    delta = F(1, data.draw(st.integers(2, 8)))
    room = h - 1 - int(delta * h)
    w = data.draw(st.integers(0, room))
    # the base column's blocks (w + i, i) lie on lag kg - w of the graph of
    # T^kg; take a lag at which E_j meets a translate of itself at stage J,
    # so the column carries mass
    occ = build_stage(spec, J).occurrences(j)
    lag = data.draw(st.sampled_from([0, *occ[1:], *(-p for p in occ[1:])]))
    g = graph_blocks(spec, w + lag, j, J)
    shifts = data.draw(st.lists(st.integers(0, room) | st.just(room), max_size=3))
    fs = columns_and_F(g, delta, w, sorted({0, *shifts}))
    A = data.draw(level_sets(spec, k))
    B = data.draw(level_sets(spec, k))
    check_display(g, fs, A, B, k, oracle_graph_display(g, fs, A, B))


def test_graph_display_counts_the_column_blocks_not_their_shifts():
    # staircase h1 = 3, j = 1 on lag 3: the hit column block (0, 0) weighs
    # 1/8 and its shift (0, 1) by h = 1 weighs 1/24; the display reads the
    # former, the conditional the latter
    spec = ConstructionSpec.staircase(h1=3)
    g = graph_blocks(spec, 3, 1, 4)
    fs = columns_and_F(g, F(1, 3), 0, [0, 1])
    st1 = build_stage(spec, 1)
    A, B = st1.levels_set([0]), st1.levels_set([1])
    rec = trivialization_check(g, fs, A, B, 1)
    assert rec.display_sum == MeasureBound(F(1, 8), F(1, 8))
    assert rec == dict_trivialization_check(dict_matrix(g), fs, A, B, 1)
    check_display(g, fs, A, B, 1, oracle_graph_display(g, fs, A, B))


def test_deep_graph_display_within_budget():
    # imaging B and each block through power_image took 3.15 s of this
    # command's 3.9-4.2 s on a 2-core VM under CPython 3.11.7
    argv = ["joining", "trivialize", "--kind", "graph", "--spec", "staircase",
            "--k", "1", "--j", "4", "--res", "10", "--delta", "1/4", "--w", "1",
            "--shifts", "0,1,2", "--A", "1", "--B", "0", "--cond-stage", "1"]
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    elapsed = time.monotonic() - t0
    assert code == 0
    assert elapsed < 0.5, f"joining trivialize took {elapsed:.2f} s"


def product_trivialize(res):
    """The chacon x staircase product trivialize command at --res res."""
    return ["joining", "trivialize", "--kind", "product", "--spec-a", "chacon",
            "--spec-b", "staircase", "--j", "4", "--res", str(res),
            "--stage-budget", str(res), "--delta", "1/4", "--w", "0",
            "--shifts", "0,2", "--A", "0", "--B", "0", "--cond-stage", "1"]


def test_deep_product_display_in_a_capped_child():
    # the stage-J display sets took 8 s and 1 GB at --res 13, and --res 14
    # ended in MemoryError (exit 4) after 2 s under this 512 MB cap
    proc, elapsed = run_capped(["-m", "rankone.cli", *product_trivialize(14)])
    code, err = proc.returncode, proc.stderr
    assert code == 0, err
    assert elapsed < 1.0, f"joining trivialize took {elapsed:.2f} s"


def graph_trivialize(res):
    """The staircase graph trivialize command at --res res."""
    return ["joining", "trivialize", "--kind", "graph", "--spec", "staircase",
            "--k", "1", "--j", "4", "--res", str(res), "--stage-budget", str(res),
            "--delta", "1/4", "--w", "1", "--shifts", "0,1,2", "--A", "1",
            "--B", "0", "--cond-stage", "1"]


def deep_rows():
    """(name, argv) of each staircase row that had to answer at depth."""
    stair = ["--spec", "staircase"]
    rows = [(f"return-profile-J{J}", ["return-profile", *stair, "--j", "2", "--zmax",
                                      "2000", "--res", str(J)]) for J in (12, 16, 20)]
    for J in (12, 20):
        rows.append((f"correlate-J{J}", ["correlate", *stair, "--j", "3", "--A", "0",
                                          "--B", "1", "--mmax", "2000", "--res", str(J)]))
        rows.append((f"flow-window-J{J}", ["flow", "window", *stair, "--alpha", "2", "--j",
                                            "2", "--zmax", "500", "--res", str(J)]))
    for J in (13, 20):
        rows.append((f"graph-blocks-J{J}", ["joining", "blocks", "--kind", "graph", *stair,
                                             "--k", "1", "--j", "3", "--res", str(J)]))
    rows = [(name, argv + ["--stage-budget", argv[-1]]) for name, argv in rows]
    return rows + [("graph-trivialize-J14", graph_trivialize(14))]


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name) for name, argv in deep_rows()])
def test_deep_rows_in_a_capped_child(argv):
    # before the stage-count kernel these timed out (return-profile and
    # correlate at J=12), took 25 s (flow window, J=12) or 635 MB (joining
    # blocks, J=13), or ended in MemoryError (J=14 and deeper) on a 2-core
    # VM under CPython 3.11.7; the kernel builds no stage-J set
    proc, elapsed = run_capped(["-m", "rankone.cli", *argv])
    code, err = proc.returncode, proc.stderr
    assert code == 0, err
    assert elapsed < 10.0, f"{' '.join(argv)} took {elapsed:.2f} s"


def test_graph_display_bytes_pinned():
    # recorded before the stage-count kernel, which reads this display's
    # escape vector from stage 4 up instead of from E_4's stage-12 set
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(graph_trivialize(12)) == 0
    assert sha256(out.getvalue().encode()).hexdigest() == (
        "79ce0fa2afdb6290baca710fda76cb9cde6ac02f77e83b5f7c5e85c7a8b9f490")


def test_product_display_bytes_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(product_trivialize(13)) == 0
    assert sha256(out.getvalue().encode()).hexdigest() == (
        "baaa4de30108402df3d08f0245f4ffa72c1cc51734a4e482f0da38348c6b34f4")


def test_deep_product_trivialize_in_a_capped_child():
    # each column block tested its levels by shifting the whole stage-10
    # level bitset (2 x 1.2e6 levels), so this took 45 s on a 2-core VM under
    # CPython 3.11.7; one decoded string a set answers in about 2.5 s
    argv = ["joining", "trivialize", "--kind", "product", "--spec-a", "staircase",
            "--spec-b", "staircase", "--j", "10", "--res", "10", "--delta", "1/2",
            "--w", "0", "--shifts", "0", "--A", "0", "--B", "0", "--cond-stage", "1"]
    proc, _ = run_capped(["-m", "rankone.cli", *argv], cap_mb=1024, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout.encode()).hexdigest() == (
        "39618d6a677cfc5cbbf8f85e5f1d8b5ac5fb8fb90e61db4c18fc4d93fbdc8317")


@pytest.mark.parametrize("j, J, delta, w, shifts", [
    *((4, J, d, 0, h) for J in (5, 6) for d in (F(1, 4), F(1, 3)) for h in ((0, 1), (0, 2))),
    *((5, 6, d, w, h) for d in (F(1, 4), F(1, 5)) for w in (0, 1) for h in ((0, 1, 2), (1, 2, 3))),
])
def test_product_trivialize_slots_match_the_oracles(j, J, delta, w, shifts):
    # every variant of the trivialize-4 and trivialize-5 benchmark slots:
    # staircase x chacon, A and B level 0 of stage 1
    sa, sb = ConstructionSpec.staircase(), ConstructionSpec.chacon()
    m = product_blocks(sa, sb, j, J)
    fs = columns_and_F(m, delta, w, list(shifts))
    A, B = build_stage(sa, 1).levels_set([0]), build_stage(sb, 1).levels_set([0])
    assert trivialization_check(m, fs, A, B, 1) == \
        dict_trivialization_check(dict_matrix(m), fs, A, B, 1)
    check_display(m, fs, A, B, 1, oracle_product_display(m, fs, A, B))


def test_graph_trivialize_multi_level_matches_the_oracles():
    # chacon j = 4: the column (3 + i, i) lies on lag -3, and T^43 carries mass
    # on the lags 40 and 41 of E_4's occurrences at stage 6, so the weights sit
    # on shifts 0 and 1 and none on 29; B holds level 0, which T^{-1} pushes
    # off, and T^43 pushes the top occurrences of E_4 off the tower
    spec = ConstructionSpec.chacon()
    g = graph_blocks(spec, 43, 4, 6)
    fs = columns_and_F(g, F(1, 4), 3, [0, 1, 29])
    assert fs.weights.numerators == ((0, 1), (1, 1))
    st3 = build_stage(spec, 3)
    A, B = st3.levels_set([0, 2, 4, 7, 12]), st3.levels_set([0, 2, 3, 9])
    rec = trivialization_check(g, fs, A, B, 3)
    assert rec == dict_trivialization_check(dict_matrix(g), fs, A, B, 3)
    assert rec.display_sum.width == F(3, 88)
    check_display(g, fs, A, B, 3, oracle_graph_display(g, fs, A, B))


def test_graph_kernel_calls_ask_only_what_they_read():
    # graph_blocks reads the resolved lag counts of E_j and no escape; the
    # graph display reads the escapes of E_j under T^k and no lag count, so
    # it runs no lag product; the chacon case above widens by those escapes
    spec = ConstructionSpec.chacon()
    with mock.patch.object(stats, "_escapes", wraps=stats._escapes) as escapes:
        g = graph_blocks(spec, 43, 4, 6)
    assert escapes.call_count == 0
    fs = columns_and_F(g, F(1, 4), 3, [0, 1, 29])
    st3 = build_stage(spec, 3)
    A, B = st3.levels_set([0, 2, 4, 7, 12]), st3.levels_set([0, 2, 3, 9])
    with mock.patch.object(stats, "_lag_counts", wraps=stats._lag_counts) as lag_counts:
        rec = trivialization_check(g, fs, A, B, 3)
    assert lag_counts.call_count == 0
    assert rec.display_sum.width == F(3, 88)


def test_product_display_reads_no_stage_deeper_than_j():
    stages = []

    def spy(name):
        real = getattr(TowerStage, name)

        def call(self, *args):
            stages.append((name, self.stage))
            return real(self, *args)
        return mock.patch.object(TowerStage, name, call)

    with spy("occurrence_bits"), spy("level_bits"), \
            contextlib.redirect_stdout(io.StringIO()):
        assert main(product_trivialize(9)) == 0
    assert stages and all(stage <= 4 for _, stage in stages), stages


@pytest.mark.parametrize("argv, digest", [
    (["return-profile", "--spec", "staircase", "--j", "2", "--res", "12", "--zmax", "99998",
      "--stage-budget", "12"],
     "f4cce344843ace3f83a0448799d089c5df70b9fedfee2005fc5c7ae7945a799d"),
    (["joining", "di", "--kind", "graph", "--spec", "staircase", "--k", "1", "--stages", "8,9",
      "--epsilons", "1/2,1/4", "--res", "12", "--stage-budget", "12"],
     "010e35399b490563316244c436cab5ad0157da29a82bd43b66023733b80942de"),
], ids=["return-profile-J12", "joining-di-8-9"])
def test_deep_lag_products_bytes_pinned(argv, digest):
    # recorded when every base lag took its own shift (2.6 s and 21 s on a
    # 2-core VM under CPython 3.11.7); the lane product answers each in
    # about a second
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert sha256(out.getvalue().encode()).hexdigest() == digest
