"""Bound tables as integer count vectors, against the per-entry route.

The oracles are the bodies the library had before its bound tables became
`measure.BoundSeries`: `oracle_bounds` makes one Fraction per distinct count
and one MeasureBound per entry, and window sums, maxima and flow windows
add and compare those Fractions.  Every series the library returns must
equal its oracle entry by entry, and must print exactly as its
(key, MeasureBound) pairs print through the pair path of `render_table`.
"""

import contextlib
import io
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings, strategies as st

from rankone import stats
from rankone.cli import level_set, main
from rankone.construction import ConstructionSpec, build_stage
from rankone.errors import SpecError
from rankone.flow import FlowSkeletonSpec, windowed_return_flow
from rankone.measure import BoundSeries, MeasureBound, set_intersection
from rankone.persist import BOUND_COLUMNS, Table, render_table
from rankone.stats import (ReturnProfile, correlation_series, max_profile,
                           return_profile, window_sums)
from rankone.transform import power_image
from helpers import counts, level_bits, lifted_bits, series_of

PRESETS = (ConstructionSpec.odometer(), ConstructionSpec.staircase(),
           ConstructionSpec.chacon(), ConstructionSpec.staircase(h1=3))
specs = st.sampled_from(PRESETS) | st.integers(0, 10_000).map(
    ConstructionSpec.random_spacers)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------ oracles

def oracle_bounds(keys, hits, outs, cap, value):
    """{key: [value(hit), value(min(hit + out, cap))]}, one value a count."""
    his = [min(hit + out, cap) for hit, out in zip(hits, outs)]
    pool = {n: value(n) for n in {*hits, *his}}
    return {k: MeasureBound(pool[lo], pool[hi]) for k, lo, hi in zip(keys, hits, his)}


def oracle_profile(spec, j, J, z_max):
    stJ = build_stage(spec, J)
    B = stJ.occurrence_bits(j)
    count = B.bit_count()
    zs = range(z_max + 1)
    return oracle_bounds(zs, *counts(B, B, zs, stJ.height), count,
                         lambda n: F(n, count))


def oracle_correlations(spec, A, B, ms, J):
    stJ = build_stage(spec, J)
    a = lifted_bits(stJ, A)
    b = lifted_bits(stJ, B) if a is not None else None
    if b is not None:
        return oracle_bounds(ms, *counts(a, b, ms, stJ.height),
                             min(a.bit_count(), b.bit_count()), lambda n: n * stJ.width)
    values = {}
    for m in ms:
        img, escaped = power_image(spec, B, m, J)
        lo = set_intersection(A, img).measure
        hi = min(lo + escaped.hi, A.measure, B.measure)
        values[m] = MeasureBound(lo, max(lo, hi))
    return values


def oracle_window_sums(values, q):
    z_max = max(values)
    bounds = [values[z] for z in range(z_max + 1)]
    lo = list(accumulate((b.lo for b in bounds), initial=F(0)))
    hi = list(accumulate((b.hi for b in bounds), initial=F(0)))
    return {z: MeasureBound(lo[z + q + 1] - lo[z], hi[z + q + 1] - hi[z])
            for z in range(z_max - q + 1)}


def oracle_max(values, zs):
    return MeasureBound(max(values[z].lo for z in zs), max(values[z].hi for z in zs))


def pairs_document(series, fmt, meta):
    """render_table of the series' (key, MeasureBound) pairs, joined."""
    table = Table(("z",) + BOUND_COLUMNS, iter(list(series.items())), meta)
    return "".join(render_table(table, fmt))


def assert_prints_as_pairs(series, meta=None):
    meta = {"command": "test"} if meta is None else meta
    for fmt in ("csv", "json"):
        table = Table(("z",) + BOUND_COLUMNS, series, meta)
        assert "".join(render_table(table, fmt)) == pairs_document(series, fmt, meta), fmt


# -------------------------------------------------------------- the type

bound_series = st.integers(1, 10**12).flatmap(lambda den: st.tuples(
    st.just(den),
    st.lists(st.tuples(st.integers(0, 3 * den), st.integers(0, 3 * den))
             .map(sorted), max_size=12),
    st.integers(-10**6, 10**6),
    st.booleans()))


def make_series(case):
    den, ends, start, as_range = case
    keys = (range(start, start + len(ends)) if as_range
            else tuple(start + 3 * i + i * i for i in range(len(ends))))
    return BoundSeries(keys, [lo for lo, _ in ends], [hi for _, hi in ends], den)


@given(bound_series, st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
def test_series_entries_and_documents_match_its_pairs(case, meta):
    # huge and tiny denominators, negative keys, gapped keys, no entries
    s = make_series(case)
    den, ends = case[0], case[1]
    assert list(s) == list(s.domain) and len(s) == len(ends)
    assert dict(s.items()) == {k: MeasureBound(F(lo, den), F(hi, den))
                               for k, (lo, hi) in zip(s.domain, ends)}
    assert s == dict(s.items()) and series_of(s) == s
    assert_prints_as_pairs(s, meta)
    for k in (min(s.domain, default=0) - 1, max(s.domain, default=0) + 1, "0", 0.0):
        assert k not in s and s.get(k) is None
    if ends:
        assert s.maximum() == oracle_max(s, s.domain)
        assert s.maximum(len(ends) - 1) == s[s.domain[-1]]


@pytest.mark.parametrize("args", [
    (range(2), [0, 1], [1, 1], 0),          # denominator 0
    (range(2), [0, 1], [1, 1], -3),         # negative denominator
    (range(2), [-1, 1], [1, 1], 3),         # negative lower end
    (range(2), [0, 2], [1, 1], 3),          # lo > hi
    (range(3), [0, 1], [1, 1], 3),          # keys and ends of unequal length
    ((0, 2, 1), [0, 0, 0], [1, 1, 1], 3),   # keys out of order
    ((0, 0), [0, 0], [1, 1], 3),            # a repeated key
    (range(2, 0, -1), [0, 0], [1, 1], 3),   # a descending range
])
def test_series_refuses_invalid_vectors(args):
    with pytest.raises(ValueError, match="^invalid bound series"):
        BoundSeries(*args)


def test_profile_of_given_bounds_and_its_windows():
    values = {0: MeasureBound(F(1, 2), F(3, 4)), 1: MeasureBound(F(0), F(1, 6)),
              2: MeasureBound(F(2, 9), F(1))}
    prof = ReturnProfile(j=1, J=1, values=series_of(values))
    assert prof.values.den == 36
    assert prof.values == values and prof.z_max == 2
    assert window_sums(prof, 1) == oracle_window_sums(values, 1)
    gapped = ReturnProfile(j=1, J=1, values=series_of({0: values[0], 2: values[2]}))
    with pytest.raises(SpecError, match=r"^the profile does not hold every z in 0\.\.2$"):
        window_sums(gapped, 0)


# -------------------------------------------------------- stats and flow

@settings(max_examples=60, deadline=None)
@given(specs, st.data())
def test_profile_windows_and_maxima_match_oracle(spec, data):
    # z ranges that end below, at and past h_J
    J = data.draw(st.integers(1, 7))
    j = data.draw(st.integers(1, J))
    h = build_stage(spec, J).height
    z_max = data.draw(st.integers(0, min(h + 30, 700))
                      | st.sampled_from([h - 1, h, h + 1]).filter(lambda z: z >= 0))
    prof = return_profile(spec, j, J, z_max)
    expect = oracle_profile(spec, j, J, z_max)
    assert prof.values == expect
    assert prof.values.domain == range(z_max + 1)
    q = data.draw(st.integers(0, z_max))
    assert window_sums(prof, q) == oracle_window_sums(expect, q)
    z_lo = data.draw(st.integers(-1, z_max - 1)) if z_max else -1
    assert max_profile(prof, z_lo) == oracle_max(expect, range(z_lo + 1, z_max + 1))
    assert_prints_as_pairs(prof.values)


@settings(max_examples=60, deadline=None)
@given(specs, st.data())
def test_level_union_correlations_match_oracle(spec, data):
    # shift ranges of either sign crossing -h_J, 0 and h_J
    J = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, J))
    stk, h = build_stage(spec, k), build_stage(spec, J).height
    levels = st.lists(st.integers(0, stk.height - 1), min_size=1, max_size=4)
    A, B = (stk.levels_set(data.draw(levels)) for _ in "AB")
    start = data.draw(st.integers(-h - 5, h + 5))
    ms = range(start, start + data.draw(st.integers(1, min(2 * h + 10, 400))))
    got = stats._correlations(spec, A, B, ms, J)
    assert got == oracle_correlations(spec, A, B, ms, J)
    assert got.domain == ms and got.den == build_stage(spec, J).width.denominator
    assert_prints_as_pairs(got)


@settings(max_examples=25, deadline=None)
@given(specs, st.data())
def test_interval_path_correlations_match_oracle(spec, data):
    # levels of a stage finer than J are no union of stage-J levels, so the
    # sets go by piece classes, over w_J / D; the oracle images B instead
    J = data.draw(st.integers(1, 4))
    stJ, stk = build_stage(spec, J), build_stage(spec, J + data.draw(st.integers(1, 2)))
    inside = [i for i in range(min(stk.height, 400)) if stk.level(i).hi <= stJ.total]
    levels = st.lists(st.sampled_from(inside), min_size=1, max_size=3)
    A, B = (stk.levels_set(data.draw(levels)) for _ in "AB")
    assume(level_bits(stJ, A) is None)
    h = stJ.height
    start = data.draw(st.integers(-h - 2, h + 2))
    ms = range(start, start + data.draw(st.integers(1, 12)))
    got = stats._correlations(spec, A, B, ms, J)
    assert got == oracle_correlations(spec, A, B, ms, J)
    assert_prints_as_pairs(got)


def test_cli_interval_path_series_matches_oracle():
    # the sets of `correlate --j 5 --res 4`: stage-5 levels, resolution 4;
    # the command's LevelSets of a stage past J go the interval route
    spec = ConstructionSpec.staircase()
    st5 = build_stage(spec, 5)
    A, B = st5.levels_set([0, 3, 17]), st5.levels_set([0, 1, 2, 3])
    assert level_bits(build_stage(spec, 4), A) is None
    series = correlation_series(spec, A, B, 40, 4)
    expect = oracle_correlations(spec, A, B, range(41), 4)
    assert series.values == expect
    cli_sets = level_set(spec, 5, [0, 3, 17]), level_set(spec, 5, [0, 1, 2, 3])
    assert correlation_series(spec, *cli_sets, 40, 4).values == expect
    assert any(b.lo > 0 for b in expect.values())
    assert len({f.denominator for b in expect.values() for f in (b.lo, b.hi)}) > 1
    assert_prints_as_pairs(series.values)


@settings(max_examples=40, deadline=None)
@given(specs, st.data())
def test_flow_windows_match_oracle(spec, data):
    J = data.draw(st.integers(2, 6))
    j = data.draw(st.integers(1, J))
    h = build_stage(spec, J).height
    fspec = FlowSkeletonSpec(spec, data.draw(st.integers(1, 4)), F(2))
    q = data.draw(st.none() | st.integers(0, 6))
    top = data.draw(st.integers(0, min(h + 20, 300)))
    z_range = data.draw(st.sampled_from([
        range(top + 1), range(top // 2, top + 1), range(1, top + 2, 3),
        list(range(top, -1, -5)) + [top // 3, top // 3]]))
    rep = windowed_return_flow(fspec, j, J, z_range, q)
    q = fspec.grid_inverse if q is None else q
    sums = oracle_window_sums(oracle_profile(spec, j, J, max(z_range) + q), q)
    zs = sorted(set(z_range))
    assert rep.q == q and list(rep.values) == zs
    assert rep.values == {z: sums[z] for z in zs}
    assert rep.max_bound == oracle_max(sums, zs)
    assert_prints_as_pairs(rep.values)


def test_flow_window_refusal_names_zmax_q_and_the_profile_size():
    # the windows read a profile of zmax + q + 1 entries
    limit = stats.MAX_ENTRIES
    code, out, err = run_cli("flow", "window", "--spec", "odometer", "--alpha", "2",
                             "--grid", "3", "--j", "1", "--res", "3",
                             "--zmax", str(limit - 3))
    assert (code, out) == (2, "")
    assert err == (f"error: --zmax {limit - 3} with q=3 needs a return profile of "
                   f"{limit + 1} entries, more than the limit of {limit}\n")
