"""Block-mass matrices, light blocks, powder proxies, columns, and the
conditional trivialization check."""

import contextlib
import dataclasses
import io
import json
import re
import time
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction as F
from hashlib import sha256
from itertools import groupby, product
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankone import __version__, cli, joinings, stats
from rankone.averaging import WeightSequence, flatness
from rankone.construction import ConstructionSpec, build_stage
from rankone.errors import EmptyFSetError, OrbitEscaped, SpecError
from rankone.flow import FlowSkeletonSpec, band_indices, band_masses
from rankone.joinings import (
    BlockIndex,
    BlockMasses,
    BlockMassMatrix,
    DispersionRow,
    FSetSpec,
    LightBlocks,
    columns_and_F,
    di_estimate,
    dispersion_experiment,
    empirical_joining,
    graph_blocks,
    light_blocks,
    product_blocks,
    trivialization_check,
)
from rankone.measure import set_intersection
from rankone.persist import block_list, render_json
from rankone.transform import Cursor, apply_power, power_image
from helpers import (col_sum, column, column_blocks, delta_weights, dict_columns_and_F,
                     dict_light_blocks, dict_mass_of, dict_matrix, dict_trivialization_check,
                     light_shifts, row_sum, run_capped, total_block_mass)

ODO = ConstructionSpec.odometer()
ST2 = ConstructionSpec.staircase(h1=2)
ST3 = ConstructionSpec.staircase(h1=3)
CHA = ConstructionSpec.chacon()
PRESETS = [ODO, ST2, CHA, ConstructionSpec.random_spacers(seed=7)]


# ---------------------------------------------------------------- product

def test_product_equal_masses_and_residual():
    m = product_blocks(ST2, ST3, 2, 4)
    assert m.h_a == 2 and m.h_b == 3
    assert set(m.masses) == {BlockIndex(a, b) for a in range(2) for b in range(3)}
    assert all(v == F(1, 12) for v in m.masses.values())
    assert m.residual == F(1, 2)
    assert m.level_mass_a == F(1, 3)
    assert m.level_mass_b == F(1, 4)


def test_product_covered_is_tower_mass_product():
    for j, J in [(2, 4), (3, 5), (2, 5)]:
        m = product_blocks(ST2, ST3, j, J)
        expect = (build_stage(ST2, j).total / build_stage(ST2, J).total) \
            * (build_stage(ST3, j).total / build_stage(ST3, J).total)
        assert total_block_mass(m) == expect


def test_product_marginal_sums():
    m = product_blocks(ST2, ST3, 2, 4)
    covered_b = build_stage(ST3, 2).total / build_stage(ST3, 4).total
    covered_a = build_stage(ST2, 2).total / build_stage(ST2, 4).total
    for z1 in range(m.h_a):
        assert row_sum(m, z1) == m.level_mass_a * covered_b
        assert row_sum(m, z1) <= m.level_mass_a
    for z2 in range(m.h_b):
        assert col_sum(m, z2) == m.level_mass_b * covered_a
        assert col_sum(m, z2) <= m.level_mass_b


@given(st.sampled_from(PRESETS), st.sampled_from(PRESETS),
       st.integers(1, 3), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_product_mass_accounting(spec_a, spec_b, j, extra):
    m = product_blocks(spec_a, spec_b, j, j + extra)
    assert sum(m.masses.values(), F(0)) + m.residual == 1
    assert len(m.masses) == m.h_a * m.h_b
    assert m.residual >= 0


# ------------------------------------------ product masses against a dict

def dense(m, by_lag=False):
    """The same matrix with its counts held in a dict: by block, one key per
    counted block in row-major order, or by lag, one key per counted lag."""
    u = m.masses
    counts = ({d: 1 for d in u.counts} if by_lag else  # by lag, of a product's lag range
              {z: (u[z] / u.unit).numerator for z in u})
    return dataclasses.replace(m, masses=BlockMasses(m.h_a, m.h_b, counts, u.unit, by_lag))


specs = st.one_of(st.sampled_from(PRESETS),
                  st.integers(0, 10_000).map(ConstructionSpec.random_spacers))


@settings(max_examples=40, deadline=None)
@given(specs, specs, st.integers(1, 4), st.integers(0, 2), st.data())
def test_product_masses_match_dense_dict(spec_a, spec_b, j, extra, data):
    # the range of the grid's lags against a dict of a 1 for every lag and
    # a dict of a 1 for every block
    m = product_blocks(spec_a, spec_b, j, j + extra)
    d, lagged = dense(m), dense(m, by_lag=True)
    u = m.masses
    assert u.by_lag and u.counts == range(1 - m.h_a, m.h_b)
    assert lagged.masses.counts == dict.fromkeys(range(1 - m.h_a, m.h_b), 1)
    assert not d.masses.by_lag and len(d.masses.counts) == m.h_a * m.h_b
    assert len(u) == len(lagged.masses) == len(d.masses) == m.h_a * m.h_b
    assert u.total == lagged.masses.total == d.masses.total == m.h_a * m.h_b
    assert list(u) == list(lagged.masses) == list(d.masses) == sorted(d.masses)
    assert u == d.masses and d.masses == u and u == lagged.masses
    assert list(u.items()) == list(lagged.masses.items()) == list(d.masses.items()) == \
        list(dict_matrix(m).masses.items())
    probes = [(z1, z2) for z1 in (-1, 0, m.h_a - 1, m.h_a)
              for z2 in (-1, 0, m.h_b - 1, m.h_b)]
    for z in probes + [(0,), (0, 0, 0), "00"]:
        assert (z in u) == (z in lagged.masses) == (z in d.masses)
        assert u.get(z) == lagged.masses.get(z) == d.masses.get(z)
        if z in u:
            assert u[z] == lagged.masses[z] == d.masses[z]
    blocks = probes + [tuple(z) for z in u][:9] * 2
    assert u.count_of(blocks) == lagged.masses.count_of(blocks) == d.masses.count_of(blocks)
    for z in probes:
        assert m.mass_of([BlockIndex(*z)]) == d.mass_of([BlockIndex(*z)])
    for z1 in range(-1, m.h_a + 1):
        assert row_sum(m, z1) == row_sum(d, z1)
    for z2 in range(-1, m.h_b + 1):
        assert col_sum(m, z2) == col_sum(d, z2)
    # every block is light exactly when epsilon exceeds unit / level_mass_b
    at = u.unit / m.level_mass_b
    for eps in (at / 2, at - at / 1000, at, at + at / 1000, 2 * at):
        rep = light_blocks(m, eps)
        assert rep == light_blocks(lagged, eps) == light_blocks(d, eps)
        assert len(rep.light_set) == (m.h_a * m.h_b if eps > at else 0)
        assert list(rep.light_set.items()) == list(light_blocks(d, eps).light_set.items())

    delta = data.draw(st.sampled_from([F(1, 10), F(1, 4), F(1, 2)]))
    i_max = int(delta * m.h_b)
    w = data.draw(st.integers(0, m.h_a))
    for kw in ({"epsilon": at + data.draw(st.sampled_from([-at / 2, 0, at]))},
               {"mass_threshold": u.unit * data.draw(st.integers(0, i_max + 2))}):
        assert outcome(light_shifts, m, delta, w, **kw) == \
            outcome(light_shifts, d, delta, w, **kw)
    shifts = data.draw(st.lists(st.integers(0, max(m.h_b - 1 - i_max, 0)),
                                min_size=1, max_size=4, unique=True))
    fs = outcome(columns_and_F, m, delta, w, shifts)
    assert fs == outcome(columns_and_F, d, delta, w, shifts) == \
        outcome(columns_and_F, lagged, delta, w, shifts)
    if not isinstance(fs, tuple):
        k = data.draw(st.integers(1, j))
        sa, sb = build_stage(spec_a, k), build_stage(spec_b, k)
        A = sa.levels_set(data.draw(st.lists(st.integers(0, sa.height - 1),
                                             min_size=1, max_size=3, unique=True)))
        B = sb.levels_set(data.draw(st.lists(st.integers(0, sb.height - 1),
                                             min_size=1, max_size=3, unique=True)))
        assert trivialization_check(m, fs, A, B, k) == \
            trivialization_check(d, fs, A, B, k) == trivialization_check(lagged, fs, A, B, k)
    fspec = FlowSkeletonSpec(spec_a, data.draw(st.integers(1, 2)),
                             data.draw(st.sampled_from([F(2), F(3, 2)])))
    # the streamed band sums to the mass of band_indices' set, alpha 2 and 3/2
    for off in range(0, m.h_a, max(m.h_a // 4, 1)):
        for side in ("right", "left"):
            assert outcome(band_masses, m, fspec, off, side, z_bound=m.h_b) == \
                outcome(band_masses, d, fspec, off, side, z_bound=m.h_b) == \
                outcome(lambda: d.mass_of(band_indices(fspec, m.h_a, m.h_b, off, side, m.h_b)))


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ("joining", "blocks", "--format", "json"),
    ("joining", "blocks", "--format", "csv"),
    ("joining", "light", "--epsilon", "1/2"),
    ("joining", "light", "--epsilon", "1/100"),
])
def test_product_documents_match_dense_dict(argv):
    argv += ("--kind", "product", "--spec-a", "staircase", "--spec-b",
             "chacon", "--j", "4", "--res", "5")
    code, out, err = run_cli(*argv)
    assert code == 0, err
    with mock.patch.object(joinings, "product_blocks",
                           lambda *a: dense(product_blocks(*a))):
        assert run_cli(*argv) == (0, out, "")


# ---------------------------------------------------------------- graph

def test_graph_k0_odometer_diagonal():
    m = graph_blocks(ODO, 0, 2, 4)
    assert m.masses == {BlockIndex(i, i): F(1, 4) for i in range(4)}
    assert m.residual == 0


def test_graph_k0_support_is_diagonal():
    for spec in PRESETS:
        for j in (1, 2, 3):
            m = graph_blocks(spec, 0, j, j + 2)
            assert all(z1 == z2 for z1, z2 in m.masses)
            assert all(v > 0 for v in m.masses.values())


def test_graph_k1_odometer_frozen():
    m = graph_blocks(ODO, 1, 2, 4)
    assert m.masses == {
        BlockIndex(1, 0): F(1, 4), BlockIndex(2, 1): F(1, 4),
        BlockIndex(3, 2): F(1, 4), BlockIndex(0, 3): F(3, 16)}
    assert m.residual == F(1, 16)


def test_graph_masses_are_over_the_stage_J_ambient():
    # the limit system's ambient exceeds M_J, so a shallow J overstates a mass
    assert [graph_blocks(ST2, 0, 2, J).mass_of([(0, 0)]) for J in (3, 4, 10)] == [
        F(2, 5), F(1, 3), F(504, 1693)]


def test_graph_wraparound_at_k_h2():
    # the odometer satisfies T^2 E_1 = E_1 up to resolution loss, so the
    # k = 2 band at stage 1 folds back onto the diagonal
    m = graph_blocks(ODO, 2, 1, 4)
    assert m.masses == {BlockIndex(0, 0): F(7, 16), BlockIndex(1, 1): F(7, 16)}
    assert m.residual == F(1, 8)


def test_graph_mass_matches_direct_geometry():
    # independent route: resolve T^{z1}E and the pushed image of T^{z2}E by
    # k through power_image and intersect
    for spec, k in [(ODO, 0), (ODO, 1), (ST2, 0), (ST2, 2)]:
        j, J = 2, 4
        m = graph_blocks(spec, k, j, J)
        stj, stJ = build_stage(spec, j), build_stage(spec, J)
        M = stJ.total
        occ = stJ.occurrences(j)
        for z1 in range(stj.height):
            u = stJ.levels_set([p + z1 for p in occ])
            for z2 in range(stj.height):
                base = stJ.levels_set([p + z2 for p in occ])
                img, _ = power_image(spec, base, k, J)
                direct = set_intersection(u, img).measure / M
                assert m.mass_of([BlockIndex(z1, z2)]) == direct


def test_graph_row_sums_bounded_by_level_mass():
    for spec, k in [(ODO, 1), (ST2, 2), (CHA, 1)]:
        m = graph_blocks(spec, k, 2, 5)
        for z1 in range(m.h_a):
            assert row_sum(m, z1) <= m.level_mass_a
        for z2 in range(m.h_b):
            assert col_sum(m, z2) <= m.level_mass_b


@given(st.sampled_from(PRESETS), st.integers(0, 5), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_graph_mass_accounting(spec, k, j):
    m = graph_blocks(spec, k, j, j + 2)
    total = sum(m.masses.values(), F(0))
    assert total <= 1
    assert total + m.residual == 1


@settings(max_examples=40, deadline=None)
@given(specs, st.integers(0, 6), st.integers(1, 4), st.integers(0, 2))
def test_graph_blocks_by_lag_match_grid_walk(spec, k, j, extra):
    # oracle: every (z1, z2) of the grid tested against its lag, in
    # row-major order, so the same dict in the same insertion order
    m = graph_blocks(spec, k, j, j + extra)
    h, stJ = m.h_a, build_stage(spec, j + extra)
    lags = stats._stage_counts(spec, (j, 1), (j, 1), range(k - h + 1, k + h), j + extra)
    w = stJ.width / stJ.total
    grid = {BlockIndex(z1, z2): n * w for z1 in range(h) for z2 in range(h)
            if (n := lags[z2 - z1 + h - 1])}
    assert list(m.masses.items()) == list(grid.items())
    assert m.residual == 1 - sum(grid.values(), F(0))


# ---------------------------------------------------------------- empirical

def test_empirical_identical_orbits_diagonal():
    m = empirical_joining(ODO, ODO, 0, 0, 64, 2, 10)
    assert m.masses == {BlockIndex(i, i): F(1, 4) for i in range(4)}
    assert m.residual == 0
    assert m.meta["deepest_stage_a"] == 6
    assert m.kind == "empirical" and m.meta["N"] == 64


def test_empirical_single_step():
    m = empirical_joining(ODO, ODO, 0, 0, 1, 2, 8)
    assert m.masses == {BlockIndex(0, 0): F(1)}
    assert m.residual == 0


def test_empirical_start_in_spacer_mass():
    # 21/20 lies in the stage-3 spacer zone of the h1=2 staircase, so the
    # first tick cannot be assigned a stage-2 block
    m = empirical_joining(ST2, ST3, F(21, 20), 0, 1, 2, 10)
    assert m.residual == 1 and not m.masses
    m4 = empirical_joining(ST2, ST3, F(21, 20), 0, 4, 2, 10)
    assert m4.residual == F(1, 4)


def test_empirical_step_parameters():
    # doubling the first coordinate's step keeps it on stage-1 level 0
    m = empirical_joining(ODO, ODO, 0, 0, 64, 1, 12, step_a=2, step_b=1)
    assert m.masses == {BlockIndex(0, 0): F(1, 2), BlockIndex(0, 1): F(1, 2)}
    assert m.residual == 0


def test_empirical_rerun_identical():
    a = empirical_joining(ST2, ST3, 0, 0, 3000, 2, 10)
    b = empirical_joining(ST2, ST3, 0, 0, 3000, 2, 10)
    assert a.masses == b.masses and a.residual == b.residual and a.meta == b.meta


def test_empirical_equivariance():
    # advancing both starting points by m steps moves at most m ticks in and
    # m ticks out of the time window
    N = 500
    base = empirical_joining(ST2, ST3, 0, 0, N, 2, 10)
    for shift in (1, 5, 20):
        xa = apply_power(ST2, 0, shift).x
        xb = apply_power(ST3, 0, shift).x
        moved = empirical_joining(ST2, ST3, xa, xb, N, 2, 10)
        keys = set(base.masses) | set(moved.masses)
        tv = sum(abs(base.mass_of([z]) - moved.mass_of([z])) for z in keys)
        tv += abs(base.residual - moved.residual)
        assert tv <= F(2 * shift, N)


def test_empirical_validation():
    with pytest.raises(SpecError):
        empirical_joining(ODO, ODO, 0, 0, 0, 2, 8)
    with pytest.raises(SpecError):
        empirical_joining(ODO, ODO, 0, 0, 10, 2, 8, step_a=0)


EMPIRICAL_ARGVS = [
    ("joining", "blocks", "--kind", "empirical", "--j", "2"),
    ("joining", "light", "--kind", "empirical", "--j", "2", "--epsilon", "1/2"),
    ("joining", "di", "--kind", "empirical", "--stages", "2,3", "--epsilons", "1/2,1/4"),
    ("joining", "trivialize", "--kind", "empirical", "--j", "2", "--delta", "1/2",
     "--w", "0", "--shifts", "0", "--A", "0", "--B", "0", "--cond-stage", "1"),
    ("flow", "bands", "--matrix", "empirical", "--spec", "odometer", "--alpha", "2",
     "--j", "2", "--side", "right", "--offsets", "0"),
]


def test_empirical_refuses_too_many_ticks_before_any_cursor(monkeypatch):
    built = []

    def cursor(*a, **kw):
        built.append(a)
        raise SpecError("cursor built")

    monkeypatch.setattr(joinings, "Cursor", cursor)
    limit = joinings.MAX_TICKS
    with pytest.raises(SpecError) as exc:
        empirical_joining(ODO, ODO, 0, F(1, 3), limit + 1, 2, 40)
    assert str(exc.value) == f"{limit + 1} ticks requested, more than the limit of {limit}"
    assert built == []
    pair = ("--x-a", "0/1", "--x-b", "1/3", "--res", "40", "--stage-budget", "40")
    for argv in EMPIRICAL_ARGVS:
        spec = () if argv[0] == "flow" else ("--spec-a", "odometer", "--spec-b", "odometer")
        assert run_cli(*argv, *spec, *pair, "-N", str(limit + 1)) == (
            2, "", f"error: {limit + 1} ticks requested, more than the limit of {limit}\n")
    assert built == []
    # the limit itself is allowed: the joining goes on to build its cursors
    with pytest.raises(SpecError, match="cursor built"):
        empirical_joining(ODO, ODO, 0, F(1, 3), limit, 2, 40)
    assert len(built) == 1


def traced_peak(fn, *args):
    """The peak of the memory tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_empirical_joining_memory_does_not_grow_with_N():
    # the ticks are counted as they stream: 100 times the ticks, a peak
    # within a few KB (the Counter of distinct codes and the coarse words);
    # a list of ticks would add 8 B or more a tick, 7.9 MB here
    spec = ConstructionSpec.odometer(max_stage=24)
    args = (spec, spec, F(1, 3), F(2, 5))
    empirical_joining(*args, 10 ** 6, 4, 24)  # build the stages first
    small, large = (traced_peak(empirical_joining, *args, N, 4, 24)
                    for N in (10 ** 4, 10 ** 6))
    assert large - small < 64 * 1024, (small, large)


def test_dispersion_track_holds_2_bytes_a_tick(monkeypatch):
    # odometer x chacon at j = 4 (towers 16 and 40 tall) has codes up to
    # 16 * 41 + 40 < 2^16, each a fresh int object in a list (8 B a pointer
    # and 28 B an int a tick); the track is one 'H' array, 2 B a tick plus
    # its growth headroom of at most 1/16, and the whole call grows by under
    # 4 B a tick (the hits, 1 tick in 640 here, included).  Of the arrays a
    # call starts empty, the track is the one past CHUNK ticks; the others
    # are the two sides' buffers.  The chunks, made from bytes, are not kept.
    made = []

    def recorded_array(typecode, *init):
        made_here = array(typecode, *init)
        if not init:
            made.append(made_here)
        return made_here

    monkeypatch.setattr(joinings, "array", recorded_array)
    a, b = ConstructionSpec.odometer(max_stage=24), ConstructionSpec.chacon(max_stage=24)
    args = (a, b, 0, 0)
    rest = (BlockIndex(0, 0), [0, 5], 4, 24)
    dispersion_experiment(*args, 10 ** 6, *rest)  # build the stages first
    small, large = (traced_peak(dispersion_experiment, *args, N, *rest)
                    for N in (10 ** 4, 10 ** 6))
    tracks = [t for t in made if len(t) > joinings.CHUNK]
    assert [(t.typecode, t.itemsize, len(t)) for t in tracks] == [
        ("H", 2, N + 5) for N in (10 ** 6, 10 ** 4, 10 ** 6)]
    assert (large - small) / (10 ** 6 - 10 ** 4) < 4, (small, large)


# ---------------------------------------------------------------- light blocks

def test_light_product_threshold_flip():
    # every product block has mass level_mass_a * level_mass_b, so lightness
    # flips for the whole grid exactly when epsilon crosses level_mass_a
    m = product_blocks(ST2, ST3, 2, 4)
    at = light_blocks(m, m.level_mass_a)
    assert at.covered_mass == 0 and not at.light_set
    above = light_blocks(m, m.level_mass_a + F(1, 1000))
    assert len(above.light_set) == m.h_a * m.h_b
    assert above.covered_mass == total_block_mass(m)


def test_light_sets_are_row_major_with_masses():
    # the listing prints light_set in iteration order, unsorted: every row
    # of an all-light grid is a range, and other grids list blocks row by row
    m = product_blocks(ST2, ST3, 3, 4)
    above = light_blocks(m, m.level_mass_a + F(1, 1000))
    assert all(z2s == range(m.h_b) for _, z2s in above.light_set.rows())
    assert list(above.light_set) == list(m.masses)
    assert list(above.light_set) == sorted(above.light_set)
    assert all(type(z) is BlockIndex for z in above.light_set)
    for m in (graph_blocks(ST2, 1, 3, 5), graph_blocks(ODO, 0, 3, 5)):
        rep = light_blocks(m, F(1, 2))
        assert rep.light_set and list(rep.light_set) == sorted(rep.light_set)
        assert all(v == m.mass_of([z]) for z, v in rep.light_set.items())
        assert rep.covered_mass == sum(rep.light_set.values())


def test_light_graph_k0():
    m = graph_blocks(ODO, 0, 2, 4)
    r = light_blocks(m, F(1, 2))
    assert r.covered_mass == 0
    assert len(r.light_set) == 12 and r.heavy_count == 4
    assert all(z1 != z2 for z1, z2 in r.light_set)
    # diagonal blocks stay heavy all the way up to epsilon = 1
    assert light_blocks(m, 1).covered_mass == 0


def test_light_empirical_diagonal():
    m = empirical_joining(ODO, ODO, 0, 0, 64, 2, 10)
    assert light_blocks(m, F(1, 2)).covered_mass == 0


def test_light_validation():
    m = graph_blocks(ODO, 0, 2, 4)
    with pytest.raises(SpecError):
        light_blocks(m, 0)


@st.composite
def block_matrices(draw):
    """A product matrix, its counts by block, those with explicit zero
    counts, a graph matrix or an empirical histogram, at stages 1-3."""
    kind = draw(st.sampled_from(["product", "dense", "zeros", "graph", "empirical"]))
    j = draw(st.integers(1, 3))
    if kind == "graph":
        return graph_blocks(draw(specs), draw(st.integers(0, 4)), j, j + draw(st.integers(0, 2)))
    if kind == "empirical":
        x_a, x_b = (draw(st.sampled_from([0, F(1, 3), F(2, 7), F(5, 9)])) for _ in "ab")
        try:
            return empirical_joining(draw(specs), draw(specs), x_a, x_b,
                                     draw(st.integers(1, 200)), j, 10)
        except OrbitEscaped:
            assume(False)
    m = product_blocks(draw(specs), draw(specs), j, j + draw(st.integers(0, 2)))
    if kind == "product":
        return m
    d = dense(m)
    if kind == "dense":
        return d
    zeros = draw(st.sets(st.sampled_from(sorted(d.masses))))
    u = d.masses
    return dataclasses.replace(
        d, masses=BlockMasses(m.h_a, m.h_b, {z: 0 if z in zeros else n for z, n in u.counts.items()},
                              u.unit, False))


@settings(max_examples=60, deadline=None)
@given(block_matrices(), st.data())
def test_mass_of_matches_per_block_sum(m, data):
    # in-grid, off-grid and repeated blocks, as tuples or BlockIndex, from
    # a list or a one-shot iterator
    near = st.tuples(st.integers(-2, m.h_a + 1), st.integers(-2, m.h_b + 1))
    blocks = data.draw(st.lists(near, max_size=30))
    blocks += blocks[:data.draw(st.integers(0, len(blocks)))]
    total = m.mass_of(blocks)
    assert type(total) is F
    assert total == sum((m.masses.get(BlockIndex(*z), F(0)) for z in blocks), F(0))
    assert m.mass_of(map(BlockIndex._make, blocks)) == m.mass_of(iter(blocks)) == total
    assert m.mass_of(product(range(m.h_a), range(m.h_b))) == 1 - m.residual


@settings(max_examples=60, deadline=None)
@given(block_matrices())
def test_matrix_derives_grid_level_masses_and_residual(m):
    # each derived field once from masses, norms and towers: the stage-j
    # heights, the stage-j widths over the norms, and 1 - unit x total
    sa, sb = build_stage(m.spec_a, m.j), build_stage(m.spec_b, m.j)
    assert (m.h_a, m.h_b) == (sa.height, sb.height) == (m.masses.h_a, m.masses.h_b)
    assert m.level_mass_a == sa.width / m.norm_a
    assert m.level_mass_b == sb.width / m.norm_b
    assert m.residual == 1 - m.masses.unit * m.masses.total >= 0
    assert m.residual == 1 - sum(m.masses.values(), F(0))
    # rebuilt from its own arguments, it derives the same fields
    assert dataclasses.replace(m) == m


@settings(max_examples=60, deadline=None)
@given(block_matrices(), st.data())
def test_light_sets_match_dict_oracle(m, data):
    masses = set(m.masses.values())
    at = data.draw(st.sampled_from(sorted(x / m.level_mass_b for x in masses | {F(1)} if x > 0)))
    eps = at * data.draw(st.sampled_from([F(1, 2), F(999, 1000), F(1), F(1001, 1000), F(2)]))
    rep, oracle = light_blocks(m, eps), dict_light_blocks(m, eps)
    assert rep == oracle
    light = rep.light_set
    assert len(light) == len(oracle.light_set)
    assert (rep.covered_mass, rep.heavy_count) == (
        oracle.covered_mass, oracle.total_blocks - len(oracle.light_set))
    # row-major order, as BlockIndex, and the same blocks row by row
    assert list(light) == list(oracle.light_set)
    assert all(type(z) is BlockIndex for z in light)
    assert [(z1, list(z2s)) for z1, z2s in light.rows() if z2s] == [
        (z1, [z2 for _, z2 in row]) for z1, row in groupby(oracle.light_set, itemgetter(0))]
    probes = [(z1, z2) for z1 in (-1, 0, m.h_a - 1, m.h_a) for z2 in (-1, 0, m.h_b - 1, m.h_b)]
    for z in probes + list(m.masses)[:20] + [(0,), (0, 0, 0), "00"]:
        assert (z in light) == (z in oracle.light_set)
        assert light.get(z) == oracle.light_set.get(z)


# ------------------------------ count matrices against the Fraction-dict route

@st.composite
def count_matrices(draw):
    """A product, graph or empirical matrix of presets and random:K specs at
    stages 1-3, graph powers negative, zero and past the stage-J tower."""
    kind = draw(st.sampled_from(["product", "graph", "empirical"]))
    j = draw(st.integers(1, 3))
    J = j + draw(st.integers(0, 2))
    if kind == "product":
        return product_blocks(draw(specs), draw(specs), j, J)
    if kind == "graph":
        spec = draw(specs)
        h = build_stage(spec, j).height
        k = draw(st.sampled_from([-h, -1, 0, 1, h - 1, h, build_stage(spec, J).height + 2])
                 | st.integers(-2 * h, 2 * h))
        return graph_blocks(spec, k, j, J)
    x_a, x_b = (draw(st.sampled_from([0, F(1, 3), F(2, 7), F(5, 9)])) for _ in "ab")
    try:
        return empirical_joining(draw(specs), draw(specs), x_a, x_b,
                                 draw(st.integers(1, 200)), j, 10)
    except OrbitEscaped:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(count_matrices(), st.data())
def test_count_matrices_match_the_fraction_dict_route(m, data):
    d = dict_matrix(m)
    # the mapping, its order and its length
    assert list(m.masses.items()) == list(d.masses.items())
    assert list(m.masses) == list(d.masses) and len(m.masses) == len(d.masses)
    assert m.masses == d.masses and m.residual == 1 - sum(d.masses.values(), F(0))
    # mass_of and lookups over in-grid, off-grid and repeated blocks
    near = st.tuples(st.integers(-2, m.h_a + 1), st.integers(-2, m.h_b + 1))
    blocks = data.draw(st.lists(near, max_size=30))
    blocks += blocks[:data.draw(st.integers(0, len(blocks)))]
    assert m.mass_of(blocks) == dict_mass_of(d, blocks)
    for z in blocks:
        assert (z in m.masses) == (z in d.masses) and m.masses.get(z) == d.masses.get(z)
    # light blocks, with a count of the matrix on the threshold: such a block is heavy
    n = data.draw(st.sampled_from(sorted({*(x / m.masses.unit for x in m.masses.values()), 1}
                                         - {0})))
    at = m.masses.unit * n / m.level_mass_b
    for eps in (at, at * F(999, 1000), at * F(1001, 1000)):
        rep, oracle = light_blocks(m, eps), dict_light_blocks(d, eps)
        assert (rep.covered_mass, rep.heavy_count, len(rep.light_set)) == (
            oracle.covered_mass, oracle.total_blocks - len(oracle.light_set),
            len(oracle.light_set))
        assert [(z1, list(z2s)) for z1, z2s in rep.light_set.rows() if z2s] == [
            (z1, [z2 for _, z2 in row]) for z1, row in groupby(oracle.light_set, itemgetter(0))]
        assert list(rep.light_set.items()) == list(oracle.light_set.items())
    on = light_blocks(m, at).light_set
    assert not any(z in on for z, x in d.masses.items() if x == m.masses.unit * n)
    # F sets and the trivialization records
    delta = data.draw(st.sampled_from([F(1, 10), F(1, 4), F(1, 2)]))
    w = data.draw(st.integers(0, m.h_a))
    i_max = int(delta * m.h_b)
    shifts = data.draw(st.lists(st.integers(0, max(m.h_b - 1 - i_max, 0)),
                                min_size=1, max_size=4, unique=True))
    fs = outcome(columns_and_F, m, delta, w, shifts)
    assert fs == outcome(dict_columns_and_F, d, delta, w, shifts)
    if not isinstance(fs, tuple):
        # (w, i_max) names the blocks the tuple walk lists
        assert column_blocks(fs) == column(d, delta, w)[1]
        k = data.draw(st.integers(1, m.j))
        sa, sb = build_stage(m.spec_a, k), build_stage(m.spec_b, k)
        A, B = (s.levels_set(data.draw(st.lists(st.integers(0, s.height - 1),
                                                max_size=3, unique=True))) for s in (sa, sb))
        assert outcome(trivialization_check, m, fs, A, B, k) == \
            outcome(dict_trivialization_check, d, fs, A, B, k)


def listing_matches_json_dumps(h_a, h_b, heavy, level):
    """block_list of light-set views of an h_a x h_b grid, nested level
    deep in a document, against json.dumps of the listed blocks: the heavy
    blocks cut out, the lags of the heavy blocks cut out, and none cut."""
    by_block = BlockMasses(h_a, h_b, dict.fromkeys(map(BlockIndex._make, sorted(heavy)), 1),
                           F(1), False)
    by_lag = BlockMasses(h_a, h_b, dict.fromkeys(sorted({z2 - z1 for z1, z2 in heavy}), 1),
                         F(1), True)
    for light in (LightBlocks(by_block, by_block), LightBlocks(by_lag, by_lag),
                  LightBlocks(by_block, BlockMasses(h_a, h_b, {}, F(1), False))):
        payload, expect = block_list(light.rows(), h_b, level), [list(z) for z in light]
        for _ in range(level - 1):
            payload, expect = [payload], [expect]
        assert "".join(render_json(payload)) == json.dumps(
            {"data": expect, "meta": {"tool_version": __version__}},
            sort_keys=True, separators=(",", ": "), indent=1) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 4), st.data())
def test_block_listing_matches_json_dumps(h_a, h_b, level, data):
    grid = list(product(range(h_a), range(h_b)))
    heavy = data.draw(st.sets(st.sampled_from(grid))) if grid else set()
    listing_matches_json_dumps(h_a, h_b, heavy, level)


def test_block_listing_edge_grids():
    # empty grids, one row, one column, and grids with every block heavy
    # in some rows or everywhere
    grids = [(0, 0, []), (0, 3, []), (3, 0, []), (1, 1, []), (1, 1, [(0, 0)]),
             (1, 4, [(0, 2)]), (4, 1, [(1, 0), (3, 0)]), (2, 3, [(1, 0), (1, 1), (1, 2)]),
             (2, 2, list(product(range(2), range(2))))]
    for h_a, h_b, heavy in grids:
        for level in (1, 2, 3):
            listing_matches_json_dumps(h_a, h_b, heavy, level)


def test_listings_over_the_block_cap_exit_2():
    # sized from the view or the matrix in O(1), before any block is listed
    chacon2 = ("--kind", "product", "--spec-a", "chacon", "--spec-b", "chacon", "--j", "7",
               "--res", "8")
    graph = ("--kind", "graph", "--spec", "staircase", "--k", "1", "--j", "7", "--res", "8")
    limit = f"more than the limit of {joinings.MAX_BLOCKS}\n"
    t0 = time.perf_counter()
    for argv, n in [(("joining", "light", *chacon2, "--epsilon", "1"), 1093 ** 2),
                    (("joining", "blocks", *chacon2), 1093 ** 2),
                    # h_7 = 2,415: all blocks light but the 2,414 of one lag
                    (("joining", "light", *graph, "--epsilon", "1/2"), 2415 ** 2 - 2414)]:
        assert run_cli(*argv) == (2, "", f"error: {n} blocks to list, {limit}")
    assert time.perf_counter() - t0 < 2.0


def test_joining_di_graph_at_stage_7_in_a_capped_child():
    # the light set of a stage-7 graph matrix held 5.8M blocks, one dict
    # per (stage, epsilon): exit 4, MemoryError, after about 60 s under a
    # 2 GB cap on a 2-core VM (CPython 3.11.7); the views list none
    proc, elapsed = run_capped(["-m", "rankone.cli", "joining", "di", "--kind", "graph",
                                "--spec", "staircase", "--k", "1", "--stages", "6,7",
                                "--epsilons", "1/2,1/4", "--res", "9"])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10.0, f"joining di took {elapsed:.2f} s"
    # the proxy from the graph matrices' own entries below each threshold
    ms = [graph_blocks(ST2, 1, j, 9) for j in (6, 7)]
    proxy = min(max(sum((x for x in m.masses.values() if x < eps * m.level_mass_b), F(0))
                    for m in ms) for eps in (F(1, 2), F(1, 4)))
    assert json.loads(proc.stdout)["data"]["proxy"] == f"{proxy.numerator}/{proxy.denominator}"


def test_joining_di_graph_at_stages_9_and_10_bytes_pinned():
    # recorded when every graph block mass was its own Fraction (10.7 s and
    # 344 MB on a 2-core VM, CPython 3.11.7); the lag counts list no block
    code, out, err = run_cli("joining", "di", "--kind", "graph", "--spec", "staircase", "--k",
                             "1", "--stages", "9,10", "--epsilons", "1/2,1/4", "--res", "12",
                             "--stage-budget", "12")
    assert code == 0, err
    assert sha256(out.encode()).hexdigest() == (
        "843aef0a29da3364d72bc2c5c6dc541e03df50e1bbcfff14574b48ec53a00062")


# ---------------------------------------------------------------- di estimate

def test_di_graph_family_zero():
    reports = [light_blocks(graph_blocks(ODO, 0, j, j + 2), eps)
               for j in (2, 3, 4) for eps in (F(1, 2), F(1, 4))]
    assert di_estimate(reports) == 0


def test_di_product_family_tower_mass():
    reports = []
    for j in (3, 4):
        m = product_blocks(ST2, ST3, j, 6)
        for eps in (F(1, 2), F(1, 4)):
            reports.append(light_blocks(m, eps))
    expect = max(
        (build_stage(ST2, j).total / build_stage(ST2, 6).total)
        * (build_stage(ST3, j).total / build_stage(ST3, 6).total)
        for j in (3, 4))
    assert di_estimate(reports) == expect


def test_di_refusals():
    m2 = graph_blocks(ODO, 0, 2, 4)
    m3 = graph_blocks(ODO, 0, 3, 5)
    with pytest.raises(SpecError):
        di_estimate([])
    with pytest.raises(SpecError):
        di_estimate([light_blocks(m2, F(1, 2)), light_blocks(m3, F(1, 2))])
    with pytest.raises(SpecError):
        di_estimate([light_blocks(m2, F(1, 2)), light_blocks(m2, F(1, 4))])
    mixed = [light_blocks(m2, F(1, 2)), light_blocks(m3, F(1, 4)),
             light_blocks(product_blocks(ODO, ODO, 2, 4), F(1, 2))]
    with pytest.raises(SpecError):
        di_estimate(mixed)


# ---------------------------------------------------------------- dispersion

def test_dispersion_n0_is_source():
    rows = dispersion_experiment(ODO, ODO, 0, 0, 40, BlockIndex(0, 0),
                                 [0], 2, 8)
    (row,) = rows
    assert row.histogram == {BlockIndex(0, 0): F(1)}
    assert row.max_mass == 1 and row.residual == 0


def test_dispersion_identity_coupling_stays_single():
    rows = dispersion_experiment(ODO, ODO, 0, 0, 40, BlockIndex(0, 0),
                                 [1, 4], 2, 8)
    assert rows[0].histogram == {BlockIndex(1, 1): F(1)}
    assert rows[1].histogram == {BlockIndex(0, 0): F(1)}


def test_dispersion_staircase_pair_spreads():
    # advancing by the taller system's stage-3 height scatters the
    # conditioned mass over several blocks
    h3 = build_stage(ST3, 3).height
    rows = dispersion_experiment(ST2, ST3, 0, 0, 5000, BlockIndex(4, 0),
                                 [0, h3], 3, 10)
    assert rows[0].max_mass == 1
    assert rows[1].max_mass < 1
    assert len(rows[1].histogram) >= 2


@pytest.mark.parametrize("spec_a, spec_b, x_a, x_b, N, z, n_list, j", [
    (ODO, ODO, 0, 0, 40, (0, 0), [0, 1, 4], 2),
    (ST2, ST3, 0, 0, 5000, (4, 0), [0, 78, -3], 3),
    (CHA, ST2, F(1, 3), F(2, 7), 3000, (1, 1), [0, 5, 40, 400], 2),
])
def test_dispersion_histogram_is_block_counts_of_unit_one_over_count(
        spec_a, spec_b, x_a, x_b, N, z, n_list, j):
    # each histogram is the landing counts by block, of unit 1/count: as a
    # mapping, {b: Fraction(c, count)} over the same visits, per tick
    rows = dispersion_experiment(spec_a, spec_b, x_a, x_b, N, BlockIndex(*z), n_list, j, 10)
    track, _, _ = oracle_ticks(spec_a, spec_b, x_a, x_b, N + max(max(n_list), 0), j, 10, 1, 1)
    hits = [t for t in range(N) if track[t] == z]
    for row, n in zip(rows, n_list):
        landed = [track[t + n] for t in hits if t + n >= 0]
        counts = Counter(BlockIndex(*b) for b in landed if None not in b)
        hist = row.histogram
        assert isinstance(hist, BlockMasses) and not hist.by_lag
        assert hist.unit == F(1, row.conditioning_count) and row.conditioning_count == len(landed)
        assert hist.counts == dict(sorted(counts.items()))
        assert hist == {b: F(c, len(landed)) for b, c in counts.items()}
        assert list(hist.items()) == sorted((b, F(c, len(landed))) for b, c in counts.items())
        assert row.max_mass == max(hist.values(), default=F(0))
        assert row.residual == F(len(landed) - sum(counts.values()), len(landed))


def test_dispersion_empty_conditioning_refused():
    with pytest.raises(SpecError, match="count 0"):
        dispersion_experiment(ODO, ODO, 0, 0, 40, BlockIndex(0, 1), [1], 2, 8)


@pytest.mark.parametrize("z, alias", [
    # z off the h_a x h_b grid, and the block its code za * (h_b + 1) + zb
    # would read as: another block, or a tick with an unborn level
    (lambda ha, hb: (0, hb + 1), (1, 0)),
    (lambda ha, hb: (0, hb), (0, None)),
    (lambda ha, hb: (ha, 0), (None, 0)),
    (lambda ha, hb: (-1, hb + 1), (0, 0)),
    (lambda ha, hb: (1, -1), (0, None)),
    (lambda ha, hb: (2, -hb - 1), (1, 0)),
    (lambda ha, hb: (0, -1), None),
], ids=["next row", "b unborn", "a unborn", "negative row", "negative column",
        "row back", "below the grid"])
def test_dispersion_refuses_blocks_off_the_grid(z, alias):
    # ST2 x ST3 at j = 2 (towers 2 and 3 tall) visits every alias block
    args = (ST2, ST3, 0, F(1, 3), 3000)
    rest = ([0, 1], 2, 10, 1, 1)
    track, _, _ = oracle_ticks(*args, 2, 10, 1, 1)
    assert alias is None or alias in track
    z = BlockIndex(*z(2, 3))
    got = outcome(dispersion_experiment, *args, z, *rest)
    assert got == outcome(oracle_dispersion_experiment, *args, z, *rest)
    assert got == (SpecError, f"block {tuple(z)} is off the 2 x 3 grid of stage 2")


def test_dispersion_refuses_blocks_off_the_grid_before_walking(monkeypatch):
    # the z check reads only h_a and h_b: a walk of 10^7 ticks first took
    # 1.5 s and 97.5 MB to end in the same exit 2
    walked = []
    monkeypatch.setattr(joinings, "_paired_codes", lambda *a, **kw: walked.append(a))
    code, out, err = run_cli(
        "joining", "disperse", "--spec-a", "odometer", "--spec-b", "chacon",
        "--x-a", "0/1", "--x-b", "0/1", "--z", "0,1000", "--n-list", "0", "--j", "3",
        "--res", "24", "--stage-budget", "24", "-N", "9999999")
    h_a, h_b = build_stage(ODO, 3).height, build_stage(ConstructionSpec.chacon(), 3).height
    assert (code, out, walked) == (2, "", [])
    assert err == f"error: block (0, 1000) is off the {h_a} x {h_b} grid of stage 3\n"


def test_dispersion_refuses_too_many_ticks_before_any_cursor(monkeypatch):
    built = []

    def cursor(*a, **kw):
        built.append(a)
        raise SpecError("cursor built")

    monkeypatch.setattr(joinings, "Cursor", cursor)
    limit = joinings.MAX_TICKS
    for N, n_list in ((100, [0, 10 ** 8]), (limit + 1, [0]), (1, [-5, limit])):
        with pytest.raises(SpecError) as exc:
            dispersion_experiment(ODO, ODO, 0, F(1, 3), N, BlockIndex(0, 1),
                                  n_list, 2, 40)
        assert str(exc.value) == (f"{N + max(n_list)} ticks requested, more "
                                  f"than the limit of {limit}")
    assert built == []
    argv = ("joining", "disperse", "--spec-a", "odometer", "--spec-b", "odometer",
            "--x-a", "0/1", "--x-b", "1/3", "-N", "100", "--z", "0,1",
            "--n-list", "0,100000000", "--j", "2", "--res", "40",
            "--stage-budget", "40")
    assert run_cli(*argv) == (2, "", f"error: 100000100 ticks requested, more "
                                     f"than the limit of {limit}\n")
    assert built == []
    # the limit itself is allowed: the experiment goes on to build its cursors
    with pytest.raises(SpecError, match="cursor built"):
        dispersion_experiment(ODO, ODO, 0, F(1, 3), 10, BlockIndex(0, 1),
                              [limit - 10], 2, 40)
    assert len(built) == 1


def oracle_ticks(spec_a, spec_b, x_a, x_b, ticks, j, J, step_a, step_b):
    """The paired orbit one tick at a time: single steps, each tick's
    levels read from the stage object's ancestor_index, a before b.
    Returns the pairs and the two cursors."""
    ca = Cursor(spec_a, F(x_a), stage_budget=J)
    cb = Cursor(spec_b, F(x_b), stage_budget=J)
    ca.refine_to(j)
    cb.refine_to(j)
    pairs = []
    for n in range(ticks):
        for cur, step in ((ca, step_a), (cb, step_b)):
            for s in range(step if n else 0):
                cur.step_forward((n - 1) * step + s)
        pairs.append(tuple(c.stage_obj.ancestor_index(c.index, j)
                           for c in (ca, cb)))
    return pairs, ca, cb


def oracle_empirical_joining(spec_a, spec_b, x_a, x_b, N, j, J, step_a, step_b):
    pairs, ca, cb = oracle_ticks(spec_a, spec_b, x_a, x_b, N, j, J, step_a,
                                 step_b)
    counts, outside = {}, 0
    for za, zb in pairs:
        if za is None or zb is None:
            outside += 1
        else:
            key = BlockIndex(za, zb)
            counts[key] = counts.get(key, 0) + 1
    sa, sb = build_stage(spec_a, j), build_stage(spec_b, j)
    Ra, Rb = ca.stage_obj.stage, cb.stage_obj.stage
    Ma, Mb = build_stage(spec_a, Ra).total, build_stage(spec_b, Rb).total
    m = BlockMassMatrix(
        kind="empirical", j=j,
        masses=BlockMasses(sa.height, sb.height, dict(sorted(counts.items())), F(1, N), False),
        norm_a=Ma, norm_b=Mb, spec_a=spec_a, spec_b=spec_b,
        meta={"J": J, "N": N, "seeds": (str(F(x_a)), str(F(x_b))),
              "step_a": step_a, "step_b": step_b,
              "deepest_stage_a": Ra, "deepest_stage_b": Rb})
    # the residual the matrix derives is the ticks outside the grid
    assert m.residual == F(outside, N)
    return m


def oracle_dispersion_experiment(spec_a, spec_b, x_a, x_b, N, z, n_list, j, J,
                                 step_a, step_b):
    h_a, h_b = build_stage(spec_a, j).height, build_stage(spec_b, j).height
    if not (0 <= z[0] < h_a and 0 <= z[1] < h_b):
        raise SpecError(f"block {tuple(z)} is off the {h_a} x {h_b} grid of stage {j}")
    track, _, _ = oracle_ticks(spec_a, spec_b, x_a, x_b,
                               N + max(max(n_list), 0), j, J, step_a, step_b)
    hits = [m for m in range(N) if track[m] == tuple(z)]
    if not hits:
        raise SpecError(f"conditioning set empty: block {tuple(z)} has count 0 "
                        f"in the first {N} ticks")
    rows = []
    for n in n_list:
        landed = [track[m + n] for m in hits if 0 <= m + n < len(track)]
        if not landed:
            raise SpecError(f"advance n={n} leaves no conditioned times in range")
        counts = {}
        for b in landed:
            if None not in b:
                counts[BlockIndex(*b)] = counts.get(BlockIndex(*b), 0) + 1
        hist = {b: F(c, len(landed)) for b, c in sorted(counts.items())}
        rows.append(DispersionRow(
            n=n, conditioning_count=len(landed), histogram=hist,
            max_mass=max(hist.values(), default=F(0)),
            residual=F(len(landed) - sum(counts.values()), len(landed))))
    return tuple(rows)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (OrbitEscaped, SpecError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRESETS), st.sampled_from(PRESETS),
       st.fractions(min_value=0, max_value=F(99, 100), max_denominator=997),
       st.fractions(min_value=0, max_value=F(99, 100), max_denominator=997),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.tuples(st.integers(0, 3), st.integers(0, 3)),
       st.lists(st.integers(min_value=-5, max_value=30), min_size=1, max_size=3))
def test_paired_orbits_match_per_tick_oracle(spec_a, spec_b, x_a, x_b, N, j,
                                             extra, step_a, step_b, z, n_list):
    # stages up to 10 (every preset's budget): most orbits stay resolved,
    # the shallow ones escape
    J = min(j + extra, 10)
    args = (spec_a, spec_b, x_a, x_b, N, j, J, step_a, step_b)
    d_args = (spec_a, spec_b, x_a, x_b, N, BlockIndex(*z), n_list, j, J,
              step_a, step_b)
    fast = (outcome(empirical_joining, *args),
            outcome(dispersion_experiment, *d_args))
    slow = (outcome(oracle_empirical_joining, *args),
            outcome(oracle_dispersion_experiment, *d_args))
    assert fast == slow


CHUNK = joinings.CHUNK
ODO16 = ConstructionSpec.odometer(max_stage=16)
STAIR = ConstructionSpec.staircase()


def odometer_13(i, u):
    """The point u of the way into level i of the odometer's stage 13, 8,192
    levels tall: under a budget of 13 its orbit escapes at tick 8192 - i,
    from the point u of the way into the top level, which names the side."""
    st13 = build_stage(ODO16, 13)
    return st13.cell(i) * st13.width + u * st13.width


@pytest.mark.parametrize("spec_a, spec_b, x_a, x_b, N, j, J, step_a, step_b", [
    # N one below, at and one above one chunk and two chunks, with spacers
    *((STAIR, STAIR, F(1, 3), F(2, 5), N, 3, 10, 1, 1)
      for N in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1)),
    (CHA, STAIR, F(2, 7), F(1, 3), CHUNK + 1, 2, 10, 2, 3),
    # stage 13 is its own coarse stage, its copy runs two chunks long
    (ODO16, ODO16, F(1, 3), F(2, 5), 2 * CHUNK + 1, 13, 16, 1, 1),
    (ODO16, ODO16, F(1, 3), F(2, 5), CHUNK + 1, 13, 16, 3, 1),
    # codes below and above 2^8 (j = 3, 4) and 2^16 (j = 7, 8)
    *((ODO16, ODO16, F(1, 3), F(2, 5), CHUNK + 1, j, 16, 1, 2) for j in (3, 4, 7, 8)),
    # escapes in one chunk: a first, b first, at one tick (a reported)
    *((ODO16, ODO16, odometer_13(ia, F(1, 3)), odometer_13(ib, F(1, 5)), 2 * CHUNK,
       3, 13, 1, 1) for ia, ib in ((100, 60), (60, 100), (100, 100),
                                   # one escape on the first tick of the
                                   # second chunk, on either side
                                   (CHUNK, 0), (0, CHUNK))),
])
def test_paired_orbits_across_chunks_match_per_tick_oracle(spec_a, spec_b, x_a, x_b, N,
                                                           j, J, step_a, step_b):
    args = (spec_a, spec_b, x_a, x_b, N, j, J, step_a, step_b)
    [z], _, _ = oracle_ticks(spec_a, spec_b, x_a, x_b, 1, j, J, step_a, step_b)
    z = BlockIndex(0, 0) if None in z else BlockIndex(*z)
    d_args = (*args[:5], z, [0, 1, -3, CHUNK], j, J, step_a, step_b)
    fast = (outcome(empirical_joining, *args),
            outcome(dispersion_experiment, *d_args))
    assert fast == (outcome(oracle_empirical_joining, *args),
                    outcome(oracle_dispersion_experiment, *d_args))


def test_paired_codes_pack_into_the_narrowest_typecode():
    # odometer stage j is 2^j levels tall: (2^j + 1)^2 - 1 codes
    got = [joinings._paired_codes(ODO16, ODO16, 0, 0, 1, j, 16, 1, 1)[1]
           for j in (3, 4, 7, 8, 16)]
    assert got == ["B", "H", "H", "I", "Q"]


def test_paired_orbits_past_int64_codes_in_a_capped_child():
    # odometer stage 32 is 2^32 levels tall: codes pass 2^63, so the track
    # is a list, and the stage-32 cursors read stage 32 itself as their
    # coarse stage, whose name must stay a range (as a list it would not
    # fit in the 512 MB cap)
    spec = ConstructionSpec.odometer(max_stage=33)
    cur = Cursor(spec, F(1, 3))
    cur.refine_to(32)
    z = BlockIndex(0, cur.level_at(32))
    d_args = (spec, spec, 0, F(1, 3), 60, z, [0, 1, 7], 32, 33, 1, 1)
    common = ("--x-a", "0/1", "--x-b", "1/3", "-N", "60", "--j", "32", "--res", "33",
              "--stage-budget", "33", "--spec-a", "odometer", "--spec-b", "odometer")
    proc, _ = run_capped(["-m", "rankone.cli", "joining", "disperse", *common,
                          "--z", f"0,{z.z2}", "--n-list", "0,1,7"])
    assert proc.returncode == 0, proc.stderr
    assert [(r["n"], r["count"], r["histogram"]) for r in json.loads(proc.stdout)["data"]] == [
        (r.n, r.conditioning_count, {f"{b.z1},{b.z2}": f"{v.numerator}/{v.denominator}"
                                     for b, v in r.histogram.items()})
        for r in oracle_dispersion_experiment(*d_args)]
    proc, _ = run_capped(["-m", "rankone.cli", "joining", "blocks", "--kind", "empirical",
                          *common, "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    m = oracle_empirical_joining(spec, spec, 0, F(1, 3), 60, 32, 33, 1, 1)
    assert json.loads(proc.stdout)["data"] == {
        f"{b.z1},{b.z2}": f"{v.numerator}/{v.denominator}" for b, v in m.masses.items()}


@pytest.mark.parametrize("x_a, x_b, point, steps_done", [
    # the odometer stage-3 tower: level 0 escapes at tick 8, level 4 at tick
    # 4, each from the top level [7/8, 1) plus its offset u
    (F(1, 8), F(1, 16), "7/8", 3),      # a first
    (F(0), F(3, 16), "15/16", 3),       # b first
    (F(0), F(1, 16), "7/8", 7),         # the same tick: a is reported
])
def test_paired_escapes_report_the_first_cursor(x_a, x_b, point, steps_done):
    args = (ODO, ODO, x_a, x_b, 20, 1, 3, 1, 1)
    d_args = (ODO, ODO, x_a, x_b, 20, BlockIndex(0, 0), [0], 1, 3, 1, 1)
    message = f"orbit point {point} needs refinement beyond stage 3"
    for fn, oracle, fn_args in ((empirical_joining, oracle_empirical_joining, args),
                                (dispersion_experiment,
                                 oracle_dispersion_experiment, d_args)):
        with pytest.raises(OrbitEscaped) as fast:
            fn(*fn_args)
        with pytest.raises(OrbitEscaped) as slow:
            oracle(*fn_args)
        for exc in (fast.value, slow.value):
            assert str(exc) == message
            assert (exc.point, exc.steps_done) == (F(point), steps_done)


def test_empirical_joining_wall_time():
    # 200,000 ticks of the odometer pair at stage 20 (10^6 levels): the
    # cursors descend about one stage per stage-4 run and count ticks in C;
    # a fresh descent of 16 stages per run, or a Python loop per tick,
    # takes several times longer
    spec = ConstructionSpec.odometer(max_stage=20)
    t0 = time.perf_counter()
    m = empirical_joining(spec, spec, F(1, 3), F(2, 5), 200_000, 4, 20)
    assert time.perf_counter() - t0 < 2
    assert m.residual == 0 and sum(m.masses.values()) == 1


# ---------------------------------------------------------------- columns / F

def test_column_members():
    m = product_blocks(ST2, ST3, 2, 4)
    fs = columns_and_F(m, F(1, 10), 0, [0])
    assert (fs.w, fs.i_max) == (0, 0)
    assert column_blocks(fs) == column(m, F(1, 10), 0)[1] == (BlockIndex(0, 0),)
    g = graph_blocks(ST2, 0, 3, 5)
    fs2 = columns_and_F(g, F(1, 2), 0, [0])
    assert (fs2.w, fs2.i_max) == (0, 2)
    assert column_blocks(fs2) == column(g, F(1, 2), 0)[1] == (
        BlockIndex(0, 0), BlockIndex(1, 1), BlockIndex(2, 2))


def test_column_validation():
    m = product_blocks(ST2, ST3, 2, 4)
    with pytest.raises(SpecError):
        columns_and_F(m, F(1, 10), 5, [0])      # w+i leaves the first tower
    with pytest.raises(SpecError):
        columns_and_F(m, F(3, 2), 0, [0])       # delta out of (0,1)
    with pytest.raises(SpecError):
        columns_and_F(m, F(1, 10), -1, [0])


def test_F_product_uniform_weights():
    m = product_blocks(ST2, ST3, 2, 4)
    fs = columns_and_F(m, F(1, 10), 0, [0, 1, 2])
    assert fs.nu_F == F(1, 4)
    assert fs.weights.weights == ((0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3)))
    assert flatness(fs.weights, 0) == F(1, 3)


def test_F_single_shift_is_delta():
    m = product_blocks(ST2, ST3, 2, 4)
    fs = columns_and_F(m, F(1, 10), 0, [0])
    assert fs.weights == delta_weights(0)
    assert flatness(fs.weights, 0) == 1


def test_F_graph_offdiagonal_empty():
    # with w = 1 the shifted blocks (1+i, i+h) touch the diagonal only at
    # h = 1, so a shift set avoiding 1 collects no mass
    g = graph_blocks(ODO, 0, 2, 4)
    with pytest.raises(EmptyFSetError):
        columns_and_F(g, F(1, 10), 1, [0, 2])


def test_F_shift_validation():
    m = product_blocks(ST2, ST3, 2, 4)
    with pytest.raises(SpecError):
        columns_and_F(m, F(1, 10), 0, [])
    with pytest.raises(SpecError):
        columns_and_F(m, F(1, 10), 0, [0, 0])
    with pytest.raises(SpecError):
        columns_and_F(m, F(1, 10), 0, [3])      # i_max + h beyond the tower
    with pytest.raises(SpecError):
        columns_and_F(m, F(1, 10), 0, [-1])


def test_light_shifts_modes():
    g = graph_blocks(ODO, 0, 2, 4)
    assert light_shifts(g, F(1, 10), 0, epsilon=F(1, 2)) == (1, 2, 3)
    assert light_shifts(g, F(1, 10), 0, mass_threshold=F(1, 8)) == (1, 2, 3)
    # a looser mass threshold readmits the heavy diagonal shift
    assert light_shifts(g, F(1, 10), 0, mass_threshold=F(1, 2)) == (0, 1, 2, 3)
    with pytest.raises(SpecError):
        light_shifts(g, F(1, 10), 0)
    with pytest.raises(SpecError):
        light_shifts(g, F(1, 10), 0, epsilon=F(1, 2), mass_threshold=F(1, 8))


# ---------------------------------------------------------------- trivialization

def test_trivialization_product_frozen():
    m = product_blocks(ST2, ST3, 2, 4)
    fs = columns_and_F(m, F(1, 10), 0, [0, 1, 2])
    A = build_stage(ST2, 1).levels_set([0])
    B = build_stage(ST3, 1).levels_set([0, 1])
    rec = trivialization_check(m, fs, A, B, 1)
    assert rec.conditional == F(2, 3)
    assert rec.reference == F(1, 6)
    assert rec.gap == F(1, 2)
    assert rec.display_sum.lo == F(2, 3) and rec.display_sum.hi == F(5, 6)
    assert rec.display_gap.lo == 0


def test_trivialization_product_display_brackets_conditional():
    # the product joining is invariant under Id x T, so the displayed sum's
    # true value is the conditional itself; the enclosure must contain it
    m = product_blocks(ST2, ST3, 2, 5)
    fs = columns_and_F(m, F(1, 10), 0, [0, 1, 2])
    sa1, sb1 = build_stage(ST2, 1), build_stage(ST3, 1)
    sets_a = [sa1.levels_set(ix) for ix in ([0], [1], [0, 1])]
    sets_b = [sb1.levels_set(ix) for ix in ([0], [1], [2], [0, 2], [0, 1, 2])]
    for A in sets_a:
        for B in sets_b:
            rec = trivialization_check(m, fs, A, B, 1)
            assert rec.display_gap.lo == 0
            assert rec.display_sum.lo <= rec.conditional <= rec.display_sum.hi


def test_trivialization_graph_gap_positive():
    g = graph_blocks(ODO, 0, 2, 5)
    fs = columns_and_F(g, F(1, 10), 0, [0])
    lvl0 = build_stage(ODO, 2).levels_set([0])
    lvl1 = build_stage(ODO, 2).levels_set([1])
    same = trivialization_check(g, fs, lvl0, lvl0, 2)
    assert same.conditional == 1
    assert same.reference == F(1, 16)
    assert same.gap == F(15, 16)
    assert same.display_sum.lo == same.display_sum.hi == 1
    other = trivialization_check(g, fs, lvl0, lvl1, 2)
    assert other.conditional == 0
    assert other.gap == F(1, 16)
    assert other.gap > 0


def test_trivialization_empirical_exact_display():
    m = empirical_joining(ODO, ODO, 0, 0, 256, 2, 10)
    fs = columns_and_F(m, F(1, 10), 0, [0])
    lvl0 = build_stage(ODO, 2).levels_set([0])
    rec = trivialization_check(m, fs, lvl0, lvl0, 2)
    assert rec.conditional == 1
    assert rec.display_sum.lo == rec.display_sum.hi == 1
    assert rec.display_gap.lo == rec.display_gap.hi == 0


def test_trivialization_refuses_hand_built_F_without_mass_or_off_its_shifts():
    # nu_F = 0 divided by zero, and weights on a shift outside F.shifts read
    # a missing per-shift mass (KeyError); both are SpecErrors, one line each
    m = empirical_joining(ODO, ODO, 0, 0, 256, 2, 10)
    fs = columns_and_F(m, F(1, 10), 0, [0])
    lvl0 = build_stage(ODO, 2).levels_set([0])
    bad = (dataclasses.replace(fs, nu_F=F(0)),
           dataclasses.replace(fs, nu_F=F(-1, 2)),
           dataclasses.replace(fs, weights=delta_weights(1)),
           dataclasses.replace(fs, shifts=(0, 1),
                               weights=WeightSequence.uniform(2)))
    for hand in bad[:3]:
        with pytest.raises(SpecError) as info:
            trivialization_check(m, hand, lvl0, lvl0, 2)
        assert "\n" not in str(info.value)
    # weights on a subset of the shifts are accepted
    assert trivialization_check(m, bad[3], lvl0, lvl0, 2).conditional == 1


def test_trivialization_display_none_when_column_empty():
    # the k=2 graph band misses the w=0 column entirely, yet shifted
    # translates of it do carry mass
    g = graph_blocks(ODO, 2, 2, 6)
    fs = columns_and_F(g, F(1, 10), 0, [2])
    lvl0 = build_stage(ODO, 2).levels_set([0])
    rec = trivialization_check(g, fs, lvl0, lvl0, 2)
    assert rec.display_sum is None and rec.display_gap is None
    assert rec.conditional == 0


def test_trivialization_validation():
    m = product_blocks(ST2, ST3, 2, 4)
    fs = columns_and_F(m, F(1, 10), 0, [0])
    A = build_stage(ST2, 1).levels_set([0])
    B = build_stage(ST3, 1).levels_set([0])
    with pytest.raises(SpecError):
        trivialization_check(m, fs, A, B, 3)        # k > j
    from rankone.measure import Interval, IntervalSet
    half = IntervalSet((Interval(F(0), F(1, 4)),))  # half of a stage-1 level
    with pytest.raises(SpecError):
        trivialization_check(m, fs, half, B, 1)


def test_trivialization_refuses_F_outside_the_grid():
    # the display reads stage-j levels of m's grid, so an F whose column or
    # shifted column leaves it is refused, whichever matrix it came from
    A = build_stage(ODO, 1).levels_set([0])
    B = build_stage(ST2, 1).levels_set([0])
    short = product_blocks(ODO, ST2, 3, 5)              # h_b = 5
    tall = columns_and_F(product_blocks(ODO, ST3, 3, 5), F(1, 4), 0, [4])
    with pytest.raises(SpecError, match=r"^shift h=4 pushes the column out of "
                       r"the second tower \(i_max=1, h_j=5\)$"):
        trivialization_check(short, tall, A, B, 1)
    m = product_blocks(ST2, ST3, 2, 4)                  # h_a = 2, h_b = 3
    hand = FSetSpec(delta=F(1, 10), w=0, i_max=0, shifts=(3,), nu_F=F(1, 12),
                    weights=delta_weights(3))
    with pytest.raises(SpecError, match=r"^shift h=3 pushes the column out of "
                       r"the second tower \(i_max=0, h_j=3\)$"):
        trivialization_check(m, hand, A, B, 1)
    off = dataclasses.replace(hand, shifts=(0,), weights=delta_weights(0), w=2)
    with pytest.raises(SpecError, match=r"^column blocks run out of the block "
                       r"grid \(h_a=2, h_b=3\)$"):
        trivialization_check(m, off, A, B, 1)


def test_trivialization_weight_flatness_carried():
    # the document prints F's weight flatness and the display's width, the
    # escape slack, each computed from the F set and the record
    argv = ("joining", "trivialize", "--kind", "product", "--spec-a", "staircase",
            "--spec-b", "chacon", "--j", "2", "--res", "4", "--delta", "1/10", "--w", "0",
            "--shifts", "0,1,2", "--A", "0", "--B", "0", "--cond-stage", "1")
    code, out, err = run_cli(*argv)
    assert code == 0, err
    data = json.loads(out)["data"]
    m = product_blocks(ST2, CHA, 2, 4)
    fs = columns_and_F(m, F(1, 10), 0, [0, 1, 2])
    rec = trivialization_check(m, fs, build_stage(ST2, 1).levels_set([0]),
                               build_stage(CHA, 1).levels_set([0]), 1)
    assert data["weight_flatness"] == "1/3" == str(flatness(fs.weights, 0))
    assert F(data["escape_slack"]) == rec.display_sum.width > 0


# ---------------------------------------------------------------- validation

def test_matrix_validation():
    def matrix(masses):
        return BlockMassMatrix(kind="product", j=1, masses=masses, norm_a=F(1), norm_b=F(1),
                               spec_a=ODO, spec_b=ODO)

    lags = dict.fromkeys(range(-1, 2), 1)
    m = matrix(BlockMasses(2, 2, lags, F(1, 4), True))
    assert m.mass_of([(1, 0)]) == F(1, 4)
    assert (m.h_a, m.h_b, m.residual) == (2, 2, F(0))
    assert m.level_mass_a == m.level_mass_b == F(1, 2)
    assert matrix(BlockMasses(2, 2, {BlockIndex(0, 0): 1}, F(1, 2), False)).residual == F(1, 2)
    for counts, unit, by_lag, message in [
            # a block or a lag off the grid
            ({BlockIndex(5, 0): 1}, F(1), False, "block index out of tower range"),
            ({BlockIndex(0, -1): 1}, F(1), False, "block index out of tower range"),
            ({2: 1}, F(1), True, "block index out of tower range"),
            ({-2: 1}, F(1), True, "block index out of tower range"),
            # a negative count or unit
            ({BlockIndex(0, 0): -1, BlockIndex(0, 1): 3}, F(1, 2), False, "negative block mass"),
            ({0: -1, 1: 3}, F(1, 2), True, "negative block mass"),
            (lags, F(-1, 4), True, "negative block mass"),
            # unit x total past 1, so the residual would be negative
            ({0: 3}, F(1, 4), True, "block masses sum to 3/2, more than 1"),
            ({BlockIndex(0, 0): 3}, F(1, 2), False, "block masses sum to 3/2, more than 1")]:
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            matrix(BlockMasses(2, 2, counts, unit, by_lag))
    # a kind that is none of the three
    with pytest.raises(SpecError, match=r"^unknown matrix kind: 'lagged'$"):
        BlockMassMatrix(kind="lagged", j=1, masses=m.masses, norm_a=F(1), norm_b=F(1),
                        spec_a=ODO, spec_b=ODO)
    # a grid that is not the two towers' stage-j grid
    with pytest.raises(SpecError, match=r"^a 4 x 1 block grid on 2 x 2 towers$"):
        matrix(BlockMasses(4, 1, dict.fromkeys(range(-3, 1), 1), F(1, 4), True))
    # a range of counts is the grid's lags, count 1 on every block
    assert matrix(BlockMasses(2, 2, range(-1, 2), F(1, 4), True)).masses == m.masses
    for lags, by_lag in [(range(0, 2), True), (range(-1, 3), True), (range(-1, 2), False)]:
        with pytest.raises(SpecError, match=r"^a range of counts must be the grid's lags, "
                                            r"range\(-1, 2\)$"):
            BlockMasses(2, 2, lags, F(1, 4), by_lag)
    # the five derived fields are no constructor arguments
    for name in ("h_a", "h_b", "residual", "level_mass_a", "level_mass_b"):
        with pytest.raises(TypeError, match=name):
            BlockMassMatrix(kind="product", j=1, masses=m.masses, norm_a=F(1), norm_b=F(1),
                            spec_a=ODO, spec_b=ODO, **{name: 0})
