"""Acceptance suite: one test per shipped guarantee, one pass/fail line
each under pytest -v.

Each test states its tolerance inline; exact checks use rational equality
and say so.  Oracles are independent of the code under test: series sums,
brute-force enumerations, and hand-frozen values recomputed from the
recurrences.
"""

import contextlib
import io
import math
import random
import time
from fractions import Fraction as F

import pytest

from rankone.averaging import (
    WeightSequence,
    adjoint_convolution,
    average_apply,
    flatness,
)
from rankone.cli import main
from rankone.construction import ConstructionSpec, build_stage
from rankone.errors import SpecError
from rankone.flow import FlowSkeletonSpec, band_indices, thickened_base
from rankone.joinings import (
    columns_and_F,
    di_estimate,
    empirical_joining,
    graph_blocks,
    light_blocks,
    product_blocks,
    trivialization_check,
)
from rankone.measure import IntervalSet, MeasureBound, StepFunction, canonicalize
from rankone.stats import correlation, max_profile, return_profile
from rankone.transform import power_image
from helpers import col_sum, delta_weights, l2_inner, row_sum, total_block_mass

ODO = ConstructionSpec.odometer()
ST2 = ConstructionSpec.staircase(h1=2)
ST3 = ConstructionSpec.staircase(h1=3)
CHA = ConstructionSpec.chacon()
RND = ConstructionSpec.random_spacers(12345)
PRESETS = (ST2, ODO, CHA, RND)


def _random_set(rng, M):
    pieces = []
    for _ in range(rng.randint(1, 4)):
        den = rng.randint(1, 64)
        a = M * F(rng.randint(0, den), den)
        b = M * F(rng.randint(0, den), den)
        if a > b:
            a, b = b, a
        if a < b:
            pieces.append((a, b))
    from rankone.measure import Interval
    return canonicalize([Interval(a, b) for a, b in pieces])


def test_01_measure_preservation_exact_1000_random_sets():
    # exact rational equality (zero tolerance), four presets, stages 2..5,
    # 250 sets each; budget 60 s
    rng = random.Random(20260823)
    checked = 0
    t0 = time.monotonic()
    for spec in PRESETS:
        for i in range(250):
            J = 2 + (i % 4)
            A = _random_set(rng, build_stage(spec, J).total)
            img, esc = power_image(spec, A, 1, J)
            assert esc.lo == esc.hi
            assert img.measure + esc.hi == A.measure
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 1000
    assert elapsed < 60
    print(f"[PASS] measure preservation exact on {checked} sets "
          f"in {elapsed:.2f} s")


def test_02_height_tables_and_growth_ratio():
    # integer equality for the height tables; the stage-8 ratio is compared
    # with 0.01 absolute tolerance against an independent series oracle
    hs2 = [build_stage(ST2, j).height for j in range(1, 6)]
    hs3 = [build_stage(ST3, j).height for j in range(1, 6)]
    assert hs2 == [2, 2, 5, 18, 78]
    assert hs3 == [3, 3, 7, 24, 102]
    assert F(hs2[4], hs3[4]) == F(78, 102)

    # independent oracle: h_{j+1} = j h_j + j(j-1)/2 gives
    # h_j/(j-1)! -> h_1 + e/2, so the height ratio tends to
    # (2 + e/2)/(3 + e/2); partial sum tail < 1/25!
    e_series = sum((F(1, math.factorial(k)) for k in range(26)), F(0))
    target = (2 + e_series / 2) / (3 + e_series / 2)
    r8 = F(build_stage(ST2, 8).height, build_stage(ST3, 8).height)
    assert abs(r8 - target) < F(1, 100)
    print(f"[PASS] heights exact; stage-8 ratio {float(r8):.6f} within 0.01 "
          f"of limit {float(target):.6f}")


def test_03_return_profile_equals_correlation_two_paths():
    # exact bound-interval equality between the combinatorial and the
    # geometric route, all presets, j <= 3, resolutions <= 5, z <= 2 h_j
    compared = 0
    for spec in PRESETS:
        for j in range(1, 4):
            stj = build_stage(spec, j)
            E = IntervalSet((stj.base,))
            w = stj.width
            for J in range(j, 6):
                prof = return_profile(spec, j, J, 2 * stj.height)
                for z in range(2 * stj.height + 1):
                    geo = correlation(spec, E, E, z, J).scale(1 / w)
                    assert geo == prof[z]
                    compared += 1
    print(f"[PASS] two-path equality exact on {compared} bound intervals")


def test_04_staircase_decay_trend_vs_odometer_rigidity():
    # strict decrease of the staircase max upper bound over
    # z in (h_j, h_{j+3} - h_j] at resolution j+4 (exact comparisons);
    # odometer upper bound at z = h_j equals 1 at every resolution
    maxima = []
    for j in (2, 3, 4):
        h_j = build_stage(ST2, j).height
        h_j3 = build_stage(ST2, j + 3).height
        prof = return_profile(ST2, j, j + 4, h_j3 - h_j)
        maxima.append(max_profile(prof, z_lo=h_j).hi)
    assert maxima == [F(71, 120), F(149, 360), F(37, 120)]
    assert maxima[0] > maxima[1] > maxima[2]

    for j in (1, 2, 3):
        h_j = build_stage(ODO, j).height
        for J in range(j, 9):
            prof = return_profile(ODO, j, J, h_j)
            assert prof[h_j].hi == 1
    print(f"[PASS] staircase maxima strictly decrease "
          f"({maxima[0]} > {maxima[1]} > {maxima[2]}); odometer bound 1")


def test_05_adjoint_weights_and_duality():
    # b^w <= max_z a^z and sum b^w = 1, exactly, for 500 seeded random
    # weight sequences plus uniform and delta; operator duality exact
    rng = random.Random(50331)
    seqs = [WeightSequence.uniform(n) for n in (1, 2, 5, 8)]
    seqs += [delta_weights(z) for z in (0, 3)]
    for _ in range(500):
        zs = rng.sample(range(40), rng.randint(1, 6))
        nums = [rng.randint(1, 20) for _ in zs]
        tot = sum(nums)
        seqs.append(WeightSequence(
            tuple((z, F(n, tot)) for z, n in zip(zs, nums))))
    for w in seqs:
        b = adjoint_convolution(w)
        assert sum(b.values(), F(0)) == 1
        assert max(b.values()) <= flatness(w, 0)

    st3 = build_stage(ODO, 3)
    w = WeightSequence.uniform(2)
    f = StepFunction.indicator(IntervalSet((st3.level(3),)))
    Pf, ef = average_apply(ODO, w, f, 3)
    PstarPf, eb = average_apply(ODO, w, Pf, 3, direction="backward")
    assert ef == MeasureBound.exact(0) and eb == MeasureBound.exact(0)
    assert Pf.l2_norm_sq() == l2_inner(PstarPf, f) == F(1, 16)
    print(f"[PASS] adjoint inequality exact on {len(seqs)} weight "
          f"sequences; duality value 1/16 exact")


def test_06_joining_dichotomy_powder_proxy():
    # graph(k=0) self-joining: powder proxy exactly 0, every stage <= 5,
    # epsilon <= 1/2; product: light mass flips from 0 to the full block
    # mass exactly at the threshold
    for spec in PRESETS:
        reports = []
        for j in range(1, 6):
            m = graph_blocks(spec, 0, j, 5)
            for eps in (F(1, 8), F(1, 4), F(1, 2)):
                rep = light_blocks(m, eps)
                assert rep.covered_mass == 0
                reports.append(rep)
        assert di_estimate(reports) == 0

    for j in range(2, 6):
        m = product_blocks(ST2, ST3, j, 6)
        at = light_blocks(m, m.level_mass_a)
        above = light_blocks(m, m.level_mass_a * F(1000001, 1000000))
        assert at.covered_mass == 0
        assert above.covered_mass == total_block_mass(m)
    print("[PASS] graph powder proxy 0 exact; product light flip sharp")


def test_07_empirical_staircase_pair_consistency():
    # N = 1e5 staircase pair at j = 3: exact mass accounting, marginals
    # within 0.05 of the realized-stage level measures, byte-exact rerun;
    # budget 600 s
    t0 = time.monotonic()
    m = empirical_joining(ST2, ST3, 0, 0, 100_000, 3, 10)
    elapsed = time.monotonic() - t0
    assert elapsed < 600

    total = sum(m.masses.values(), F(0))
    assert total + m.residual == 1
    assert total <= 1

    ref_a = build_stage(ST2, 3).width / build_stage(ST2, m.meta["deepest_stage_a"]).total
    ref_b = build_stage(ST3, 3).width / build_stage(ST3, m.meta["deepest_stage_b"]).total
    dev_rows = max(abs(row_sum(m, z1) - ref_a) for z1 in range(m.h_a))
    dev_cols = max(abs(col_sum(m, z2) - ref_b) for z2 in range(m.h_b))
    assert dev_rows <= F(5, 100)
    assert dev_cols <= F(5, 100)

    args = ["joining", "blocks", "--kind", "empirical", "--spec-a",
            "staircase", "--spec-b", "st3.json", "--x-a", "0/1", "--x-b",
            "0/1", "-N", "100000", "--j", "3", "--res", "10"]
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as d:
        sf = Path(d) / "st3.json"
        sf.write_text(ST3.canonical_json())
        args[args.index("st3.json")] = str(sf)
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(args) == 0
            outs.append(buf.getvalue())
    assert outs[0] == outs[1] and outs[0]
    print(f"[PASS] empirical pair: run {elapsed:.2f} s, marginal devs "
          f"{float(dev_rows):.4f}/{float(dev_cols):.4f} <= 0.05, "
          f"rerun byte-identical")


def test_08_trivialization_gap_dichotomy():
    # product joining: displayed-sum gap encloses 0 for every single-level
    # A, B at j <= 3 (exact transport up to the escape enclosure);
    # graph joining: gap exactly positive
    col = {1: (F(1, 2), [0]), 2: (F(1, 4), [0, 1]), 3: (F(1, 4), [0, 1])}
    checked = 0
    for j in (1, 2, 3):
        m = product_blocks(ST2, CHA, j, 5)
        delta, shifts = col[j]
        Fs = columns_and_F(m, delta, 0, shifts)
        sa = build_stage(ST2, j)
        sb = build_stage(CHA, j)
        for ia in range(sa.height):
            for ib in range(sb.height):
                rec = trivialization_check(m, Fs, sa.levels_set([ia]),
                                           sb.levels_set([ib]), j)
                assert rec.display_gap is not None
                assert rec.display_gap.lo == 0
                checked += 1

    g = graph_blocks(ODO, 0, 2, 4)
    Fg = columns_and_F(g, F(3, 4), 0, [0])
    s2 = build_stage(ODO, 2)
    positive = 0
    for ia in range(s2.height):
        for ib in range(s2.height):
            rec = trivialization_check(g, Fg, s2.levels_set([ia]),
                                       s2.levels_set([ib]), 2)
            assert rec.gap > 0
            positive += 1
    print(f"[PASS] product display gap encloses 0 ({checked} pairs); "
          f"graph gap > 0 exact ({positive} pairs)")


def test_09_flow_skeleton_thickening_and_bands():
    # thickened base measure (q+1) w_j exact for every valid q; doubled
    # skeleton band index sets equal a brute-force enumeration (set
    # equality, refusals agreeing on empties)
    for spec in PRESETS:
        fs = FlowSkeletonSpec(spec, 1, F(2))
        for j in range(1, 5):
            stj = build_stage(spec, j)
            for q in range(stj.height):
                th = thickened_base(fs, j, 5, q=q)
                assert th.measure == (q + 1) * stj.width

    bands = 0
    for spec in (ODO, ST2, CHA):
        fs = FlowSkeletonSpec.doubled(spec)
        for j in (1, 2, 3):
            h = build_stage(spec, j).height
            for w in range(h):
                brute = {(2 * z + w, z + t)
                         for z in range(h - w + 1) for t in (0, 1)
                         if 0 <= 2 * z + w <= h - 1 and 0 <= z + t <= h - 1}
                if brute:
                    got = band_indices(fs, h, h, w, "right")
                    assert {(b.z1, b.z2) for b in got} == brute
                    bands += 1
                else:
                    with pytest.raises(SpecError):
                        band_indices(fs, h, h, w, "right")
            for v in range(4):
                brute = {(2 * z, z + v + t)
                         for z in range(h + 1) for t in (0, 1)
                         if 0 <= 2 * z <= h - 1 and 0 <= z + v + t <= h - 1}
                if brute:
                    got = band_indices(fs, h, h, v, "left", z_bound=h)
                    assert {(b.z1, b.z2) for b in got} == brute
                    bands += 1
                else:
                    with pytest.raises(SpecError):
                        band_indices(fs, h, h, v, "left", z_bound=h)
    print(f"[PASS] thickened measures exact; {bands} band sets match "
          f"brute force")
