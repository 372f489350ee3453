"""The command line's integer inputs: level lists as LevelSets, weights as
integer numerators.

`correlate`, `blum-hanson` and `joining trivialize` turn a level list into
a LevelSet (k, bits) straight from the list, and `blum-hanson` reads its
weights as integer numerators over one denominator.  The differential
tests here hold every consumer of a LevelSet to what it gives for the same
levels as an IntervalSet, the route library callers keep, at stages below,
at and above the resolution, with unsorted lists that repeat levels; and
weights read in integers to weights read as Fractions.  The route tests
pin that the three commands reach no level_bits, no levels_set and, for
the weights, no parse_frac.
"""

import contextlib
import io
import json
import math
from fractions import Fraction as F
from hashlib import sha256
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rankone.cli
from rankone.averaging import (WeightSequence, adjoint_convolution, average_moments,
                               flatness)
from rankone.cli import level_set, main
from rankone.construction import ConstructionSpec, LevelSet, TowerStage, build_stage
from rankone.errors import SpecError
from rankone.joinings import columns_and_F, graph_blocks, product_blocks, trivialization_check
from rankone.measure import StepFunction
from rankone.persist import parse_frac
from rankone.stats import correlation_series

PRESETS = (ConstructionSpec.odometer(), ConstructionSpec.staircase(),
           ConstructionSpec.chacon())
specs = st.one_of(st.sampled_from(PRESETS),
                  st.integers(0, 10_000).map(ConstructionSpec.random_spacers))


def outcome(f, *args):
    """f(*args), or the message of the SpecError it raises."""
    try:
        return f(*args)
    except SpecError as exc:
        return f"refused: {exc}"


def draw_levels(data, height):
    """A level list as a command line may give it: unsorted, and with some
    levels repeated."""
    levels = data.draw(st.lists(st.integers(0, height - 1), min_size=1, max_size=5))
    return data.draw(st.permutations(levels + levels[:data.draw(st.integers(0, 2))]))


def both_routes(spec, j, levels):
    """The command line's LevelSet of the levels, and the IntervalSet of the
    same levels."""
    got = level_set(spec, j, levels)
    assert got == LevelSet(j, sum(1 << i for i in set(levels)))
    return got, build_stage(spec, j).levels_set(levels)


# ------------------------------------------------- LevelSet against intervals

@settings(max_examples=80, deadline=None)
@given(specs, st.data())
def test_correlation_series_level_set_matches_intervals(spec, data):
    J = data.draw(st.integers(1, 5))
    j = data.draw(st.integers(max(1, J - 2), J + 2))  # below, at and above J
    h = build_stage(spec, j).height
    (A, A_iv), (B, B_iv) = (both_routes(spec, j, draw_levels(data, h)) for _ in "AB")
    m_max = data.draw(st.integers(0, 2 * build_stage(spec, J).height + 2))
    got = outcome(correlation_series, spec, A, B, m_max, J)
    want = outcome(correlation_series, spec, A_iv, B_iv, m_max, J)
    if isinstance(want, str):
        assert got == want
        return
    assert (got.values.domain, got.values.lo, got.values.hi, got.values.den) == \
        (want.values.domain, want.values.lo, want.values.hi, want.values.den)
    assert (got.target, got.normalization) == (want.target, want.normalization)


weight_sequences = st.dictionaries(st.integers(0, 40), st.integers(0, 4), min_size=1,
                                   max_size=5).filter(lambda d: sum(d.values())).map(
    lambda d: WeightSequence(tuple((z, F(n, sum(d.values()))) for z, n in d.items())))


@settings(max_examples=60, deadline=None)
@given(specs, weight_sequences, st.data())
def test_average_moments_level_set_matches_intervals(spec, w, data):
    J = data.draw(st.integers(1, 5))
    j = data.draw(st.integers(max(1, J - 2), J + 2))
    f, f_iv = both_routes(spec, j, draw_levels(data, build_stage(spec, j).height))
    got = outcome(average_moments, spec, w, f, J)
    assert got == outcome(average_moments, spec, w, f_iv, J)
    assert got == outcome(average_moments, spec, w, StepFunction.indicator(f_iv), J)


@settings(max_examples=50, deadline=None)
@given(specs, specs, st.data())
def test_trivialization_check_level_set_matches_intervals(spec_a, spec_b, data):
    j = data.draw(st.integers(1, 4))
    J = j + data.draw(st.integers(0, 1))
    m = (product_blocks(spec_a, spec_b, j, J) if data.draw(st.booleans())
         else graph_blocks(spec_a, data.draw(st.integers(0, 2)), j, J))
    try:
        fs = columns_and_F(m, F(1, 4), 0, data.draw(st.sampled_from([[0], [0, 1]])))
    except SpecError:
        assume(False)
    k = data.draw(st.integers(max(1, j - 2), j + 1))  # k > j is refused either way
    kl = k + data.draw(st.integers(0, 1))  # levels of stage k, or of the next
    (A, A_iv), (B, B_iv) = (both_routes(s, kl, draw_levels(data, build_stage(s, kl).height))
                            for s in (m.spec_a, m.spec_b))
    got = outcome(trivialization_check, m, fs, A, B, k)
    assert got == outcome(trivialization_check, m, fs, A_iv, B_iv, k)


def test_level_set_of_a_finer_stage_is_refused_as_intervals_are():
    # stage-4 level 17 of the staircase lies past M_3: the LevelSet is cut
    # as the intervals are, and refused with the same message
    spec = ConstructionSpec.staircase()
    A, A_iv = both_routes(spec, 4, [17, 0, 17])
    for S in (A, A_iv):
        with pytest.raises(SpecError, match="^set extends beyond the stage ambient interval$"):
            correlation_series(spec, S, S, 3, 3)


@pytest.mark.parametrize("S", [LevelSet(2, 0b111), LevelSet(2, 0b100), LevelSet(3, 1 << 5),
                               LevelSet(2, -1)])
def test_level_set_bits_past_its_stage_are_refused(S):
    # staircase stage 2 has levels 0 and 1 and stage 3 has 5: a bit at or
    # past h_k names no level (LevelSet(2, 0b111) gave the bound [5/4, 5/4]
    # at m = 0, where its own measure reads 3/2), so each route that makes
    # a set (k, bits) refuses it as the command line does
    spec = ConstructionSpec.staircase()
    h = build_stage(spec, S.k).height
    message = f"^level {S.bits.bit_length() - 1} outside stage {S.k} \\(height {h}\\)$"
    w = WeightSequence(((0, F(1, 2)), (1, F(1, 2))))
    m = product_blocks(spec, spec, 3, 4)
    fs = columns_and_F(m, F(1, 4), 0, [0])
    ok = LevelSet(2, 1)
    for call in (lambda: correlation_series(spec, S, S, 2, 4),
                 lambda: correlation_series(spec, ok, S, 2, 4),
                 lambda: average_moments(spec, w, S, 4),
                 lambda: trivialization_check(m, fs, S, ok, 3),
                 lambda: trivialization_check(m, fs, ok, S, 3)):
        with pytest.raises(SpecError, match=message):
            call()


# ------------------------------------------------------------------ weights

@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 60), st.integers(0, 9), min_size=1, max_size=6)
       .filter(lambda d: sum(d.values())), st.integers(1, 6), st.integers(0, 8))
def test_integer_weights_match_fraction_weights(raw, scale, q):
    # n_z over sum(n) as Fractions, as "num/den" strings, and as integers
    # over a multiple of the sum: one sequence, in lowest terms
    total = sum(raw.values())
    w = WeightSequence(tuple((z, F(n, total)) for z, n in raw.items()))
    for other in (WeightSequence(tuple((z, f"{n}/{total}") for z, n in raw.items())),
                  WeightSequence(tuple((z, n * scale) for z, n in raw.items()), total * scale)):
        assert other == w
        assert other.weights == w.weights == tuple(sorted(
            (z, F(n, total)) for z, n in raw.items() if n))
        assert other.support == w.support
        assert flatness(other, q) == flatness(w, q)
        assert adjoint_convolution(other) == adjoint_convolution(w)
    assert w.den == total // math.gcd(total, *raw.values())


def test_integer_weights_refused_in_integers():
    with pytest.raises(SpecError, match="^weight at z=1 is negative$"):
        WeightSequence(((0, 3), (1, -1)), 2)
    with pytest.raises(SpecError, match="^duplicate weight index 0$"):
        WeightSequence(((0, 1), (0, 1)), 2)
    with pytest.raises(SpecError, match="^weights must sum to exactly 1$"):
        WeightSequence(((0, 1), (1, 1)), 3)
    with pytest.raises(SpecError, match="^weight index -2 is negative$"):
        WeightSequence(((-2, 1),), 1)
    with pytest.raises(SpecError, match="^weight denominator 0 is not positive$"):
        WeightSequence(((0, 1),), 0)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def blum_hanson(tmp_path, weights, *flags):
    wf = tmp_path / "w.json"
    wf.write_text(weights if isinstance(weights, str) else json.dumps(weights))
    return run(["blum-hanson", "--weights", str(wf), *flags])


# The bytes these weights gave when each weight was read as a Fraction.
SPELLINGS = {
    "9f300af89c298652ffc22bc3b1a8fdab054bc35ab457211ebf79db08f2b88a12": (
        ("--spec", "odometer", "--f", "0,1", "--j", "2", "--res", "4"),
        [{"0": "1/4", "1": "1/4", "2": "1/2"}, {"0": "2/8", "1": "0.25", "2": "4/8"},
         {"0": "0.25", "1": "25/100", "2": "0.50"}, {"0": "1/4", "1": "1/4", "2": "1/2", "7": 0},
         {"00": "1/4", "1": "00001/0004", "2": "1/2"}]),
    "aa9f48603f072e3b7d10187c11d4188e1e416b51b1c84f3b06ed10ef389bfd3e": (
        ("--spec", "odometer", "--f", "0,1", "--j", "2", "--res", "4"),
        [{"0": 1}, {"0": "1"}, {"0": "1/1"}, {"0": "4/4"}, {"0": "1.0"}, {"0": 1, "3": 0},
         {"0": "1", "3": "0/7"}]),
    "40ca966bb1d4f8be8240e7bcd12cc5e583c8f5a272e445e059a7bf0201307935": (
        ("--spec", "staircase", "--f", "2,0,2", "--j", "3", "--res", "5"),
        [{"0": "1/3", "2": "1/6", "9": "1/2"}, {"0": "2/6", "2": "1/6", "9": "3/6"},
         {"0": "4/12", "2": "2/12", "9": "0.5"}]),
}


@pytest.mark.parametrize("digest", list(SPELLINGS), ids=["quarters", "one", "staircase"])
def test_weight_spellings_give_identical_bytes(tmp_path, digest):
    flags, docs = SPELLINGS[digest]
    outs = {blum_hanson(tmp_path, doc, *flags) for doc in docs}
    assert len(outs) == 1
    (code, out, err), = outs
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("text, message", [
    ('{"0": "abc"}', "cannot parse rational 'abc': Invalid literal for Fraction: 'abc'"),
    ('{"0": "1/0"}', "cannot parse rational '1/0': Fraction(1, 0)"),
    ('{"0": "1/"}', "cannot parse rational '1/': Invalid literal for Fraction: '1/'"),
    ('{"0": "/4"}', "cannot parse rational '/4': Invalid literal for Fraction: '/4'"),
    ('{"0": "1/-4"}', "cannot parse rational '1/-4': Invalid literal for Fraction: '1/-4'"),
    ('{"0": "1 /4"}', "cannot parse rational '1 /4': Invalid literal for Fraction: '1 /4'"),
    ('{"0": "\\u00b2/4"}', "cannot parse rational '\u00b2/4': Invalid literal for Fraction: "
                           "'\u00b2/4'"),
    ('{"0": "-1/4", "1": "5/4"}', "weight at z=0 is negative"),
    ('{"0": -1, "1": 2}', "weight at z=0 is negative"),
    ('{"-1": "x"}', "cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
    ('{"-1": "1"}', "weight index -1 is negative"),
    ('{"x": "1"}', "invalid literal for int() with base 10: 'x'"),
    ('{"0": "1/2", "00": "1/2"}', "duplicate weight index 0"),
    ('{"0": "1/2", "1": "1/3"}', "weights must sum to exactly 1"),
    ('{}', "weights must sum to exactly 1"),
])
def test_weight_refusals_keep_their_messages(tmp_path, text, message):
    # the messages these files gave when every weight went through parse_frac
    code, out, err = blum_hanson(tmp_path, text, "--spec", "odometer", "--f", "0", "--res", "4")
    assert (code, out, err) == (2, "", f"error: bad weights file: {message}\n")


def test_weight_digits_past_the_int_limit_keep_their_message(tmp_path):
    # int() refuses such digits (CPython's limit on str to int); the weight
    # then goes through parse_frac, as every weight did, and its refusal
    # names the weight
    big = "1" + "0" * 5000 + "/" + "2" + "0" * 5000
    try:
        parse_frac(big)
    except SpecError as exc:
        want = (2, "", f"error: bad weights file: {exc}\n")
    else:  # no limit on this interpreter: the weight reads 1/2
        want = blum_hanson(tmp_path, {"0": "1/2", "1": "1/2"}, "--spec", "odometer",
                           "--f", "0", "--res", "4")
    assert blum_hanson(tmp_path, {"0": "1/2", "1": big}, "--spec", "odometer",
                       "--f", "0", "--res", "4") == want


# --------------------------------------------------------------- the routes

TRIVIALIZE = ("joining", "trivialize", "--kind", "product", "--spec-a", "staircase",
              "--spec-b", "chacon", "--j", "4", "--res", "5", "--delta", "1/4", "--w", "0",
              "--shifts", "0,2", "--A", "3,0,3", "--B", "1,0", "--cond-stage", "3")
ROUTED = [
    ("correlate", "--spec", "staircase", "--A", "3,0,3", "--B", "1", "--j", "3",
     "--mmax", "6", "--res", "5"),
    ("correlate", "--spec", "chacon", "--A", "0", "--B", "0,1", "--j", "2",
     "--mmax", "5", "--res", "4"),
    ("blum-hanson", "--spec", "odometer", "--weights", "WEIGHTS", "--f", "2,0", "--j", "2",
     "--res", "5"),
    TRIVIALIZE,
]


def test_level_lists_reach_no_interval_route(tmp_path):
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({"0": "1/4", "3": "3/4"}))
    argvs = [[str(wf) if a == "WEIGHTS" else a for a in argv] for argv in ROUTED]
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("interval route")

    def spy(s):
        calls.append(s)
        return parse_frac(s)

    with mock.patch.object(TowerStage, "level_bits", refuse), \
            mock.patch.object(TowerStage, "levels_set", refuse), \
            mock.patch.object(rankone.cli, "parse_frac", spy):
        patched = []
        for argv in argvs:
            calls.clear()
            patched.append(run(argv))
            assert calls == (["1/4"] if argv[0] == "joining" else []), argv  # only --delta
    for argv, got in zip(argvs, patched):
        assert got[0] == 0, (argv, got[2])
        assert got == run(argv), argv
