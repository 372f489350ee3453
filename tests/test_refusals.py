"""Refusals: each invalid request is turned down with its own message,
and requests too large to hold are turned down before they are allocated.

The first table covers library refusals, each with its exception type and
whole message, and the command-line refusals with their exit code and the
whole stderr line.  The spec tables check that a spec names only the keys
it reads.  The capped table runs the command line in a child process under
a 1 GB address-space cap, where each row once ended in MemoryError (exit 4)
and must now exit 2 with one line naming the size it refused.
"""

import contextlib
import io
import json
import re
import tracemalloc
from fractions import Fraction as F
from hashlib import sha256

import pytest

from rankone.averaging import WeightSequence, average_apply, flatness, l2_deviation
from rankone.cli import main
from rankone.construction import (MAX_STAGE_BITS, ConstructionSpec, CutRule, SpacerRule,
                                  build_stage)
from rankone.errors import SpecError
from rankone.flow import (MAX_TABLE, FlowSkeletonSpec, band_indices, thickened_base,
                          windowed_return_flow)
from rankone.joinings import (BlockIndex, di_estimate, dispersion_experiment, light_blocks,
                              product_blocks)
from rankone.measure import MeasureBound, StepFunction
from rankone.stats import return_profile, window_sums
from rankone.transform import Cursor
from helpers import run_capped

ODO = ConstructionSpec.odometer()
ST = ConstructionSpec.staircase()
FLOW = FlowSkeletonSpec.doubled(ODO)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _spec(h1=2, cut=None, spacer=None, **extra):
    return {"h1": h1, "cut_rule": cut or {"kind": "constant", "value": 2},
            "spacer_rule": spacer or {"kind": "none"}, **extra}


def _build(data, stage):
    return build_stage(ConstructionSpec.from_json(data), stage)


LIBRARY = [
    ("dispersion_empty_n_list", lambda: dispersion_experiment(
        ODO, ODO, 0, 0, 8, BlockIndex(0, 0), [], 1, 3), SpecError,
     "n_list must be nonempty"),
    ("uniform_weights_of_0", lambda: WeightSequence.uniform(0), SpecError,
     "uniform weights need n >= 1"),
    ("flatness_negative_q", lambda: flatness(WeightSequence.uniform(2), -1), SpecError,
     "window length q must be nonnegative"),
    ("window_sums_negative_q", lambda: window_sums(return_profile(ODO, 1, 3, 2), -1),
     SpecError, "window length q must be nonnegative"),
    ("average_apply_direction", lambda: average_apply(
        ODO, WeightSequence.uniform(1), StepFunction.from_pieces([]), 2, "sideways"),
     SpecError, "direction must be forward or backward, got 'sideways'"),
    ("l2_deviation_ambient_0", lambda: l2_deviation(
        (F(0), F(0)), 0, MeasureBound.exact(0), 0, 1), SpecError,
     "ambient measure must be positive"),
    ("cursor_start_below_0", lambda: Cursor(ODO, F(-1, 2)), SpecError,
     "orbit start -1/2 below the ambient interval"),
    ("locate_below_0", lambda: build_stage(ODO, 2).locate(F(-1, 3)), SpecError,
     "point -1/3 below the ambient interval"),
    ("cut_rule_unknown_kind", lambda: CutRule("halving"), SpecError,
     "unknown cut rule kind: 'halving'"),
    ("cut_rule_stage_plus_one", lambda: CutRule("stage_plus_one"), SpecError,
     "unknown cut rule kind: 'stage_plus_one'"),
    ("spacer_rule_unknown_kind", lambda: SpacerRule("tall"), SpecError,
     "unknown spacer rule kind: 'tall'"),
    ("list_cut_without_values", lambda: CutRule("list"), SpecError,
     "list cut rule needs positive values"),
    ("list_spacers_without_rows", lambda: SpacerRule("list"), SpecError,
     "list spacer rule needs rows"),
    ("spacer_rows_not_a_list", lambda: SpacerRule("list", rows=5), SpecError,
     "spacer rule rows must be a list, got 5"),
    ("cut_list_exhausted", lambda: _build(_spec(cut={"kind": "list", "values": [2]}), 3),
     SpecError, "cut rule list exhausted at stage 2"),
    ("spacer_rows_exhausted", lambda: _build(_spec(spacer={"kind": "list", "rows": [[0, 1]]}), 3),
     SpecError, "spacer rule rows exhausted at stage 2"),
    ("spacer_row_wrong_length", lambda: _build(_spec(spacer={"kind": "list", "rows": [[0]]}), 2),
     SpecError, "spacer row at stage 1 has length 1, expected 2"),
    ("spec_without_rules", lambda: ConstructionSpec.from_json({"h1": 2}), SpecError,
     "spec needs cut_rule and spacer_rule (or a known preset)"),
    ("spec_without_h1", lambda: ConstructionSpec.from_json(
        {k: v for k, v in _spec().items() if k != "h1"}), SpecError,
     "spec needs h1 (or a known preset)"),
    ("thickened_base_negative_q", lambda: thickened_base(FLOW, 2, 3, q=-1), SpecError,
     "thickening q must be nonnegative"),
    ("thickened_base_j_past_J", lambda: thickened_base(FLOW, 3, 2), SpecError,
     "need j <= J, got j=3, J=2"),
    ("thickened_base_past_the_tower", lambda: thickened_base(FLOW, 1, 2, q=2), SpecError,
     "thickening q+1 = 3 exceeds tower height 2 at stage 1"),
    ("window_flow_empty_range", lambda: windowed_return_flow(FLOW, 1, 3, []), SpecError,
     "z_range is empty"),
    ("window_flow_negative_start", lambda: windowed_return_flow(FLOW, 1, 3, [-1, 0]),
     SpecError, "window starts must be nonnegative"),
    ("window_flow_negative_q", lambda: windowed_return_flow(FLOW, 1, 3, [0], q=-1),
     SpecError, "window length q must be nonnegative"),
    ("band_negative_offset", lambda: band_indices(FLOW, 4, 4, -1, "right"), SpecError,
     "band offset must be nonnegative"),
    ("band_offset_past_the_tower", lambda: band_indices(FLOW, 4, 4, 4, "right"), SpecError,
     "band offset w=4 outside the first tower (height 4)"),
    ("band_left_without_z_bound", lambda: band_indices(FLOW, 4, 4, 0, "left"), SpecError,
     "left bands need an explicit z_bound"),
    ("band_negative_z_bound", lambda: band_indices(FLOW, 4, 4, 0, "left", -1), SpecError,
     "z_bound must be nonnegative"),
    ("band_unknown_side", lambda: band_indices(FLOW, 4, 4, 0, "up"), SpecError,
     "side must be 'right' or 'left', got 'up'"),
    ("band_empty", lambda: band_indices(FLOW, 4, 4, 9, "left", 4), SpecError,
     "band (left, offset 9) is empty after clipping to the tower square"),
    # alpha 2, offset 0: the z below h/2, two blocks each, walk h blocks
    ("band_past_the_table", lambda: band_indices(FLOW, MAX_TABLE + 2, MAX_TABLE + 2, 0, "right"),
     SpecError, f"{MAX_TABLE + 2} band blocks requested, more than the limit of {MAX_TABLE}"),
    ("bound_scaled_negative", lambda: MeasureBound(F(0), F(1)).scale(-1), ValueError,
     "measure bounds scale by nonnegative factors only"),
]


@pytest.mark.parametrize("call, exc, message", [row[1:] for row in LIBRARY],
                         ids=[row[0] for row in LIBRARY])
def test_library_refusal(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


# The files the command-line rows name as {name}, each written as given;
# {missing} names a file that is never written.
FILES = {
    "bad": "not json",
    "cut_values_3": _spec(cut={"kind": "list", "values": 3}),
    "cut_value_x": _spec(cut={"kind": "stage", "value": "x"}),
    "spacer_bound_x": _spec(spacer={"kind": "none", "bound": "x"}),
}
_DISPERSE = ("joining", "disperse", "--spec-a", "odometer", "--spec-b", "odometer", "--x-a", "0",
             "--x-b", "0")
CLI = [
    ("invalid_json_spec_file", ("build", "--spec", "{bad}", "--stage", "1"), 2,
     "spec file {bad}: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("negative_orbit_steps", ("orbit", "--spec", "odometer", "--x", "0", "--steps", "-1"), 2,
     "--steps must be nonnegative"),
    ("three_block_indices", (*_DISPERSE, "-N", "8", "--z", "1,2,3", "--n-list", "0", "--j", "1",
                             "--res", "3"), 2,
     "--z expects exactly two integers Z1,Z2"),
    ("build_stage_0", ("build", "--spec", "odometer", "--stage", "0"), 2,
     "--stage must be >= 1"),
    ("bands_empty_offsets", ("flow", "bands", "--spec", "odometer", "--alpha", "2", "--side",
                             "right", "--offsets", ",", "--j", "2", "--res", "3"), 2,
     "--offsets is empty"),
    ("weights_file_missing", ("blum-hanson", "--spec", "odometer", "--weights", "{missing}",
                              "--f", "0", "--j", "1", "--res", "3"), 2,
     "cannot read weights file {missing}: [Errno 2] No such file or directory: '{missing}'"),
    ("disperse_N_0", (*_DISPERSE, "-N", "0", "--z", "0,0", "--n-list", "0", "--j", "1",
                      "--res", "3"), 2,
     "dispersion experiment needs N >= 1"),
    ("disperse_advance_before_every_hit", (*_DISPERSE, "-N", "10", "--z", "0,0", "--n-list",
                                           "-1000", "--j", "1", "--res", "5"), 2,
     "advance n=-1000 leaves no conditioned times in range"),
    ("cut_rule_values_not_a_list", ("build", "--spec", "{cut_values_3}", "--stage", "2"), 2,
     "cut rule values must be a list of integers, got 3"),
    ("cut_rule_value_not_an_int", ("build", "--spec", "{cut_value_x}", "--stage", "2"), 2,
     "cut rule value must be an integer, got 'x'"),
    ("spacer_rule_bound_not_an_int", ("build", "--spec", "{spacer_bound_x}", "--stage", "2"), 2,
     "spacer rule bound must be an integer, got 'x'"),
]


@pytest.mark.parametrize("argv, code, line", [row[1:] for row in CLI],
                         ids=[row[0] for row in CLI])
def test_cli_refusal_exit_2(tmp_path, argv, code, line):
    paths = {name: tmp_path / f"{name}.json" for name in (*FILES, "missing")}
    for name, content in FILES.items():
        paths[name].write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [a.format(**paths) for a in argv]
    assert run_cli(*argv) == (code, "", f"error: {line.format(**paths)}\n")


# ------------------------------------------------------------ spec keys

SPEC_KEYS = [
    ("base_width", _spec(base_width="1/2"), "unknown spec key: 'base_width'"),
    ("preset_and_base_width", {"preset": "staircase", "base_width": "1/4"},
     "unknown spec key: 'base_width'"),
    ("two_unknown_keys", _spec(width=1, comment="x"), "unknown spec key: 'comment', 'width'"),
    ("cut_rule_key", _spec(cut={"kind": "constant", "value": 2, "stage": 1}),
     "unknown cut_rule key: 'stage'"),
    ("spacer_rule_key", _spec(spacer={"kind": "none", "bound": None, "row": [0]}),
     "unknown spacer_rule key: 'row'"),
    ("stage_plus_one", _spec(cut={"kind": "stage_plus_one"}),
     "unknown cut rule kind: 'stage_plus_one'"),
]


@pytest.mark.parametrize("data, message", [row[1:] for row in SPEC_KEYS],
                         ids=[row[0] for row in SPEC_KEYS])
def test_spec_names_only_the_keys_it_reads(tmp_path, data, message):
    # a key the spec does not read would build another system than the file
    # names, so it is refused, from a dict and from a file alike
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        ConstructionSpec.from_json(data)
    sf = tmp_path / "spec.json"
    sf.write_text(json.dumps(data))
    assert run_cli("build", "--spec", str(sf), "--stage", "2") == (2, "", f"error: {message}\n")


# Fields given to the constructor and to from_json alike: the rules as JSON
# objects, or as what is not one.
SPEC_FIELDS = [
    ("unknown_preset", _spec(preset="bogus"), "unknown preset: 'bogus'"),
    ("cut_rule_a_str", _spec(cut="stage"), "cut_rule must be a JSON object with a kind"),
    ("spacer_rule_a_list", _spec(spacer=["none"]), "spacer_rule must be a JSON object with a kind"),
    ("cut_rule_values_not_a_list", _spec(cut={"kind": "list", "values": 3}),
     "cut rule values must be a list of integers, got 3"),
    ("cut_rule_unknown_kind", _spec(cut={"kind": "halving"}), "unknown cut rule kind: 'halving'"),
]


@pytest.mark.parametrize("fields, message", [row[1:] for row in SPEC_FIELDS],
                         ids=[row[0] for row in SPEC_FIELDS])
def test_constructor_and_from_json_refuse_alike(fields, message):
    for make in (lambda: ConstructionSpec(**fields), lambda: ConstructionSpec.from_json(fields)):
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            make()


def test_constructor_reads_rules_given_as_json():
    # a rule given as its JSON object is read as from_json reads it, so the
    # spec hashes, builds and round-trips as the one from_json makes
    fields = _spec(cut={"kind": "stage"}, spacer={"kind": "staircase"})
    spec = ConstructionSpec(**fields)
    assert spec == ConstructionSpec.from_json(fields) == ConstructionSpec.from_json(spec.to_json())
    assert isinstance(spec.cut_rule, CutRule) and isinstance(spec.spacer_rule, SpacerRule)
    assert hash(spec) == hash(ConstructionSpec.from_json(fields))
    assert build_stage(spec, 3).height == build_stage(ConstructionSpec.staircase(), 3).height


def test_spec_json_round_trips_with_only_its_keys():
    for spec in (ODO, ST, ConstructionSpec.random_spacers(seed=3),
                 ConstructionSpec.from_json(_spec(cut={"kind": "list", "values": [2, 3]},
                                                  spacer={"kind": "list", "rows": [[0, 1]]}))):
        data = spec.to_json()
        assert set(data) <= set(ConstructionSpec.__match_args__)
        assert ConstructionSpec.from_json(data) == spec


# -------------------------------------------------------- stage budget

def test_stage_bits_budget():
    # staircase reaches J = 250; the refusal names the estimate and the budget
    assert build_stage(ConstructionSpec.staircase(max_stage=250), 250).held_bits < MAX_STAGE_BITS
    spec = ConstructionSpec.staircase(max_stage=400)
    with pytest.raises(SpecError, match=r"^stages 1\.\.\d+ would hold about \d+ integer bits, "
                                        rf"more than the limit of {MAX_STAGE_BITS}$"):
        build_stage(spec, 400)
    # a huge cut is refused before its spacer vector is made
    huge = ConstructionSpec.from_json(_spec(h1=1, cut={"kind": "constant", "value": 1 << 40}))
    with pytest.raises(SpecError, match=rf"^stages 1\.\.2 would hold about {1 << 40} "):
        build_stage(huge, 2)


def test_product_matrix_at_staircase_11_builds_in_constant_space():
    # its counts are the range of the grid's 24,379,289 lags: the matrix, its
    # size, total and lookups and the light test allocate no table
    spec = ConstructionSpec.staircase(max_stage=11)
    build_stage(spec, 11)
    tracemalloc.start()
    try:
        m = product_blocks(spec, spec, 11, 11)
        h = m.h_a
        assert m.masses.counts == range(1 - h, h)
        assert len(m.masses) == m.masses.total == h * h == 148587445226025
        assert m.masses[h - 1, 0] == m.masses.unit == m.mass_of([(0, h - 1)])
        assert (h, 0) not in m.masses
        # a block weighs level_mass_a * level_mass_b: light past level_mass_a
        light = light_blocks(m, F(1, 2))
        assert len(light.light_set) == h * h and light.covered_mass == 1 - m.residual == 1
        assert len(light_blocks(m, m.level_mass_a).light_set) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak} bytes traced"


# --------------------------------------------- capped children, 1 GB

_ST11 = ("--spec-a", "staircase", "--spec-b", "staircase", "--res", "11", "--stage-budget", "11")
_ST12 = ("--spec-a", "staircase", "--spec-b", "staircase", "--res", "12", "--stage-budget", "12")
_ODO32 = ("--spec-a", "odometer", "--spec-b", "odometer", "--j", "32", "--res", "32",
          "--stage-budget", "32")
_TRIVIALIZE = ("--delta", "1/2", "--w", "0", "--shifts", "0", "--A", "0", "--B", "0",
               "--cond-stage", "1")
_LISTING_11 = "148587445226025 blocks to list, more than the limit of 1000000"
_LISTING_32 = "18446744073709551616 blocks to list, more than the limit of 1000000"
_BITS_317 = "stages 1..317 would hold about 67438806 integer bits, more than the limit of 67108864"
CAPPED = [
    ("light_product_staircase_11",
     ("joining", "light", "--kind", "product", *_ST11, "--j", "11", "--epsilon", "1/2"),
     _LISTING_11),
    ("blocks_product_staircase_11",
     ("joining", "blocks", "--kind", "product", *_ST11, "--j", "11"), _LISTING_11),
    # the column walk reads stage 12's level bitsets, past MAX_BITS
    ("trivialize_product_staircase_12",
     ("joining", "trivialize", "--kind", "product", *_ST12, "--j", "12", *_TRIVIALIZE),
     "134086094 level bits requested, more than the limit of 67108864"),
    ("bands_staircase_11",
     ("flow", "bands", "--spec", "staircase", "--alpha", "2", "--side", "right", "--offsets",
      "0", "--j", "11", "--res", "11", "--stage-budget", "11"),
     "12189646 band blocks requested, more than the limit of 4194304"),
    # the sweep's stages answer (see the 64 MB child below); a resolution
    # stage past the integer-bit budget is refused before any matrix
    ("di_product_staircase_10_11",
     ("joining", "di", "--kind", "product", "--spec-a", "staircase", "--spec-b", "staircase",
      "--res", "400", "--stage-budget", "400", "--stages", "10,11", "--epsilons", "1/2,1/4"),
     _BITS_317),
    ("light_product_chacon_15",
     ("joining", "light", "--kind", "product", "--spec-a", "chacon", "--spec-b", "chacon",
      "--j", "15", "--res", "15", "--stage-budget", "15", "--epsilon", "1/2"),
     "51472775849209 blocks to list, more than the limit of 1000000"),
    # 2^64 blocks, past what len() can return
    ("blocks_product_odometer_32", ("joining", "blocks", "--kind", "product", *_ODO32),
     _LISTING_32),
    ("light_product_odometer_32",
     ("joining", "light", "--kind", "product", *_ODO32, "--epsilon", "1/2"), _LISTING_32),
    ("return_profile_staircase_20000",
     ("return-profile", "--spec", "staircase", "--j", "1", "--res", "20000", "--zmax", "3",
      "--stage-budget", "20000"),
     _BITS_317),
    ("build_odometer_200000",
     ("build", "--spec", "odometer", "--stage", "200000", "--stage-budget", "200000"),
     "stages 1..8192 would hold about 67117054 integer bits, more than the limit of 67108864"),
]


def test_product_di_at_staircase_10_11_answers_in_a_64_mb_child():
    # refused once on stage 11's 24,379,289 lags; a product matrix holds its
    # lags as a range now, so the sweep answers under a 64 MB cap
    argv = ("joining", "di", "--kind", "product", *_ST11, "--stages", "10,11",
            "--epsilons", "1/2,1/4")
    proc, _ = run_capped(["-m", "rankone.cli", *argv], cap_mb=64)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sha256(proc.stdout.encode()).hexdigest() == (
        "d7de2a0f6307b9750a215dce00fac232e5a367528a3c1a275ecf5b0d08b8f33e")
    spec = ConstructionSpec.staircase(max_stage=11)
    ms = [product_blocks(spec, spec, j, 11) for j in (10, 11)]
    proxy = di_estimate([light_blocks(m, eps) for m in ms for eps in (F(1, 2), F(1, 4))])
    assert json.loads(proc.stdout)["data"]["proxy"] == f"{proxy.numerator}/{proxy.denominator}"


def test_product_trivialize_at_staircase_11_answers_in_a_64_mb_child():
    # refused once on its 6,094,823 column rows; the walk reads the rows as
    # bits of the stage-11 level bitsets, so it answers under a 64 MB cap
    argv = ("joining", "trivialize", "--kind", "product", *_ST11, "--j", "11", *_TRIVIALIZE)
    proc, _ = run_capped(["-m", "rankone.cli", *argv], cap_mb=64)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sha256(proc.stdout.encode()).hexdigest() == (
        "14bad39447239e4478fb1198b9a0ddfb11fc3bbcf4f14646dd01313a67dde40a")
    # A = B = E_1 and one shift 0: the conditional is the share of the
    # column rows i <= h_11 / 2 that are levels of E_1
    st = build_stage(ConstructionSpec.staircase(max_stage=11), 11)
    rows = st.height // 2 + 1
    share = F((st.occurrence_bits(1) & (1 << rows) - 1).bit_count(), rows)
    assert json.loads(proc.stdout)["data"]["conditional"] == f"{share.numerator}/{share.denominator}"


def test_flow_band_at_staircase_10_answers_in_a_64_mb_child():
    # the band's 1,218,960 blocks are summed as they are walked, not held as
    # a set, so one band mass answers under a 64 MB cap
    argv = ("flow", "bands", "--spec", "staircase", "--alpha", "2", "--side", "right",
            "--offsets", "0", "--j", "10", "--res", "10")
    proc, _ = run_capped(["-m", "rankone.cli", *argv], cap_mb=64)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sha256(proc.stdout.encode()).hexdigest() == (
        "b481afe4dd78cff88d3408dc944403c207356941b6a564f640be0c441c5cb49d")


@pytest.mark.parametrize("argv, line", [row[1:] for row in CAPPED],
                         ids=[row[0] for row in CAPPED])
def test_oversized_request_exits_2_in_a_capped_child(argv, line):
    proc, _ = run_capped(["-m", "rankone.cli", *argv], cap_mb=1024)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {line}\n")
