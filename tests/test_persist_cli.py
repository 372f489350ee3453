"""Serialization, the stage records of `rankone build`, and the command
line front end.

Oracles here are frozen library values from the other test modules plus
independent recomputation through the public API; CLI determinism is
checked byte for byte.
"""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction as F
from hashlib import sha256
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import rankone
from rankone import cli, stats
from rankone.cli import load_spec, main
from rankone.construction import MAX_BITS, PRESETS, ConstructionSpec, build_stage
from rankone.errors import SpecError
from rankone.joinings import BlockIndex
from rankone.measure import MeasureBound
from rankone.persist import (
    BOUND_COLUMNS,
    Table,
    approx_str,
    bound_json,
    dump_stage,
    frac_str,
    frac_strs,
    meta_line,
    parse_frac,
    render_json,
    render_table,
    spec_hash,
)
from rankone.stats import correlation_series, return_profile
from rankone.transform import Cursor, apply_power
from helpers import run_capped

ODO = ConstructionSpec.odometer()
ST2 = ConstructionSpec.staircase(h1=2)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_json(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------- rational rendering

def test_frac_str_and_parse_round_trip():
    assert frac_str(F(7, 8)) == "7/8"
    assert frac_str(3) == "3/1"
    assert parse_frac("7/8") == F(7, 8)
    assert parse_frac(" 7/8 ") == F(7, 8)


@given(st.fractions())
def test_frac_round_trip_property(x):
    assert parse_frac(frac_str(x)) == x


@given(st.integers(min_value=1, max_value=10**30),
       st.lists(st.integers(min_value=0, max_value=10**40) | st.integers(0, 12)))
def test_frac_strs_match_frac_str(den, numerators):
    assert list(frac_strs(den, numerators)) == [frac_str(F(n, den)) for n in numerators]


def test_parse_frac_rejects_garbage():
    with pytest.raises(SpecError):
        parse_frac("seven eighths")
    with pytest.raises(SpecError):
        parse_frac("1/0")


def test_approx_str_is_half_even_12_digits():
    assert approx_str(F(1, 3)) == "0.333333333333"
    assert approx_str(F(2, 3)) == "0.666666666667"
    assert approx_str(F(1, 2)) == "0.5"
    assert approx_str(5) == "5"


def test_meta_line_sorted_and_versioned():
    line = meta_line(b=2, a=1)
    assert line.startswith("# {")
    doc = json.loads(line[2:])
    assert doc["a"] == 1 and doc["b"] == 2
    assert doc["tool_version"] == rankone.__version__
    assert list(doc) == sorted(doc)


# ------------------------------------------------------------ JSON rendering

def oracle_json(doc):
    """The bytes of the JSON documents, as the standard library prints them."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


Pair = namedtuple("Pair", "first second")

_strings = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\n\t\x7f", "é", "\u2028", "ꙮ\U0001f600"])
_ints = st.integers() | st.integers(min_value=-10**40, max_value=10**40)
_scalars = st.none() | st.booleans() | _ints | _strings


def _rows(cell):
    return st.integers(0, 3).flatmap(lambda w: st.lists(
        st.lists(cell, min_size=w, max_size=w)
        | st.tuples(*[cell] * w) | st.builds(Pair, cell, cell), min_size=1))


_leaves = (_scalars | st.lists(_ints, min_size=1) | st.lists(_strings, min_size=1)
           | _rows(_ints) | _rows(st.integers(0, 2) | st.booleans())
           | _rows(_strings) | st.lists(st.lists(_ints), min_size=1))
_json_trees = st.recursive(_leaves, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_strings, kids, max_size=4) | st.builds(Pair, kids, kids)),
    max_leaves=12)


@given(_json_trees, st.dictionaries(_strings, _scalars, max_size=3))
def test_render_json_matches_json_dumps(payload, meta):
    doc = {"meta": {"tool_version": rankone.__version__, **meta}, "data": payload}
    assert render_json(payload, **meta) == oracle_json(doc)


@pytest.mark.parametrize("bad", [
    0.5, F(1, 2), {1: "one"}, {"a": [1, 2.0]}, [[1, 2], [3, 4.0]],
    [[1, 2], [3, F(4)]], [Pair(1, 2), Pair(3, 0.0)], object()],
    ids=["float", "fraction", "int-key", "float-in-run", "float-in-rows",
         "fraction-in-rows", "float-in-namedtuple-rows", "object"])
def test_render_json_refuses_non_json_values(bad):
    with pytest.raises(TypeError):
        render_json(bad)


# ----------------------------------------------------------- table rendering

def oracle_csv(columns, rows, meta):
    """A CSV table as one str() per cell, joined cell by cell."""
    return "\n".join([meta_line(**meta), ",".join(columns),
                      *(",".join(map(str, row)) for row in rows)]) + "\n"


def oracle_table_json(items, meta):
    """A JSON table from its (key, value) pairs and the values' Fractions."""
    return render_json({
        ",".join(map(str, k if isinstance(k, tuple) else (k,))):
        bound_json(v) if isinstance(v, MeasureBound) else frac_str(v)
        for k, v in items}, **meta) + "\n"


def oracle_cells(items):
    """The CSV cells of (key, value) pairs: the key's parts, then the
    value's numerators and denominators."""
    return [(*(k if isinstance(k, tuple) else (k,)),
             *((v.lo.numerator, v.lo.denominator, v.hi.numerator, v.hi.denominator)
               if isinstance(v, MeasureBound) else (v.numerator, v.denominator)))
            for k, v in items]


_table_ints = st.integers(-10**30, 10**30) | st.integers(-3, 3)
_table_dens = st.integers(1, 10**30) | st.integers(1, 3)
_table_meta = st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4),
                              max_size=2)
_fractions = st.builds(F, _table_ints, _table_dens)
_bounds = st.tuples(*[st.builds(F, _table_ints.map(abs), _table_dens)] * 2).map(
    lambda p: MeasureBound(min(p), max(p)))
# (columns, a strategy of one (key, value) pair) for every Table shape
_TABLE_SHAPES = [
    (("z",) + BOUND_COLUMNS, st.tuples(_table_ints, _bounds)),
    (("z1", "z2", "num", "den"),
     st.tuples(st.builds(BlockIndex, _table_ints, _table_ints), _fractions)),
    (("offset", "mass_num", "mass_den"), st.tuples(_table_ints, _fractions)),
]
_tables = st.sampled_from(_TABLE_SHAPES).flatmap(lambda shape: st.tuples(
    st.just(shape[0]), st.lists(shape[1], max_size=6)))


@given(_tables, _table_meta)
def test_csv_row_template_matches_joined_cells(shape, meta):
    # negative and huge keys and numerators, a single row and no rows
    columns, items = shape
    assert render_table(Table(columns, iter(items), meta), "csv") == oracle_csv(
        columns, oracle_cells(items), meta)


@given(_tables, _table_meta)
def test_table_documents_match_value_rendering(shape, meta):
    # each document reads its items once, as `flow bands` passes a zip
    columns, items = shape
    keys, values = zip(*items) if items else ((), ())
    assert render_table(Table(columns, zip(keys, values), meta), "csv") == oracle_csv(
        columns, oracle_cells(items), meta)
    assert render_table(Table(columns, zip(keys, values), meta), "json") == (
        oracle_table_json(items, meta))


# ------------------------------------------------------------ stage records

def test_dump_load_round_trip_staircase():
    # the document parses back to the records of stages 1..J as built
    doc = json.loads(dump_stage(ST2, 5))
    assert doc["format"] == 1
    assert doc["J"] == 5
    assert doc["spec_hash"] == spec_hash(ST2)
    assert ConstructionSpec.from_json(doc["spec"]) == ST2
    for j, rec in enumerate(doc["stages"], start=1):
        st_j = build_stage(ST2, j)
        assert rec["stage"] == j
        assert rec["height"] == st_j.height
        assert parse_frac(rec["width"]) == st_j.width
        assert parse_frac(rec["total"]) == st_j.total
        if j > 1:
            assert tuple(rec["offsets"]) == st_j.offsets
            assert tuple(rec["spacers"]) == st_j.spacers
    assert len(doc["stages"]) == 5


def test_dump_is_deterministic():
    assert dump_stage(ST2, 4) == dump_stage(ST2, 4)


# -------------------------------------------------------------- cli: basics

def test_cli_orbit_odometer_frozen():
    doc = cli_json("orbit", "--spec", "odometer", "--x", "0/1", "--steps", "4")
    assert doc["data"] == ["0/1", "1/2", "1/4", "3/4", "1/8"]
    assert doc["meta"]["spec"] == spec_hash(ODO)


def test_cli_orbit_matches_apply_power():
    doc = cli_json("orbit", "--spec", "staircase", "--x", "1/7", "--steps", "12")
    for n, s in enumerate(doc["data"]):
        assert parse_frac(s) == apply_power(ST2, F(1, 7), n).x


def test_cli_orbit_includes_start():
    doc = cli_json("orbit", "--spec", "chacon", "--x", "1/2", "--steps", "0")
    assert doc["data"] == ["1/2"]


def oracle_cmd_orbit(args):
    """The orbit command as one step_forward and one x per step."""
    spec = load_spec(args.spec, args.stage_budget)
    x = parse_frac(args.x)
    cur = Cursor(spec, x)
    points = [frac_str(cur.x)]
    for k in range(args.steps):
        cur.step_forward(k)
        points.append(frac_str(cur.x))
    return render_json(points, command="orbit", spec=spec_hash(spec),
                       x=frac_str(x), steps=args.steps,
                       refinements=cur.refinements) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["odometer", "staircase", "chacon", "random:3"]),
       st.fractions(min_value=0, max_value=F(3, 2), max_denominator=997),
       st.integers(min_value=0, max_value=2000),
       st.integers(min_value=1, max_value=9))
def test_cli_orbit_matches_per_step_oracle(spec, x, steps, budget):
    # exit code, document (points and refinements) and escape message
    argv = ("orbit", "--spec", spec, "--x", f"{x.numerator}/{x.denominator}",
            "--steps", str(steps), "--stage-budget", str(budget))
    got = run_cli(*argv)
    with mock.patch.object(cli, "cmd_orbit", oracle_cmd_orbit), \
            mock.patch.object(cli, "_parser", None):
        assert run_cli(*argv) == got


def test_cli_orbit_builds_no_fraction_per_point():
    # the points are rendered from the walker's integers: a 6,001-point
    # orbit builds only the Fractions of parsing the start, building the
    # stages and placing the cursor (40 on CPython 3.11 with no stage
    # cached), where one Fraction per point would build over 6,000
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    argv = ("orbit", "--spec", "staircase", "--x", "1/3", "--steps", "6000",
            "--stage-budget", "10")
    with mock.patch.object(F, "__new__", counting_new):
        code, out, err = run_cli(*argv)
    assert code == 0 and len(json.loads(out)["data"]) == 6001
    assert built <= 60


def test_cli_return_profile_csv_header_and_identity_row():
    code, out, err = run_cli("return-profile", "--spec", "odometer",
                             "--j", "2", "--res", "4", "--zmax", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "z,lo_num,lo_den,hi_num,hi_den"
    assert lines[2] == "0,1,1,1,1"
    assert len(lines) == 2 + 5


def test_cli_return_profile_matches_library():
    doc = cli_json("return-profile", "--spec", "staircase", "--j", "2",
                   "--res", "5", "--zmax", "6", "--format", "json")
    prof = return_profile(ST2, 2, 5, 6)
    for z, b in prof.values.items():
        assert parse_frac(doc["data"][str(z)]["lo"]) == b.lo
        assert parse_frac(doc["data"][str(z)]["hi"]) == b.hi


def test_cli_return_profile_csv_flag_writes_file(tmp_path):
    # csv is the default format, so --out writes the table; the old --csv
    # alias is gone and is refused as an unknown flag
    target = tmp_path / "prof.csv"
    args = ("return-profile", "--spec", "odometer", "--j", "1", "--res", "3",
            "--zmax", "2")
    code, out, err = run_cli(*args, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[2] == "0,1,1,1,1"
    code, out, err = run_cli(*args, "--csv", str(tmp_path / "other.csv"))
    assert (code, out) == (2, "")
    assert not (tmp_path / "other.csv").exists()


def test_cli_rerun_byte_identical():
    args = ("return-profile", "--spec", "staircase", "--j", "3",
            "--res", "6", "--zmax", "20")
    _, first, _ = run_cli(*args)
    _, second, _ = run_cli(*args)
    assert first == second


def test_cli_correlate_matches_library():
    doc = cli_json("correlate", "--spec", "odometer", "--A", "0", "--B", "0,1",
                   "--mmax", "3", "--res", "4")
    st1 = build_stage(ODO, 1)
    series = correlation_series(ODO, st1.levels_set([0]),
                                st1.levels_set([0, 1]), 3, 4)
    assert parse_frac(doc["meta"]["target"]) == series.target
    for m, b in series.values.items():
        assert parse_frac(doc["data"][str(m)]["lo"]) == b.lo
        assert parse_frac(doc["data"][str(m)]["hi"]) == b.hi


def test_cli_blum_hanson(tmp_path):
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({str(z): "1/4" for z in range(4)}))
    doc = cli_json("blum-hanson", "--spec", "odometer", "--weights", str(wf),
                   "--f", "0", "--res", "5")
    assert doc["data"]["mean"] == "1/2"
    assert doc["data"]["flatness"] == "1/4"
    assert parse_frac(doc["data"]["deviation_sq"]["lo"]) >= 0
    assert parse_frac(doc["data"]["deviation_sq"]["hi"]) < F(1, 8)


def test_cli_blum_hanson_far_shift(tmp_path):
    # the shift 10^12 leaves every stage-4 level: half of f escapes, and
    # flatness looks at the two support points only
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({"0": "1/2", str(10**12): "1/2"}))
    doc = cli_json("blum-hanson", "--spec", "odometer", "--weights", str(wf),
                   "--f", "0", "--j", "1", "--res", "4")
    assert doc["data"]["flatness"] == "1/2"
    assert doc["data"]["escaped_hi"] == "1/4"
    assert doc["meta"]["support"] == [0, 10**12]


@pytest.mark.parametrize("text, message", [
    ('{"0": "1/2"}', "sum to exactly 1"),
    # "1" and "01" name one index: merged, the weights read [1, 2] and sum to 1
    ('{"1": "1/2", "01": "1/2", "2": "1/2"}', "duplicate weight index 1"),
    # json.loads has already rounded a float to binary
    ('{"0": 0.5, "1": 0.5}', "mapping z to num/den or an int"),
    ('{"0": true}', "mapping z to num/den or an int"),
], ids=["sum below 1", "keys naming one index", "float values", "bool value"])
def test_cli_blum_hanson_rejects_unnormalized_weights(tmp_path, text, message):
    wf = tmp_path / "w.json"
    wf.write_text(text)
    code, out, err = run_cli("blum-hanson", "--spec", "odometer",
                             "--weights", str(wf), "--f", "0", "--res", "4")
    assert (code, out) == (2, "")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("weights", [{"0": "1"}, {"0": "1/2", "1": "1/2"}])
def test_cli_blum_hanson_f_outside_ambient_exit_2(tmp_path, weights):
    # level 4 of staircase stage 3 lies past M_2, whether or not the
    # weights move anything
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps(weights))
    code, out, err = run_cli("blum-hanson", "--spec", "staircase",
                             "--weights", str(wf), "--f", "4", "--j", "3",
                             "--res", "2")
    assert (code, out) == (2, "")
    assert err == "error: set extends beyond the stage ambient interval\n"


def _uniform_weights(n):
    return {str(z): f"1/{n}" for z in range(n)}


# blum-hanson stdout digests, recorded when the command built P f as a
# StepFunction: one op of each benchmark slot, finer stages than --res
# (part-cell pieces of f), the far shift, mixed weights, a random spec and
# the deep staircase case that then took about 6 s; the J=12 row was
# recorded when the moments lifted every piece class to stage J (3.6 s)
BLUM_HANSON_PINS = [
    ("staircase", _uniform_weights(10), "0,1", 2, 5,
     "d9975487acd46cd83f7b6a5067b4b15a91a72c367452dac9692bbf587e00ccd2"),
    ("odometer", _uniform_weights(45), "1", 1, 6,
     "7a1b61ee510fa6860ac79f651993c96f1c3ed2960b61eb59aff91ee437a39351"),
    ("chacon", _uniform_weights(25), "2", 2, 5,
     "510665a2384df85e4e9f5740745d7f8146d053c5375aad6f410f3bffe31f52e5"),
    ("staircase", _uniform_weights(12), "0,3", 6, 5,
     "33b74b23f327c10cb77f6529b67a1218c7556c78cf81b6ce57efbdc0d6760205"),
    ("odometer", _uniform_weights(12), "0,40,63", 6, 5,
     "2caa5ceeeab95ff1af3fb4b7df5380e6d46be726e6e7188db8c150d1b254ee69"),
    ("chacon", _uniform_weights(25), "5,100,363", 6, 5,
     "d21d5ad9843ecc6c5037ef607c527ce2167e3838b97e881e8c92a296f8de3d86"),
    ("odometer", {"0": "1/2", str(10**12): "1/2"}, "0", 1, 4,
     "b8ff56108fdca172dfa80239af9bbc08886cac8514fdebe6b406912915aa6c84"),
    ("staircase", {"0": "1/2", "3": "1/3", "7": "1/6"}, "0,2", 3, 6,
     "069e4d43d9b94d196ed23052a9b0085eda1e1a1ffbdd34ef4414f21802ade7bd"),
    ("random:3", {"0": "1/2", "3": "1/3", "7": "1/6"}, "0,1", 2, 4,
     "11e03f51b14b36e3fb177bf9ed0d12767b8d27f1e6ca92e31f237f2b9d0e3135"),
    ("staircase", _uniform_weights(64), "0", 3, 10,
     "c57d45b55551df4c3cdda2f13f5d959b1fc8cf7b1cf23601770b7c720abee5d9"),
    ("staircase", _uniform_weights(64), "0", 3, 12,
     "117cec0565af4f7c75d8487e06f11043ea8f8f3f59a9f8725d46b6140d3ea2a8"),
]


@pytest.mark.parametrize("spec,weights,f,j,J,digest", BLUM_HANSON_PINS,
                         ids=[f"{p[0]}-f{p[2]}-j{p[3]}-res{p[4]}" for p in BLUM_HANSON_PINS])
def test_cli_blum_hanson_bytes_pinned(tmp_path, spec, weights, f, j, J, digest):
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps(weights))
    budget = ("--stage-budget", str(J)) if J > 10 else ()  # staircase's default is 10
    code, out, err = run_cli("blum-hanson", "--spec", spec, "--weights", str(wf),
                             "--f", f, "--j", str(j), "--res", str(J), *budget)
    assert code == 0, err
    assert sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("J", [11, 16], ids=["res11", "res16"])
def test_cli_blum_hanson_deep_staircase_in_a_capped_child(tmp_path, J):
    # staircase J=11 has 1.2e7 levels: building P f there ran past 60 s
    # and 1.2 GB; lifting each piece class to stage J took 3.1-4.0 s at
    # J=12 and ended in MemoryError at J=16 (4.4e12 levels).  The moments
    # count lags by window descent from the classes' own stage 3
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps(_uniform_weights(64)))
    proc, elapsed = run_capped(
        ["-m", "rankone.cli", "blum-hanson", "--spec", "staircase",
         "--weights", str(wf), "--f", "0", "--j", "3", "--res", str(J),
         "--stage-budget", str(J)])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.0, f"blum-hanson took {elapsed:.2f} s"
    assert json.loads(proc.stdout)["meta"]["J"] == J


def test_cli_blum_hanson_far_near_shift_in_a_capped_child(tmp_path):
    # weights {0, 10^6}: b has lags 0 and 10^6 only.  Counting every lag
    # up to 10^6 ran past 100 s; counting at b's lags takes about 0.7 s,
    # the bytes of the stage-J bitset route (digest recorded there)
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({"0": "1/2", str(10**6): "1/2"}))
    proc, elapsed = run_capped(
        ["-m", "rankone.cli", "blum-hanson", "--spec", "staircase",
         "--weights", str(wf), "--f", "0", "--j", "3", "--res", "10"], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 4.0, f"blum-hanson took {elapsed:.2f} s"
    assert sha256(proc.stdout.encode()).hexdigest() == \
        "6e54f20eb32496eaa86882bd29d6b1f6b05ee6873ea40ff5235b4f367247cc9e"


# ---------------------------------------------------------- cli: joinings

def test_cli_joining_blocks_graph_frozen():
    code, out, err = run_cli("joining", "blocks", "--kind", "graph",
                             "--spec", "odometer", "--k", "1",
                             "--j", "1", "--res", "4")
    assert code == 0
    lines = out.splitlines()
    meta = json.loads(lines[0][2:])
    assert meta["kind"] == "graph" and meta["k"] == 1
    assert meta["residual"] == "1/16"
    assert lines[1] == "z1,z2,num,den"
    assert set(lines[2:]) == {"0,1,7,16", "1,0,1,2"}


def test_cli_joining_blocks_empirical_meta_carries_seeds():
    code, out, err = run_cli("joining", "blocks", "--kind", "empirical",
                             "--spec-a", "odometer", "--spec-b", "odometer",
                             "--x-a", "0/1", "--x-b", "0/1", "-N", "64",
                             "--j", "2", "--res", "8")
    assert code == 0
    meta = json.loads(out.splitlines()[0][2:])
    assert meta["N"] == 64
    assert meta["seeds"] == ["0", "0"]
    assert meta["residual"] == "0/1"


def test_cli_joining_blocks_missing_flags_exit_2():
    code, out, err = run_cli("joining", "blocks", "--kind", "product",
                             "--spec-a", "odometer", "--j", "1", "--res", "3")
    assert code == 2
    assert "--spec-b" in err


def test_cli_joining_light_matches_product_flip():
    doc = cli_json("joining", "light", "--kind", "product",
                   "--spec-a", "odometer", "--spec-b", "odometer",
                   "--j", "2", "--res", "4", "--epsilon", "1/2")
    # every product block has mass 1/16 = (1/4)(1/16) norm... frozen via
    # the library: all blocks light at 1/2, covered equals total
    assert doc["data"]["heavy_count"] == 0
    assert parse_frac(doc["data"]["covered_mass"]) == 1


def test_cli_joining_di_graph_is_zero():
    doc = cli_json("joining", "di", "--kind", "graph", "--spec", "staircase",
                   "--k", "1", "--res", "5", "--stages", "2,3",
                   "--epsilons", "1/4,1/2")
    assert doc["data"]["proxy"] == "0/1"
    assert len(doc["data"]["grid"]) == 4


def test_cli_joining_disperse_identity_coupling():
    doc = cli_json("joining", "disperse", "--spec-a", "odometer",
                   "--spec-b", "odometer", "--x-a", "0/1", "--x-b", "0/1",
                   "-N", "64", "--z", "0,0", "--n-list", "0",
                   "--j", "2", "--res", "8")
    row = doc["data"][0]
    assert row["n"] == 0
    assert row["histogram"] == {"0,0": "1/1"}
    assert row["residual"] == "0/1"


def test_cli_joining_disperse_empty_conditioning_exit_2():
    code, out, err = run_cli("joining", "disperse", "--spec-a", "odometer",
                             "--spec-b", "odometer", "--x-a", "0/1",
                             "--x-b", "0/1", "-N", "16", "--z", "0,1",
                             "--n-list", "0", "--j", "2", "--res", "8")
    assert code == 2
    assert "count 0" in err


def test_cli_joining_trivialize_brackets_conditional():
    doc = cli_json("joining", "trivialize", "--kind", "product",
                   "--spec-a", "staircase", "--spec-b", "chacon",
                   "--j", "3", "--res", "5", "--delta", "1/4", "--w", "0",
                   "--shifts", "0,1", "--A", "0", "--B", "0",
                   "--cond-stage", "1")
    d = doc["data"]
    cond = parse_frac(d["conditional"])
    assert parse_frac(d["display_sum"]["lo"]) <= cond <= parse_frac(d["display_sum"]["hi"])
    assert parse_frac(d["display_gap"]["lo"]) == 0
    assert parse_frac(d["gap"]) == abs(cond - parse_frac(d["reference"]))


# -------------------------------------------------------------- cli: flow

def test_cli_flow_bands_product_frozen():
    code, out, err = run_cli("flow", "bands", "--spec", "odometer",
                             "--alpha", "2", "--j", "2", "--res", "4",
                             "--side", "right", "--offsets", "0,1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "offset,mass_num,mass_den"
    assert lines[2] == "0,1,4"
    assert lines[3] == "1,1,4"
    assert lines[4] == "2,1,8"


def test_cli_flow_bands_empty_band_exit_2():
    code, out, err = run_cli("flow", "bands", "--spec", "odometer",
                             "--alpha", "2", "--j", "2", "--res", "4",
                             "--side", "left", "--offsets", "9",
                             "--zbound", "4")
    assert code == 2
    assert "empty" in err


def test_cli_flow_bands_left_needs_zbound():
    code, out, err = run_cli("flow", "bands", "--spec", "odometer",
                             "--alpha", "2", "--j", "2", "--res", "4",
                             "--side", "left", "--offsets", "0")
    assert code == 2
    assert "z_bound" in err


# Bands on a 5 x 5 grid (staircase j=3): past the grid, z_bound and the
# grid's q only lengthened the walk over (z, h), whose blocks off the grid
# were dropped afterwards.  The first took 5.3-6.6 s and 329 MB, the second
# ended in MemoryError after 17 s under a 1 GB cap.
BANDS_PAST_THE_GRID = ("flow", "bands", "--spec", "staircase", "--alpha", "2",
                       "--j", "3", "--res", "5")


def test_cli_flow_bands_far_z_bound_in_a_capped_child():
    proc, elapsed = run_capped(["-m", "rankone.cli", *BANDS_PAST_THE_GRID, "--side", "left",
                                "--offsets", "0", "--zbound", "1000000"])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.0, f"flow bands took {elapsed:.2f} s"
    assert sha256(proc.stdout.encode()).hexdigest() == \
        "daa3fbe688bc774cce513b516c5179f449446871a29a01644926998c88bd0c24"


def test_cli_flow_bands_huge_grid_in_a_capped_child():
    # every h past h_b - 1 is off the grid, so grid 10^8 gives grid 4's rows
    argv = [*BANDS_PAST_THE_GRID, "--side", "right", "--offsets", "0,1"]
    proc, elapsed = run_capped(["-m", "rankone.cli", *argv, "--grid", "100000000"])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.0, f"flow bands took {elapsed:.2f} s"
    code, out, err = run_cli(*argv, "--grid", "4")
    assert code == 0, err
    assert proc.stdout.splitlines()[1:] == out.splitlines()[1:] == \
        ["offset,mass_num,mass_den", "0,48,169", "1,36,169"]


def test_cli_flow_window_matches_library():
    doc = cli_json("flow", "window", "--spec", "odometer", "--alpha", "2",
                   "--j", "2", "--res", "5", "--zmax", "4",
                   "--format", "json")
    assert doc["meta"]["max_lo"] == "1/1"
    assert doc["meta"]["max_hi"] == "9/8"
    assert doc["data"]["0"]["lo"] == "1/1"
    assert doc["data"]["4"]["lo"] == "7/8"


# ------------------------------------------------------ cli: build and io

def test_cli_build_output_is_dump_stage(tmp_path):
    target = tmp_path / "stage.json"
    code, out, err = run_cli("build", "--spec", "staircase", "--stage", "4",
                             "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == dump_stage(ST2, 4) + "\n"


def test_cli_out_writes_file_and_silences_stdout(tmp_path):
    target = tmp_path / "orbit.json"
    code, out, err = run_cli("orbit", "--spec", "odometer", "--x", "0/1",
                             "--steps", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["data"] == ["0/1", "1/2", "1/4"]


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_cli_out_unwritable_exit_2(tmp_path, where):
    target = tmp_path / "no" / "such" / "x.json" if where == "missing_dir" else tmp_path
    code, out, err = run_cli("orbit", "--spec", "odometer", "--x", "0/1",
                             "--steps", "2", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_spec_file_round_trip(tmp_path):
    sf = tmp_path / "spec.json"
    sf.write_text(ConstructionSpec.staircase(h1=3).canonical_json())
    doc = cli_json("orbit", "--spec", str(sf), "--x", "0/1", "--steps", "3")
    assert doc["meta"]["spec"] == spec_hash(ConstructionSpec.staircase(h1=3))


def test_cli_random_preset_token():
    doc = cli_json("orbit", "--spec", "random:7", "--x", "0/1", "--steps", "5")
    assert doc["meta"]["spec"] == spec_hash(ConstructionSpec.random_spacers(7))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_name_file_and_classmethod_agree(tmp_path, name):
    # one preset table: the --spec name, a {"preset": name} file and the
    # classmethod give one spec, stage budget included
    doc, token = {"preset": name}, name
    classmethod_spec = (ConstructionSpec.random_spacers(7) if name == "random"
                        else getattr(ConstructionSpec, name)())
    if name == "random":
        doc["seed"], token = 7, "random:7"
    sf = tmp_path / "spec.json"
    sf.write_text(json.dumps(doc))
    assert load_spec(str(sf)) == load_spec(token) == classmethod_spec
    assert classmethod_spec.max_stage == PRESETS[name]["max_stage"]


@pytest.mark.parametrize("token", ["odometer", "chacon", "random:7", "file"])
def test_stage_budget_builds_the_spec_once(tmp_path, monkeypatch, token):
    # the budget goes into the spec data: one spec built and validated,
    # equal to the unbudgeted spec with its max_stage replaced.  A name is
    # then resolved from the memo, the same object; a file is read again
    monkeypatch.setattr(cli, "_SPECS", {})
    named = token != "file"
    if not named:
        token = str(tmp_path / "spec.json")
        Path(token).write_text(ConstructionSpec.staircase(h1=3).canonical_json())
    want = dataclasses.replace(load_spec(token), max_stage=7)
    built = []
    post_init = ConstructionSpec.__post_init__
    monkeypatch.setattr(ConstructionSpec, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    first = load_spec(token, 7)
    assert first == want
    assert len(built) == 1
    again = load_spec(token, 7)
    assert again == want and (again is first) == named
    assert len(built) == 1 + (not named)


def test_spec_memo_rereads_files_and_stores_no_refusal(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_SPECS", {})
    # a spec file is read again on every call: its bytes can change
    sf = tmp_path / "spec.json"
    sf.write_text(ConstructionSpec.staircase(h1=3).canonical_json())
    assert load_spec(str(sf)) == ConstructionSpec.staircase(h1=3)
    sf.write_text(ConstructionSpec.staircase(h1=4).canonical_json())
    assert load_spec(str(sf)) == ConstructionSpec.staircase(h1=4)
    # a file named as a preset wins over the stored preset, and only while it exists
    stored = load_spec("staircase")
    monkeypatch.chdir(tmp_path)
    Path("staircase").write_text(ConstructionSpec.odometer().canonical_json())
    assert load_spec("staircase") == ConstructionSpec.odometer()
    Path("staircase").unlink()
    assert load_spec("staircase") is stored
    # a refusal is never stored: refused again, in the same words
    for token, budget, message in (
            ("random:x", None, "bad random spec 'random:x', expected random:SEED"),
            ("odometer", 0, "--stage-budget must be >= 1")):
        for _ in range(2):
            with pytest.raises(SpecError) as exc:
                load_spec(token, budget)
            assert str(exc.value) == message
    assert list(cli._SPECS) == [("staircase", None)]


def test_stage_budget_refused_after_the_spec(tmp_path):
    # a bad spec is named first, in the words it gets without a budget
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"h1": "2", **_ODO_RULES}))
    listing = tmp_path / "list.json"
    listing.write_text("[1]")
    for token in (str(bad), str(listing), "nope", "random:x"):
        with pytest.raises(SpecError) as alone:
            load_spec(token)
        for budget in (0, 7):
            with pytest.raises(SpecError) as budgeted:
                load_spec(token, budget)
            assert str(budgeted.value) == str(alone.value)
    with pytest.raises(SpecError, match="^--stage-budget must be >= 1$"):
        load_spec("odometer", 0)


# ------------------------------------------------------- cli: exit codes

def test_cli_unknown_spec_exit_2():
    code, out, err = run_cli("orbit", "--spec", "nope", "--x", "0/1",
                             "--steps", "1")
    assert code == 2


_ODO_RULES = {"cut_rule": {"kind": "constant", "value": 2},
              "spacer_rule": {"kind": "none"}}


@pytest.mark.parametrize("spec", [
    {"h1": "2", **_ODO_RULES},
    {"h1": True, **_ODO_RULES},
    {"h1": 2, "cut_rule": {"value": 2}, "spacer_rule": {"kind": "none"}},
    {"h1": 2, "cut_rule": {"kind": "constant", "value": 2.0},
     "spacer_rule": {"kind": "none"}},
    {"h1": 2, "base_width": 0.5, **_ODO_RULES},
    [2, {"kind": "constant", "value": 2}, {"kind": "none"}],
], ids=["h1_string", "h1_bool", "rule_without_kind", "float_cut_value",
        "float_base_width", "top_level_list"])
def test_cli_malformed_spec_exit_2(tmp_path, spec):
    sf = tmp_path / "spec.json"
    sf.write_text(json.dumps(spec))
    code, out, err = run_cli("build", "--spec", str(sf), "--stage", "3")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and "internal error" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_validation_refusal_exit_2():
    code, out, err = run_cli("return-profile", "--spec", "odometer",
                             "--j", "5", "--res", "2", "--zmax", "1")
    assert code == 2
    assert "1 <= j <= J" in err
    # block matrices refuse j > J with the same message whatever the spec
    for argv in (
            ("--kind", "product", "--spec-a", "staircase", "--spec-b", "staircase"),
            ("--kind", "product", "--spec-a", "odometer", "--spec-b", "odometer"),
            ("--kind", "graph", "--spec", "staircase", "--k", "1"),
            ("--kind", "empirical", "--spec-a", "odometer", "--spec-b",
             "odometer", "--x-a", "0/1", "--x-b", "0/1", "-N", "8")):
        code, out, err = run_cli("joining", "blocks", *argv, "--j", "4",
                                 "--res", "3")
        assert code == 2 and out == ""
        assert err == "error: need 1 <= j <= J, got j=4, J=3\n"
    code, out, err = run_cli("joining", "disperse", "--spec-a", "odometer",
                             "--spec-b", "odometer", "--x-a", "0/1",
                             "--x-b", "0/1", "-N", "8", "--z", "0,0",
                             "--n-list", "0", "--j", "4", "--res", "3")
    assert code == 2
    assert err == "error: need 1 <= j <= J, got j=4, J=3\n"
    # step sizes below 1 are refused as for the empirical matrix: before,
    # --step-a 0 divided by zero (exit 4) and -1 escaped asking for --res
    for step in ("0", "-1"):
        code, out, err = run_cli("joining", "disperse", "--spec-a", "odometer",
                                 "--spec-b", "odometer", "--x-a", "0/1",
                                 "--x-b", "0/1", "-N", "8", "--z", "0,0",
                                 "--n-list", "0", "--j", "2", "--res", "3",
                                 f"--step-a={step}")
        assert code == 2 and out == ""
        assert err == "error: step sizes must be >= 1\n"
    # joining di has no --j: its stages come from --stages
    code, out, err = run_cli("joining", "di", "--kind", "product", "--spec-a",
                             "odometer", "--spec-b", "odometer", "--res", "4",
                             "--stages", "1,2", "--epsilons", "1/2",
                             "--j", "-7")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --j -7" in err


def test_cli_di_refuses_an_empty_epsilon_list():
    for text in ("", ",", " , "):
        code, out, err = run_cli("joining", "di", "--kind", "product", "--spec-a", "odometer",
                                 "--spec-b", "odometer", "--res", "4", "--stages", "1,2",
                                 "--epsilons", text)
        assert (code, out, err) == (2, "", "error: --epsilons is empty\n")
    code, out, err = run_cli("joining", "di", "--kind", "product", "--spec-a", "odometer",
                             "--spec-b", "odometer", "--res", "4", "--stages", "1,2",
                             "--epsilons", "1/4,x")
    assert (code, out) == (2, "") and err.startswith("error: cannot parse rational 'x'")


def test_cli_build_past_budget_names_the_stage():
    # the refusal names the stage asked for, not the first stage past the
    # budget that building up to it would reach
    code, out, err = run_cli("build", "--spec", "odometer", "--stage", "40")
    assert code == 2 and out == ""
    assert err == "error: stage 40 exceeds the spec stage budget 12\n"
    code, out, err = run_cli("build", "--spec", "odometer", "--stage", "4",
                             "--stage-budget", "3")
    assert code == 2
    assert err == "error: stage 4 exceeds the spec stage budget 3\n"
    with pytest.raises(SpecError, match="stage 6 exceeds"):
        dump_stage(ConstructionSpec.staircase(h1=2, max_stage=5), 6)


def test_cli_orbit_escape_exit_3():
    code, out, err = run_cli("orbit", "--spec", "odometer", "--x", "1/3",
                             "--steps", "9999", "--stage-budget", "3")
    assert code == 3 and out == ""
    assert err.endswith("; retry with a larger --stage-budget\n")
    assert err.count("\n") == 1


def test_cli_orbit_refuses_too_many_steps_before_any_cursor(monkeypatch):
    built = []

    def cursor(*a, **kw):
        built.append(a)
        raise SpecError("cursor built")

    monkeypatch.setattr("rankone.transform.Cursor", cursor)
    argv = ("orbit", "--spec", "odometer", "--x", "1/3", "--stage-budget", "30",
            "--steps")
    assert run_cli(*argv, str(cli.MAX_STEPS + 1)) == (
        2, "", f"error: {cli.MAX_STEPS + 1} steps requested, more than the limit "
               f"of {cli.MAX_STEPS}\n")
    assert run_cli(*argv, "10000000")[0] == 2
    assert built == []
    # the limit itself is allowed: the command goes on to build its cursor
    assert run_cli(*argv, str(cli.MAX_STEPS)) == (2, "", "error: cursor built\n")
    assert len(built) == 1


EMPIRICAL_ESCAPE = ("joining", "blocks", "--kind", "empirical",
                    "--spec-a", "odometer", "--spec-b", "odometer",
                    "--x-a", "1/3", "--x-b", "0", "-N", "64", "--j", "2")


@pytest.mark.parametrize("argv, flags", [
    # the empirical and dispersion cursors stop at min(--res, stage budget)
    (EMPIRICAL_ESCAPE + ("--res", "3", "--stage-budget", "12"), "--res"),
    (EMPIRICAL_ESCAPE + ("--res", "3"), "--res"),
    (EMPIRICAL_ESCAPE + ("--res", "8", "--stage-budget", "3"), "--stage-budget"),
    (EMPIRICAL_ESCAPE + ("--res", "3", "--stage-budget", "3"),
     "--res and --stage-budget"),
    (("joining", "disperse", "--spec-a", "odometer", "--spec-b", "odometer",
      "--x-a", "1/3", "--x-b", "0", "-N", "64", "--z", "0,0", "--n-list", "0",
      "--j", "2", "--res", "3", "--stage-budget", "12"), "--res"),
    (("flow", "bands", "--spec", "odometer", "--alpha", "2", "--j", "2",
      "--res", "3", "--side", "right", "--offsets", "0,1", "--matrix",
      "empirical", "--x-a", "0/1", "--x-b", "1/3", "-N", "64"), "--res"),
])
def test_cli_escape_names_the_bounding_flag(argv, flags):
    code, out, err = run_cli(*argv)
    assert code == 3 and out == ""
    assert err.startswith("error: orbit point ")
    assert err.endswith(f"; retry with a larger {flags}\n")
    assert err.count("\n") == 1


def test_cli_bad_subcommand_exit_2():
    code, out, err = run_cli("no-such-command")
    assert code == 2


def test_cli_help_exit_0():
    code, out, err = run_cli("--help")
    assert code == 0


def test_cli_oversized_ranges_exit_2_in_a_capped_child():
    # without the entry limit these end in MemoryError (exit 4) or run for
    # minutes; the child's 512 MB address-space cap keeps such a regression
    # from taking the host's memory
    script = "\n".join((
        "import contextlib, io, json",
        "from rankone.cli import main",
        "codes = []",
        "for argv in (",
        "        ['return-profile', '--spec', 'odometer', '--j', '1', '--res', '3',",
        "         '--zmax', '100000000'],",
        "        ['correlate', '--spec', 'odometer', '--j', '1', '--res', '3',",
        "         '--A', '0', '--B', '0', '--mmax', '100000000'],",
        "        ['flow', 'window', '--spec', 'odometer', '--alpha', '2',",
        "         '--j', '1', '--res', '3', '--zmax', '100000000']):",
        "    out, err = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
        "        codes.append((main(argv), out.getvalue(), err.getvalue()))",
        "print(json.dumps(codes))",
    ))
    proc, _ = run_capped(["-c", script])
    assert proc.returncode == 0, proc.stderr
    limit_text = f"more than the limit of {stats.MAX_ENTRIES}\n"
    assert json.loads(proc.stdout) == [
        [2, "", f"error: 100000001 entries requested, {limit_text}"],
        [2, "", f"error: 100000001 entries requested, {limit_text}"],
        [2, "", "error: --zmax 100000000 with q=1 needs a return profile of "
                f"100000002 entries, {limit_text}"]]


# A level set is an int with one bit per level up to its highest: level
# 4e12 of staircase stage 16, or the copy above a 10^12-level spacer, asked
# for a 10^12-bit int, and each of these ended in MemoryError (exit 4).
_HUGE_SPACER = {"h1": 2, "cut_rule": {"kind": "constant", "value": 2},
                "spacer_rule": {"kind": "list", "rows": [[10**12, 0], [0, 0], [0, 0]]},
                "max_stage": 4}
_DEEP = ("--j", "16", "--res", "16", "--stage-budget", "16")
OVERSIZED_BITSETS = {
    "correlate-high-level": ("correlate", "--spec", "staircase", "--A", "4000000000000",
                             "--B", "0", "--mmax", "3", *_DEEP),
    "blum-hanson-high-level": ("blum-hanson", "--spec", "staircase", "--weights", "WEIGHTS",
                               "--f", "4000000000000", *_DEEP),
    "return-profile-huge-spacer": ("return-profile", "--spec", "SPEC", "--j", "1",
                                   "--res", "3", "--zmax", "5"),
    "correlate-huge-spacer": ("correlate", "--spec", "SPEC", "--A", "0", "--B", "1",
                              "--j", "1", "--res", "3", "--mmax", "5"),
    "graph-blocks-huge-spacer": ("joining", "blocks", "--kind", "graph", "--spec", "SPEC",
                                 "--k", "1", "--j", "1", "--res", "3"),
}


@pytest.mark.parametrize("name", list(OVERSIZED_BITSETS))
def test_cli_oversized_level_bitset_exit_2_in_a_capped_child(tmp_path, name):
    files = {"SPEC": tmp_path / "spec.json", "WEIGHTS": tmp_path / "w.json"}
    files["SPEC"].write_text(json.dumps(_HUGE_SPACER))
    files["WEIGHTS"].write_text(json.dumps({"0": "1/2", "1": "1/2"}))
    argv = [str(files.get(a, a)) for a in OVERSIZED_BITSETS[name]]
    proc, _ = run_capped(["-m", "rankone.cli", *argv])
    assert (proc.returncode, proc.stdout) == (2, "")
    need = 4 * 10**12 + 1 if "high-level" in name else 10**12 + 3
    assert proc.stderr == (f"error: {need} level bits requested, more than the limit "
                           f"of {MAX_BITS}\n")


def test_cli_deep_low_levels_are_low_bits():
    # level 0 of stage 16 is bit 0 however tall the stage: no refusal, and
    # the bytes recorded before the limit
    code, out, err = run_cli("correlate", "--spec", "staircase", "--A", "0", "--B", "1",
                             "--mmax", "3", *_DEEP)
    assert code == 0, err
    assert sha256(out.encode()).hexdigest() == \
        "53a8d576bd8b377ac0c1bd1b7330e4586d676cbc4d376dc1aadfb840abd0a33d"


def test_cli_deep_copies_of_a_coarse_level_read_at_the_coarse_stage(tmp_path):
    # the stage-16 copies of stage-15 level 0 reach past MAX_BITS bits, so
    # the list goes as intervals, which make stage-15 level 0 again: the
    # document is the one for that level named at stage 15, but for its j
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"0": "1/2", "3": "1/2"}))
    copies = build_stage(ConstructionSpec.staircase(max_stage=16), 16).offsets
    assert copies[-1] >= MAX_BITS
    docs = [cli_json("blum-hanson", "--spec", "staircase", "--weights", str(weights),
                     "--f", levels, "--j", j, "--res", "16", "--stage-budget", "16")
            for levels, j in ((",".join(map(str, copies)), "16"), ("0", "15"))]
    assert (docs[0]["meta"].pop("j"), docs[1]["meta"].pop("j")) == (16, 15)
    assert docs[0] == docs[1]
    assert docs[0]["data"]["mean"] != "0/1"


# ----------------------------------------------- cli: one parser, formats

def test_cli_parser_built_on_first_main_call_not_at_import():
    script = "\n".join((
        "import contextlib, io",
        "import rankone.cli as cli",
        "assert cli._parser is None",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    cli.main(['orbit', '--spec', 'odometer', '--x', '0', '--steps', '1'])",
        "assert cli._parser is not None",
    ))
    src = str(Path(rankone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_main_reuses_one_parser(tmp_path, monkeypatch):
    # a mixed run in one process: every call gives the exit code, stdout,
    # stderr and --out file it gives alone, and the parser is built once
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({"0": "1/2", "1": "1/2"}))
    target = tmp_path / "out.json"
    product = ("--kind", "product", "--spec-a", "staircase",
               "--spec-b", "chacon", "--res", "4")
    calls = [
        (0, ("build", "--spec", "chacon", "--stage", "3")),
        (0, ("orbit", "--spec", "staircase", "--x", "1/7", "--steps", "6")),
        (0, ("return-profile", "--spec", "odometer", "--j", "1", "--res", "4",
             "--zmax", "3")),
        (0, ("return-profile", "--spec", "staircase", "--j", "2", "--res", "5",
             "--zmax", "4", "--format", "json")),
        (0, ("correlate", "--spec", "odometer", "--A", "0", "--B", "0,1",
             "--mmax", "3", "--res", "4", "--format", "csv")),
        (0, ("blum-hanson", "--spec", "odometer", "--weights", str(wf),
             "--f", "0", "--res", "4")),
        (0, ("joining", "blocks", "--kind", "graph", "--spec", "odometer",
             "--k", "1", "--j", "1", "--res", "3", "--format", "json")),
        (0, ("joining", "light", *product, "--j", "2", "--epsilon", "1/4")),
        (0, ("joining", "di", *product, "--stages", "1,2",
             "--epsilons", "1/4,1/2")),
        (0, ("joining", "disperse", "--spec-a", "odometer", "--spec-b",
             "odometer", "--x-a", "0/1", "--x-b", "0/1", "-N", "16",
             "--z", "0,0", "--n-list", "0,1", "--j", "2", "--res", "6")),
        (0, ("joining", "trivialize", *product, "--j", "3", "--delta", "1/4",
             "--w", "0", "--shifts", "0,1", "--A", "0", "--B", "0",
             "--cond-stage", "1")),
        (0, ("flow", "window", "--spec", "odometer", "--alpha", "2",
             "--j", "2", "--res", "4", "--zmax", "3")),
        (0, ("flow", "bands", "--spec", "odometer", "--alpha", "2", "--j", "2",
             "--res", "4", "--side", "right", "--offsets", "0,1",
             "--format", "json")),
        (2, ("orbit", "--spec", "odometer", "--x", "0/1")),
        (2, ("orbit", "--spec", "nope", "--x", "0/1", "--steps", "1")),
        (3, ("orbit", "--spec", "odometer", "--x", "1/3", "--steps", "9999",
             "--stage-budget", "3")),
        (0, ("orbit", "--spec", "odometer", "--x", "0/1", "--steps", "2",
             "--out", str(target))),
        (0, ("return-profile", "--spec", "odometer", "--j", "1", "--res", "4",
             "--zmax", "3")),
    ]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)

    def run(argv):
        target.unlink(missing_ok=True)
        code, out, err = run_cli(*argv)
        return code, out, err, target.read_text() if target.exists() else None

    together = [run(argv) for _, argv in calls]
    assert len(built) == 1
    assert [r[0] for r in together] == [code for code, _ in calls]
    assert together[-2][3] is not None and together[-2][1] == ""
    for (_, argv), seen in zip(calls, together):
        cli._parser = None
        assert run(argv) == seen, argv


# The five commands that print CSV or JSON, on small inputs: the sha256 of
# each document in each format.  bench/digests.json pins only the default
# format of each command.
FORMAT_MATRIX = {
    ("return-profile", "--spec", "staircase", "--j", "2", "--res", "5",
     "--zmax", "6"): (
        "b0fc337e824a1c3999e026466e7f8a92eb2e07cf095584ba9d29e2b31e5c0f9c",
        "30caee4331d1ef5ea65a54127a6625475c47743be5322e0e0ec77debaf1ece72"),
    ("correlate", "--spec", "chacon", "--A", "0", "--B", "0,1", "--j", "2",
     "--mmax", "5", "--res", "4"): (
        "8923d7f81813dc1f924c4f9aeacf79176350970fc20379aa1c64c468b864bf5b",
        "46ce1916128afdb018f45f6d2f744fd4b0fe23819937238e833b1b046c2be8cd"),
    ("joining", "blocks", "--kind", "product", "--spec-a", "odometer",
     "--spec-b", "staircase", "--j", "2", "--res", "4"): (
        "294dbae90d47b6c21635667fdac769c2f972c81e6a073484a4d49a21e59283d5",
        "269cbb70d4261f7056bf6a7f2f19c7385352f03706c0d8d2f04e738b7d16c059"),
    ("flow", "window", "--spec", "odometer", "--alpha", "2", "--grid", "2",
     "--j", "2", "--res", "5", "--zmax", "4"): (
        "f1e7fed875da650a92774a911217e548c6b3d8d1b6529405446993e42f87181b",
        "03ed84a629c1fb2e5979ae0c7dfc0ad4da93c5217a170be1133c8e9e6612bb9a"),
    ("flow", "bands", "--spec", "staircase", "--alpha", "3/2", "--j", "2",
     "--res", "4", "--side", "right", "--offsets", "0,1"): (
        "614bc8e2a2b6c54af4d1bea3579820d792be55d18fe6285aff37d74b4e28bb4f",
        "7b3d9cd71c774e2e12d92b4ecda4ca7df156b5ce109f6faddd603f978f38a542"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", list(FORMAT_MATRIX), ids=lambda argv: "-".join(
    a for a in argv[:2] if not a.startswith("-")))
def test_cli_format_matrix_bytes(argv, fmt):
    code, out, err = run_cli(*argv, "--format", fmt)
    assert code == 0, err
    digest = FORMAT_MATRIX[argv][0 if fmt == "csv" else 1]
    assert sha256(out.encode()).hexdigest() == digest


# Bound tables that cross h_J, for level unions and for sets cut into
# several piece classes (`--j 5 --res 4`: stage-5 levels are no union of
# stage-4 levels; these were imaged through power_image when recorded), in
# both formats: sha256 of stdout, recorded when every entry was built as
# its own MeasureBound and rendered from its Fractions.
BOUND_TABLE_PINS = {
    ("return-profile", "--spec", "staircase", "--j", "2", "--res", "6",
     "--zmax", "450"): (
        "28c1351ca6d8005f43159299d5e1bb79253fe41afbc9c1ed7fc85c8ef2ca75d9",
        "5b51284f23f210f4ae4b492dcf8c9a2801773b687a2cda5c0e69c7746e66d6bc"),
    ("return-profile", "--spec", "random:5", "--j", "1", "--res", "4", "--zmax", "90"): (
        "13a7bc2327a90248128fd872d0c04c707e4aacf16cca9402cb76fdf4c4215729",
        "20a9fe7912feddd19e5a3d5a99eb58befb0f97b049e16177fe7d95658462e85e"),
    ("correlate", "--spec", "staircase", "--A", "0,2", "--B", "1,3", "--j", "3",
     "--res", "5", "--mmax", "90"): (
        "c5254f0a466539994e20ca488de6ce9091e281e16337215cff633d6d1b7becbc",
        "36a3bcf501b51876112677d296c96c83eb66404c1af5386c2524a8d9282ee0c6"),
    ("correlate", "--spec", "staircase", "--A", "0,3,17", "--B", "0,1,2,3", "--j", "5",
     "--res", "4", "--mmax", "30"): (
        "43e7ff371dd4ffa26a0abb5db1e0887bf3f4d59185ba21570635b745a340eeca",
        "1fd17076d71fe7766cbaef627417c67f489237891ceecb50a037e31a509f330f"),
    ("flow", "window", "--spec", "chacon", "--alpha", "3/2", "--grid", "3", "--j", "2",
     "--res", "5", "--zmax", "130"): (
        "9e3c5ebf918d383145efaa099cae0718ed28fdc487898e245b31d2f6b2923ed8",
        "275de25ddaf83f19a7ed0a4d9a3e7b43e611f1689849ea6f650bdff7e61c8f2f"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", list(BOUND_TABLE_PINS), ids=[
    "return-profile-past-hJ", "return-profile-random", "correlate-level-unions",
    "correlate-interval-path", "flow-window-past-hJ"])
def test_cli_bound_table_bytes_pinned(argv, fmt):
    code, out, err = run_cli(*argv, "--format", fmt)
    assert code == 0, err
    digest = BOUND_TABLE_PINS[argv][0 if fmt == "csv" else 1]
    assert sha256(out.encode()).hexdigest() == digest


# Block listings: sha256 of stdout, recorded when `joining light` listed
# its light set as a list of BlockIndex tuples and `joining blocks` sorted
# and rendered every block's Fraction.  The last is the 159,601-block
# (4.4 MB) light listing of a stage-6 graph matrix.
_PRODUCT = ("--kind", "product", "--spec-a", "staircase", "--spec-b", "chacon")
LISTING_PINS = {
    "light-product-all-light": (
        ("joining", "light", *_PRODUCT, "--j", "4", "--res", "5", "--epsilon", "1/4"),
        "8890e17df695ca19855a21221284155491b00782a9ba3ddacd92f177cb2cef6d"),
    "light-product-none-light": (
        ("joining", "light", *_PRODUCT, "--j", "4", "--res", "5", "--epsilon", "1/1000"),
        "61cd66989b3243c7e78b5d4381ea3d553c4591cc65dff442c9d2267988e7e271"),
    "light-graph": (
        ("joining", "light", "--kind", "graph", "--spec", "staircase", "--k", "1",
         "--j", "4", "--res", "7", "--epsilon", "1/2"),
        "88785945a9d155883285bff85a70511e3e37fb63a38cc6b5acfb195878ba840c"),
    "light-empirical": (
        ("joining", "light", "--kind", "empirical", "--spec-a", "staircase", "--spec-b",
         "staircase", "--x-a", "0/1", "--x-b", "1/3", "-N", "3000", "--j", "3", "--res", "10",
         "--stage-budget", "10", "--epsilon", "1/4"),
        "9afb5cfbef99f564c49b8d155888cd70e8ae6b65cbfe7ea72d1dbf9ce21967b3"),
    "blocks-product-json": (
        ("joining", "blocks", *_PRODUCT, "--j", "4", "--res", "6", "--format", "json"),
        "c69821668c7336b28510d5eeaeec884703fd13327bdc52283081219498adfc0e"),
    "blocks-product-csv": (
        ("joining", "blocks", *_PRODUCT, "--j", "4", "--res", "6", "--format", "csv"),
        "42c2963fe1a394c44c9c7cd793851ed138f30a66abafb6f7fc3810194f95ea2f"),
    "light-graph-stage-6": (
        ("joining", "light", "--kind", "graph", "--spec", "staircase", "--k", "1",
         "--j", "6", "--res", "8", "--epsilon", "1/2"),
        "843214a126d2b69971752a8a3a41cee4e11009b5a7246ddec8a12c66b5ffae80"),
}


@pytest.mark.parametrize("name", list(LISTING_PINS))
def test_cli_block_listing_bytes_pinned(name):
    argv, digest = LISTING_PINS[name]
    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert sha256(out.encode()).hexdigest() == digest


# Every command that prints JSON, on small inputs, including those the
# benchmark catalogue never runs: each document must be printed exactly as
# the standard library prints the value it parses to.
JSON_COMMANDS = {
    "build": ("build", "--spec", "staircase", "--stage", "4"),
    "orbit": ("orbit", "--spec", "staircase", "--x", "1/7", "--steps", "6"),
    "blum-hanson": ("blum-hanson", "--spec", "odometer", "--weights", "WEIGHTS",
                    "--f", "0", "--res", "4"),
    "joining-light-product": (
        "joining", "light", "--kind", "product", "--spec-a", "staircase",
        "--spec-b", "chacon", "--j", "2", "--res", "4", "--epsilon", "1/4"),
    "joining-light-graph": (
        "joining", "light", "--kind", "graph", "--spec", "staircase", "--k",
        "1", "--j", "3", "--res", "6", "--epsilon", "1/64"),
    "joining-di": ("joining", "di", "--kind", "graph", "--spec", "staircase",
                   "--k", "1", "--res", "5", "--stages", "2,3",
                   "--epsilons", "1/4,1/2"),
    "joining-disperse": (
        "joining", "disperse", "--spec-a", "odometer", "--spec-b", "odometer",
        "--x-a", "0/1", "--x-b", "0/1", "-N", "16", "--z", "0,0",
        "--n-list", "0,1", "--j", "2", "--res", "6"),
    "joining-trivialize": (
        "joining", "trivialize", "--kind", "product", "--spec-a", "staircase",
        "--spec-b", "chacon", "--j", "3", "--res", "5", "--delta", "1/4",
        "--w", "0", "--shifts", "0,1", "--A", "0", "--B", "0",
        "--cond-stage", "1"),
    **{"-".join(a for a in argv[:2] if not a.startswith("-")) + "-json":
       (*argv, "--format", "json") for argv in FORMAT_MATRIX},
}


@pytest.mark.parametrize("name", list(JSON_COMMANDS))
def test_cli_json_documents_are_fixed_points(name, tmp_path):
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({"0": "1/2", "1": "1/2"}))
    argv = [str(wf) if a == "WEIGHTS" else a for a in JSON_COMMANDS[name]]
    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert out == oracle_json(json.loads(out)) + "\n"


# Library functions that no command reaches: each stays in the library as
# a test oracle of the path that replaced it.  Should a command come to
# route through one, its speed matters again, and this test says so.
ORACLE_ONLY = ("rankone.transform.power_image", "rankone.averaging.average_apply",
               "rankone.measure.StepFunction.add", "rankone.measure.set_intersection")


def test_commands_never_reach_the_oracle_only_functions(tmp_path):
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({"0": "1/2", "1": "1/2"}))
    argvs = [[str(wf) if a == "WEIGHTS" else a for a in argv]
             for argv in [*JSON_COMMANDS.values(), *FORMAT_MATRIX]]
    with contextlib.ExitStack() as stack:
        for name in ORACLE_ONLY:
            stack.enter_context(mock.patch(name, side_effect=AssertionError(name)))
        patched = [run_cli(*argv) for argv in argvs]
    for argv, got in zip(argvs, patched):
        assert got[0] == 0, (argv, got[2])
        assert got == run_cli(*argv), argv
