"""What a process pays for: the modules `import rankone`, `import
rankone.cli` and each command load, the package's lazy exports, and the
command line's parse of each call by its leaf parser.

Module sets are read in a fresh interpreter per case (`run_capped`), since
the test process has long loaded every module.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import cli
from helpers import run_capped

CORE = {"rankone", "rankone.cli", "rankone.construction", "rankone.errors",
        "rankone.measure", "rankone.persist"}
# joinings imports averaging, stats and transform; flow imports joinings
JOININGS = CORE | {"rankone.joinings", "rankone.averaging", "rankone.stats",
                   "rankone.transform"}

LOADED = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'rankone' or m.startswith('rankone.'))))\n")


def loaded_after(script):
    proc, _ = run_capped(["-c", script + LOADED])
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_rankone_loads_no_submodule():
    assert loaded_after("import rankone\n") == {"rankone"}


def test_import_cli_loads_only_the_core():
    assert loaded_after("import rankone.cli\n") == CORE


PRODUCT = ["--kind", "product", "--spec-a", "odometer", "--spec-b", "chacon",
           "--j", "1", "--res", "3"]
COMMANDS = [
    (["build", "--spec", "chacon", "--stage", "2"], CORE),
    (["orbit", "--spec", "odometer", "--x", "1/3", "--steps", "4"],
     CORE | {"rankone.transform"}),
    (["return-profile", "--spec", "staircase", "--j", "2", "--res", "4",
      "--zmax", "3"], CORE | {"rankone.stats"}),
    (["correlate", "--spec", "odometer", "--A", "0", "--B", "1", "--mmax", "2",
      "--res", "3"], CORE | {"rankone.stats"}),
    (["blum-hanson", "--spec", "odometer", "--weights", "{weights}", "--f", "0",
      "--res", "3"], CORE | {"rankone.averaging", "rankone.stats"}),
    (["joining", "blocks", *PRODUCT], JOININGS),
    (["joining", "light", *PRODUCT, "--epsilon", "1/4"], JOININGS),
    (["joining", "di", *PRODUCT[:-4], "--res", "3", "--stages", "1,2",
      "--epsilons", "1/4,1/2"], JOININGS),
    (["joining", "disperse", "--spec-a", "odometer", "--spec-b", "odometer",
      "--x-a", "0", "--x-b", "0", "-N", "8", "--z", "0,0", "--n-list", "0",
      "--j", "1", "--res", "3"], JOININGS),
    (["joining", "trivialize", *PRODUCT, "--delta", "1/4", "--w", "0",
      "--shifts", "0", "--A", "0", "--B", "0", "--cond-stage", "1"], JOININGS),
    (["flow", "window", "--spec", "odometer", "--alpha", "2", "--j", "1",
      "--res", "3", "--zmax", "2"], JOININGS | {"rankone.flow"}),
    (["flow", "bands", "--spec", "odometer", "--alpha", "2", "--j", "1",
      "--res", "3", "--side", "right", "--offsets", "0"],
     JOININGS | {"rankone.flow"}),
]


@pytest.mark.parametrize("argv, modules", COMMANDS,
                         ids=[" ".join(argv[:2]) for argv, _ in COMMANDS])
def test_each_command_loads_only_its_modules(tmp_path, argv, modules):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"0": "1/2", "1": "1/2"}))
    argv = [a.replace("{weights}", str(weights)) for a in argv]
    script = ("import contextlib, io\n"
              "import rankone.cli as cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = cli.main({argv!r})\n"
              "assert code == 0, code\n")
    assert loaded_after(script) == modules


def test_every_export_resolves_to_its_defining_module():
    # in a fresh interpreter: each name loads its module on first access,
    # and rankone.X, `from rankone import X` and `import *` all give the
    # object the defining module holds
    script = (
        "import importlib, rankone\n"
        "from rankone import _EXPORTS\n"
        "assert rankone.__all__ == sorted(_EXPORTS) and len(rankone.__all__) == 63\n"
        "assert set(rankone.__all__) <= set(dir(rankone))\n"
        "for name, mod in _EXPORTS.items():\n"
        "    obj = getattr(rankone, name)\n"
        "    home = importlib.import_module('rankone.' + mod)\n"
        "    assert obj is getattr(home, name), name\n"
        "    assert obj.__module__ == home.__name__, name\n"
        "star = {}\n"
        "exec('from rankone import *', star)\n"
        "assert all(star[n] is getattr(rankone, n) for n in rankone.__all__)\n"
        "from rankone import Cursor, TowerStage, return_profile\n"
        "assert Cursor is importlib.import_module('rankone.transform').Cursor\n"
        "try:\n"
        "    rankone.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert \"has no attribute 'no_such_name'\" in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n")
    proc, _ = run_capped(["-c", script])
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------- leaf-parser dispatch

def outcome(fn, argv):
    """(exit code or namespace less the command words, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(fn(list(argv)))
            result = {k: v for k, v in ns.items() if k not in ("command", "subcommand")}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# (argv, exit code): argv that names no leaf goes to the full tree; an
# unrecognized flag after a leaf is refused as the tree refuses it
UNPARSED = [
    ([], 2), (["--help"], 0), (["-h", "orbit"], 0), (["nope"], 2),
    (["--bogus"], 2), (["joining"], 2), (["joining", "--help"], 0),
    (["joining", "nope"], 2), (["flow"], 2), (["flow", "-h"], 0),
    (["orbit", "--help"], 0), (["joining", "light", "-h"], 0),
    (["orbit", "--spec", "odometer", "--x", "0", "--steps", "1", "--bogus"], 2),
    (["return-profile", "--spec", "staircase", "--j", "2", "--res", "4",
      "--zmax", "3", "extra", "--bogus=1"], 2),
    (["joining", "blocks", *PRODUCT, "--bogus", "x"], 2),
    (["flow", "bands", "--bogus"], 2),
]


def test_unparsed_argv_matches_the_full_tree():
    # in a fresh interpreter: main's exit code and output bytes against
    # the full tree's parse_args, the one parse before leaf dispatch
    script = (
        "import contextlib, io, json, sys\n"
        "import rankone.cli as cli\n"
        "def run(fn, argv):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = fn(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    return code, out.getvalue(), err.getvalue()\n"
        f"cases = {[argv for argv, _ in UNPARSED]!r}\n"
        "tree = cli.build_parser()\n"
        "print(json.dumps([[run(cli.main, a), run(tree.parse_args, a)] for a in cases]))\n")
    proc, _ = run_capped(["-c", script])
    assert proc.returncode == 0, proc.stderr
    for (argv, code), (got, want) in zip(UNPARSED, json.loads(proc.stdout)):
        assert got == want, argv
        assert got[0] == code, argv
        assert (got[1] == "") == (code != 0), argv


LEAVES = [("build",), ("orbit",), ("return-profile",), ("correlate",),
          ("blum-hanson",), ("joining", "blocks"), ("joining", "light"),
          ("joining", "di"), ("joining", "disperse"), ("joining", "trivialize"),
          ("flow", "window"), ("flow", "bands")]
# leaves with every required flag given, so later tokens reach the check
# for unrecognized arguments
COMPLETE = [("build", "--spec", "s", "--stage", "1"),
            ("orbit", "--spec", "s", "--x", "0", "--steps", "1"),
            ("joining", "blocks", "--kind", "graph", "--j", "1", "--res", "2")]
HEADS = LEAVES + COMPLETE + [(), ("joining",), ("flow",), ("nope",), ("-h",),
                             ("orbit", "blocks"), ("joining", "window")]
TOKENS = ["--spec", "odometer", "--spec=chacon", "--sp", "--j", "2", "--res",
          "-3", "--zmax", "x", "--x", "1/3", "--steps", "--kind", "product",
          "graph", "-N", "-N5", "--format", "json", "--bogus", "--he", "-h",
          "--stage-budget", "--side", "left", "--out", "--A", "0,1", "a b"]


@pytest.fixture(scope="module")
def tree():
    return cli.build_parser()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(HEADS), st.lists(st.sampled_from(TOKENS), max_size=10))
def test_leaf_parse_matches_the_full_tree(tree, head, tokens):
    # the namespace (less the command words), or exit code, stdout and
    # stderr of a refusal or of --help
    argv = [*head, *tokens]
    assert outcome(lambda a: cli.parse(tree, a), argv) == \
        outcome(tree.parse_args, argv)


def test_leaves_are_every_command():
    assert sorted(cli.build_parser().leaves) == sorted(LEAVES)


# --------------------------------------------- direct read of exact flags

FLAG_EDITS = ["bad int", "bad choice", "repeat", "flag=value", "abbreviation",
              "negative", "drop required", "odd token"]


LEAF_TREE = cli.build_parser()


def _store_flags(leaf):
    return [a for a in leaf._actions if type(a) is argparse._StoreAction]


def _value(draw, a):
    if a.choices is not None:
        return draw(st.sampled_from(list(a.choices)))
    if a.type is int:
        return str(draw(st.integers(0, 40)))
    return draw(st.sampled_from(["odometer", "1/3", "0,1", "7", "a b", "", "x=1"]))


@st.composite
def leaf_argv(draw):
    """A leaf's command words and every required flag with a valid value,
    a sample of its optional flags, in any order; then at most one edit."""
    words = draw(st.sampled_from(LEAVES))
    acts = _store_flags(LEAF_TREE.leaves[words])
    chosen = [a for a in acts if a.required or draw(st.booleans())]
    pairs = draw(st.permutations([[draw(st.sampled_from(a.option_strings)), _value(draw, a)]
                                  for a in chosen]))
    edit = draw(st.one_of(st.none(), st.sampled_from(FLAG_EDITS)))
    of = {flag: a for a in acts for flag in a.option_strings}
    ints = [p for p in pairs if of[p[0]].type is int]
    choices = [p for p in pairs if of[p[0]].choices is not None]
    required = [p for p in pairs if of[p[0]].required]
    if edit == "bad int" and ints:
        draw(st.sampled_from(ints))[1] = draw(st.sampled_from(["x", "1.5", "", "0x1"]))
    elif edit == "bad choice" and choices:
        draw(st.sampled_from(choices))[1] = "bogus"
    elif edit == "repeat" and pairs:
        flag = draw(st.sampled_from(pairs))[0]
        pairs.append([flag, _value(draw, of[flag])])
    elif edit == "flag=value" and pairs:
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = ["=".join(pairs[i])]
    elif edit == "abbreviation" and pairs:
        p = draw(st.sampled_from(pairs))
        p[0] = p[0][:draw(st.integers(2, len(p[0]) - 1))] if len(p[0]) > 2 else p[0]
    elif edit == "negative" and pairs:
        p = draw(st.sampled_from(pairs))
        p[1] = "-" + (str(draw(st.integers(0, 9))) if of[p[0]].type is int
                      else draw(st.sampled_from(["1", "1/3", "x", "1 2", ""])))
    elif edit == "drop required" and required:
        pairs.remove(draw(st.sampled_from(required)))
    elif edit == "odd token":
        pairs.append([draw(st.sampled_from(["x", "--spec", "-h", "--", "-1"]))])
    return [*words, *(t for p in pairs for t in p)]


def test_flag_read_matches_the_full_tree():
    # against a second tree's parse_args, as outcome compares them; the
    # parse tree's own parse_args is wrapped to count the fallbacks
    tree, oracle, fell_back, read = cli.build_parser(), cli.build_parser(), [], []
    parse_args = tree.parse_args
    tree.parse_args = lambda argv: fell_back.append(1) or parse_args(argv)

    @settings(max_examples=300, deadline=None)
    @given(leaf_argv())
    def check(argv):
        before = len(fell_back)
        assert outcome(lambda a: cli.parse(tree, a), argv) == outcome(oracle.parse_args, argv)
        read.append(len(fell_back) == before)

    check()
    assert len(read) >= 300
    assert 3 * sum(read) >= len(read), f"{sum(read)} of {len(read)} read directly"
