"""Hypothesis fuzz of the command line: small requests to every subcommand.

Each request parses (every required flag is present), but its values may
be out of range: zero and negative stages, levels and step sizes, j > res,
rationals that do not parse, unknown specs and --out paths that cannot be written.
Stages stay <= 6 and --stage-budget <= 8, so no request allocates much.
The contract checked: exit code 0, 2 or 3, never a traceback, and on a
non-zero exit exactly one line on stderr.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankone.cli import main

COMMANDS = ("build", "orbit", "return-profile", "correlate", "blum-hanson",
            "joining blocks", "joining light", "joining di",
            "joining disperse", "joining trivialize", "flow window",
            "flow bands")


def among(*values):
    return st.sampled_from(values)


def maybe(values):
    return st.one_of(st.none(), values)


def flags(**values):
    """--name=value for every value that is not None (=value keeps values
    such as -1/2 from being read as flags)."""
    out = []
    for name, value in values.items():
        if value is not None:
            out.append(f"--{name.replace('_', '-')}={value}")
    return out


@st.composite
def requests(draw, weights, outs):
    # Each value is drawn out of range with probability 1/odds, the odds
    # drawn per request, so well formed requests, requests with one bad
    # value and wholly bad ones all occur.
    odds = draw(among(1, 4, 12, 10**6))

    def pick(valid, invalid):
        return draw(invalid if draw(st.integers(1, odds)) == 1 else valid)

    def spec():
        return pick(among("odometer", "staircase", "chacon", "random:3"),
                    among("random:x", "nope"))

    def frac(valid, invalid=among("-1/2", "1/0", "abc", "")):
        return pick(among(*valid), invalid)

    def levels():
        return pick(among("0", "1", "0,1"), among("-1", "x", ",", "40"))

    def count(lo, hi):
        return pick(st.integers(lo, hi), st.integers(lo - 2, lo - 1))

    res = pick(st.integers(1, 6), st.integers(-1, 0))
    # matrix stages stop at 5: a product block dict holds h_j^2 entries
    j = pick(st.integers(1, max(1, min(res, 5))), among(-1, 0, res + 1))

    def matrix(with_j=True):
        kind = draw(among("product", "graph", "empirical"))
        argv = flags(kind=kind, res=res, j=j if with_j else None)
        if kind == "graph":
            return argv + flags(spec=spec(), k=draw(st.integers(-2, 8)))
        argv += flags(spec_a=spec(), spec_b=spec())
        if kind == "empirical":
            argv += flags(x_a=frac(["0/1", "1/3"]), x_b=frac(["0/1", "1/2"]),
                          step_a=count(1, 3), step_b=count(1, 3))
            argv.append(f"-N{count(1, 64)}")
        return argv

    cmd = draw(among(*COMMANDS))
    argv = cmd.split()
    if cmd == "build":
        argv += flags(spec=spec(), stage=res)
    elif cmd == "orbit":
        argv += flags(spec=spec(), x=frac(["0/1", "1/2", "1/3", "2/3"]),
                      steps=count(0, 40))
    elif cmd == "return-profile":
        argv += flags(spec=spec(), j=j, res=res, zmax=count(0, 30))
    elif cmd == "correlate":
        argv += flags(spec=spec(), A=levels(), B=levels(), mmax=count(0, 4),
                      j=j, res=res)
    elif cmd == "blum-hanson":
        argv += flags(spec=spec(), weights=pick(among(weights[0]),
                                                among(*weights[1:])),
                      f=levels(), j=j, res=res)
    elif cmd == "joining blocks":
        argv += matrix()
    elif cmd == "joining light":
        argv += matrix()
        argv += flags(epsilon=frac(["1/4", "1/2"], among("0", "-1/2", "x")))
    elif cmd == "joining di":
        argv += matrix(with_j=False)
        argv += flags(stages=pick(among("1,2", "1,3"), among("0,1", "x", "5,9")),
                      epsilons=pick(among("1/4,1/2"), among("1/2", "0,1/2", "a")))
    elif cmd == "joining disperse":
        argv += flags(spec_a=spec(), spec_b=spec(), x_a=frac(["0/1", "1/3"]),
                      x_b=frac(["0/1", "1/2"]),
                      z=pick(among("0,0", "0,1"), among("1", "-1,0")),
                      n_list=pick(among("0", "0,1,3", "-2"), among("50", "x")),
                      step_a=count(1, 3), step_b=count(1, 3), j=j, res=res)
        argv.append(f"-N{count(1, 64)}")
    elif cmd == "joining trivialize":
        argv += matrix()
        argv += flags(delta=frac(["1/4", "1/10"], among("0", "1", "x")),
                      w=count(0, 2),
                      shifts=pick(among("0", "0,1", "1,2"), among("-1", "0,0", "x")),
                      A=levels(), B=levels(),
                      cond_stage=pick(st.integers(1, max(j, 1)), among(0, j + 1)))
    else:
        argv += flags(spec=spec(), grid=count(1, 3), j=j, res=res,
                      alpha=frac(["2", "3/2", "5/2"], among("1", "1/2", "x")))
        if cmd == "flow window":
            argv += flags(zmax=count(0, 10),
                          q=pick(maybe(st.integers(0, 4)), st.integers(-2, -1)))
        else:
            side = draw(among("right", "left"))
            zbound = pick(st.integers(0, 8), maybe(st.integers(-2, -1)))
            argv += flags(side=side, zbound=zbound if side == "left" else None,
                          offsets=pick(among("0,1,2", "1,3"), among("x", ",")),
                          matrix=draw(among("product", "empirical")),
                          x_a=frac(["0/1", "1/3"]), x_b=frac(["0/1", "1/2"]))
            argv.append(f"-N{count(1, 64)}")
    argv += flags(stage_budget=pick(maybe(st.integers(6, 8)), st.integers(-1, 5)),
                  out=pick(among(None, outs[0]), among(*outs[1:])))
    return argv


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    good = d / "w.json"
    good.write_text(json.dumps({"0": "1/2", "1": "1/2"}))
    bad = d / "bad.json"
    bad.write_text(json.dumps({"0": "1/3"}))
    weights = [str(good), str(bad), str(d / "missing.json"), str(d)]
    outs = [str(d / "out.txt"), str(d / "no" / "dir" / "x.json"), str(d)]
    return weights, outs


def test_cli_fuzz_exit_codes(tmp_path_factory):
    weights, outs = _files(tmp_path_factory)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(requests(weights, outs))
    def check(argv):
        code, _, err = run_cli(argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err and "internal error" not in err, (argv, err)
        if code != 0:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)

    check()
