"""Command line front end.

Each command handler turns its flags into library calls and returns its
document: the text of it, or a persist.Table for the commands that take
--format, which main renders in the format asked for.  persist decides
how every document looks.  One argparse parser is built on the first
call to main and reused by every later call in the process.  Argv that
is a leaf's command words (`orbit`, `joining light`) and then exact
--flag value pairs is read straight from that leaf's actions (parse);
any other argv goes to the whole tree, which alone refuses and prints
help.  A preset --spec name is resolved to one spec per process and
stage budget (load_spec).  At import only the modules every command
needs are loaded; each handler imports the rest of what it uses.

Exit codes: 0 success, 2 invalid request (bad flags, a validation refusal
or an --out path that cannot be written), 3 orbit escaped the stage budget,
4 unexpected internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain, islice, starmap
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .construction import MAX_BITS, PRESETS, ConstructionSpec, LevelSet, build_stage, pack_bits
from .errors import OrbitEscaped, SpecError
from .measure import IntervalSet
from .persist import (
    BOUND_COLUMNS,
    Table,
    approx_str,
    block_list,
    bound_json,
    dump_stage,
    frac_str,
    frac_strs,
    parse_frac,
    render_json,
    render_table,
    spec_hash,
)

if TYPE_CHECKING:
    from .joinings import BlockMassMatrix


# (preset name or random:SEED, stage budget) -> its spec: grows as construction._STAGES does
_SPECS: Dict[Tuple[str, Optional[int]], ConstructionSpec] = {}


def load_spec(token: str, stage_budget: Optional[int] = None) -> ConstructionSpec:
    """Resolve a --spec argument: a JSON file path, read on every call and
    winning over a preset name, or a preset name or random:SEED, resolved once
    per budget to one spec that _STAGES finds by identity; no refusal is stored."""
    if is_file := Path(token).is_file():
        try:
            data = json.loads(Path(token).read_text())
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file {token}: invalid JSON: {exc}") from None
    elif spec := _SPECS.get((token, stage_budget)):
        return spec
    elif token in PRESETS and token != "random":
        data = {"preset": token}
    elif token.startswith("random:"):
        try:
            seed = int(token.split(":", 1)[1])
        except ValueError:
            raise SpecError(f"bad random spec {token!r}, expected random:SEED") from None
        data = {"preset": "random", "seed": seed}
    else:
        names = [name for name in PRESETS if name != "random"]
        raise SpecError(
            f"spec {token!r} is neither a file nor one of "
            f"{', '.join(names)}, random:SEED")
    if stage_budget is not None and stage_budget >= 1 and isinstance(data, dict):
        data = {**data, "max_stage": stage_budget}
    spec = ConstructionSpec.from_json(data)  # a bad spec is named before a bad budget
    if stage_budget is not None and stage_budget < 1:
        raise SpecError("--stage-budget must be >= 1")
    return spec if is_file else _SPECS.setdefault((token, stage_budget), spec)


def parse_int_list(text: str, flag: str) -> List[int]:
    try:
        vals = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise SpecError(f"{flag} expects comma separated integers, got {text!r}") from None
    if not vals:
        raise SpecError(f"{flag} is empty")
    return vals


def level_set(spec: ConstructionSpec, j: int, levels: Sequence[int]
              ) -> Union[LevelSet, IntervalSet]:
    """The given stage-j levels as a LevelSet, its bits set straight from the list;
    past MAX_BITS bits as intervals, refused or read at a coarser stage as any set is."""
    st = build_stage(spec, j)
    for i in levels:
        if not 0 <= i < st.height:
            raise SpecError(f"level {i} outside stage {j} (height {st.height})")
    return LevelSet(j, pack_bits(levels)) if max(levels) < MAX_BITS else st.levels_set(levels)


def _weight(v: Union[str, int]) -> Tuple[int, int]:
    """(num, den) of a weight: int() reads an int or "num/den" in decimal digits, and
    parse_frac any other spelling ("0.25"), a zero den or digits past int's limit."""
    num, slash, den = str(v).partition("/")
    den = den if slash else "1"
    try:
        if num.isdecimal() and den.isdecimal() and (d := int(den)):
            return int(num), d
    except ValueError:  # digits past int's limit
        pass
    x = parse_frac(str(v))
    return x.numerator, x.denominator


def _require(args: argparse.Namespace, names: Sequence[str], context: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join(
            ("--" + n.replace("_", "-")) if len(n) > 1 else ("-" + n)
            for n in missing)
        raise SpecError(f"{context} requires {flags}")


# ----------------------------------------------------------------- matrices

def matrix_from_args(args: argparse.Namespace, j: Optional[int] = None) -> BlockMassMatrix:
    """Build the block-mass matrix a subcommand asked for.

    product needs --spec-a/--spec-b, graph --spec/--k, and empirical, the one
    other --kind argparse lets through, --spec-a/--spec-b/--x-a/--x-b/-N.
    The stage defaults to --j but a sweep gives it.
    """
    from .joinings import empirical_joining, graph_blocks, product_blocks
    j = args.j if j is None else j
    budget = args.stage_budget
    if args.kind == "product":
        _require(args, ["spec_a", "spec_b"], "--kind product")
        return product_blocks(load_spec(args.spec_a, budget), load_spec(args.spec_b, budget),
                              j, args.res)
    if args.kind == "graph":
        _require(args, ["spec", "k"], "--kind graph")
        return graph_blocks(load_spec(args.spec, budget), args.k, j, args.res)
    _require(args, ["spec_a", "spec_b", "x_a", "x_b", "N"], "--kind empirical")
    return empirical_joining(
        load_spec(args.spec_a, budget), load_spec(args.spec_b, budget),
        parse_frac(args.x_a), parse_frac(args.x_b), args.N, j, args.res,
        step_a=args.step_a, step_b=args.step_b)


def matrix_meta(m: BlockMassMatrix, **extra: object) -> Dict[str, object]:
    meta = {"kind": m.kind, "j": m.j, "J": m.meta.get("J"),
            "h_a": m.h_a, "h_b": m.h_b,
            "N": m.meta.get("N"), "seeds": m.meta.get("seeds"),
            "residual": frac_str(m.residual),
            "spec_a": spec_hash(m.spec_a), "spec_b": spec_hash(m.spec_b)}
    if "k" in m.meta:
        meta["k"] = m.meta["k"]
    return {**meta, **extra}


# ----------------------------------------------------------------- handlers

def cmd_build(args: argparse.Namespace) -> str:
    spec = load_spec(args.spec, args.stage_budget)
    if args.stage < 1:
        raise SpecError("--stage must be >= 1")
    return dump_stage(spec, args.stage) + "\n"


# Steps `orbit` may take; 10^6 steps cost about 1.2 s and 152 MB.
MAX_STEPS = 1_000_000


def cmd_orbit(args: argparse.Namespace) -> str:
    spec = load_spec(args.spec, args.stage_budget)
    x = parse_frac(args.x)
    if args.steps < 0:
        raise SpecError("--steps must be nonnegative")
    if args.steps > MAX_STEPS:
        raise SpecError(f"{args.steps} steps requested, more than the limit of {MAX_STEPS}")
    from .transform import Cursor
    cur = Cursor(spec, x)
    runs = starmap(frac_strs, cur.point_runs())
    points = list(islice(chain.from_iterable(runs), args.steps + 1))
    return render_json(points, command="orbit", spec=spec_hash(spec),
                       x=frac_str(x), steps=args.steps,
                       refinements=cur.refinements) + "\n"


def cmd_return_profile(args: argparse.Namespace) -> Table:
    from .stats import return_profile
    spec = load_spec(args.spec, args.stage_budget)
    prof = return_profile(spec, args.j, args.res, args.zmax)
    meta = {"command": "return-profile", "spec": spec_hash(spec), "j": args.j,
            "J": args.res, "zmax": args.zmax,
            "degenerate": sorted(prof.degenerate)}
    return Table(("z",) + BOUND_COLUMNS, prof.values, meta)


def cmd_correlate(args: argparse.Namespace) -> Table:
    from .stats import correlation_series
    spec = load_spec(args.spec, args.stage_budget)
    A = level_set(spec, args.j, parse_int_list(args.A, "--A"))
    B = level_set(spec, args.j, parse_int_list(args.B, "--B"))
    series = correlation_series(spec, A, B, args.mmax, args.res)
    meta = {"command": "correlate", "spec": spec_hash(spec), "j": args.j,
            "J": args.res, "mmax": args.mmax,
            "target": frac_str(series.target),
            "normalization": frac_str(series.normalization)}
    return Table(("m",) + BOUND_COLUMNS, series.values, meta)


def cmd_blum_hanson(args: argparse.Namespace) -> str:
    from .averaging import WeightSequence, average_moments, flatness, l2_deviation
    from .stats import _measure
    spec = load_spec(args.spec, args.stage_budget)
    try:
        raw = json.loads(Path(args.weights).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read weights file {args.weights}: {exc}") from None
    # floats are refused: json.loads has already rounded them to binary
    if not isinstance(raw, dict) or {type(v) for v in raw.values()} - {str, int}:
        raise SpecError("weights file must be a JSON object mapping z to num/den or an int")
    try:  # as pairs, so that keys naming one z are refused as duplicates
        ws = [(int(z), *_weight(v)) for z, v in raw.items()]
        D = math.lcm(*(d for _, _, d in ws))
        w = WeightSequence(((z, n * (D // d)) for z, n, d in ws), D)
    except ValueError as exc:
        raise SpecError(f"bad weights file: {exc}") from None
    F = level_set(spec, args.j, parse_int_list(args.f, "--f"))
    M = build_stage(spec, args.res).total
    sq, integral, escaped = average_moments(spec, w, F, args.res)
    mean = _measure(spec, F) / M
    dev = l2_deviation((sq, integral), mean, escaped, M, sup_f=1)
    data = {"deviation_sq": bound_json(dev), "mean": frac_str(mean),
            "mean_approx": approx_str(mean),
            "escaped_hi": frac_str(escaped.hi),
            "flatness": frac_str(flatness(w, 0))}
    return render_json(data, command="blum-hanson", spec=spec_hash(spec),
                       j=args.j, J=args.res,
                       support=list(w.support)) + "\n"


def _check_listing(blocks: int) -> None:
    from .joinings import MAX_BLOCKS
    if blocks > MAX_BLOCKS:
        raise SpecError(f"{blocks} blocks to list, more than the limit of {MAX_BLOCKS}")


def cmd_joining_blocks(args: argparse.Namespace) -> Table:
    m = matrix_from_args(args)
    _check_listing(len(m.masses))
    return Table(("z1", "z2", "num", "den"), m.masses.items(),
                 matrix_meta(m, command="joining blocks"))


def cmd_joining_light(args: argparse.Namespace) -> str:
    from .joinings import light_blocks
    m = matrix_from_args(args)
    rep = light_blocks(m, parse_frac(args.epsilon))
    _check_listing(len(rep.light_set))
    data = {"epsilon": frac_str(rep.epsilon),
            "covered_mass": frac_str(rep.covered_mass),
            "covered_mass_approx": approx_str(rep.covered_mass),
            "total_blocks": rep.total_blocks,
            "heavy_count": rep.heavy_count,
            "light": block_list(rep.light_set.rows(), m.h_b, 2)}
    return render_json(data, **matrix_meta(m, command="joining light")) + "\n"


def cmd_joining_di(args: argparse.Namespace) -> str:
    from .joinings import di_estimate, light_blocks
    stages = parse_int_list(args.stages, "--stages")
    epsilons = [parse_frac(t) for t in args.epsilons.split(",") if t.strip() != ""]
    if not epsilons:
        raise SpecError("--epsilons is empty")
    reports, grid = [], []
    for j in stages:
        m = matrix_from_args(args, j=j)
        for eps in epsilons:
            rep = light_blocks(m, eps)
            reports.append(rep)
            grid.append({"j": j, "epsilon": frac_str(eps),
                         "covered_mass": frac_str(rep.covered_mass)})
    proxy = di_estimate(reports)
    data = {"proxy": frac_str(proxy), "proxy_approx": approx_str(proxy),
            "grid": grid}
    return render_json(data, command="joining di", kind=args.kind,
                       stages=stages,
                       epsilons=[frac_str(e) for e in epsilons],
                       J=args.res) + "\n"


def cmd_joining_disperse(args: argparse.Namespace) -> str:
    from .joinings import BlockIndex, dispersion_experiment
    spec_a, spec_b = (load_spec(t, args.stage_budget) for t in (args.spec_a, args.spec_b))
    z_pair = parse_int_list(args.z, "--z")
    if len(z_pair) != 2:
        raise SpecError("--z expects exactly two integers Z1,Z2")
    rows = dispersion_experiment(
        spec_a, spec_b, parse_frac(args.x_a), parse_frac(args.x_b), args.N,
        BlockIndex(*z_pair), parse_int_list(args.n_list, "--n-list"),
        args.j, args.res, step_a=args.step_a, step_b=args.step_b)
    data = [{"n": r.n, "count": r.conditioning_count,
             "max_mass": frac_str(r.max_mass),
             "residual": frac_str(r.residual),
             "histogram": {f"{z.z1},{z.z2}": frac_str(v) for z, v in r.histogram.items()}}
            for r in rows]
    return render_json(data, command="joining disperse",
                       spec_a=spec_hash(spec_a), spec_b=spec_hash(spec_b),
                       N=args.N, z=list(z_pair), j=args.j, J=args.res) + "\n"


def cmd_joining_trivialize(args: argparse.Namespace) -> str:
    from .averaging import flatness
    from .joinings import columns_and_F, trivialization_check
    m = matrix_from_args(args)
    F = columns_and_F(m, parse_frac(args.delta), args.w,
                      parse_int_list(args.shifts, "--shifts"))
    A = level_set(m.spec_a, args.k2, parse_int_list(args.A, "--A"))
    B = level_set(m.spec_b, args.k2, parse_int_list(args.B, "--B"))
    rec = trivialization_check(m, F, A, B, args.k2)
    data = {"conditional": frac_str(rec.conditional),
            "reference": frac_str(rec.reference),
            "gap": frac_str(rec.gap), "gap_approx": approx_str(rec.gap),
            "display_sum": rec.display_sum and bound_json(rec.display_sum),
            "display_gap": rec.display_gap and bound_json(rec.display_gap),
            "weight_flatness": frac_str(flatness(F.weights, 0)),
            "escape_slack": frac_str(rec.display_sum.width if rec.display_sum else 0),
            "nu_F": frac_str(F.nu_F)}
    return render_json(data, **matrix_meta(m, command="joining trivialize", k_cond=args.k2)) + "\n"


def cmd_flow_window(args: argparse.Namespace) -> Table:
    from .flow import FlowSkeletonSpec, windowed_return_flow
    from .stats import MAX_ENTRIES
    spec = load_spec(args.spec, args.stage_budget)
    fspec = FlowSkeletonSpec(spec, args.grid, parse_frac(args.alpha))
    q = fspec.grid_inverse if args.q is None else args.q
    if q >= 0 and args.zmax + q >= MAX_ENTRIES:
        raise SpecError(f"--zmax {args.zmax} with q={q} needs a return profile of "
                        f"{args.zmax + q + 1} entries, more than the limit of {MAX_ENTRIES}")
    rep = windowed_return_flow(fspec, args.j, args.res, range(args.zmax + 1), q=q)
    meta = {"command": "flow window", "spec": spec_hash(spec),
            "alpha": frac_str(fspec.alpha), "grid": args.grid,
            "q": rep.q, "j": args.j, "J": args.res,
            "max_lo": frac_str(rep.max_bound.lo),
            "max_hi": frac_str(rep.max_bound.hi)}
    return Table(("z",) + BOUND_COLUMNS, rep.values, meta)


def cmd_flow_bands(args: argparse.Namespace) -> Table:
    from .flow import FlowSkeletonSpec, band_masses
    from .joinings import empirical_joining, product_blocks
    spec = load_spec(args.spec, args.stage_budget)
    fspec = FlowSkeletonSpec(spec, args.grid, parse_frac(args.alpha))
    offsets = parse_int_list(args.offsets, "--offsets")
    if args.matrix == "product":
        m = product_blocks(spec, spec, args.j, args.res)
    else:
        _require(args, ["x_a", "x_b", "N"], "--matrix empirical")
        m = empirical_joining(spec, spec, parse_frac(args.x_a),
                              parse_frac(args.x_b), args.N, args.j, args.res,
                              step_a=fspec.alpha.numerator, step_b=fspec.alpha.denominator)
    masses = [band_masses(m, fspec, off, args.side, z_bound=args.zbound)
              for off in offsets]
    meta = matrix_meta(m, command="flow bands", alpha=frac_str(fspec.alpha),
                       grid=args.grid, side=args.side, zbound=args.zbound)
    return Table(("offset", "mass_num", "mass_den"), zip(offsets, masses), meta)


# ------------------------------------------------------------------- parser

def _common(sub: argparse.ArgumentParser, handler: Callable[[argparse.Namespace], object],
            fmt: Optional[str] = None) -> None:
    """The flags every command takes, and the handler that runs it."""
    sub.set_defaults(handler=handler)
    sub.add_argument("--out", help="write the document here instead of stdout")
    if fmt is not None:
        sub.add_argument("--format", choices=("csv", "json"), default=fmt,
                         help=f"output format (default {fmt})")
    sub.add_argument("--stage-budget", type=int, default=None,
                     help="cap on construction stages (overrides max_stage)")


def _matrix_flags(sub: argparse.ArgumentParser, with_j: bool = True) -> None:
    sub.add_argument("--kind", choices=("product", "graph", "empirical"),
                     required=True, help="which joining to realize")
    sub.add_argument("--spec", help="base system (graph kind)")
    sub.add_argument("--spec-a", help="first system (product, empirical)")
    sub.add_argument("--spec-b", help="second system (product, empirical)")
    sub.add_argument("--k", type=int, help="power for the graph joining")
    if with_j:
        sub.add_argument("--j", type=int, required=True, help="block stage")
    sub.add_argument("--res", type=int, required=True, help="resolution stage")
    sub.add_argument("--x-a", help="first orbit start NUM/DEN (empirical)")
    sub.add_argument("--x-b", help="second orbit start NUM/DEN (empirical)")
    sub.add_argument("-N", type=int, dest="N", help="tick count (empirical)")
    sub.add_argument("--step-a", type=int, default=1)
    sub.add_argument("--step-b", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rankone",
        description="Exact rational experiments on rank-one "
                    "cutting-and-stacking systems.")
    sp = p.add_subparsers(dest="command", required=True)

    b = sp.add_parser("build", help="serialize construction stages")
    b.add_argument("--spec", required=True)
    b.add_argument("--stage", type=int, required=True)
    _common(b, cmd_build)

    o = sp.add_parser("orbit", help="iterate a point exactly")
    o.add_argument("--spec", required=True)
    o.add_argument("--x", required=True, help="start NUM/DEN")
    o.add_argument("--steps", type=int, required=True)
    _common(o, cmd_orbit)

    r = sp.add_parser("return-profile", help="two-sided return time bounds")
    r.add_argument("--spec", required=True)
    r.add_argument("--j", type=int, required=True)
    r.add_argument("--res", type=int, required=True)
    r.add_argument("--zmax", type=int, required=True)
    _common(r, cmd_return_profile, fmt="csv")

    c = sp.add_parser("correlate", help="bounds on mu(A meet T^m B)")
    c.add_argument("--spec", required=True)
    c.add_argument("--A", required=True, help="comma separated level indices")
    c.add_argument("--B", required=True, help="comma separated level indices")
    c.add_argument("--mmax", type=int, required=True)
    c.add_argument("--j", type=int, default=1, help="stage the levels refer to")
    c.add_argument("--res", type=int, required=True)
    _common(c, cmd_correlate, fmt="json")

    bh = sp.add_parser("blum-hanson", help="weighted-average L2 deviation")
    bh.add_argument("--spec", required=True)
    bh.add_argument("--weights", required=True,
                    help="JSON file mapping z to NUM/DEN, summing to 1")
    bh.add_argument("--f", required=True, help="comma separated level indices")
    bh.add_argument("--j", type=int, default=1, help="stage the levels refer to")
    bh.add_argument("--res", type=int, required=True)
    _common(bh, cmd_blum_hanson)

    jn = sp.add_parser("joining", help="block-mass matrices and diagnostics")
    jsp = jn.add_subparsers(dest="subcommand", required=True)

    jb = jsp.add_parser("blocks", help="emit the block-mass matrix")
    _matrix_flags(jb)
    _common(jb, cmd_joining_blocks, fmt="csv")

    jl = jsp.add_parser("light", help="epsilon-light block report")
    _matrix_flags(jl)
    jl.add_argument("--epsilon", required=True, help="threshold NUM/DEN")
    _common(jl, cmd_joining_light)

    jd = jsp.add_parser("di", help="powder-mass proxy over a grid")
    _matrix_flags(jd, with_j=False)
    jd.add_argument("--stages", required=True, help="comma separated stages")
    jd.add_argument("--epsilons", required=True,
                    help="comma separated NUM/DEN thresholds")
    _common(jd, cmd_joining_di)

    jx = jsp.add_parser("disperse", help="conditioned return dispersion")
    jx.add_argument("--spec-a", required=True)
    jx.add_argument("--spec-b", required=True)
    jx.add_argument("--x-a", required=True)
    jx.add_argument("--x-b", required=True)
    jx.add_argument("-N", type=int, dest="N", required=True)
    jx.add_argument("--z", required=True, help="conditioning block Z1,Z2")
    jx.add_argument("--n-list", required=True, help="comma separated advances")
    jx.add_argument("--j", type=int, required=True)
    jx.add_argument("--res", type=int, required=True)
    jx.add_argument("--step-a", type=int, default=1)
    jx.add_argument("--step-b", type=int, default=1)
    _common(jx, cmd_joining_disperse)

    jt = jsp.add_parser("trivialize", help="F-set trivialization check")
    _matrix_flags(jt)
    jt.add_argument("--delta", required=True, help="column slope NUM/DEN")
    jt.add_argument("--w", type=int, required=True, help="column offset")
    jt.add_argument("--shifts", required=True, help="comma separated shifts")
    jt.add_argument("--A", required=True, help="level indices, first system")
    jt.add_argument("--B", required=True, help="level indices, second system")
    jt.add_argument("--cond-stage", type=int, required=True, dest="k2",
                    help="stage the A and B levels refer to")
    _common(jt, cmd_joining_trivialize)

    fl = sp.add_parser("flow", help="suspension skeleton diagnostics")
    fsp = fl.add_subparsers(dest="subcommand", required=True)

    fw = fsp.add_parser("window", help="windowed return bounds")
    fb = fsp.add_parser("bands", help="block mass along skeleton bands")
    for f in (fw, fb):  # the skeleton and its stages
        f.add_argument("--spec", required=True)
        f.add_argument("--alpha", required=True, help="speed ratio NUM/DEN > 1")
        f.add_argument("--grid", type=int, default=1, help="inverse grid step")
        f.add_argument("--j", type=int, required=True)
        f.add_argument("--res", type=int, required=True)
    fw.add_argument("--zmax", type=int, required=True)
    fw.add_argument("--q", type=int, help="window length override (default --grid)")
    _common(fw, cmd_flow_window, fmt="csv")

    fb.add_argument("--side", choices=("right", "left"), required=True)
    fb.add_argument("--offsets", required=True, help="comma separated offsets")
    fb.add_argument("--zbound", type=int, help="translation range bound (left side)")
    fb.add_argument("--matrix", choices=("product", "empirical"),
                    default="product", help="which self-joining to weigh")
    fb.add_argument("--x-a", help="first orbit start (empirical matrix)")
    fb.add_argument("--x-b", help="second orbit start (empirical matrix)")
    fb.add_argument("-N", type=int, dest="N", help="ticks (empirical matrix)")
    _common(fb, cmd_flow_bands, fmt="csv")

    # command words -> the parser of that leaf, for parse's direct read
    p.leaves = {tuple(q.prog.split()[1:]): q for subs in (sp, jsp, fsp)
                for q in subs.choices.values() if "handler" in q._defaults}
    return p


def _escape_flags(args: argparse.Namespace, budget: int) -> str:
    """The flags that bound an escaped cursor.  The orbit cursor stops at
    the spec stage budget; the empirical and dispersion cursors, the only
    ones behind a command with --res, stop at min(--res, stage budget)."""
    res = getattr(args, "res", None)
    if res is None:
        return "--stage-budget"
    tokens = [t for t in (getattr(args, "spec_a", None),
                          getattr(args, "spec_b", None)) if t] or [args.spec]
    flags = ["--res"] if res <= budget else []
    if min(load_spec(t, args.stage_budget).max_stage for t in tokens) <= budget:
        flags.append("--stage-budget")
    return " and ".join(flags)


def parse(parser: argparse.ArgumentParser, argv: List[str]) -> argparse.Namespace:
    """parser.parse_args(argv) of build_parser's tree, less the command words.
    A leaf's command words, then exact `--flag value` pairs of its plain store
    actions, each flag once, are read from the leaf's own actions by argparse's
    conversion, checks and defaults (each action's, then set_defaults').  Any
    other argv, a value led by "-" but a negative integer included, goes to
    the tree, the one source of refusals and --help."""
    n = 1 if tuple(argv[:1]) in parser.leaves else 2
    leaf, tokens, ns = parser.leaves.get(tuple(argv[:n])), argv[n:], {}
    if leaf is None or len(tokens) % 2:
        return parser.parse_args(argv)
    for flag, value in zip(tokens[::2], tokens[1::2]):
        a = leaf._option_string_actions.get(flag)
        if type(a) is not argparse._StoreAction or a.nargs is not None or a.dest in ns or (
                value[:1] == "-" and (not value[1:].isdecimal() or leaf._parse_optional(value))):
            return parser.parse_args(argv)
        try:
            leaf._check_value(a, v := leaf._get_value(a, value))
        except argparse.ArgumentError:
            return parser.parse_args(argv)
        ns[a.dest] = v
    if any(a.required and a.dest not in ns for a in leaf._actions):
        return parser.parse_args(argv)
    defaults = {a.dest: a.default for a in leaf._actions
                if argparse.SUPPRESS not in (a.dest, a.default)}
    return argparse.Namespace(**{**leaf._defaults, **defaults, **ns})


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        # Built on the first call, not at import, so importing cli stays
        # cheap; a process that calls main many times builds it once.
        _parser = build_parser()
    try:
        args = parse(_parser, sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc = args.handler(args)
        text = render_table(doc, args.format) if isinstance(doc, Table) else doc
    except OrbitEscaped as exc:
        print(f"error: {exc}; retry with a larger "
              f"{_escape_flags(args, exc.stage_budget)}", file=sys.stderr)
        return 3
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if not args.out:  # every leaf takes --out
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
