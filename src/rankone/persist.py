"""Every document rankone writes: JSON {"meta", "data"} documents, CSV
tables under a `# {...}` metadata line, and the stage records of
`rankone build`.

Persisted numbers are always "num/den" strings or num, den columns;
decimal fields are derived conveniences named *_approx, rounded half-even
to 12 significant digits.  No timestamps anywhere, so identical inputs
yield identical bytes.

A JSON document prints as `json.dumps(doc, sort_keys=True,
separators=(",", ": "), indent=1)` would print it: keys sorted, one space
of indent per level, every non-ASCII or control character as a `\\u`
escape.  A document may hold only dicts with str keys, lists, tuples,
str, int, bool and None; a float or any other value raises TypeError.
Bound tables and block listings print from row templates, not through
the generic recursion.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from functools import cache
from hashlib import sha256
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import attrgetter
from typing import Dict, Iterable, Iterator, NamedTuple, Sequence, Tuple, Union

from . import __version__
from .construction import ConstructionSpec, build_stage
from .errors import SpecError
from .measure import BoundSeries, MeasureBound, as_fraction

# "format" field of the stage document written by dump_stage
STAGE_FORMAT = 1

# CSV value columns of a table of MeasureBounds
BOUND_COLUMNS = ("lo_num", "lo_den", "hi_num", "hi_den")

_APPROX_CTX = Context(prec=12, rounding=ROUND_HALF_EVEN)
_FRACTION_INTS = attrgetter("numerator", "denominator")
_BOUND_INTS = attrgetter("lo.numerator", "lo.denominator",
                         "hi.numerator", "hi.denominator")


def frac_str(x: Union[Fraction, int]) -> str:
    f = as_fraction(x)
    return f"{f.numerator}/{f.denominator}"


def frac_strs(den: int, numerators: Iterable[int]) -> Iterator[str]:
    """frac_str(Fraction(n, den)) of each n >= 0, den > 0: one gcd each,
    and one "/den" tail per gcd value."""
    tails: Dict[int, str] = {}
    for n in numerators:
        g = gcd(n, den)
        tail = tails.get(g)
        if tail is None:
            tail = tails[g] = f"/{den // g}"
        yield f"{n // g}{tail}"


def parse_frac(s: str) -> Fraction:
    try:
        return as_fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"cannot parse rational {s!r}: {exc}") from None


def approx_str(x: Union[Fraction, int]) -> str:
    """Approximate decimal rendering, 12 significant digits, half-even."""
    return str(_APPROX_CTX.divide(*_FRACTION_INTS(as_fraction(x))))


@cache  # one sha256 per spec: grows as construction._STAGES does
def spec_hash(spec: ConstructionSpec) -> str:
    return sha256(spec.canonical_json().encode()).hexdigest()[:16]


def bound_json(b: MeasureBound) -> Dict[str, str]:
    return {"lo": frac_str(b.lo), "hi": frac_str(b.hi),
            "lo_approx": approx_str(b.lo), "hi_approx": approx_str(b.hi)}


def meta_line(**params: object) -> str:
    return "# " + json.dumps({"tool_version": __version__, **params}, sort_keys=True,
                             separators=(", ", ": "))


class _Rendered(str):
    """A JSON text already rendered at the nesting level it is placed at."""


def _render(o: object, level: int = 0) -> str:
    """o as a JSON text, nested level deep (see the module docstring).

    json.dumps takes its pure-Python encoder whenever indent is set; this
    renders int runs and escape-free string runs with C-level joins.  A
    _Rendered text is placed as it is."""
    if type(o) is _Rendered:
        return o
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = "\n" + " " * (level + 1)
    sep = "," + inner
    if isinstance(o, dict):
        if not o:
            return "{}"
        for k in o:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        body = sep.join([encode_basestring_ascii(k) + ": " + _render(v, level + 1)
                         for k, v in sorted(o.items())])
        return "{" + inner + body + "\n" + " " * level + "}"
    if not isinstance(o, (list, tuple)):
        raise TypeError(
            f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        return "[]"
    types = set(map(type, o))
    plain = "".join(o) if types == {str} else None
    # escaping lengthens a text iff it holds a character that needs it
    if plain is not None and len(encode_basestring_ascii(plain)) == len(plain) + 2:
        body = '"' + ('"' + sep + '"').join(o) + '"'
    elif types == {int}:
        body = sep.join(map(int.__repr__, o))
    else:
        body = sep.join([_render(x, level + 1) for x in o])
    return "[" + inner + body + "\n" + " " * level + "]"


def block_list(rows: Iterable[Tuple[int, Sequence[int]]], h_b: int, level: int) -> str:
    """The blocks of (z1, z2s) rows, z2 < h_b, as the JSON list of their
    [z1, z2] pairs nested level deep: each row is one join of a tail string
    per column, made once, under a head string per row."""
    ind1, ind2 = "\n" + " " * (level + 1), "\n" + " " * (level + 2)
    sep = "," + ind1
    tails = [f"{z2}{ind1}]" for z2 in range(h_b)]
    body = sep.join([head + (sep + head).join(map(tails.__getitem__, z2s))
                     for z1, z2s in rows if z2s for head in [f"[{ind2}{z1},{ind2}"]])
    return _Rendered(f"[{ind1}{body}\n{' ' * level}]" if body else "[]")


def render_json(payload: object, **meta: object) -> str:
    return _render({"meta": {"tool_version": __version__, **meta}, "data": payload})


class Table(NamedTuple):
    """The result of a command that prints CSV or JSON: a BoundSeries, or
    (key, value) pairs in print order, read once, under the CSV column names.
    Keys are ints or int tuples of one length, values all MeasureBounds or all
    Fractions; a CSV row is the key's parts, then the value's ints."""

    columns: Tuple[str, ...]
    items: Union[BoundSeries, Iterable[Tuple[object, object]]]
    meta: Dict[str, object]


def render_table(table: Table, fmt: str) -> str:
    """The table as a document in fmt, "csv" or "json" (entries keyed by
    the key's parts joined by ",", sorted as _render sorts them), only
    that one.  Each distinct value is formatted once: a BoundSeries's
    numerators, reduced by one gcd each, or the other items' values, told
    apart by their ints; each row fills one template."""
    columns, items, meta = table
    head = f"{meta_line(**meta)}\n{','.join(columns)}\n" if fmt == "csv" else ""
    if isinstance(items, BoundSeries):
        s, cells = items, {}
        for n in {*s.lo, *s.hi}:
            g = gcd(n, s.den)
            a, b = n // g, s.den // g
            cells[n] = f"{a},{b}" if fmt == "csv" else (
                f'"{a}/{b}"', f'"{_APPROX_CTX.divide(a, b)}"')
        if fmt == "csv":
            return head + "".join([f"{k},{cells[lo]},{cells[hi]}\n"
                                   for k, lo, hi in zip(s.domain, s.lo, s.hi)])
        rows = [(str(k), f'{{\n   "hi": {hi},\n   "hi_approx": {hi_x},\n'
                         f'   "lo": {lo},\n   "lo_approx": {lo_x}\n  }}')
                for k, (lo, lo_x), (hi, hi_x) in zip(s.domain, map(cells.__getitem__, s.lo),
                                                     map(cells.__getitem__, s.hi))]
    else:
        texts, rows, last, t = {}, [], None, ()
        for k, v in items:
            if v is not last:  # a run of one value object is looked up once
                last, t = v, _BOUND_INTS(v) if isinstance(v, MeasureBound) else _FRACTION_INTS(v)
                if t not in texts:
                    texts[t] = ",".join(map(str, t)) if fmt == "csv" else _render(
                        bound_json(v) if isinstance(v, MeasureBound) else frac_str(v), 2)
            rows.append((*(k if isinstance(k, tuple) else (k,)), texts[t]))
        key = ",".join(["%d"] * (len(columns) - len(t)))  # one %d per key part
        if fmt == "csv":
            return head + "".join(map((key + ",%s\n").__mod__, rows))
        rows = [(key % r[:-1], r[-1]) for r in rows]
    body = ",\n  ".join([f'"{k}": {text}' for k, text in sorted(dict(rows).items())])
    return render_json(_Rendered("{\n  " + body + "\n }") if rows else {}, **meta) + "\n"


# ------------------------------------------------------------- stage records

def dump_stage(spec: ConstructionSpec, J: int) -> str:
    """Serialize stages 1..J with exact rationals; a stage's tuples print as lists."""
    build_stage(spec, J)  # a J past the stage budget is refused before any stage is built
    stages = [{"stage": st.stage, "height": st.height, "width": frac_str(st.width),
               "total": frac_str(st.total), "cut": st.cut, "spacers": st.spacers,
               "offsets": st.offsets, "spacer_cum": st.spacer_cum,
               "spacer_zone_lo": st.prev and frac_str(st.prev.total)}
              for st in (build_stage(spec, j) for j in range(1, J + 1))]
    return _render({"format": STAGE_FORMAT, "tool_version": __version__,
                    "spec": json.loads(spec.canonical_json()),
                    "spec_hash": spec_hash(spec), "J": J, "stages": stages})

