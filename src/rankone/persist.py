"""Deterministic serialization: exact rationals on disk, metadata headers
and the stage records that `rankone build` writes.

Persisted numbers are always "num/den" strings; decimal columns are
derived conveniences rounded half-even to 12 significant digits and
labeled approximate.  No timestamps anywhere, so identical inputs yield
identical bytes.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from . import __version__
from .construction import ConstructionSpec, TowerStage, build_stage
from .errors import SpecError
from .measure import Interval, IntervalSet, as_fraction

# "format" field of the stage document written by dump_stage
STAGE_FORMAT = 1

_APPROX_CTX = Context(prec=12, rounding=ROUND_HALF_EVEN)


def frac_str(x: Union[Fraction, int]) -> str:
    f = as_fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str) -> Fraction:
    try:
        return as_fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"cannot parse rational {s!r}: {exc}") from None


def approx_str(x: Union[Fraction, int]) -> str:
    """Approximate decimal rendering, 12 significant digits, half-even."""
    f = as_fraction(x)
    d = _APPROX_CTX.divide(f.numerator, f.denominator)
    return str(d)


def spec_hash(spec: ConstructionSpec) -> str:
    return sha256(spec.canonical_json().encode()).hexdigest()[:16]


def interval_set_json(s: IntervalSet) -> List[List[str]]:
    return [[frac_str(iv.lo), frac_str(iv.hi)] for iv in s.intervals]


def interval_set_from_json(data: Sequence[Sequence[str]]) -> IntervalSet:
    return IntervalSet(tuple(Interval(parse_frac(lo), parse_frac(hi))
                             for lo, hi in data))


def meta_line(**params: object) -> str:
    meta = {"tool_version": __version__}
    meta.update(params)
    return "# " + json.dumps(meta, sort_keys=True, separators=(", ", ": "))


def write_csv(path: Union[str, Path], columns: Sequence[str],
              rows: Iterable[Sequence[object]], **meta: object) -> None:
    lines = [meta_line(**meta), ",".join(columns)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")


def render_json(payload: object, **meta: object) -> str:
    doc = {"meta": {"tool_version": __version__, **meta}, "data": payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def write_json(path: Union[str, Path], payload: object, **meta: object) -> None:
    Path(path).write_text(render_json(payload, **meta) + "\n")


# ------------------------------------------------------------- stage records

def _stage_record(st: TowerStage) -> Dict[str, object]:
    return {
        "stage": st.stage,
        "height": st.height,
        "width": frac_str(st.width),
        "total": frac_str(st.total),
        "cut": st.cut,
        "spacers": list(st.spacers) if st.spacers is not None else None,
        "offsets": list(st.offsets) if st.offsets is not None else None,
        "spacer_cum": list(st.spacer_cum) if st.spacer_cum is not None else None,
        "spacer_zone_lo": frac_str(st.spacer_zone_lo)
        if st.spacer_zone_lo is not None else None,
    }


def dump_stage(spec: ConstructionSpec, J: int) -> str:
    """Serialize stages 1..J with exact rationals."""
    stages = [_stage_record(build_stage(spec, j)) for j in range(1, J + 1)]
    doc = {"format": STAGE_FORMAT, "tool_version": __version__,
           "spec": json.loads(spec.canonical_json()),
           "spec_hash": spec_hash(spec), "J": J, "stages": stages}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)

