"""Deterministic serialization: exact rationals on disk, metadata headers,
and a verified stage cache.

Persisted numbers are always "num/den" strings; decimal columns are
derived conveniences rounded half-even to 12 significant digits and
labeled approximate.  No timestamps anywhere, so identical inputs yield
identical bytes.
"""

from __future__ import annotations

import json
import warnings
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from . import __version__
from .construction import ConstructionSpec, TowerStage, build_stage
from .errors import SpecError
from .measure import Interval, IntervalSet, as_fraction

CACHE_FORMAT = 1
CACHE_STATS = {"hits": 0, "misses": 0, "rebuilds": 0}

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


# ---------------------------------------------------------------- stage cache

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
    doc = {"format": CACHE_FORMAT, "tool_version": __version__,
           "spec": json.loads(spec.canonical_json()),
           "spec_hash": spec_hash(spec), "J": J, "stages": stages}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def _restore_chain(spec: ConstructionSpec,
                   records: List[Dict[str, object]]) -> TowerStage:
    """Rebuild stages 1..len(records) from the spec and check each against
    its record, so a cache can only ever hand back the stages the spec
    itself defines."""
    prev: Optional[TowerStage] = None
    for j, rec in enumerate(records, start=1):
        st = TowerStage(spec, j, prev)
        if rec != _stage_record(st):
            raise SpecError(f"cache is corrupt: stage {j} does not match the spec")
        prev = st
    if prev is None:
        raise SpecError("cache holds no stages")
    return prev


def load_stage(spec: ConstructionSpec, text: str) -> TowerStage:
    """Reconstruct the deepest cached stage; raises SpecError on any
    mismatch (format version, spec identity, or malformed data)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"cache is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CACHE_FORMAT:
        raise SpecError(f"cache format {doc.get('format') if isinstance(doc, dict) else None!r} "
                        f"does not match {CACHE_FORMAT}")
    if doc.get("spec_hash") != spec_hash(spec):
        raise SpecError("cache was built from a different construction")
    try:
        return _restore_chain(spec, doc["stages"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise SpecError(f"cache is corrupt: {exc}") from None


def cache_stage(spec: ConstructionSpec, J: int,
                cache_dir: Union[str, Path]) -> TowerStage:
    """Fetch stage J through an on-disk cache.

    A valid cached file is loaded without rebuilding; version or spec
    mismatches and corrupt files trigger a rebuild with a warning, and the
    fresh serialization overwrites the file.  Counters in CACHE_STATS make
    hits observable without touching the output contract.
    """
    d = Path(cache_dir)
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"stage-{spec_hash(spec)}-{J}.json"
    if path.exists():
        try:
            st = load_stage(spec, path.read_text())
            if st.stage == J:
                CACHE_STATS["hits"] += 1
                return st
            raise SpecError(f"cache depth {st.stage} != requested {J}")
        except SpecError as exc:
            warnings.warn(f"stage cache invalid ({exc}); rebuilding")
            CACHE_STATS["rebuilds"] += 1
    else:
        CACHE_STATS["misses"] += 1
    st = build_stage(spec, J)
    path.write_text(dump_stage(spec, J) + "\n")
    return st
