"""Rank-one cutting-and-stacking constructions.

A construction is determined by the first tower height h1, a cut rule giving
the number of columns r_j at each stage, and a spacer rule giving the spacer
counts s_{j,0..r_j-1} placed on top of each column (column i gets s_{j,i}
fresh levels before the next column is stacked on).  Stage recurrences:

    h_{j+1} = r_j * h_j + sum_i s_{j,i}
    w_{j+1} = w_j / r_j
    M_{j+1} = M_j + w_{j+1} * sum_i s_{j,i}

Towers count levels 0..h_j-1 (the height is the number of levels).  The
stage-1 tower fills [0, 1) by default (w1 = 1/h1); spacer mass is appended at
the right end of the ambient interval in stacking order, so at every stage
the tower levels partition the ambient [0, M_j) exactly.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import SpecError
from .measure import Interval, IntervalSet, as_fraction, canonicalize

__all__ = [
    "CutRule",
    "SpacerRule",
    "ConstructionSpec",
    "TowerStage",
    "LevelSet",
    "PRESETS",
    "build_stage",
]

# Bits a level bitset may hold, one per level up to its highest: 8 MB.
MAX_BITS = 1 << 26
# Integer bits one spec's stages may hold (TowerStage.held_bits, the sum of r_t bitlen(h_t)
# below it): staircase J = 250 holds 3.0e7 and J = 317 is refused, as is odometer J = 8,192.
MAX_STAGE_BITS = 1 << 26


def _check_int(name: str, value: object, minimum: Optional[int] = None) -> None:
    """Refuse anything but a genuine int (bool and float included) below
    minimum, so malformed spec JSON fails as a SpecError."""
    if not isinstance(value, int) or isinstance(value, bool) or (
            minimum is not None and value < minimum):
        bound = f" >= {minimum}" if minimum is not None else ""
        raise SpecError(f"{name} must be an integer{bound}, got {value!r}")


def _int_tuple(name: str, value: object, minimum: int) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{name} must be a list of integers, got {value!r}")
    for v in value:
        _check_int(name, v, minimum)
    return tuple(value)


class _Rule:
    """The JSON form of a rule or spec dataclass: each field that is set, a
    rule as its JSON form and tuples as lists; __match_args__ lists the
    fields in order and a rule's json_name names it in a refusal."""

    def to_json(self) -> dict:
        return {name: v.to_json() if isinstance(v, _Rule) else
                [list(x) if isinstance(x, tuple) else x for x in v] if isinstance(v, tuple) else v
                for name in self.__match_args__ if (v := getattr(self, name)) is not None}

    @classmethod
    def from_json(cls, data: dict) -> "_Rule":
        if not isinstance(data, dict) or "kind" not in data:
            raise SpecError(f"{cls.json_name} must be a JSON object with a kind")
        if unknown := sorted(map(repr, data.keys() - cls.__match_args__)):
            raise SpecError(f"unknown {cls.json_name} key: {', '.join(unknown)}")
        return cls(**{name: data.get(name) for name in cls.__match_args__})

    def _read_by(self, **kinds: str) -> None:
        """Refuse a field set on a rule of another kind than the one that reads it."""
        for name, kind in kinds.items():
            if getattr(self, name) is not None and self.kind != kind:
                raise SpecError(f"{self.json_name} kind {self.kind!r} does not read {name!r}")


def bit_indices(bits: int) -> Tuple[int, ...]:
    """Sorted indices of the set bits of a nonnegative int, in time linear
    in its length: one scan of the binary digits, low bit first."""
    digits = bin(bits)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return tuple(out)


def pack_bits(levels: Sequence[int]) -> int:
    """The int with bit i set for each i >= 0 in levels, filled in one
    buffer: linear in the levels.  Refused past MAX_BITS bits."""
    if (need := max(levels, default=-1) + 1) > MAX_BITS:
        raise SpecError(f"{need} level bits requested, more than the limit of {MAX_BITS}")
    buf = bytearray((need + 7) // 8)
    for i in levels:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class LevelSet(NamedTuple):
    """The union of the stage-k levels i with bit i set in bits: the (k,
    bits) pair the lag kernel takes."""

    k: int
    bits: int


@dataclass(frozen=True)
class CutRule(_Rule):
    """Number of columns r_j used when cutting stage j.

    kinds: "constant" (value), "stage" (r_j = j, so r_1 = 1 is a degenerate
    no-cut stage), "list" (explicit values, 1-indexed by stage).  Its JSON
    object holds kind and the field its kind reads; any other is refused.
    """

    kind: str
    value: Optional[int] = None
    values: Optional[Tuple[int, ...]] = None
    json_name = "cut_rule"

    def __post_init__(self):
        if self.kind not in ("constant", "stage", "list"):
            raise SpecError(f"unknown cut rule kind: {self.kind!r}")
        self._read_by(value="constant", values="list")
        if self.kind == "constant":
            _check_int("constant cut rule value", self.value, 1)
        if self.values is not None:
            object.__setattr__(self, "values", _int_tuple("cut rule values", self.values, 1))
        if self.kind == "list" and not self.values:
            raise SpecError("list cut rule needs positive values")

    def at(self, j: int) -> int:
        if self.kind == "constant":
            return self.value
        if self.kind == "stage":
            return j
        if j > len(self.values):
            raise SpecError(f"cut rule list exhausted at stage {j}")
        return self.values[j - 1]


@dataclass(frozen=True)
class SpacerRule(_Rule):
    """Spacer counts per column at each stage.

    kinds: "none" (s = 0), "staircase" (s_{j,i} = i), "chacon" (s = (0,1,0),
    requires r_j = 3), "random" (uniform in [0, bound], drawn from the spec
    seed with one independent substream per stage), "list" (explicit rows).
    A field its kind does not read is refused."""

    kind: str
    bound: Optional[int] = None
    rows: Optional[Tuple[Tuple[int, ...], ...]] = None
    json_name = "spacer_rule"

    def __post_init__(self):
        if self.kind not in ("none", "staircase", "chacon", "random", "list"):
            raise SpecError(f"unknown spacer rule kind: {self.kind!r}")
        self._read_by(bound="random", rows="list")
        if self.kind == "random":
            _check_int("random spacer rule bound", self.bound, 0)
        if self.kind == "list" and self.rows is None:
            raise SpecError("list spacer rule needs rows")
        if self.rows is not None:
            if not isinstance(self.rows, (list, tuple)):
                raise SpecError(f"spacer rule rows must be a list, got {self.rows!r}")
            object.__setattr__(self, "rows", tuple(
                _int_tuple("spacer counts", row, 0) for row in self.rows))

    def vector(self, j: int, r: int, seed: Optional[int]) -> Tuple[int, ...]:
        if self.kind == "none":
            return (0,) * r
        if self.kind == "staircase":
            return tuple(range(r))
        if self.kind == "chacon":
            if r != 3:
                raise SpecError("chacon spacers require a 3-column cut")
            return (0, 1, 0)
        if self.kind == "random":
            rng = random.Random(seed * 1_000_003 + j)
            return tuple(rng.randint(0, self.bound) for _ in range(r))
        if j > len(self.rows):
            raise SpecError(f"spacer rule rows exhausted at stage {j}")
        row = self.rows[j - 1]
        if len(row) != r:
            raise SpecError(f"spacer row at stage {j} has length {len(row)}, expected {r}")
        return row


# The presets by name: the classmethods, ConstructionSpec.from_json and the
# command line's --spec names all read this table, so a preset means the
# same spec (stage budget included) whichever way it is named.
PRESETS = {
    "odometer": {"h1": 2, "cut_rule": {"kind": "constant", "value": 2},
                 "spacer_rule": {"kind": "none"}, "max_stage": 12},
    "staircase": {"h1": 2, "cut_rule": {"kind": "stage"},
                  "spacer_rule": {"kind": "staircase"}, "max_stage": 10},
    "chacon": {"h1": 1, "cut_rule": {"kind": "constant", "value": 3},
               "spacer_rule": {"kind": "chacon"}, "max_stage": 12},
    "random": {"h1": 2, "cut_rule": {"kind": "stage"},
               "spacer_rule": {"kind": "random", "bound": 2}, "max_stage": 10},
}


@dataclass(frozen=True)
class ConstructionSpec(_Rule):
    """Full recipe for a rank-one construction, hashable and serializable.

    h1 and the two rules fix the system; the first tower fills [0, 1), so
    w_1 = 1/h1.  max_stage caps how deep any consumer may refine (the stage
    budget).  Its JSON holds these fields and preset, seed iff the spacer rule
    is random; any other is refused: a file is read as the one system it names.
    """

    h1: int
    cut_rule: CutRule
    spacer_rule: SpacerRule
    max_stage: int = 10
    seed: Optional[int] = None
    preset: str = "custom"

    def __post_init__(self):
        if self.preset not in ("custom", *PRESETS):  # only a str equals a name
            raise SpecError(f"unknown preset: {self.preset!r}")
        for rule in (CutRule, SpacerRule):
            if not isinstance(value := getattr(self, rule.json_name), rule):
                object.__setattr__(self, rule.json_name, rule.from_json(value))
        _check_int("h1", self.h1, 1)
        _check_int("max_stage", self.max_stage, 1)
        if self.spacer_rule.kind == "random":
            _check_int("random spacer rule seed", self.seed)
        elif self.seed is not None:
            raise SpecError(f"spacer_rule kind {self.spacer_rule.kind!r} does not read 'seed'")

    def cuts(self, j: int) -> int:
        return self.cut_rule.at(j)

    def spacers(self, j: int) -> Tuple[int, ...]:
        return self.spacer_rule.vector(j, self.cuts(j), self.seed)

    @classmethod
    def _from_preset(cls, name: str, **fields: object) -> "ConstructionSpec":
        """PRESETS[name], with each field given here that is not None."""
        return cls.from_json({"preset": name, **{
            k: v for k, v in fields.items() if v is not None}})

    @classmethod
    def odometer(cls, h1: Optional[int] = None,
                 max_stage: Optional[int] = None) -> "ConstructionSpec":
        return cls._from_preset("odometer", h1=h1, max_stage=max_stage)

    @classmethod
    def staircase(cls, h1: Optional[int] = None,
                  max_stage: Optional[int] = None) -> "ConstructionSpec":
        return cls._from_preset("staircase", h1=h1, max_stage=max_stage)

    @classmethod
    def chacon(cls, h1: Optional[int] = None,
               max_stage: Optional[int] = None) -> "ConstructionSpec":
        return cls._from_preset("chacon", h1=h1, max_stage=max_stage)

    @classmethod
    def random_spacers(cls, seed: int, h1: Optional[int] = None,
                       bound: Optional[int] = None,
                       max_stage: Optional[int] = None) -> "ConstructionSpec":
        rule = None if bound is None else {"kind": "random", "bound": bound}
        return cls._from_preset("random", seed=seed, h1=h1, spacer_rule=rule,
                               max_stage=max_stage)

    def canonical_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, data: dict) -> "ConstructionSpec":
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a JSON object, got {type(data).__name__}")
        if unknown := sorted(map(repr, data.keys() - cls.__match_args__)):
            raise SpecError(f"unknown spec key: {', '.join(unknown)}")
        preset = data.get("preset", "custom")
        merged = {**(PRESETS.get(preset, {}) if isinstance(preset, str) else {}), **data}
        if "cut_rule" not in merged or "spacer_rule" not in merged:
            raise SpecError("spec needs cut_rule and spacer_rule (or a known preset)")
        if "h1" not in merged:
            raise SpecError("spec needs h1 (or a known preset)")
        return cls(**merged)


class TowerStage:
    """One stage of a construction: a tower of `height` levels of `width`.

    Levels are indexed 0..height-1 from the base up.  Their geometry is
    integer: level i is the cell [c w, (c+1) w) for c = cell(i), and the
    cells 0..height-1 tile the ambient [0, M).  A stage holds O(r_j)
    integers; level queries go through ancestor_run, one descent by the
    column rule, and level_cells and stage_name build a whole stage's
    cells or coarse-stage levels on request.
    """

    __slots__ = (
        "spec", "stage", "height", "width", "total", "prev",
        "cut", "spacers", "offsets", "spacer_cum", "held_bits",
    )

    def __init__(self, spec: ConstructionSpec, stage: int, prev: Optional["TowerStage"]):
        self.spec = spec
        self.stage = stage
        self.prev = prev
        if prev is None:
            self.height = spec.h1
            self.width = Fraction(1, spec.h1)
            self.total = self.height * self.width
            self.held_bits = 0
            self.cut = self.spacers = self.offsets = self.spacer_cum = None
        else:
            j = prev.stage
            r = spec.cuts(j)
            if (bits := prev.held_bits + r * prev.height.bit_length()) > MAX_STAGE_BITS:
                raise SpecError(f"stages 1..{stage} would hold about {bits} integer bits, "
                                f"more than the limit of {MAX_STAGE_BITS}")
            s = spec.spacers(j)
            self.cut = r
            self.held_bits = bits
            self.spacers = s
            self.width = prev.width / r
            self.offsets = tuple(accumulate((prev.height + x for x in s[:-1]), initial=0))
            self.spacer_cum = tuple(accumulate(s, initial=0))
            self.height = self.offsets[-1] + prev.height + s[-1]
            self.total = prev.total + self.width * self.spacer_cum[-1]

    # -- level geometry ----------------------------------------------------
    #
    # The column rule: column c of this stage puts the stage-(j-1) cell p at
    # cell p r + c, and its spacers in the cells from h_{j-1} r +
    # spacer_cum[c] up, past M_{j-1} = h_{j-1} r w.  ancestor_run reads it
    # downwards from a level (cell is its descent to stage 1), level_of_cell
    # upwards from a cell, and level_cells for a whole stage at once.

    def ancestor_run(self, i: int, k: int) -> Tuple[int, int, bool, int, int]:
        """The run [lo, hi) of levels around level i that is one copy of the
        stage-k tower, or the spacers one column of one stage above k adds,
        with its cells: (lo, hi, copy, add, scale).

        On a copy run (copy True) level i' sits in stage-k level i' - lo
        and has cell add + scale * cell_k(i' - lo); on a spacer run it sits
        in no stage-k level and has cell add + scale * (i' - lo).  One
        descent from this stage to k by the column rule, one bisect per
        stage.
        """
        if not (1 <= k <= self.stage):
            raise SpecError(f"ancestor stage {k} out of range")
        st, lo, idx, add, scale = self, 0, i, 0, 1
        while st.stage > k:
            prev, offsets = st.prev, st.offsets
            c = bisect_right(offsets, idx) - 1
            idx -= offsets[c]
            lo += offsets[c]
            if idx >= prev.height:
                lo += prev.height
                add += scale * (prev.height * st.cut + st.spacer_cum[c])
                return lo, lo + st.spacers[c], False, add, scale
            add += scale * c
            scale *= st.cut
            st = prev
        return lo, lo + st.height, True, add, scale

    def cell(self, i: int) -> int:
        """Cell of level i: ancestor_run's descent to stage 1."""
        if not (0 <= i < self.height):
            raise SpecError(f"level index {i} out of range for stage {self.stage}")
        lo, _, _, add, scale = self.ancestor_run(i, 1)
        return add + scale * (i - lo)

    def level_of_cell(self, c: int) -> int:
        """Level occupying cell c, the inverse of cell: one descent."""
        if not (0 <= c < self.height):
            raise SpecError(f"cell {c} out of range for stage {self.stage}")
        st, i = self, 0
        while st.prev is not None:
            prev, r = st.prev, st.cut
            t = c - prev.height * r
            if t >= 0:
                col = bisect_right(st.spacer_cum, t) - 1
                return i + st.offsets[col] + prev.height + t - st.spacer_cum[col]
            c, col = divmod(c, r)
            i += st.offsets[col]
            st = prev
        return i + c

    def level_cells(self) -> Sequence[int]:
        """cell(i) for every level i, in O(h_1 + ... + h_j) integer work:
        range(h_1) at stage 1, a list built on each call above it."""
        if self.prev is None:
            return range(self.height)
        prev, r = self.prev.level_cells(), self.cut
        cells = []
        for c in range(r):
            cells.extend(p * r + c for p in prev)
            first = self.prev.height * r + self.spacer_cum[c]
            cells.extend(range(first, first + self.spacers[c]))
        return cells

    def level(self, i: int) -> Interval:
        lo = self.cell(i) * self.width
        return Interval(lo, lo + self.width)

    @property
    def base(self) -> Interval:
        return Interval(Fraction(0), self.width)

    def levels_set(self, indices: Sequence[int]) -> IntervalSet:
        return canonicalize([self.level(i) for i in indices])

    def locate(self, x) -> Optional[int]:
        """Level index whose interval contains x, or None if x >= M_j."""
        x = as_fraction(x)
        if x < 0:
            raise SpecError(f"point {x} below the ambient interval")
        if x >= self.total:
            return None
        return self.level_of_cell(x // self.width)

    # -- lineage -----------------------------------------------------------

    def stage_name(self, j: int, scale: int = 1) -> Sequence[int]:
        """scale * ancestor_index(i, j) for every level i, or scale * h_j where
        that is None, as one word: range(0, scale * h_j, scale) at stage j,
        and at a later stage, for each column c, the previous stage's name
        and s_c unborn codes.  Built by C-level concatenation; none is kept."""
        if not (1 <= j <= self.stage):
            raise SpecError(f"ancestor stage {j} out of range")
        if j == self.stage:
            return range(0, scale * self.height, scale)
        name, unborn = [], (scale * build_stage(self.spec, j).height,)
        prev = self.prev.stage_name(j, scale)
        for s in self.spacers:
            name += prev
            name += unborn * s
        return tuple(name)

    def ancestor_index(self, i: int, k: int) -> Optional[int]:
        """Level of stage k containing level i of this stage, or None if the
        level sits in spacer mass added after stage k."""
        lo, _, copy, _, _ = self.ancestor_run(i, k)
        return i - lo if copy else None

    # -- base occurrences --------------------------------------------------

    def occurrence_bits(self, k: int, bits: int = 1) -> int:
        """The levels of this stage inside the stage-k levels of the int
        bitset `bits`, by default the base E_k: bit i is set iff level(i)
        lies inside them.

        Built by the column recursion S(t) = OR_c S(t-1) << offset_c from
        stage k up, on each call; agrees with direct interval containment
        (tested) because a stage-k level is exactly the union of its
        stage-t copies and spacer mass added at stages >= k is disjoint
        from [0, M_k).
        """
        if not (1 <= k <= self.stage):
            raise SpecError(f"occurrence stage {k} out of range")
        chain, st = [], self
        while st.stage > k:
            chain.append(st.offsets)
            st = st.prev
        need = bits.bit_length() + sum(offsets[-1] for offsets in chain) if bits else 0
        if need > MAX_BITS:
            raise SpecError(f"{need} level bits requested, more than the limit of {MAX_BITS}")
        for offsets in reversed(chain):
            lifted = 0
            for off in offsets:
                lifted |= bits << off
            bits = lifted
        return bits

    def occurrences(self, k: int) -> Tuple[int, ...]:
        """Sorted level indices i with level(i) inside the stage-k base E_k,
        decoded from occurrence_bits(k)."""
        return bit_indices(self.occurrence_bits(k))

    def level_bits(self, ends: Sequence[int]) -> LevelSet:
        """The union of the runs [d0, d1) of this stage's cells given by their
        sorted ends d0 < d1 < d0' < ... in [0, h], as a LevelSet of the smallest
        stage k whose levels it is a union of (occurrence_bits(k, bits) lifts
        it).  A stage-k cell is R_k cells of this stage, and cell c of stage k
        is level level_of_cell(c), so the union is one of stage-k levels iff
        every end is a multiple of R_k in [0, h_k R_k]: at k = this stage, R_k
        = 1 and every union is.  All in integers."""
        R = (self.spec.h1 * self.width).denominator  # R_1, as w_1 = 1/h1 is R_1 w
        for st in (build_stage(self.spec, k) for k in range(1, self.stage + 1)):
            R //= st.cut or 1
            if all(e % R == 0 for e in ends) and (not ends or ends[-1] <= st.height * R):
                return LevelSet(st.stage, pack_bits([st.level_of_cell(c) for d0, d1 in
                                                     zip(ends[::2], ends[1::2])
                                                     for c in range(d0 // R, d1 // R)]))

    def __repr__(self) -> str:
        return (f"TowerStage(stage={self.stage}, height={self.height}, "
                f"width={self.width}, total={self.total})")


_STAGES: Dict[ConstructionSpec, List[TowerStage]] = {}


def build_stage(spec: ConstructionSpec, j: int) -> TowerStage:
    """Tower stage j of the construction (1-based), built on first use.

    Built stages are kept per spec, keyed by the whole spec with its
    max_stage: that is the identity spec_hash prints in every document,
    so no second key is needed.  The cost is that one geometry asked under
    two stage budgets is built twice.  Stages are immutable once appended.
    """
    if j < 1:
        raise SpecError(f"stage index must be >= 1, got {j}")
    if j > spec.max_stage:
        raise SpecError(
            f"stage {j} exceeds the spec stage budget {spec.max_stage}")
    stages = _STAGES.get(spec) or _STAGES.setdefault(spec, [TowerStage(spec, 1, None)])
    while len(stages) < j:
        stages.append(TowerStage(spec, len(stages) + 1, stages[-1]))
    return stages[j - 1]
