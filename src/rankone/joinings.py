"""Block partitions of a product system and joining mass accounting.

A block V^(z1,z2) at stage j is the product of level z1 of the first tower
with level z2 of the second.  Matrices of block masses come in three kinds:
the product measure (every block carries the product of level measures), a
graph self-joining along a power shift (mass rides the diagonal band), and
empirical histograms of a paired orbit.  All masses are kept in probability
units relative to the realizing resolution, so mass totals, light-block
thresholds, and covered-mass reports are directly comparable across kinds.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product, repeat
from operator import add
from sys import byteorder
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .averaging import WeightSequence, flatness
from .construction import ConstructionSpec, LevelSet, build_stage
from .errors import EmptyFSetError, SpecError
from .measure import IntervalSet, MeasureBound, RationalLike, as_fraction
from .stats import _check_resolution, _classes, _measure, _stage_counts
from .transform import CHUNK, Cursor

__all__ = [
    "BlockIndex",
    "UniformBlockMasses",
    "LightBlocks",
    "BlockMassMatrix",
    "LightBlockReport",
    "ColumnSpec",
    "FSetSpec",
    "DispersionRow",
    "TrivializationRecord",
    "product_blocks",
    "graph_blocks",
    "empirical_joining",
    "light_blocks",
    "di_estimate",
    "dispersion_experiment",
    "columns_and_F",
    "trivialization_check",
]


class BlockIndex(NamedTuple):
    z1: int
    z2: int


class UniformBlockMasses(Mapping):
    """The masses of an h_a x h_b block grid in which every block carries
    the same mass `per`, held as those three numbers.

    A read-only Mapping from BlockIndex to Fraction: [], get, `in` and len
    are O(1); iteration yields the h_a * h_b blocks in row-major order,
    which is sorted order, at C level, and costs O(h_a h_b) only when a
    caller iterates.
    """

    __slots__ = ("h_a", "h_b", "per")

    def __init__(self, h_a: int, h_b: int, per: Fraction):
        self.h_a, self.h_b, self.per = h_a, h_b, per

    def __getitem__(self, z) -> Fraction:
        if (isinstance(z, tuple) and len(z) == 2
                and 0 <= z[0] < self.h_a and 0 <= z[1] < self.h_b):
            return self.per
        raise KeyError(z)

    def __iter__(self) -> Iterator[BlockIndex]:
        # BlockIndex._make on each pair, at C level
        return map(tuple.__new__, repeat(BlockIndex),
                   product(range(self.h_a), range(self.h_b)))

    def __len__(self) -> int:
        return self.h_a * self.h_b

    def __repr__(self) -> str:
        return f"UniformBlockMasses({self.h_a}, {self.h_b}, {self.per})"

    def rows(self) -> Iterator[Tuple[int, range]]:
        """(z1, the z2 of row z1) for each row z1, in order."""
        return zip(range(self.h_a), repeat(range(self.h_b)))


class LightBlocks(Mapping):
    """The blocks of an h_a x h_b grid less the heavy ones, each mapped to
    its mass in `masses` (0 when absent), listed only when iterated: [],
    `in` and len are O(1); iteration and rows() go in sorted order."""

    __slots__ = ("h_a", "h_b", "masses", "heavy")

    def __init__(self, h_a: int, h_b: int, masses: Mapping[BlockIndex, Fraction],
                 heavy: Iterable[BlockIndex]):
        self.h_a, self.h_b, self.masses, self.heavy = h_a, h_b, masses, set(heavy)

    def __getitem__(self, z) -> Fraction:
        if (isinstance(z, tuple) and len(z) == 2 and 0 <= z[0] < self.h_a
                and 0 <= z[1] < self.h_b and z not in self.heavy):
            return self.masses.get(z, Fraction(0))
        raise KeyError(z)

    def __iter__(self) -> Iterator[BlockIndex]:
        return (BlockIndex(z1, z2) for z1, z2s in self.rows() for z2 in z2s)

    def __len__(self) -> int:
        return self.h_a * self.h_b - len(self.heavy)

    def rows(self) -> Iterator[Tuple[int, Sequence[int]]]:
        """(z1, the light z2 of row z1) for each row z1, in order."""
        cut: Dict[int, set] = {}
        for z1, z2 in self.heavy:
            cut.setdefault(z1, set()).add(z2)
        for z1 in range(self.h_a):
            yield z1, ([z2 for z2 in range(self.h_b) if z2 not in cut[z1]]
                       if z1 in cut else range(self.h_b))


@dataclass(frozen=True)
class BlockMassMatrix:
    """Masses of the stage-j blocks of one joining, plus the residual mass
    the block grid does not capture (spacer regions, unresolved overlaps,
    orbit time outside either tower).  Masses + residual = 1 exactly.

    norm_a / norm_b are the ambient measures used to normalize each side;
    base_mass is the second system's stage-j base measure in those units and
    is the reference scale for the light-block threshold.  masses is a
    dict, or a UniformBlockMasses for the product joining, whose check
    below costs O(1) and whose mass_of adds no Fraction per block.
    """

    kind: str
    j: int
    h_a: int
    h_b: int
    masses: Mapping[BlockIndex, Fraction]
    residual: Fraction
    norm_a: Fraction
    norm_b: Fraction
    level_mass_a: Fraction
    level_mass_b: Fraction
    base_mass: Fraction
    spec_a: ConstructionSpec
    spec_b: ConstructionSpec
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        total = self.residual
        masses = self.masses
        if isinstance(masses, UniformBlockMasses):
            if (masses.h_a, masses.h_b) != (self.h_a, self.h_b):
                raise SpecError(f"uniform block grid {masses.h_a} x {masses.h_b} "
                                f"does not match towers {self.h_a} x {self.h_b}")
            if masses.per < 0:
                raise SpecError("negative block mass")
            total += masses.per * len(masses)
        else:
            for (z1, z2), m in masses.items():
                if not (0 <= z1 < self.h_a and 0 <= z2 < self.h_b):
                    raise SpecError(f"block index ({z1}, {z2}) out of tower range")
                if m < 0:
                    raise SpecError(f"negative block mass at ({z1}, {z2})")
                total += m
        if self.residual < 0:
            raise SpecError("negative residual mass")
        if total != 1:
            raise SpecError(f"block masses + residual sum to {total}, expected 1")

    def mass(self, z: BlockIndex) -> Fraction:
        return self.masses.get(z, Fraction(0))

    def mass_of(self, blocks: Iterable[Tuple[int, int]]) -> Fraction:
        """Total mass of the blocks, each counted as often as given, none
        off the grid: on a uniform grid, per times the blocks in the grid."""
        masses, h_a, h_b = self.masses, self.h_a, self.h_b
        if isinstance(masses, UniformBlockMasses):
            return masses.per * sum(1 for z1, z2 in blocks if 0 <= z1 < h_a and 0 <= z2 < h_b)
        return sum(map(masses.get, blocks, repeat(0)), Fraction(0))


def product_blocks(spec_a: ConstructionSpec, spec_b: ConstructionSpec, j: int,
                   J: int) -> BlockMassMatrix:
    """Product-measure block matrix: every block carries the product of the
    two level measures; the residual is the mass of the product space off
    the stage-j tower product.

    The masses are one UniformBlockMasses (h_a, h_b, per), so building the
    matrix, checking it and its row and column sums cost O(1) in the
    number of blocks, and so does light_blocks' test, since all blocks are
    light or none is.  Walking the h_a * h_b blocks is left to the
    listings, `joining blocks` and the `joining light` listing of an
    all-light report, whose light set is this UniformBlockMasses.
    """
    _check_resolution(j, J)
    sa, sb = build_stage(spec_a, j), build_stage(spec_b, j)
    Ma, Mb = build_stage(spec_a, J).total, build_stage(spec_b, J).total
    la, lb = sa.width / Ma, sb.width / Mb
    per = la * lb
    masses = UniformBlockMasses(sa.height, sb.height, per)
    covered = per * len(masses)
    return BlockMassMatrix(
        kind="product", j=j, h_a=sa.height, h_b=sb.height, masses=masses,
        residual=1 - covered, norm_a=Ma, norm_b=Mb,
        level_mass_a=la, level_mass_b=lb, base_mass=lb,
        spec_a=spec_a, spec_b=spec_b, meta={"J": J})


def graph_blocks(spec: ConstructionSpec, k: int, j: int, J: int) -> BlockMassMatrix:
    """Self-joining supported on the graph of T^k: block (z1, z2) receives
    mu(T^{z1}E_j intersect T^{z2+k}E_j), resolved combinatorially at stage J
    with unresolved overlap absorbed into the residual (masses are exact
    lower bounds).

    That mass is w_J times the occurrence pairs (p, p + z2 + k - z1) of E_j
    at stage J, so it depends only on z2 - z1: the matrix is one vector of
    lag counts, stats._stage_counts of E_j = (j, 1) over the lags k - h_j
    + 1 .. k + h_j - 1, which builds no stage-J set.  Both occurrences of a
    pair start whole stage-j copies, so every pair resolves inside the
    stage-J tower.  The dict is built from the nonzero lags in row-major
    order; lag d covers h - |d| blocks."""
    _check_resolution(j, J)
    st, stJ = build_stage(spec, j), build_stage(spec, J)
    h, M = st.height, stJ.total
    lags = _stage_counts(spec, (j, 1), (j, 1), range(k - h + 1, k + h), J)[0]
    w_norm = stJ.width / M
    nonzero = [(d - h + 1, n * w_norm) for d, n in enumerate(lags) if n]  # (z2 - z1, mass)
    masses = {BlockIndex(z1, z1 + d): x for z1 in range(h) for d, x in nonzero
              if 0 <= z1 + d < h}
    covered = sum((x * (h - abs(d)) for d, x in nonzero), Fraction(0))
    lvl = st.width / M
    return BlockMassMatrix(
        kind="graph", j=j, h_a=h, h_b=h, masses=masses, residual=1 - covered,
        norm_a=M, norm_b=M, level_mass_a=lvl, level_mass_b=lvl, base_mass=lvl,
        spec_a=spec, spec_b=spec, meta={"J": J, "k": k})


# Ticks a paired orbit may run, N plus the largest advance: 10^7 took 1.5 s and 103 MB dispersing.
MAX_TICKS = 10_000_000


def _paired_codes(spec_a: ConstructionSpec, spec_b: ConstructionSpec, x_a: RationalLike,
                  x_b: RationalLike, ticks: int, j: int, J: int, step_a: int, step_b: int):
    """(chunks, typecode, stage j of each system, the two cursors): `ticks`
    ticks of the orbit of (x_a, x_b), x_a moved step_a steps and x_b step_b
    a tick, as za * (h_b + 1) + zb for the stage-j levels, h_a or h_b where
    unborn, CHUNK a chunk, each side packed in the narrowest typecode (lists
    past 64 bits) and the two added as one int.  The side with fewer ticks
    fills first, the first on a tie, so it is the one to escape when both do
    at one tick.  Over MAX_TICKS is refused before any cursor is built."""
    if ticks > MAX_TICKS:
        raise SpecError(f"{ticks} ticks requested, more than the limit of {MAX_TICKS}")
    sa, sb = build_stage(spec_a, j), build_stage(spec_b, j)
    ca = Cursor(spec_a, as_fraction(x_a), stage_budget=J)
    cb = Cursor(spec_b, as_fraction(x_b), stage_budget=J)
    top = (sa.height + 1) * (sb.height + 1) - 1
    tc = next((t for t, bits in zip("BHIQ", (8, 16, 32, 64)) if top >> bits == 0), None)
    sides = ca.codes(j, step_a, sb.height + 1, tc), cb.codes(j, step_b, 1, tc)

    def chunks() -> Iterator[Sequence[int]]:
        bufs = ([], []) if tc is None else (array(tc), array(tc))
        for done in range(0, ticks, CHUNK):
            n = min(CHUNK, ticks - done)
            while min(map(len, bufs)) < n:
                side = len(bufs[1]) < len(bufs[0])
                bufs[side].extend(next(sides[side]))
            a, b = bufs[0][:n], bufs[1][:n]
            del bufs[0][:n], bufs[1][:n]
            yield list(map(add, a, b)) if tc is None else array(tc, (
                int.from_bytes(a, byteorder) + int.from_bytes(b, byteorder)
            ).to_bytes(n * a.itemsize, byteorder))
    return chunks(), tc, sa, sb, ca, cb


def _block_counts(counts: Iterable[Tuple[int, int]], h_a: int, h_b: int
                  ) -> Dict[BlockIndex, int]:
    """The counts of the codes of blocks in the h_a x h_b grid, keyed by
    block in the order given; codes with an unborn level are left out."""
    return {BlockIndex(*z): c for code, c in counts
            if (z := divmod(code, h_b + 1))[0] < h_a and z[1] < h_b}


def empirical_joining(spec_a: ConstructionSpec, spec_b: ConstructionSpec,
                      x_a: RationalLike, x_b: RationalLike, N: int, j: int,
                      J: int, step_a: int = 1, step_b: int = 1) -> BlockMassMatrix:
    """Block-mass histogram of the paired orbit of (x_a, x_b) over N steps.

    Each tick advances the first point by step_a applications and the second
    by step_b (both default 1); the pair's stage-j levels index the block.
    Ticks with either point in spacer mass unborn at stage j count toward
    the residual.  Orbit refinement is capped at stage J; OrbitEscaped
    propagates when the budget is insufficient.  N is at most MAX_TICKS;
    the ticks are counted a packed chunk at a time, so memory does not grow
    with N."""
    _check_resolution(j, J)
    if N < 1:
        raise SpecError("empirical joining needs N >= 1")
    chunks, _, sa, sb, ca, cb = _paired_codes(spec_a, spec_b, x_a, x_b, N, j, J,
                                              step_a, step_b)
    blocks = _block_counts(Counter(chain.from_iterable(chunks)).items(), sa.height, sb.height)
    masses = {z: Fraction(c, N) for z, c in blocks.items()}
    Ra, Rb = ca.stage_obj.stage, cb.stage_obj.stage
    Ma, Mb = build_stage(spec_a, Ra).total, build_stage(spec_b, Rb).total
    return BlockMassMatrix(
        kind="empirical", j=j, h_a=sa.height, h_b=sb.height, masses=masses,
        residual=Fraction(N - sum(blocks.values()), N), norm_a=Ma, norm_b=Mb,
        level_mass_a=sa.width / Ma, level_mass_b=sb.width / Mb,
        base_mass=sb.width / Mb, spec_a=spec_a, spec_b=spec_b,
        meta={"J": J, "N": N, "seeds": (str(as_fraction(x_a)), str(as_fraction(x_b))),
              "step_a": step_a, "step_b": step_b,
              "deepest_stage_a": Ra, "deepest_stage_b": Rb})


@dataclass(frozen=True)
class LightBlockReport:
    """Blocks whose mass falls strictly below epsilon times the base
    measure, and the total joining mass they carry.  light_set maps each
    light block to its mass in sorted order, listing none until iterated:
    a uniform matrix's own UniformBlockMasses (an empty one when no block
    is light), or a LightBlocks view of a dict matrix's grid."""

    epsilon: Fraction
    j: int
    kind: str
    light_set: Mapping[BlockIndex, Fraction]
    covered_mass: Fraction
    total_blocks: int

    @property
    def heavy_count(self) -> int:
        return self.total_blocks - len(self.light_set)


def light_blocks(m: BlockMassMatrix, epsilon: RationalLike) -> LightBlockReport:
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise SpecError("epsilon must be positive")
    threshold = eps * m.base_mass
    masses = m.masses
    if isinstance(masses, UniformBlockMasses):
        # one mass for every block: all blocks are light or none is
        light = masses if masses.per < threshold else UniformBlockMasses(0, 0, masses.per)
        covered = masses.per * len(light)
    else:
        # a block absent from the dict has mass 0, so it is light
        light = LightBlocks(m.h_a, m.h_b, masses,
                            [z for z, x in masses.items() if x >= threshold])
        covered = sum((x for x in masses.values() if x < threshold), Fraction(0))
    return LightBlockReport(epsilon=eps, j=m.j, kind=m.kind,
                            light_set=light, covered_mass=covered,
                            total_blocks=m.h_a * m.h_b)


def di_estimate(reports: Sequence[LightBlockReport]) -> Fraction:
    """Finite-stage proxy for the powder mass: min over the epsilon schedule
    of the largest covered light mass seen at any reported stage.

    This stands in for a limit of a limsup; it is a report on the computed
    (epsilon, j) table, not the limit itself.  Requires at least two
    distinct epsilons and two distinct stages.
    """
    if not reports:
        raise SpecError("di_estimate needs at least one report")
    kinds = {r.kind for r in reports}
    if len(kinds) > 1:
        raise SpecError(f"reports mix joining kinds: {sorted(kinds)}")
    by_eps: Dict[Fraction, List[LightBlockReport]] = {}
    for r in reports:
        by_eps.setdefault(r.epsilon, []).append(r)
    if len(by_eps) < 2:
        raise SpecError("epsilon schedule must contain at least 2 distinct values")
    if len({r.j for r in reports}) < 2:
        raise SpecError("reports must cover at least 2 stages")
    return min(max(r.covered_mass for r in group) for group in by_eps.values())


# Blocks one listing may print: 839,680 took 0.6 s in joining light, 1.4 s in joining blocks.
MAX_BLOCKS = 1_000_000


@dataclass(frozen=True)
class DispersionRow:
    """Conditional block distribution after advancing the conditioned times
    by n ticks."""

    n: int
    conditioning_count: int
    histogram: Dict[BlockIndex, Fraction]
    max_mass: Fraction
    residual: Fraction


def dispersion_experiment(spec_a: ConstructionSpec, spec_b: ConstructionSpec,
                          x_a: RationalLike, x_b: RationalLike, N: int,
                          z: BlockIndex, n_list: Sequence[int], j: int, J: int,
                          step_a: int = 1, step_b: int = 1,
                          ) -> Tuple[DispersionRow, ...]:
    """Condition the paired orbit on visits to block z, advance those times
    by each n, and histogram where the conditioned mass lands.

    A heavy source block whose conditional mass disperses over several
    blocks under some advance n is the spreading mechanism this probes.  The
    track is the packed chunks joined in one array of their typecode."""
    _check_resolution(j, J)
    z, h_a, h_b = BlockIndex(*z), build_stage(spec_a, j).height, build_stage(spec_b, j).height
    if not (0 <= z.z1 < h_a and 0 <= z.z2 < h_b):  # off the grid, z's code is another's
        raise SpecError(f"block {tuple(z)} is off the {h_a} x {h_b} grid of stage {j}")
    if N < 1:
        raise SpecError("dispersion experiment needs N >= 1")
    if not n_list:
        raise SpecError("n_list must be nonempty")
    chunks, tc, *_ = _paired_codes(spec_a, spec_b, x_a, x_b, N + max(max(n_list), 0),
                                   j, J, step_a, step_b)
    track = [] if tc is None else array(tc)
    for chunk in chunks:
        track.extend(chunk)
    hits, i = [], -1
    with suppress(ValueError):
        while True:
            i = track.index(z.z1 * (h_b + 1) + z.z2, i + 1, N)
            hits.append(i)
    if not hits:
        raise SpecError(f"conditioning set empty: block {tuple(z)} has count 0 "
                        f"in the first {N} ticks")
    rows = []
    for n in n_list:
        # the hits m with m + n >= 0: m + n < ticks holds for every hit, m < N
        landed = hits[bisect_left(hits, -n):]
        if not landed:
            raise SpecError(f"advance n={n} leaves no conditioned times in range")
        used = len(landed)
        counts = Counter(map(track.__getitem__, map(n.__add__, landed)))
        blocks = _block_counts(sorted(counts.items()), h_a, h_b)
        hist = {b: Fraction(c, used) for b, c in blocks.items()}
        rows.append(DispersionRow(
            n=n, conditioning_count=used, histogram=hist,
            max_mass=max(hist.values(), default=Fraction(0)),
            residual=Fraction(used - sum(blocks.values()), used)))
    return tuple(rows)


@dataclass(frozen=True)
class ColumnSpec:
    """Diagonal strip of blocks: (w+i, i) for i = 0..floor(delta*h_j)."""

    delta: Fraction
    w: int
    j: int
    members: Tuple[BlockIndex, ...]


def _make_column(m: BlockMassMatrix, delta: RationalLike, w: int) -> ColumnSpec:
    d = as_fraction(delta)
    if not (0 < d < 1):
        raise SpecError("delta must lie strictly between 0 and 1")
    if w < 0:
        raise SpecError("column offset w must be nonnegative")
    i_max = int(d * m.h_b)
    if w + i_max > m.h_a - 1:
        raise SpecError(
            f"column blocks (w+i, i) run out of the first tower: "
            f"w={w}, i_max={i_max}, h={m.h_a}")
    members = tuple(BlockIndex(w + i, i) for i in range(i_max + 1))
    return ColumnSpec(delta=d, w=w, j=m.j, members=members)


@dataclass(frozen=True)
class FSetSpec:
    """Union of vertical translates of a column, with the joining-derived
    weights over the shift set."""

    column: ColumnSpec
    shifts: Tuple[int, ...]
    nu_F: Fraction
    weights: WeightSequence
    weight_flatness: Fraction


def _check_shifts(m: BlockMassMatrix, i_max: int, shifts: Iterable[int]) -> None:
    for h in shifts:
        if h < 0 or i_max + h > m.h_b - 1:
            raise SpecError(f"shift h={h} pushes the column out of the second "
                            f"tower (i_max={i_max}, h_j={m.h_b})")


def columns_and_F(m: BlockMassMatrix, delta: RationalLike, w: int,
                  shifts: Sequence[int]) -> FSetSpec:
    """Assemble F = union over h in shifts of the column translated up by h,
    with weights a_h proportional to each translate's joining mass."""
    col = _make_column(m, delta, w)
    if not shifts:
        raise SpecError("shift set must be nonempty")
    if len(set(shifts)) != len(shifts):
        raise SpecError("shift set has duplicates")
    _check_shifts(m, col.members[-1].z2, shifts)
    per_shift = {h: m.mass_of((z1, z2 + h) for z1, z2 in col.members)
                 for h in sorted(shifts)}
    nu_F = sum(per_shift.values(), Fraction(0))
    if nu_F == 0:
        raise EmptyFSetError(
            f"F set carries no joining mass (column w={col.w}, "
            f"shifts {sorted(shifts)})")
    weights = WeightSequence(tuple((h, v / nu_F) for h, v in per_shift.items()))
    return FSetSpec(column=col, shifts=tuple(sorted(shifts)), nu_F=nu_F,
                    weights=weights, weight_flatness=flatness(weights, 0))


@dataclass(frozen=True)
class TrivializationRecord:
    """Both sides of the conditional product test, with the two-path display
    evaluation and its enclosure."""

    j: int
    k: int
    conditional: Fraction
    reference: Fraction
    gap: Fraction
    display_sum: Optional[MeasureBound]
    display_gap: Optional[MeasureBound]
    weight_flatness: Fraction
    escape_slack: Fraction


def trivialization_check(m: BlockMassMatrix, F: FSetSpec, A: Union[IntervalSet, LevelSet],
                         B: Union[IntervalSet, LevelSet], k: int) -> TrivializationRecord:
    """Compare nu(A x B | F) against mu(A)mu(B), and against the shifted-
    column display sum_h a_h nu(A x T^{-h}B | C).

    Both sides read whole stage-j blocks: A and B are unions of stage-k
    levels, k <= j, so stage-j levels never straddle them: cut at the stage-k
    cells (stats._classes), such a set is one class.  F's column
    blocks and every shifted block must lie in m's grid (refused
    otherwise), so T^{-h} moves whole stage-j levels within one copy of the
    second tower; mass it pushes off the tower, and for graph matrices the
    mass T^k pushes off, widens the display's enclosure.  For empirical
    matrices the display is the exact whole-block transport (within-tower
    shifts lose no orbit mass).  display fields are None when the base
    column itself carries no mass.
    """
    if not (1 <= k <= m.j):
        raise SpecError(f"need 1 <= k <= j, got k={k}, j={m.j}")
    members = F.column.members
    if any(not (0 <= z1 < m.h_a and 0 <= z2 < m.h_b) for z1, z2 in members):
        raise SpecError(f"column blocks run out of the block grid "
                        f"(h_a={m.h_a}, h_b={m.h_b})")
    if F.nu_F <= 0 or not set(F.weights.support) <= set(F.shifts):
        raise SpecError("F needs nu_F > 0 and its weights on its own shifts")
    _check_shifts(m, max((z2 for _, z2 in members), default=0), F.shifts)
    in_sets = []
    for label, spec, S in (("A", m.spec_a, A), ("B", m.spec_b, B)):
        found = _classes(build_stage(spec, k), S)  # a union of levels is one class, or none
        if found.keys() - {(0, 1, 1)}:
            raise SpecError(f"{label} is not a union of stage-{k} levels")
        in_sets.append(build_stage(spec, m.j).occurrence_bits(*found.get((0, 1, 1), (k, 0))))
    in_A, in_B = in_sets

    # per_shift[h]: the mass of the selected blocks of the column shifted by h
    per_shift = {h: m.mass_of((z1, z2 + h) for z1, z2 in members
                              if in_A >> z1 & 1 and in_B >> (z2 + h) & 1)
                 for h in F.shifts}
    conditional = sum(per_shift.values(), Fraction(0)) / F.nu_F
    reference = (_measure(m.spec_a, A) / m.norm_a) * (_measure(m.spec_b, B) / m.norm_b)
    gap = abs(conditional - reference)

    nu_C = m.mass_of(members)
    display_sum = display_gap = None
    slack = Fraction(0)
    if nu_C > 0:
        lo, hi = _display_route(m, F, in_A, in_B, per_shift)
        display_sum = MeasureBound(lo / nu_C, hi / nu_C)
        slack = display_sum.width
        d0, d1 = display_sum.lo - conditional, display_sum.hi - conditional
        display_gap = MeasureBound(max(Fraction(0), d0, -d1), max(abs(d0), abs(d1)))
    return TrivializationRecord(
        j=m.j, k=k, conditional=conditional, reference=reference, gap=gap,
        display_sum=display_sum, display_gap=display_gap,
        weight_flatness=F.weight_flatness, escape_slack=slack)


def _display_route(m: BlockMassMatrix, F: FSetSpec, in_A: int, in_B: int,
                   per_shift: Dict[int, Fraction]) -> Tuple[Fraction, Fraction]:
    """Enclosure of sum_h a_h nu(A x T^{-h}B intersect C), unnormalized.

    in_A, in_B are A's and B's stage-j level bitsets, and per_shift[h] is
    the mass of the column's blocks inside A x T^{-h}B.  Level z2 + h of
    a block (z1, z2) lies in z2's stage-j copy, so a block is hit by shift
    h iff level z2 + h is in B, and T^{-h} pushes off the tower only the
    levels of B below h in the bottom copy, w_J each.  A graph block also
    loses to T^k the occurrences of level z2 that lag k pushes off, read
    from the escape vector of stats._stage_counts on E_j = (j, 1)."""
    if m.kind == "empirical":
        val = sum((a_h * per_shift[h] for h, a_h in F.weights.weights), Fraction(0))
        return val, val
    if m.kind not in ("product", "graph"):
        raise SpecError(f"unknown matrix kind: {m.kind!r}")
    sel = [bi for bi in F.column.members if in_A >> bi.z1 & 1]
    if not sel:
        return Fraction(0), Fraction(0)
    stJ = build_stage(m.spec_b, m.meta["J"])
    if m.kind == "product":
        s, escape = m.level_mass_a * stJ.width / m.norm_b, [0] * m.h_b
    else:
        # escape[z2]: the occurrences p of E_j with p + z2 + k off the tower
        s, k = stJ.width / m.norm_a, m.meta["k"]
        escape = _stage_counts(m.spec_b, (m.j, 1), (m.j, 1), range(k, k + m.h_b), m.meta["J"])[1]
    lo = out = Fraction(0)
    for h, a_h in F.weights.weights:
        hit = [bi for bi in sel if in_B >> (bi.z2 + h) & 1]
        lo += a_h * m.mass_of(hit)
        n = (in_B & ((1 << h) - 1)).bit_count() + sum(escape[z2] for _, z2 in hit)
        out += a_h * n
    return lo, lo + s * out
