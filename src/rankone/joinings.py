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
from itertools import chain, repeat
from operator import add, mul, sub
from sys import byteorder
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .averaging import WeightSequence
from .construction import MAX_BITS, ConstructionSpec, LevelSet, build_stage
from .errors import EmptyFSetError, SpecError
from .measure import IntervalSet, MeasureBound, RationalLike, as_fraction
from .stats import _check_resolution, _classes, _measure, _stage_counts
from .transform import CHUNK, Cursor

__all__ = [
    "BlockIndex",
    "BlockMasses",
    "LightBlocks",
    "BlockMassMatrix",
    "LightBlockReport",
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


class BlockMasses(Mapping):
    """The masses of an h_a x h_b block grid as integer counts of one
    `unit`, the mass of one count: by lag, counts is {z2 - z1: n} and every
    block on lag d has count n, or range(1 - h_a, h_b) for count 1 on every
    block; by block, it is {BlockIndex: n} in row-major order.

    A read-only Mapping from BlockIndex to Fraction over the counted blocks:
    [], get, `in` and len are O(1); iteration and items go in row-major
    order, which is sorted order.  size, the counted blocks, and total, the
    count summed over them, are summed once, in O(keys), or O(1) for a range.
    """

    __slots__ = ("h_a", "h_b", "counts", "unit", "by_lag", "size", "total")

    def __init__(self, h_a: int, h_b: int, counts: Union[Dict, range], unit: Fraction,
                 by_lag: bool):
        self.h_a, self.h_b, self.counts, self.unit, self.by_lag = h_a, h_b, counts, unit, by_lag
        ns = (1,) if (whole := isinstance(counts, range)) else counts.values()
        if whole:
            if not by_lag or counts != range(1 - h_a, h_b):
                raise SpecError(f"a range of counts must be the grid's lags, "
                                f"range({1 - h_a}, {h_b})")
            self.size, self.total, on_grid = h_a * h_b, h_a * h_b, True
        elif by_lag:
            # lag d covers h_a + d blocks below min(0, h_b - h_a), h_b - d
            # above max(0, h_b - h_a) and min(h_a, h_b) between: none off the grid
            lo, hi, mid = min(0, h_b - h_a), max(0, h_b - h_a), min(h_a, h_b)
            covers = [h_b - d if d > hi else mid if d >= lo else h_a + d for d in counts]
            self.size, self.total = sum(covers), sum(map(mul, ns, covers))
            on_grid = min(covers, default=1) > 0
        else:
            self.size, self.total = len(counts), sum(ns)
            on_grid = all(lo <= min(zs) and max(zs) < hi  # the z1, then the z2
                          for zs, lo, hi in zip(zip(*counts), (0, 0), (h_a, h_b)))
        if not on_grid:
            raise SpecError("block index out of tower range")
        if unit.numerator <= 0 or min(ns, default=0) < 0:  # a Fraction's sign is its numerator's
            raise SpecError("negative block mass")

    def key(self, z) -> object:
        """Block z's key in counts, z2 - z1 by lag; KeyError off the grid."""
        if isinstance(z, tuple) and len(z) == 2 and 0 <= z[0] < self.h_a and 0 <= z[1] < self.h_b:
            return z[1] - z[0] if self.by_lag else z
        raise KeyError(z)

    def __getitem__(self, z) -> Fraction:
        key = self.key(z)
        return self.unit if isinstance(self.counts, range) else self.unit * self.counts[key]

    def __iter__(self) -> Iterator[BlockIndex]:
        if not (self.by_lag and self.counts):
            return iter(self.counts)
        return chain.from_iterable(self._rows())

    def __len__(self) -> int:
        return self.size

    def count_of(self, blocks: Iterable[Tuple[int, int]]) -> int:
        """The counts of the blocks summed, repeats included, 0 off the grid."""
        counts, h_a, h_b, lag = self.counts, self.h_a, self.h_b, self.by_lag
        if isinstance(counts, range):  # count 1 on every block of the grid
            return sum(0 <= z1 < h_a and 0 <= z2 < h_b for z1, z2 in blocks)
        return sum(counts.get(z2 - z1 if lag else (z1, z2), 0) for z1, z2 in blocks
                   if 0 <= z1 < h_a and 0 <= z2 < h_b)

    def column_count(self, rows: int, w: int, h: int) -> int:
        """The counts of the blocks (w + i, h + i), i a set bit of the row mask
        `rows`, each on the grid: by lag, the popcount times lag h - w's count;
        by block, the counted blocks of that lag whose row is set."""
        counts = self.counts
        if not self.by_lag:  # row i is bit i & 7 of byte i >> 3, one O(1) read a block
            bits = rows.to_bytes(-(-rows.bit_length() // 8), "little")
            return sum(n for (z1, z2), n in counts.items() if z2 - z1 == h - w
                       and 0 <= (i := z2 - h) < 8 * len(bits) and bits[i >> 3] >> (i & 7) & 1)
        return rows.bit_count() * (1 if isinstance(counts, range) else counts.get(h - w, 0))

    def items(self) -> Iterator[Tuple[BlockIndex, Fraction]]:
        """(block, mass) in row-major order, one Fraction per distinct count."""
        counts = self.counts
        if isinstance(counts, range):
            return zip(self, repeat(self.unit))
        mass = {n: self.unit * n for n in set(counts.values())}
        if not self.by_lag:
            return zip(counts, map(mass.__getitem__, counts.values()))
        return chain.from_iterable(self._rows({d: mass[n] for d, n in counts.items()}))

    def _rows(self, of_lag: Optional[Dict[int, Fraction]] = None) -> Iterator[Iterator]:
        """By lag, row z1's blocks (z1, z1 + d), d = -z1 .. h_b - 1 - z1 in counts,
        made at C level, each zipped with of_lag[d] if given; row by row."""
        lags, h_b = self.counts if isinstance(self.counts, range) else sorted(self.counts), self.h_b
        for z1 in range(self.h_a):
            ds = lags[bisect_left(lags, -z1):bisect_left(lags, h_b - z1)]
            row = map(tuple.__new__, repeat(BlockIndex), zip(repeat(z1), map(z1.__add__, ds)))
            yield row if of_lag is None else zip(row, map(of_lag.__getitem__, ds))


class LightBlocks(Mapping):
    """The blocks of a matrix's grid less the heavy ones, each mapped to
    its mass (0 when uncounted), listed only when iterated.  heavy is the
    BlockMasses of the matrix's heavy keys: [], `in` and len are O(1);
    iteration and rows() go in sorted order."""

    __slots__ = ("masses", "heavy")

    def __init__(self, masses: BlockMasses, heavy: BlockMasses):
        self.masses, self.heavy = masses, heavy

    def __getitem__(self, z) -> Fraction:
        if self.masses.key(z) in self.heavy.counts:
            raise KeyError(z)
        return self.masses.get(z, Fraction(0))

    def __iter__(self) -> Iterator[BlockIndex]:
        return (BlockIndex(z1, z2) for z1, z2s in self.rows() for z2 in z2s)

    def __len__(self) -> int:
        return self.masses.h_a * self.masses.h_b - self.heavy.size

    def rows(self) -> Iterator[Tuple[int, Sequence[int]]]:
        """(z1, the light z2 of row z1) for each row z1 in order, a range where
        the row holds no heavy block; no row when every block is heavy."""
        h_a, h_b = self.masses.h_a, self.masses.h_b
        if not (light := h_a * h_b - self.heavy.size) or not self.heavy.counts:
            return zip(range(h_a) if light else (), repeat(range(h_b)))
        cut: Dict[int, set] = {}
        for z1, z2 in self.heavy:
            cut.setdefault(z1, set()).add(z2)
        return ((z1, [z2 for z2 in range(h_b) if z2 not in cut[z1]] if z1 in cut else range(h_b))
                for z1 in range(h_a))


@dataclass(frozen=True)
class BlockMassMatrix:
    """Masses of the stage-j blocks of one joining, plus the residual mass
    the block grid does not capture (spacer regions, unresolved overlaps,
    orbit time outside either tower): 1 - unit x total, never negative.

    norm_a / norm_b are the ambient measures used to normalize each side.
    The rest is derived: h_a x h_b, the masses' grid, is the two towers'
    stage-j grid; level_mass_a / _b are the stage-j widths over the norms,
    and level_mass_b is the light-block threshold's scale.
    """

    kind: str
    j: int
    masses: BlockMasses
    norm_a: Fraction
    norm_b: Fraction
    spec_a: ConstructionSpec
    spec_b: ConstructionSpec
    meta: Dict[str, object] = field(default_factory=dict)
    h_a: int = field(init=False)
    h_b: int = field(init=False)
    residual: Fraction = field(init=False)
    level_mass_a: Fraction = field(init=False)
    level_mass_b: Fraction = field(init=False)

    def __post_init__(self):
        if self.kind not in ("product", "graph", "empirical"):
            raise SpecError(f"unknown matrix kind: {self.kind!r}")
        m, sa, sb = self.masses, build_stage(self.spec_a, self.j), build_stage(self.spec_b, self.j)
        if (m.h_a, m.h_b) != (sa.height, sb.height):
            raise SpecError(f"a {m.h_a} x {m.h_b} block grid on {sa.height} x {sb.height} towers")
        if (residual := 1 - m.unit * m.total) < 0:
            raise SpecError(f"block masses sum to {1 - residual}, more than 1")
        self.__dict__.update(h_a=sa.height, h_b=sb.height, residual=residual,  # past the frozen
                             level_mass_a=sa.width / self.norm_a,  # __setattr__, once
                             level_mass_b=sb.width / self.norm_b)

    def mass_of(self, blocks: Iterable[Tuple[int, int]]) -> Fraction:
        """Total mass of the blocks, each counted as often as given, none
        off the grid."""
        return self.masses.unit * self.masses.count_of(blocks)


def product_blocks(spec_a: ConstructionSpec, spec_b: ConstructionSpec, j: int,
                   J: int) -> BlockMassMatrix:
    """Product-measure block matrix: every block carries the product of the
    two level measures; the residual is the mass of the product space off
    the stage-j tower product.

    Every block has count 1 of unit per: the counts are the grid's lag
    range, so building the matrix, checking it and light_blocks' test cost
    O(1): all blocks are light or none is.  Walking the blocks is left to
    the listings.
    """
    _check_resolution(j, J)
    sa, sb = build_stage(spec_a, j), build_stage(spec_b, j)
    Ma, Mb = build_stage(spec_a, J).total, build_stage(spec_b, J).total
    masses = BlockMasses(sa.height, sb.height, range(1 - sa.height, sb.height),
                         sa.width / Ma * sb.width / Mb, True)
    return BlockMassMatrix(kind="product", j=j, masses=masses, norm_a=Ma, norm_b=Mb,
                           spec_a=spec_a, spec_b=spec_b, meta={"J": J})


def graph_blocks(spec: ConstructionSpec, k: int, j: int, J: int) -> BlockMassMatrix:
    """Self-joining supported on the graph of T^k: block (z1, z2) receives
    mu(T^{z1}E_j intersect T^{z2+k}E_j), resolved combinatorially at stage J
    with unresolved overlap absorbed into the residual.

    Masses are over the stage-J ambient measure M_J (norm_a = norm_b =
    M_J), not the limit system's M_inf > M_J where later stages add
    spacers, so a shallow J overstates them: block (0, 0) of the h1 = 2
    staircase at k = 0, j = 2 reads 2/5 at J = 3 and 1/3 at J = 4.

    That mass is w_J times the occurrence pairs (p, p + z2 + k - z1) of E_j
    at stage J, so it depends only on z2 - z1: the counts are by lag, of
    unit w_J / M_J, the nonzero ones of stats._stage_counts of E_j = (j, 1)
    over the lags k - h_j + 1 .. k + h_j - 1, which builds no stage-J set.
    Both occurrences of a pair start whole stage-j copies, so every pair
    resolves inside the stage-J tower."""
    _check_resolution(j, J)
    st, stJ = build_stage(spec, j), build_stage(spec, J)
    h, M = st.height, stJ.total
    lags = _stage_counts(spec, (j, 1), (j, 1), range(k - h + 1, k + h), J)[0]
    masses = BlockMasses(h, h, {i - h + 1: n for i, n in enumerate(lags) if n},
                         stJ.width / M, True)
    return BlockMassMatrix(kind="graph", j=j, masses=masses, norm_a=M, norm_b=M,
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
    with N.  The counts are by block, in row-major order, of unit 1/N."""
    _check_resolution(j, J)
    if N < 1:
        raise SpecError("empirical joining needs N >= 1")
    chunks, _, sa, sb, ca, cb = _paired_codes(spec_a, spec_b, x_a, x_b, N, j, J,
                                              step_a, step_b)
    blocks = _block_counts(sorted(Counter(chain.from_iterable(chunks)).items()),
                           sa.height, sb.height)
    Ra, Rb = ca.stage_obj.stage, cb.stage_obj.stage
    masses = BlockMasses(sa.height, sb.height, blocks, Fraction(1, N), False)
    return BlockMassMatrix(
        kind="empirical", j=j, masses=masses, spec_a=spec_a, spec_b=spec_b,
        norm_a=build_stage(spec_a, Ra).total, norm_b=build_stage(spec_b, Rb).total,
        meta={"J": J, "N": N, "seeds": (str(as_fraction(x_a)), str(as_fraction(x_b))),
              "step_a": step_a, "step_b": step_b,
              "deepest_stage_a": Ra, "deepest_stage_b": Rb})


@dataclass(frozen=True)
class LightBlockReport:
    """Blocks whose mass falls strictly below epsilon times the base
    measure, and the total joining mass they carry.  light_set maps each
    light block to its mass in sorted order, listing none until iterated:
    a LightBlocks view of the matrix's grid less its heavy keys."""

    epsilon: Fraction
    j: int
    kind: str
    light_set: LightBlocks
    covered_mass: Fraction
    total_blocks: int

    @property
    def heavy_count(self) -> int:
        return self.light_set.heavy.size


def light_blocks(m: BlockMassMatrix, epsilon: RationalLike) -> LightBlockReport:
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise SpecError("epsilon must be positive")
    masses, (a, b), (p, q) = m.masses, eps.as_integer_ratio(), m.level_mass_b.as_integer_ratio()
    # the least count n with n * unit >= eps * level_mass_b
    bound = -(-a * p * masses.unit.denominator // (b * q * masses.unit.numerator))
    counts = masses.counts
    heavy = BlockMasses(m.h_a, m.h_b, (counts if bound <= 1 else {}) if isinstance(counts, range)
                        else {key: n for key, n in counts.items() if n >= bound},
                        masses.unit, masses.by_lag)
    return LightBlockReport(epsilon=eps, j=m.j, kind=m.kind,
                            light_set=LightBlocks(masses, heavy),
                            covered_mass=masses.unit * (masses.total - heavy.total),
                            total_blocks=m.h_a * m.h_b)


def di_estimate(reports: Sequence[LightBlockReport]) -> Fraction:
    """Finite-stage proxy for the powder mass: min over the epsilon schedule
    of the largest covered light mass seen at any reported stage.

    This stands in for a limit of a limsup; it is a report on the computed
    (epsilon, j) table, not the limit itself.  Requires at least two
    distinct epsilons and two distinct stages.
    """
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
    by n ticks: the landing counts by block, of unit 1/conditioning_count."""

    n: int
    conditioning_count: int
    histogram: BlockMasses
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
        hist = BlockMasses(h_a, h_b, _block_counts(sorted(counts.items()), h_a, h_b),
                           Fraction(1, used), False)
        rows.append(DispersionRow(
            n=n, conditioning_count=used, histogram=hist,
            max_mass=hist.unit * max(hist.counts.values(), default=0),
            residual=1 - hist.unit * hist.total))
    return tuple(rows)


@dataclass(frozen=True)
class FSetSpec:
    """Union of vertical translates of the column of blocks (w+i, i),
    i = 0..i_max = floor(delta*h_j), all on lag -w, with the joining-derived
    weights over the shift set."""

    delta: Fraction
    w: int
    i_max: int
    shifts: Tuple[int, ...]
    nu_F: Fraction
    weights: WeightSequence


def _check_column(m: BlockMassMatrix, w: int, i_max: int, shifts: Iterable[int]) -> None:
    """Refuse a column (w + i, i), i <= i_max, off m's grid or shifted out of
    the second tower, and a row mask past MAX_BITS, before any walk."""
    if not (0 <= w <= w + i_max < m.h_a and i_max < m.h_b):  # i_max >= 0, too
        raise SpecError(f"column blocks run out of the block grid (h_a={m.h_a}, h_b={m.h_b})")
    if i_max + 1 > MAX_BITS:
        raise SpecError(f"{i_max + 1} level bits requested, more than the limit of {MAX_BITS}")
    for h in shifts:
        if h < 0 or i_max + h > m.h_b - 1:
            raise SpecError(f"shift h={h} pushes the column out of the second "
                            f"tower (i_max={i_max}, h_j={m.h_b})")


def columns_and_F(m: BlockMassMatrix, delta: RationalLike, w: int,
                  shifts: Sequence[int]) -> FSetSpec:
    """Assemble F = union over h in shifts of the column (w+i, i),
    i = 0..floor(delta*h_j), translated up by h, with weights a_h
    proportional to each translate's joining mass, all on lag h - w."""
    d = as_fraction(delta)
    if not (0 < d < 1):
        raise SpecError("delta must lie strictly between 0 and 1")
    if not shifts:
        raise SpecError("shift set must be nonempty")
    if len(set(shifts)) != len(shifts):
        raise SpecError("shift set has duplicates")
    _check_column(m, w, i_max := int(d * m.h_b), shifts)
    rows = (1 << i_max + 1) - 1
    per_shift = {h: m.masses.column_count(rows, w, h) for h in sorted(shifts)}
    total = sum(per_shift.values())
    if total == 0:
        raise EmptyFSetError(
            f"F set carries no joining mass (column w={w}, "
            f"shifts {sorted(shifts)})")
    return FSetSpec(delta=d, w=w, i_max=i_max, shifts=tuple(sorted(shifts)),
                    nu_F=m.masses.unit * total, weights=WeightSequence(per_shift.items(), total))


@dataclass(frozen=True)
class TrivializationRecord:
    """The conditional product test's sides and its display, whose width is the escape slack."""

    conditional: Fraction
    reference: Fraction
    gap: Fraction
    display_sum: Optional[MeasureBound]
    display_gap: Optional[MeasureBound]


def trivialization_check(m: BlockMassMatrix, F: FSetSpec, A: Union[IntervalSet, LevelSet],
                         B: Union[IntervalSet, LevelSet], k: int) -> TrivializationRecord:
    """Compare nu(A x B | F) against mu(A)mu(B), and against the shifted-
    column display sum_h a_h nu(A x T^{-h}B | C).

    Both sides read whole stage-j blocks: A and B are unions of stage-k
    levels, k <= j, so stage-j levels never straddle them: cut at the stage-k
    cells (stats._classes), such a set is one class.  F's column blocks and
    every shifted block must lie in m's grid (refused otherwise), so T^{-h}
    moves whole stage-j levels within one copy of the second tower.
    display fields are None when the base column itself carries no mass.

    One walk on A's and B's stage-j level bitsets: the column rows i with
    w + i in A are the row mask sel = A >> w, masked to rows 0..i_max, and
    for each shift h the hit rows with i + h in B are sel & B >> h.  Their
    blocks (w + i, i + h) give the conditional and the empirical display,
    the exact whole-block transport (within-tower shifts lose no orbit
    mass).  Product and graph displays count the blocks (w + i, i) and
    widen by the escape, w_J each: the levels of B below h, which T^{-h}
    pushes off the bottom copy when a block is picked, and for graph
    matrices the occurrences of each hit level i that T^k pushes off, from
    stats._stage_counts' escape on E_j = (j, 1), a popcount per step.
    """
    if not (1 <= k <= m.j):
        raise SpecError(f"need 1 <= k <= j, got k={k}, j={m.j}")
    _check_column(m, w := F.w, i_max := F.i_max, F.shifts)
    if F.nu_F <= 0 or not set(F.weights.support) <= set(F.shifts):
        raise SpecError("F needs nu_F > 0 and its weights on its own shifts")
    levels = []
    for label, spec, S in (("A", m.spec_a, A), ("B", m.spec_b, B)):
        found = _classes(build_stage(spec, k), S)  # a union of levels is one class, or none
        if found.keys() - {(0, 1, 1)}:
            raise SpecError(f"{label} is not a union of stage-{k} levels")
        levels.append(build_stage(spec, m.j).occurrence_bits(*found.get((0, 1, 1), (k, 0))))
    in_A, in_B = levels

    column, unit, rows = m.masses.column_count, m.masses.unit, (1 << i_max + 1) - 1
    n_C, ns, sel = column(rows, w, 0), dict(F.weights.numerators), in_A >> w & rows
    wide = bool(n_C and sel) and m.kind != "empirical"  # the display has escapes to add
    if wide and m.kind == "graph":
        # escape[z2]: the occurrences p of E_j with p + z2 + k off the tower, as its steps
        kg = m.meta["k"]
        escape = _stage_counts(m.spec_b, (m.j, 1), (m.j, 1), range(kg, kg + m.h_b), m.meta["J"])[1]
        steps = [(i, d) for i, d in enumerate(map(sub, escape, [0, *escape])) if d]
    # counts of the shifted hit blocks; weighted, of the displayed blocks and escapes
    cond = moved = out = 0
    for h in F.shifts:
        hit = sel & in_B >> h
        cond += (n_hit := column(hit, w, h))
        if n_h := ns.get(h):
            moved += n_h * (n_hit if m.kind == "empirical" else column(hit, w, 0))
            out += wide and n_h * ((in_B & (1 << h) - 1).bit_count() + (
                m.kind == "graph" and sum(d * (hit >> i).bit_count() for i, d in steps)))
    conditional = unit * cond / F.nu_F
    reference = (_measure(m.spec_a, A) / m.norm_a) * (_measure(m.spec_b, B) / m.norm_b)

    display_sum = display_gap = None
    if n_C:
        lo = hi = unit * moved / F.weights.den
        if out:
            w_J = build_stage(m.spec_b, m.meta["J"]).width
            s = m.level_mass_a * w_J / m.norm_b if m.kind == "product" else w_J / m.norm_a
            hi += s * out / F.weights.den
        display_sum = MeasureBound(lo / (unit * n_C), hi / (unit * n_C))
        d0, d1 = display_sum.lo - conditional, display_sum.hi - conditional
        display_gap = MeasureBound(max(Fraction(0), d0, -d1), max(abs(d0), abs(d1)))
    return TrivializationRecord(conditional=conditional, reference=reference,
                                gap=abs(conditional - reference),
                                display_sum=display_sum, display_gap=display_gap)
