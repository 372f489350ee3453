"""Exact interval measure substrate.

Everything downstream works with finite unions of half-open rational
intervals [lo, hi).  All arithmetic is fractions.Fraction, so measures,
inner products, and bounds are exact and reproducible bit for bit.  Floats
are refused at the door: denominators in deep towers grow factorially and
no floating type survives that.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter, gt, lt
from typing import Iterable, List, Sequence, Tuple, Union

__all__ = [
    "RationalLike",
    "as_fraction",
    "Interval",
    "IntervalSet",
    "EMPTY_SET",
    "as_interval_set",
    "canonicalize",
    "set_intersection",
    "MeasureBound",
    "BoundSeries",
    "StepFunction",
]

RationalLike = Union[Fraction, int, str]

# bisect key: the left end of an Interval
_LO = attrgetter("lo")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact Fraction.

    Floats are rejected on purpose: every quantity in this package must stay
    exact, and a float sneaking in would silently poison whole pipelines.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


@dataclass(frozen=True)
class Interval:
    """Half-open rational interval [lo, hi).  Zero length (lo == hi) is allowed
    as a transient value; canonicalization drops it."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi})")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def is_empty(self) -> bool:
        return self.lo == self.hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi})"


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of half-open intervals.

    Invariant: intervals are sorted, pairwise disjoint, non-adjacent, and
    nonempty.  Construct via canonicalize() unless you already hold canonical
    data; the constructor validates.
    """

    intervals: Tuple[Interval, ...]

    def __post_init__(self):
        ivs = tuple(self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if any(iv.is_empty() for iv in ivs):
            raise ValueError("canonical interval set may not contain empty intervals")
        if any(a.hi >= b.lo for a, b in zip(ivs, ivs[1:])):
            raise ValueError("canonical interval set must be sorted and disjoint")

    @property
    def measure(self) -> Fraction:
        return sum((iv.length for iv in self.intervals), Fraction(0))

    def is_empty(self) -> bool:
        return not self.intervals

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __repr__(self) -> str:
        body = " u ".join(repr(iv) for iv in self.intervals)
        return f"{{{body or 'empty'}}}"


EMPTY_SET = IntervalSet(())


def as_interval_set(A: Union[IntervalSet, Interval]) -> IntervalSet:
    """A as a set: an Interval becomes the set of it, or the empty set when
    it has zero length; any other set is returned as it is."""
    if isinstance(A, Interval):
        return EMPTY_SET if A.is_empty() else IntervalSet((A,))
    return A


def canonicalize(intervals: Iterable[Interval]) -> IntervalSet:
    """Sort, merge overlapping or adjacent intervals, drop empty ones.

    Idempotent; the result's measure is <= the sum of the input lengths with
    equality exactly when the inputs were pairwise disjoint.
    """
    items = sorted((iv for iv in intervals if not iv.is_empty()), key=_LO)
    merged: list[Interval] = []
    for iv in items:
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return IntervalSet(tuple(merged))


def set_intersection(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out: list[Interval] = []
    i = j = 0
    av, bv = a.intervals, b.intervals
    while i < len(av) and j < len(bv):
        lo = max(av[i].lo, bv[j].lo)
        hi = min(av[i].hi, bv[j].hi)
        if lo < hi:
            out.append(Interval(lo, hi))
        if av[i].hi <= bv[j].hi:
            i += 1
        else:
            j += 1
    return IntervalSet(tuple(out))


@dataclass(frozen=True)
class MeasureBound:
    """Two-sided rational enclosure [lo, hi] of a nonnegative measure quantity."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
            object.__setattr__(self, "lo", lo := as_fraction(lo))
            object.__setattr__(self, "hi", hi := as_fraction(hi))
        if lo.numerator < 0 or lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"invalid measure bound [{lo}, {hi}]")

    @classmethod
    def exact(cls, value: RationalLike) -> "MeasureBound":
        v = as_fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def overlaps(self, other: "MeasureBound") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def __add__(self, other: "MeasureBound") -> "MeasureBound":
        return MeasureBound(self.lo + other.lo, self.hi + other.hi)

    def scale(self, factor: RationalLike) -> "MeasureBound":
        f = as_fraction(factor)
        if f < 0:
            raise ValueError("measure bounds scale by nonnegative factors only")
        return MeasureBound(self.lo * f, self.hi * f)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class BoundSeries(Mapping):
    """Bounds [lo_i/den, hi_i/den] on ascending int keys `domain`, a range or
    a sorted tuple: a read-only Mapping from int to MeasureBound held as two
    int lists over one positive denominator.  0 <= lo_i <= hi_i is checked
    once per vector, in integers, and a range's order by its step alone; []
    builds one validated MeasureBound."""

    __slots__ = ("domain", "lo", "hi", "den")

    def __init__(self, domain: Sequence[int], lo: List[int], hi: List[int], den: int):
        ordered = domain.step > 0 if type(domain) is range else all(map(lt, domain, domain[1:]))
        if not (ordered and den > 0 and len(domain) == len(lo) == len(hi)) \
                or min(lo, default=0) < 0 or any(map(gt, lo, hi)):
            raise ValueError(f"invalid bound series over denominator {den}")
        self.domain, self.lo, self.hi, self.den = domain, lo, hi, den

    def __getitem__(self, k: int) -> MeasureBound:
        i = bisect_left(self.domain, k) if isinstance(k, int) else len(self)
        if i == len(self) or self.domain[i] != k:
            raise KeyError(k)
        return MeasureBound(Fraction(self.lo[i], self.den), Fraction(self.hi[i], self.den))

    def __iter__(self):
        return iter(self.domain)

    def __len__(self) -> int:
        return len(self.domain)

    def maximum(self, start: int = 0) -> MeasureBound:
        """Componentwise max of the entries from position start on."""
        return MeasureBound(Fraction(max(self.lo[start:]), self.den),
                            Fraction(max(self.hi[start:]), self.den))


@dataclass(frozen=True)
class StepFunction:
    """Finitely supported rational step function, zero off its pieces.

    Stored canonically as sorted disjoint segments (lo, hi, value) with
    nonzero values and adjacent equal-valued segments merged.
    """

    segments: Tuple[Tuple[Fraction, Fraction, Fraction], ...]

    @classmethod
    def from_pieces(cls, pieces: Sequence[Tuple[IntervalSet, RationalLike]]) -> "StepFunction":
        """The function with each value on its support; the supports of the
        nonzero values must be disjoint."""
        segs = sorted((iv.lo, iv.hi, v) for support, value in pieces
                      if (v := as_fraction(value)) for iv in support.intervals)
        if any(s[1] > t[0] for s, t in zip(segs, segs[1:])):
            raise ValueError("step function pieces must have disjoint supports")
        return cls.summed(segs)

    @classmethod
    def summed(cls, segments: Iterable[Tuple[Fraction, Fraction, Fraction]]) -> "StepFunction":
        """Pointwise sum of (lo, hi, v) segments that may overlap, in one
        sweep: v steps in at lo and out at hi, and the running sums between
        consecutive ends are the pieces, zeros dropped and equal neighbours
        merged."""
        steps: dict[Fraction, Fraction] = {}
        for lo, hi, v in segments:
            steps[lo] = steps.get(lo, 0) + v
            steps[hi] = steps.get(hi, 0) - v
        ends, merged = sorted(steps), []
        for lo, hi, v in zip(ends, ends[1:], accumulate(steps[x] for x in ends)):
            if merged and merged[-1][1] == lo and merged[-1][2] == v:
                merged[-1] = (merged[-1][0], hi, v)
            elif v:
                merged.append((lo, hi, v))
        return cls(tuple(merged))

    @classmethod
    def indicator(cls, support: IntervalSet, value: RationalLike = 1) -> "StepFunction":
        return cls.from_pieces([(support, value)])

    def integral(self) -> Fraction:
        return sum(((hi - lo) * v for lo, hi, v in self.segments), Fraction(0))

    def add(self, other: "StepFunction") -> "StepFunction":
        """Pointwise sum, exact: one sweep over the segments of both."""
        return StepFunction.summed(self.segments + other.segments)

    def l2_norm_sq(self) -> Fraction:
        return sum(((hi - lo) * v * v for lo, hi, v in self.segments), Fraction(0))

