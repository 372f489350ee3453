"""Helpers that only the tests call, kept out of the library: each takes
the object it used to be a method or property of as its first argument and
computes what that method computed."""

from bisect import bisect_right
from fractions import Fraction

from rankone.construction import build_stage
from rankone.joinings import UniformBlockMasses
from rankone.measure import Interval, as_fraction, set_difference


# --------------------------------------------------------- BlockMassMatrix

def total_block_mass(m):
    return 1 - m.residual


def row_sum(m, z1):
    masses = m.masses
    if isinstance(masses, UniformBlockMasses):
        return masses.per * m.h_b if 0 <= z1 < m.h_a else Fraction(0)
    return sum((v for (a, _), v in masses.items() if a == z1), Fraction(0))


def col_sum(m, z2):
    masses = m.masses
    if isinstance(masses, UniformBlockMasses):
        return masses.per * m.h_a if 0 <= z2 < m.h_b else Fraction(0)
    return sum((v for (_, b), v in masses.items() if b == z2), Fraction(0))


# ------------------------------------------------------------ StepFunction

def value_at(f, x):
    x = as_fraction(x)
    k = bisect_right(f.segments, x, key=lambda s: s[0]) - 1
    if k >= 0 and x < f.segments[k][1]:
        return f.segments[k][2]
    return Fraction(0)


def sup_abs(f):
    return max((abs(v) for _, _, v in f.segments), default=Fraction(0))


# ------------------------------------------------------------ MeasureBound

def is_exact(b):
    return b.lo == b.hi


def contains_value(b, value):
    v = as_fraction(value)
    return b.lo <= v <= b.hi


def is_subinterval_of(b, other):
    return other.lo <= b.lo and b.hi <= other.hi


# -------------------------------------------------- Interval, IntervalSet

def contains_interval(a, other):
    return other.is_empty() or (a.lo <= other.lo and other.hi <= a.hi)


def is_subset_of(A, B):
    return set_difference(A, B).is_empty()


# -------------------------------------------------------------- TowerStage

def level_lo(stage, i):
    return stage.cell(i) * stage.width


def top(stage):
    return stage.level(stage.height - 1)


def ambient(stage):
    return Interval(Fraction(0), stage.total)


# ------------------------------------------- FlowSkeletonSpec, WeightSequence

def coarse_height(fspec, j):
    return build_stage(fspec.base, j).height // fspec.grid_inverse


def as_dict(w):
    return dict(w.weights)
