"""Level-cut soft sets over a parameter interval (lo, hi].

The parameterized family t -> {x : mu(x) >= t} (membership cut) or
t -> {x : mu(x) + t > 1} (quasi-coincidence cut) is constant between
consecutive grid points because mu takes values on the 1/D grid, so the
finitely many grid thresholds in (lo, hi] represent the whole real
interval without loss.  A level is held with the numerator j of its
threshold j/D, and ``level_at`` maps any real threshold t to the level of
its grid representative j = ceil(t*D).  ``Fraction`` appears only where
an interval or a threshold is parsed and where ``SoftSet.to_doc`` prints.

Both families are read off one array of cuts of the numerators k:
cut[j] = {x : k[x] >= j}.  The membership cut at j/D is cut[j]; the
quasi-coincidence cut at j/D is {x : k[x] + j > D} = cut[D - j + 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import FiniteMtlAlgebra, require_mtl
from .fuzzy import FuzzySet
from .filters import KINDS, classify_filter, labels_of

SOFT_KINDS = ("in", "q")


@dataclass(frozen=True)
class ParameterInterval:
    """Half-open interval (lo, hi] of parameter values."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not (0 <= self.lo < self.hi <= 1):
            raise ValueError(f"need 0 <= lo < hi <= 1, got ({self.lo}, {self.hi}]")

    def __contains__(self, t) -> bool:
        return self.lo < t <= self.hi

    def __str__(self):
        return f"({self.lo},{self.hi}]"

    def numerators(self, den: int) -> tuple[int, int]:
        """(lo * den, hi * den); raises if an endpoint is off the 1/den grid."""
        lo, lo_off = divmod(self.lo.numerator * den, self.lo.denominator)
        hi, hi_off = divmod(self.hi.numerator * den, self.hi.denominator)
        if lo_off or hi_off:
            raise ValueError(f"interval {self} is not aligned to the 1/{den} grid")
        return lo, hi

    @classmethod
    def parse(cls, text: str) -> "ParameterInterval":
        try:
            lo, hi = (Fraction(part) for part in text.split(","))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse interval {text!r}; expected e.g. '0,1' or '1/4,3/4'")
        return cls(lo, hi)


FULL = ParameterInterval(0, 1)
LOWER = ParameterInterval(0, Fraction(1, 2))
UPPER = ParameterInterval(Fraction(1, 2), 1)


def level_cuts(nums: tuple[int, ...], den: int) -> list[int]:
    """cut[j] = {x : nums[x] >= j} as a bitmask, for j = 0..den."""
    cut = [0] * (den + 1)
    for x, k in enumerate(nums):
        cut[k] |= 1 << x
    for j in range(den - 1, -1, -1):
        cut[j] |= cut[j + 1]
    return cut


def cut_index(kind: str, j: int, den: int) -> int:
    """Index into :func:`level_cuts` of the kind's level at threshold j/den."""
    return j if kind == "in" else den - j + 1


@dataclass(frozen=True)
class SoftSet:
    """Finite family of representative level sets of a fuzzy set."""

    alg: FiniteMtlAlgebra
    interval: ParameterInterval
    kind: str  # "in" or "q"
    den: int
    levels: tuple[tuple[int, int], ...]  # (j, bitmask) of each threshold j/den, ascending

    def level_at(self, t) -> int:
        """Level set at an arbitrary threshold t in (lo, hi]."""
        t = Fraction(t)
        if t not in self.interval:
            raise ValueError(f"threshold {t} outside parameter interval {self.interval}")
        # the thresholds j/den run over j = lo+1..hi, and ceil(t * den) is one of them
        return self.levels[math.ceil(t * self.den) - self.levels[0][0]][1]

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "interval": str(self.interval),
            "den": self.den,
            "levels": [[str(Fraction(j, self.den)), labels_of(self.alg, m)]
                       for j, m in self.levels],
        }


def build_soft(mu: FuzzySet, interval: ParameterInterval, kind: str) -> SoftSet:
    """The level-cut soft set of mu over the interval, of kind "in" or "q"."""
    if kind not in SOFT_KINDS:
        raise ValueError(f"unknown soft-set kind {kind!r}")
    lo, hi = interval.numerators(mu.den)
    cut = level_cuts(mu.nums, mu.den)
    levels = tuple((j, cut[cut_index(kind, j, mu.den)]) for j in range(lo + 1, hi + 1))
    return SoftSet(mu.alg, interval, kind, mu.den, levels)


def classify_soft(soft: SoftSet, kind: str = "filter"):
    """True iff every level set is a filter of the requested kind.

    The empty level passes for every kind (the conventional reading of
    the empty set as a filter).  Returns (verdict, witness) where the
    witness is the numerator j of the first failing threshold j/den, with
    the offending tuple.  Raises AlgebraError if the tables are not an
    MTL-algebra.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    require_mtl(soft.alg)
    for j, mask in soft.levels:
        if mask == 0:
            continue
        cls = classify_filter(soft.alg, mask)
        if not cls.has(kind):
            key = "filter" if not cls.is_filter else kind
            return False, (j, key, cls.witnesses.get(key))
    return True, None
