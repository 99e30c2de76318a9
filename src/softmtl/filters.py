"""Crisp filters: decision, classification, enumeration, generation.

Subsets of a carrier are plain int bitmasks (bit i = element i); a mask
with a bit outside the carrier is rejected with ValueError.  A filter is
a non-empty subset closed under the product and upward-closed; the
tables are read only after :func:`softmtl.algebra.require_mtl`.  The
empty set is never produced by :func:`enumerate_filters` and is rejected
by :func:`is_filter`; the soft layer applies its own "empty set counts
as a filter of every kind" convention.

In a finite MTL-algebra every filter F is ``up(m) = {y : m <= y}`` for
the product m of all of F, and m . m = m.  So a carrier of n elements
has at most n filters, and :func:`enumerate_filters` tests only the
up-sets of the idempotents (the proof is in its docstring).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .algebra import FiniteMtlAlgebra, require_mtl

KINDS = ("filter", "boolean", "mv", "g")


def mask_of(alg: FiniteMtlAlgebra, labels) -> int:
    m = 0
    for lab in labels:
        m |= 1 << alg.index(lab)
    return m


def labels_of(alg: FiniteMtlAlgebra, mask: int) -> list[str]:
    return [alg.labels[i] for i in range(alg.n) if mask >> i & 1]


def elements(mask: int):
    i = 0
    while mask >> i:
        if mask >> i & 1:
            yield i
        i += 1


@dataclass(frozen=True)
class FilterClassification:
    """Verdicts for one subset; shared by every caller, so read-only."""

    is_filter: bool
    boolean: bool = False
    g: bool = False
    mv: bool = False
    # first (lexicographic) violating tuple per failed property
    witnesses: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    # bit i set iff the subset is not a filter of kind KINDS[i]
    fails: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))
        object.__setattr__(self, "fails", sum(1 << i for i, kind in enumerate(KINDS)
                                              if not self.has(kind)))

    def has(self, kind: str) -> bool:
        if kind == "filter":
            return self.is_filter
        return getattr(self, kind)


def _filter_by_closure(alg: FiniteMtlAlgebra, mask: int):
    """The first violation of product closure or upward closure, or None."""
    members, prod, leq, carrier = list(elements(mask)), alg.prod, alg.leq, range(alg.n)
    for x in members:
        px, lx = prod[x], leq[x]
        for y in members:
            if not mask >> px[y] & 1:
                return ("prod", x, y)
        for y in carrier:
            if lx[y] and not mask >> y & 1:
                return ("up", x, y)
    return None


def _check_mask(alg: FiniteMtlAlgebra, mask: int) -> None:
    if not 0 <= mask < 1 << alg.n:
        raise ValueError(f"mask {mask} is not a subset of the {alg.n}-element carrier")


def is_filter(alg: FiniteMtlAlgebra, mask: int) -> bool:
    """Closed under the product and upward-closed.

    Raises AlgebraError if the tables are not an MTL-algebra.
    """
    if mask == 0:
        raise ValueError("empty subset: the crisp layer requires non-empty sets")
    _check_mask(alg, mask)
    require_mtl(alg)
    return _filter_by_closure(alg, mask) is None


def classify_filter(alg: FiniteMtlAlgebra, mask: int) -> FilterClassification:
    """Flag a subset as (Boolean/G/MV-)filter by exhaustive scans.

    Each mask is classified once per algebra; later calls return the same
    frozen classification from the algebra's memo.
    """
    memo = alg.tables.classifications
    cls = memo.get(mask)
    if cls is None:
        _check_mask(alg, mask)
        require_mtl(alg)
        cls = memo[mask] = _classify(alg, mask)
    return cls


def _classify(alg: FiniteMtlAlgebra, mask: int) -> FilterClassification:
    if not mask:
        return FilterClassification(False)
    labels = alg.labels
    # a mask from enumerate_filters has passed the closure check already
    known = alg.tables.filters
    w = None if known is not None and mask in known else _filter_by_closure(alg, mask)
    if w is not None:
        return FilterClassification(
            False, witnesses={"filter": (w[0], *(labels[e] for e in w[1:]))})

    witnesses = {}
    for x, joined in enumerate(alg.tables.complement_joins):
        if not mask >> joined & 1:
            witnesses["boolean"] = (labels[x],)
            break
    for x, y, rxy, rxxy in alg.tables.g_pairs:
        if mask >> rxxy & 1 and not mask >> rxy & 1:
            witnesses["g"] = (labels[x], labels[y])
            break
    for x, y, lhs, rxy in alg.tables.mv_pairs:
        if mask >> rxy & 1 and not mask >> lhs & 1:
            witnesses["mv"] = (labels[x], labels[y])
            break
    return FilterClassification(True, boolean="boolean" not in witnesses,
                                g="g" not in witnesses, mv="mv" not in witnesses,
                                witnesses=witnesses)


def enumerate_filters(alg: FiniteMtlAlgebra) -> list[int]:
    """All non-empty filters, ordered by (size, bitmask value).

    Every filter F is ``up(m)`` for an idempotent m, so only the up-sets
    of the idempotents are tested.  Let m be the product of all of F
    (well defined by commutativity and associativity):
      - m is in F by product closure, and m <= x for every x in F by
        integrality (m = x . rest <= x), so F = up(m) by upward closure;
      - m . m is in F by product closure, so m <= m . m, and
        m . m <= m by integrality: m is idempotent.
    The result is kept on ``alg.tables``; each call returns a new list.
    """
    require_mtl(alg)
    tables = alg.tables
    if tables.filters is None:
        n, prod, leq = alg.n, alg.prod, alg.leq
        ups = (sum(1 << y for y in range(n) if leq[e][y]) for e in range(n) if prod[e][e] == e)
        tables.filters = tuple(sorted((m for m in ups if _filter_by_closure(alg, m) is None),
                                      key=lambda m: (m.bit_count(), m)))
    return list(tables.filters)


def generated_filter(alg: FiniteMtlAlgebra, mask: int) -> int:
    """Least filter containing the set: close under product and upward.

    Raises AlgebraError if the tables are not an MTL-algebra.
    """
    if mask == 0:
        raise ValueError("cannot generate a filter from the empty set")
    _check_mask(alg, mask)
    require_mtl(alg)
    cur = mask | 1 << alg.top
    while True:
        nxt = cur
        for x in elements(cur):
            for y in elements(cur):
                nxt |= 1 << alg.prod[x][y]
            for y in range(alg.n):
                if alg.leq[x][y]:
                    nxt |= 1 << y
        if nxt == cur:
            return cur
        cur = nxt


def crisp_decomposition_check(alg: FiniteMtlAlgebra) -> list[tuple[int, FilterClassification]]:
    """Counterexamples to Boolean <=> (G and MV) over all filters.

    Expected empty: the tables pass :func:`softmtl.algebra.require_mtl`
    before any filter is read, so a hit means the classifiers are broken.
    """
    bad = []
    for m in enumerate_filters(alg):
        cls = classify_filter(alg, m)
        if cls.boolean != (cls.g and cls.mv):
            bad.append((m, cls))
    return bad
