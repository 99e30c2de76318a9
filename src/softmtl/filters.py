"""Crisp filters: decision, classification, enumeration, generation.

Subsets of a carrier are plain int bitmasks (bit i = element i); a mask
with a bit outside the carrier is rejected with ValueError.  A filter is
a non-empty subset closed under the product and upward-closed; the
tables are read only after :func:`softmtl.algebra.require_mtl`.  The
empty set is never produced by :func:`enumerate_filters` and is rejected
by :func:`is_filter`; the soft layer applies its own "empty set counts
as a filter of every kind" convention.

In a finite MTL-algebra the filters are exactly the up-sets
``up(m) = {y : m <= y}`` of the idempotents m, so a carrier of n
elements has at most n filters (proof in :func:`enumerate_filters`).
A filter is of a kind iff it holds the kind's mask ``requires[kind]``:
every x v x' (Boolean), x -> x . x (G) or (x -> y) -> (((y -> x) -> x)
-> y) (MV); proof in ``docs/verifier.md``, "Crisp kinds".  A failed
kind's law table (:class:`softmtl.algebra.DerivedTables`) is scanned
only to name its first witness.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .algebra import FiniteMtlAlgebra, require_mtl

KINDS = ("filter", "boolean", "mv", "g")
_EVERY = (1 << len(KINDS)) - 1  # the fails of a set that is no filter
_LAWS = {"boolean": "complement", "g": "g", "mv": "mv"}  # each kind's law table


def mask_of(alg: FiniteMtlAlgebra, labels) -> int:
    m = 0
    for lab in labels:
        m |= 1 << alg.index(lab)
    return m


def labels_of(alg: FiniteMtlAlgebra, mask: int) -> list[str]:
    return [alg.labels[i] for i in range(alg.n) if mask >> i & 1]


def elements(mask: int) -> list[int]:
    """The positions of the bits set in ``mask``, ascending."""
    return [x for x, bit in enumerate(reversed(bin(mask))) if bit == "1"]


@dataclass(frozen=True)
class FilterClassification:
    """Verdicts for one subset; shared by every caller, so read-only."""

    # bit i set iff the subset is not a filter of kind KINDS[i]
    fails: int
    # first (lexicographic) violating tuple per failed property
    witnesses: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))

    def has(self, kind: str) -> bool:
        return not self.fails >> KINDS.index(kind) & 1

    @property
    def is_filter(self) -> bool:
        return not self.fails & 1

    @property
    def boolean(self) -> bool:
        return not self.fails & 2

    @property
    def mv(self) -> bool:
        return not self.fails & 4

    @property
    def g(self) -> bool:
        return not self.fails & 8


def _filter_by_closure(alg: FiniteMtlAlgebra, mask: int):
    """The first violation of product closure or upward closure, or None."""
    members, prod, leq, carrier = elements(mask), alg.prod, alg.leq, range(alg.n)
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
    """Flag a subset as (Boolean/G/MV-)filter, with each failed kind's first witness.

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
        return FilterClassification(_EVERY)
    labels, tables = alg.labels, alg.tables
    # a mask from enumerate_filters is a filter
    known = tables.filters
    w = None if known is not None and mask in known else _filter_by_closure(alg, mask)
    if w is not None:
        return FilterClassification(_EVERY, {"filter": (w[0], *(labels[e] for e in w[1:]))})

    fails, witnesses = 0, {}
    for kind, need in tables.requires.items():
        if need & ~mask:
            fails |= 1 << KINDS.index(kind)
            # witness: its law's first instance with q in the set and p not (a complement q is 1)
            ins = next((ins for ins in getattr(tables, _LAWS[kind])
                        if mask >> ins[1] & 1 and not mask >> ins[0] & 1), None)
            if ins is None:
                raise RuntimeError(f"{kind} mask missed by {labels_of(alg, mask)}, whose law holds")
            witnesses[kind] = tuple(labels[v] for v in ins[4:] if v is not None)
    return FilterClassification(fails, witnesses)


def enumerate_filters(alg: FiniteMtlAlgebra) -> list[int]:
    """All non-empty filters, ordered by (size, bitmask value).

    The filters are exactly the up-sets ``up(m)`` of the idempotents m,
    so none is scanned.  Let m be the product of all of a filter F (well
    defined by commutativity and associativity):
      - m is in F by product closure, and m <= x for every x in F by
        integrality (m = x . rest <= x), so F = up(m) by upward closure;
      - m . m is in F by product closure, so m <= m . m, and
        m . m <= m by integrality: m is idempotent.
    Conversely, up(m) for an idempotent m is a filter: it holds m, it is
    upward closed, and x, y >= m give x . y >= m . y >= m . m = m by
    isotonicity in each argument.
    The result is kept on ``alg.tables``; each call returns a new list.
    """
    require_mtl(alg)
    tables = alg.tables
    if tables.filters is None:
        prod, ups = alg.prod, tables.ups
        tables.filters = tuple(sorted((ups[e] for e in range(alg.n) if prod[e][e] == e),
                                      key=lambda m: (m.bit_count(), m)))
    return list(tables.filters)


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
