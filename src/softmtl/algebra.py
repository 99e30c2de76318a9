"""Finite MTL-algebras given as operation tables.

An algebra is loaded from a document carrying the product and residuum
tables; the lattice order is always derived from the residuum
(x <= y iff x -> y = top), never trusted from the input.  Validation is
exhaustive over all pairs/triples -- carriers are expected to be tiny
(n <= 12 or so), so O(n^3) scans are the right trade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


class AlgebraError(ValueError):
    """Malformed algebra document or structurally broken tables."""


@dataclass(frozen=True, eq=False)
class FiniteMtlAlgebra:
    """Carrier plus operation tables; immutable after load.

    Elements are indices into ``labels``; labels are presentation-only.
    ``eq=False`` keeps identity semantics.  ``tables`` holds what is
    derived from the operations, built on first use.
    """

    labels: tuple[str, ...]
    prod: tuple[tuple[int, ...], ...]
    res: tuple[tuple[int, ...], ...]
    leq: tuple[tuple[bool, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    tables: DerivedTables = field(init=False, repr=False)

    def __post_init__(self):
        # Set here, with the other attributes: an attribute added to an
        # instance later would slow every attribute read on it.
        object.__setattr__(self, "tables", DerivedTables(self))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise AlgebraError(f"unknown element label {label!r}") from None

    def __repr__(self):
        return f"FiniteMtlAlgebra({'/'.join(self.labels)})"


class DerivedTables:
    """Tables derived from one algebra's operations, each built on first use.

    Each ``*_pairs`` or ``*_triples`` table lists the instances of one law
    in lexicographic order of its variables, so the crisp and the fuzzy
    scans over it report the same first violation.  ``classifications``
    is the memo of :func:`softmtl.filters.classify_filter` by mask.
    ``mtl_failure`` is the verdict of :func:`require_mtl`: None until it
    runs, then "" for an MTL-algebra or the reason the tables are not one.
    ``filters`` is the tuple of :func:`softmtl.filters.enumerate_filters`:
    None until it runs.
    """

    def __init__(self, alg: FiniteMtlAlgebra):
        # the operation tables, not the algebra: no reference cycle
        self.prod, self.res, self.leq, self.join = alg.prod, alg.res, alg.leq, alg.join
        self.bottom, self.elems = alg.bottom, range(alg.n)
        self.classifications = {}
        self.mtl_failure = None
        self.filters = None

    @cached_property
    def neg(self) -> tuple[int, ...]:
        """x' = x -> bottom for every x."""
        return tuple(row[self.bottom] for row in self.res)

    @cached_property
    def complement_joins(self) -> tuple[int, ...]:
        """x v x' for every x."""
        return tuple(self.join[x][nx] for x, nx in enumerate(self.neg))

    @cached_property
    def mp_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(x, y, x -> y)."""
        return tuple((x, y, rxy) for x, row in enumerate(self.res) for y, rxy in enumerate(row))

    @cached_property
    def product_pairs(self) -> tuple[tuple[int, int, int, bool], ...]:
        """(x, y, x . y, x <= y)."""
        e, prod, leq = self.elems, self.prod, self.leq
        return tuple((x, y, prod[x][y], leq[x][y]) for x in e for y in e)

    @cached_property
    def contraction_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(x, y, (x -> y) -> x)."""
        e, res = self.elems, self.res
        return tuple((x, y, res[res[x][y]][x]) for x in e for y in e)

    @cached_property
    def mv_pairs(self) -> tuple[tuple[int, int, int, int], ...]:
        """(x, y, ((y -> x) -> x) -> y, x -> y)."""
        e, res = self.elems, self.res
        return tuple((x, y, res[res[res[y][x]][x]][y], res[x][y]) for x in e for y in e)

    @cached_property
    def g_pairs(self) -> tuple[tuple[int, int, int, int], ...]:
        """(x, y, x -> y, x . x -> y)."""
        e, res, prod = self.elems, self.res, self.prod
        return tuple((x, y, res[x][y], res[prod[x][x]][y]) for x in e for y in e)

    @cached_property
    def chain_triples(self) -> tuple[tuple[int, ...], ...]:
        """(x, y, z, x -> z, x -> (z' -> y), y -> z)."""
        e, res, neg = self.elems, self.res, self.neg
        return tuple((x, y, z, res[x][z], res[x][res[neg[z]][y]], res[y][z])
                     for x in e for y in e for z in e)


@dataclass
class AxiomReport:
    """Per-axiom verdicts; a violation is (axiom id, offending labels)."""

    violations: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)

    def record(self, axiom: str, alg: FiniteMtlAlgebra, *elems: int) -> None:
        tup = tuple(alg.labels[e] for e in elems)
        self.violations.setdefault(axiom, []).append(tup)

    def passed(self, axiom: str) -> bool:
        return not self.violations.get(axiom)

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())

    @property
    def failed_axioms(self) -> list[str]:
        return sorted(a for a, v in self.violations.items() if v)

    def to_doc(self) -> dict:
        return {
            "ok": self.ok,
            "violations": {a: [list(t) for t in v] for a, v in self.violations.items() if v},
        }


def _index(idx: dict[str, int], label, where: str) -> int:
    try:
        return idx[label]
    except (KeyError, TypeError):  # TypeError: an unhashable cell, such as a list
        raise AlgebraError(f"unknown label {label!r} in {where}") from None


def _parse_table(doc: dict, key: str, idx: dict[str, int]) -> list[list[int]]:
    n, table, where = len(idx), doc.get(key), f"table {key!r}"
    if not (isinstance(table, list) and len(table) == n
            and all(isinstance(row, list) and len(row) == n for row in table)):
        raise AlgebraError(f"{where} is missing or not a {n}x{n} list of lists")
    return [[_index(idx, cell, where) for cell in row] for row in table]


def load_algebra(doc: dict) -> FiniteMtlAlgebra:
    """Build a FiniteMtlAlgebra from a document (see fixtures for the shape).

    Raises AlgebraError for a malformed document.  Derives the order from
    the residuum, checks it is a lattice order with global bottom/top,
    computes meet/join as inf/sup, and cross-checks any supplied meet/join
    tables against the derived ones.
    """
    if not isinstance(doc, dict):
        raise AlgebraError(f"algebra document must be an object, got {type(doc).__name__}")
    labels = doc.get("labels")
    if not (isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)):
        raise AlgebraError("labels must be a list of strings")
    n = len(labels)
    if n < 2:
        raise AlgebraError("carrier must contain at least bottom and top")
    idx = {lab: i for i, lab in enumerate(labels)}
    if len(idx) != n:
        raise AlgebraError("duplicate element labels")

    prod = _parse_table(doc, "prod", idx)
    res = _parse_table(doc, "res", idx)
    bottom = _index(idx, doc.get("bottom", labels[0]), "'bottom'")
    top = _index(idx, doc.get("top", labels[-1]), "'top'")
    if bottom == top:
        raise AlgebraError("bottom and top must differ")

    # Order from the residuum: x <= y iff x -> y = top.
    leq = [[res[x][y] == top for y in range(n)] for x in range(n)]
    # up[x] = {y : x <= y} and down[x] = {y : y <= x}, as bitmasks
    up = [sum(1 << y for y in range(n) if row[y]) for row in leq]
    down = [sum(1 << y for y in range(n) if leq[y][x]) for x in range(n)]

    for x in range(n):
        if not leq[x][x]:
            raise AlgebraError(f"derived order not reflexive at {labels[x]}")
        if not (leq[bottom][x] and leq[x][top]):
            raise AlgebraError(f"{labels[x]} not between declared bottom and top")
    for x in range(n):
        for y in range(n):
            if x != y and up[x] >> y & 1 and up[y] >> x & 1:
                raise AlgebraError(
                    f"derived order not antisymmetric on {labels[x]},{labels[y]}")
            # x <= y <= z without x <= z, for the least such z
            escaped = up[y] & ~up[x] if up[x] >> y & 1 else 0
            if escaped:
                z = (escaped & -escaped).bit_length() - 1
                raise AlgebraError(
                    "derived order not transitive on "
                    f"{labels[x]},{labels[y]},{labels[z]}")

    def _bound(x: int, y: int, lower: bool) -> int:
        """The least-index bound of x, y above (below) every other common bound."""
        sets = down if lower else up
        common = sets[x] & sets[y]
        rest = common
        while rest:
            z = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not common & ~sets[z]:
                return z
        kind = "meet" if lower else "join"
        raise AlgebraError(f"no {kind} for {labels[x]},{labels[y]}: order is not a lattice")

    meet = [[_bound(x, y, True) for y in range(n)] for x in range(n)]
    join = [[_bound(x, y, False) for y in range(n)] for x in range(n)]

    for key, derived in (("meet", meet), ("join", join)):
        if key in doc:
            supplied = _parse_table(doc, key, idx)
            if supplied != derived:
                raise AlgebraError(f"supplied {key} table disagrees with derived order")

    freeze = lambda t: tuple(tuple(row) for row in t)
    return FiniteMtlAlgebra(
        labels=tuple(labels),
        prod=freeze(prod),
        res=freeze(res),
        leq=freeze(leq),
        meet=freeze(meet),
        join=freeze(join),
        bottom=bottom,
        top=top,
    )


def validate_mtl(alg: FiniteMtlAlgebra) -> AxiomReport:
    """Exhaustively check the residuated-lattice axioms plus prelinearity."""
    n, prod, res, leq = alg.n, alg.prod, alg.res, alg.leq
    join = alg.join
    top = alg.top
    rep = AxiomReport()

    for x in range(n):
        if prod[x][top] != x:
            rep.record("prod-unit", alg, x)
        for y in range(n):
            if prod[x][y] != prod[y][x]:
                rep.record("prod-commutative", alg, x, y)
            for z in range(n):
                if prod[prod[x][y]][z] != prod[x][prod[y][z]]:
                    rep.record("prod-associative", alg, x, y, z)
                # isotone in the first argument (commutativity covers the second)
                if leq[x][y] and not leq[prod[x][z]][prod[y][z]]:
                    rep.record("prod-isotone", alg, x, y, z)
                if leq[prod[x][y]][z] != leq[x][res[y][z]]:
                    rep.record("adjunction", alg, x, y, z)

    for x in range(n):
        for y in range(n):
            if join[res[x][y]][res[y][x]] != top:
                rep.record("prelinearity", alg, x, y)
    return rep


def require_mtl(alg: FiniteMtlAlgebra) -> None:
    """Raise AlgebraError unless the tables form an MTL-algebra.

    Every theorem is stated for MTL-algebras, so each caller that reads
    the tables as one calls this first.  :func:`validate_mtl` runs once
    per algebra, and its verdict is kept on ``alg.tables``.
    """
    tables = alg.tables
    if tables.mtl_failure is None:
        rep = validate_mtl(alg)
        if rep.ok:
            tables.mtl_failure = ""
        else:
            axiom = rep.failed_axioms[0]
            tables.mtl_failure = (
                "operation tables are inconsistent: not an MTL-algebra "
                f"({axiom} fails at ({', '.join(rep.violations[axiom][0])}))")
    if tables.mtl_failure:
        raise AlgebraError(tables.mtl_failure)


def check_derived_laws(alg: FiniteMtlAlgebra) -> AxiomReport:
    """Exhaustively check the laws every MTL-algebra must satisfy.

    These are consequences of the axioms, so a violation here on a
    validated algebra signals a table-entry defect.
    """
    n, prod, res = alg.n, alg.prod, alg.res
    leq, meet, join = alg.leq, alg.meet, alg.join
    bot, top = alg.bottom, alg.top
    neg = alg.tables.neg
    rep = AxiomReport()

    for x in range(n):
        if res[bot][x] != top:
            rep.record("bottom-residuates-to-top", alg, x)
        if res[top][x] != x:
            rep.record("top-residuum-identity", alg, x)
        if not (neg[x] == neg[neg[neg[x]]] and leq[x][neg[neg[x]]] and prod[neg[x]][x] == bot):
            rep.record("negation-laws", alg, x)
        if join[x][neg[x]] == top and meet[x][neg[x]] != bot:
            rep.record("complemented-implies-disjoint", alg, x)
        for y in range(n):
            if leq[x][y] != (res[x][y] == top):
                rep.record("order-residuum", alg, x, y)
            if res[x][res[y][x]] != top:
                rep.record("weakening", alg, x, y)
            if not leq[y][res[res[y][x]][x]]:
                rep.record("double-residuation-lift", alg, x, y)
            if not leq[prod[x][y]][meet[x][y]]:
                rep.record("prod-below-meet", alg, x, y)
            for z in range(n):
                a = res[x][res[y][z]]
                if not (a == res[prod[x][y]][z] == res[y][res[x][z]]):
                    rep.record("exchange", alg, x, y, z)
                if not (leq[res[x][y]][res[res[z][x]][res[z][y]]]
                        and leq[res[x][y]][res[res[y][z]][res[x][z]]]):
                    rep.record("residuum-monotonicity", alg, x, y, z)
                if res[x][join[y][z]] != join[res[x][y]][res[x][z]]:
                    rep.record("residuum-join-distribution", alg, x, y, z)
    return rep
