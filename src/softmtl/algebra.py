"""Finite MTL-algebras given as operation tables.

An algebra is loaded from a document carrying the product and residuum
tables; the lattice order is always derived from the residuum
(x <= y iff x -> y = top), never trusted from the input.  The meet of
x and y is the element whose down-set is the set of their common lower
bounds, found by looking that set up as a bitmask; the join is dual.

Validation is exhaustive over all pairs/triples.  Carriers run from the
2-element Boolean algebra to products of 24 to 36 elements, and a law
over triples has up to n^3 = 46656 instances, too many for one Python
step each.  So the laws over triples are first decided by the byte-row
kernels of :mod:`softmtl.kernels`, which compare both sides of a law at
every triple in C and answer whether it fails anywhere.  Only when a
kernel finds a failure do the literal triple loops run, over every
triple, so a report holds the same violations, in the same order, as
the plain loops; a failing table costs what the plain loops cost.

Isotonicity has no kernel of its own: it follows from adjunction at
every triple and the order checks of the load.  Let x <= y.  Then
y . z <= y . z gives y <= z -> y . z by adjunction, so x <= z -> y . z
by transitivity, and adjunction again gives x . z <= y . z.  A byte
holds an index below 256, so a carrier over 256 elements skips the
kernels and runs the literal loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .kernels import AXIOM_KERNELS, LAW_KERNELS


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

    Each fuzzy-filter law has one table, named as its scan's route (``mp``,
    ``product``, ``complement``, ``chain``, ``contraction``) or kind
    (``mv``, ``g``).  An instance (p, q, r, tag, x, y, z) is the inequality
    mu(p) >= min(mu(q), mu(r)), with r = q where the law makes one
    comparison, and its tag and variables (None where unused) name it.
    On values c it is violated iff c[p] < c[q] and c[p] < c[r].  A table
    lists its instances in lexicographic order of their variables, mp's
    unit instances first and each pair's order instance after its product
    instance, so the fuzzy scans (:data:`softmtl.fuzzy._SCANS`) and the
    crisp witnesses read the same first violation off it.
    ``classifications`` is the memo of
    :func:`softmtl.filters.classify_filter` by mask.
    ``mtl_failure`` is the verdict of :func:`validate_mtl`: None until it
    runs, then "" for an MTL-algebra or the reason the tables are not one.
    ``filters`` is the tuple of :func:`softmtl.filters.enumerate_filters`:
    None until it runs.

    What the verifier derives from the order alone is kept here too, so
    every run on the algebra after the first reads it (see
    :mod:`softmtl.verifier`, "Per algebra").  ``up_sets`` is the complete
    list of :func:`softmtl.fuzzy.up_sets`: None until one listing
    completes.  ``atoms`` maps each cut a run met, the carrier, the
    up-sets and one other set, to its atom, an int.  ``automaton`` maps a
    rank count r to the rows of the chain automaton that a DP over r ranks
    walks (:func:`softmtl.fuzzy.chain_automaton`): tuples of ints, the
    nodes it expanded.  All of them start empty, so loading an algebra
    builds nothing new.
    """

    def __init__(self, alg: FiniteMtlAlgebra):
        # the operation tables, not the algebra: no reference cycle
        self.prod, self.res, self.leq, self.join = alg.prod, alg.res, alg.leq, alg.join
        self.bottom, self.top, self.elems = alg.bottom, alg.top, range(alg.n)
        self.classifications = {}
        self.mtl_failure = None
        self.filters = None
        self.up_sets = None
        self.atoms = {}
        self.automaton = {}

    @cached_property
    def neg(self) -> tuple[int, ...]:
        """x' = x -> bottom for every x."""
        return tuple(row[self.bottom] for row in self.res)

    @cached_property
    def ups(self) -> tuple[int, ...]:
        """For every x, the bitmask of the elements above it, x included.

        :func:`load_algebra` sets it from the masks it checks the order with.
        """
        return _masks(self.leq)

    @cached_property
    def above(self) -> tuple[int, ...]:
        """For every x, the bitmask of the elements strictly above it."""
        return tuple(up ^ 1 << x for x, up in enumerate(self.ups))

    @cached_property
    def complement_mask(self) -> int:
        """The mask of every x v x': a Boolean filter holds all of it."""
        return sum(1 << j for j in {ins[0] for ins in self.complement})

    @cached_property
    def g_needs(self) -> tuple[int, ...]:
        """For every v, the mask of the x -> y with x . x -> y = v: a G-filter
        holding v holds all of them."""
        res, prod = self.res, self.prod
        return self._needs(zip(chain.from_iterable(res[prod[x][x]] for x in self.elems),
                               chain.from_iterable(res)))

    @cached_property
    def mv_needs(self) -> tuple[int, ...]:
        """For every v, the mask of the ((y -> x) -> x) -> y with x -> y = v:
        an MV-filter holding v holds all of them."""
        return self._needs((ins[1], ins[0]) for ins in self.mv)

    def _needs(self, implications) -> tuple[int, ...]:
        """For every v, the mask of the w of the implications (v, w)."""
        needs = [0] * len(self.elems)
        for v, w in set(implications):
            needs[v] |= 1 << w
        return tuple(needs)

    @cached_property
    def mp(self) -> tuple[tuple, ...]:
        """mu(1) >= mu(x), then mu(y) >= min(mu(x -> y), mu(x))."""
        top = self.top
        return (*((top, x, x, "unit", x, None, None) for x in self.elems),
                *((y, rxy, x, "mp", x, y, None)
                  for x, row in enumerate(self.res) for y, rxy in enumerate(row)))

    @cached_property
    def product(self) -> tuple[tuple, ...]:
        """mu(x . y) >= min(mu(x), mu(y)), then mu(y) >= mu(x) if x <= y, pair by pair."""
        instances = []
        for x, (row, below) in enumerate(zip(self.prod, self.leq)):
            for y, pxy in enumerate(row):
                instances.append((pxy, x, y, "product", x, y, None))
                if below[y]:
                    instances.append((y, x, x, "order", x, y, None))
        return tuple(instances)

    @cached_property
    def complement(self) -> tuple[tuple, ...]:
        """mu(x v x') >= mu(1)."""
        join, top = self.join, self.top
        return tuple((join[x][nx], top, top, "complement", x, None, None)
                     for x, nx in enumerate(self.neg))

    @cached_property
    def chain(self) -> tuple[tuple, ...]:
        """mu(x -> z) >= min(mu(x -> (z' -> y)), mu(y -> z))."""
        res = self.res
        return tuple((rx[z], rx[res[nz][y]], ry[z], "chain", x, y, z) for x, rx in enumerate(res)
                     for y, ry in enumerate(res) for z, nz in enumerate(self.neg))

    @cached_property
    def contraction(self) -> tuple[tuple, ...]:
        """mu(x) >= mu((x -> y) -> x)."""
        res = self.res
        return tuple((x, r, r, "contraction", x, y, None) for x, row in enumerate(res)
                     for y, r in enumerate(res[rxy][x] for rxy in row))

    @cached_property
    def mv(self) -> tuple[tuple, ...]:
        """mu(((y -> x) -> x) -> y) >= mu(x -> y)."""
        res = self.res
        return tuple((res[res[res[y][x]][x]][y], rxy, rxy, "mv", x, y, None)
                     for x, row in enumerate(res) for y, rxy in enumerate(row))

    @cached_property
    def g(self) -> tuple[tuple, ...]:
        """mu(x -> y) >= mu(x . x -> y)."""
        res, prod = self.res, self.prod
        return tuple((rxy, rxxy, rxxy, "g", x, y, None) for x, row in enumerate(res)
                     for y, rxy, rxxy in zip(self.elems, row, res[prod[x][x]]))


_DIGITS = b"01" + bytes(254)


def _masks(rows) -> tuple[int, ...]:
    """Each row of booleans as the bitmask of its true positions."""
    # a row as "0"s and "1"s, position 0 last, read in base 2
    return tuple(int(bytes(row).translate(_DIGITS)[::-1], 2) for row in rows)


@dataclass
class AxiomReport:
    """Per-axiom verdicts; a violation is (axiom id, offending labels)."""

    violations: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)

    def record(self, axiom: str, alg: FiniteMtlAlgebra, *elems: int) -> None:
        tup = tuple(alg.labels[e] for e in elems)
        self.violations.setdefault(axiom, []).append(tup)

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


def _decode(idx: dict[str, int], labels, where: str) -> list[int]:
    try:
        return [idx[label] for label in labels]
    except (KeyError, TypeError):  # TypeError: an unhashable label, such as a list
        bad = next(x for x in labels if not isinstance(x, str) or x not in idx)
        raise AlgebraError(f"unknown label {bad!r} in {where}") from None


def _parse_table(doc: dict, key: str, idx: dict[str, int]) -> list[list[int]]:
    n, table, where = len(idx), doc.get(key), f"table {key!r}"
    if not (isinstance(table, list) and len(table) == n
            and all(isinstance(row, list) and len(row) == n for row in table)):
        raise AlgebraError(f"{where} is missing or not a {n}x{n} list of lists")
    return [_decode(idx, row, where) for row in table]


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
    [bottom] = _decode(idx, [doc.get("bottom", labels[0])], "'bottom'")
    [top] = _decode(idx, [doc.get("top", labels[-1])], "'top'")
    if bottom == top:
        raise AlgebraError("bottom and top must differ")

    # Order from the residuum: x <= y iff x -> y = top.
    leq = [[res[x][y] == top for y in range(n)] for x in range(n)]
    # up[x] = {y : x <= y} and down[x] = {y : y <= x}, as bitmasks
    up, down = _masks(leq), _masks(zip(*leq))

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

    # With the order antisymmetric and transitive, z is the meet of x and y
    # iff down[z] is the set of common lower bounds down[x] & down[y], and
    # dually for the join; distinct elements have distinct down-sets.
    def _bounds(masks: tuple[int, ...], kind: str) -> list[list[int]]:
        of = {m: z for z, m in enumerate(masks)}
        table = [[of.get(mx & my) for my in masks] for mx in masks]
        for x, row in enumerate(table):
            if None in row:
                y = row.index(None)
                raise AlgebraError(
                    f"no {kind} for {labels[x]},{labels[y]}: order is not a lattice")
        return table

    meet = _bounds(down, "meet")
    join = _bounds(up, "join")

    for key, derived in (("meet", meet), ("join", join)):
        if key in doc:
            supplied = _parse_table(doc, key, idx)
            if supplied != derived:
                raise AlgebraError(f"supplied {key} table disagrees with derived order")

    freeze = lambda t: tuple(tuple(row) for row in t)
    alg = FiniteMtlAlgebra(
        labels=tuple(labels),
        prod=freeze(prod),
        res=freeze(res),
        leq=freeze(leq),
        meet=freeze(meet),
        join=freeze(join),
        bottom=bottom,
        top=top,
    )
    alg.tables.ups = up
    return alg


def validate_mtl(alg: FiniteMtlAlgebra) -> AxiomReport:
    """Exhaustively check the residuated-lattice axioms plus prelinearity.

    The verdict is kept on ``alg.tables`` (see :func:`require_mtl`), so a
    later :func:`require_mtl` does not scan again.  The report is not
    kept: it is mutable, and each call builds a fresh one.
    """
    n, prod, res, leq = alg.n, alg.prod, alg.res, alg.leq
    join = alg.join
    top = alg.top
    rep = AxiomReport()
    # no kernel failure: isotonicity holds too (see the module docstring)
    triples = n > 256 or any(fails(alg) for fails in AXIOM_KERNELS.values())

    for x in range(n):
        px, lx = prod[x], leq[x]
        if px[top] != x:
            rep.record("prod-unit", alg, x)
        for y in range(n):
            py, ry = prod[y], res[y]
            pxy = px[y]
            if pxy != py[x]:
                rep.record("prod-commutative", alg, x, y)
            if not triples:
                continue
            ppxy, lpxy, x_le_y = prod[pxy], leq[pxy], lx[y]
            for z in range(n):
                if ppxy[z] != px[py[z]]:
                    rep.record("prod-associative", alg, x, y, z)
                # isotone in the first argument (commutativity covers the second)
                if x_le_y and not leq[px[z]][py[z]]:
                    rep.record("prod-isotone", alg, x, y, z)
                if lpxy[z] != lx[ry[z]]:
                    rep.record("adjunction", alg, x, y, z)

    for x in range(n):
        for y in range(n):
            if join[res[x][y]][res[y][x]] != top:
                rep.record("prelinearity", alg, x, y)

    if rep.ok:
        alg.tables.mtl_failure = ""
    else:
        axiom = rep.failed_axioms[0]
        alg.tables.mtl_failure = (
            "operation tables are inconsistent: not an MTL-algebra "
            f"({axiom} fails at ({', '.join(rep.violations[axiom][0])}))")
    return rep


def require_mtl(alg: FiniteMtlAlgebra) -> None:
    """Raise AlgebraError unless the tables form an MTL-algebra.

    Every theorem is stated for MTL-algebras, so each caller that reads
    the tables as one calls this first.  :func:`validate_mtl` runs once
    per algebra, here or by a direct call: its verdict is kept on
    ``alg.tables``, and its report is not.
    """
    if alg.tables.mtl_failure is None:
        validate_mtl(alg)
    if alg.tables.mtl_failure:
        raise AlgebraError(alg.tables.mtl_failure)


def check_derived_laws(alg: FiniteMtlAlgebra) -> AxiomReport:
    """Exhaustively check the laws every MTL-algebra must satisfy.

    These are consequences of the axioms, so a violation here on a
    validated algebra signals a table-entry defect.
    """
    n, prod, res = alg.n, alg.prod, alg.res
    leq, meet, join = alg.leq, alg.meet, alg.join
    bot, top = alg.bottom, alg.top
    neg = alg.tables.neg
    # the z loops record nothing unless a kernel finds a failure
    z_loops = n > 256 or any(fails(alg) for fails in LAW_KERNELS.values())
    rep = AxiomReport()

    for x in range(n):
        rx = res[x]
        if res[bot][x] != top:
            rep.record("bottom-residuates-to-top", alg, x)
        if res[top][x] != x:
            rep.record("top-residuum-identity", alg, x)
        if not (neg[x] == neg[neg[neg[x]]] and leq[x][neg[neg[x]]] and prod[neg[x]][x] == bot):
            rep.record("negation-laws", alg, x)
        if join[x][neg[x]] == top and meet[x][neg[x]] != bot:
            rep.record("complemented-implies-disjoint", alg, x)
        for y in range(n):
            ry, rxy = res[y], rx[y]
            if leq[x][y] != (rxy == top):
                rep.record("order-residuum", alg, x, y)
            if rx[ry[x]] != top:
                rep.record("weakening", alg, x, y)
            if not leq[y][res[ry[x]][x]]:
                rep.record("double-residuation-lift", alg, x, y)
            if not leq[prod[x][y]][meet[x][y]]:
                rep.record("prod-below-meet", alg, x, y)
            if not z_loops:
                continue
            rpxy, lrxy, jrxy, jy = res[prod[x][y]], leq[rxy], join[rxy], join[y]
            for z in range(n):
                rz, rxz, ryz = res[z], rx[z], ry[z]
                if not (rx[ryz] == rpxy[z] == ry[rxz]):
                    rep.record("exchange", alg, x, y, z)
                if not (lrxy[res[rz[x]][rz[y]]] and lrxy[res[ryz][rxz]]):
                    rep.record("residuum-monotonicity", alg, x, y, z)
                if rx[jy[z]] != jrxy[rxz]:
                    rep.record("residuum-join-distribution", alg, x, y, z)
    return rep
