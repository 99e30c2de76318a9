"""Grid-valued fuzzy sets and every fuzzy-filter variant.

Membership values lie on a fixed grid 0, 1/D, ..., 1 with D even, so
1/2 is always representable.  A value k/D is held as its integer
numerator k, and every filter condition is an exact integer comparison
(1/2 is D//2).  ``Fraction`` appears only at the edges: :func:`numerator`
and :func:`family_bounds` parse values and thresholds with it, and
:func:`map_doc` prints with it.

All four families share one inequality engine: the plain family is the
threshold pair (0, 1), the (min .., 1/2)-capped family is (0, 1/2), the
(max .., 1/2)-lifted family is (1/2, 1), and the thresholds family is a
caller-chosen (alpha, beta).

A grid map's cuts form a chain of sets, and the chains are listed here
too: :func:`weak_orders` lists them, :func:`up_sets` the up-sets in them,
and :func:`chain_automaton` reads them as the words of an automaton over
(last up-set, run of non-up-sets since it).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, FiniteMtlAlgebra, require_mtl
from .filters import KINDS, elements

FAMILIES = ("plain", "eiq", "bar", "thresholds")


def check_den(den: int) -> None:
    """Raise ValueError unless the grid denominator is positive and even."""
    if den <= 0 or den % 2:
        raise ValueError(f"grid denominator must be positive and even, got {den}")


def numerator(value, den: int) -> int:
    """The numerator k of a membership value k/den, read exactly; raises if it is off the grid."""
    check_den(den)
    value = Fraction(value)
    k, off = divmod(value.numerator * den, value.denominator)
    if off or not 0 <= k <= den:
        raise ValueError(f"membership value {value} is not on the 1/{den} grid")
    return k


def map_doc(alg: FiniteMtlAlgebra, den: int, nums) -> dict:
    """The printed form of a grid map: each label with its value k/den in lowest terms."""
    return {lab: str(Fraction(k, den)) for lab, k in zip(alg.labels, nums)}


@dataclass(frozen=True)
class FuzzySet:
    """Total map from the carrier to the 1/D grid, as the numerators k of its values k/D."""

    alg: FiniteMtlAlgebra
    den: int
    nums: tuple[int, ...]

    def __post_init__(self):
        check_den(self.den)
        if len(self.nums) != self.alg.n:
            raise ValueError("fuzzy set must be total over the carrier")
        for k in self.nums:
            if type(k) is not int or not 0 <= k <= self.den:
                raise ValueError(f"membership numerator {k!r} is not an int in 0..{self.den}")

    def to_doc(self) -> dict:
        return map_doc(self.alg, self.den, self.nums)

    @classmethod
    def constant(cls, alg, den, value) -> "FuzzySet":
        return cls(alg, den, (numerator(value, den),) * alg.n)

    @classmethod
    def from_mapping(cls, alg, den, mapping) -> "FuzzySet":
        for lab in mapping:
            if lab not in alg.labels:
                raise ValueError(f"membership value for unknown element {lab!r}")
        for lab in alg.labels:
            if lab not in mapping:
                raise ValueError(f"no membership value for element {lab!r}")
        return cls(alg, den, tuple([numerator(mapping[lab], den) for lab in alg.labels]))

    @classmethod
    def characteristic(cls, alg, den, mask: int) -> "FuzzySet":
        return cls(alg, den, tuple([den if mask >> i & 1 else 0 for i in range(alg.n)]))


# --- inequality scans on numerators; each names the first violated instance, or None ---
#
# Each scan reads one law's table of :class:`softmtl.algebra.DerivedTables`,
# whose instances (p, q, r, tag, x, y, z) read mu(p) >= min(mu(q), mu(r)).
# With numerator bounds lo < hi, max(a, lo) < min(b, hi) holds exactly when
# c[a] < c[b] for the clamped numerators c = min(max(k, lo), hi), so an
# instance is violated iff c[p] < c[q] and c[p] < c[r].  The product,
# complement and contraction laws exist only for the plain family, whose
# bounds (0, D) leave c = k.  :func:`scan_fails` relies on that shape,
# which the tables make the only one a scan can have.

def _clamp(k, lo, hi):
    return tuple([lo if v < lo else hi if v > hi else v for v in k])


def _scan(law: str):
    """The scan of one law: (alg, c) -> the witness of the first instance of
    ``alg.tables.<law>`` that c violates, (tag, *labels of its variables), or None."""
    def scan(alg, c):
        for p, q, r, tag, x, y, z in getattr(alg.tables, law):
            if c[p] < c[q] and c[p] < c[r]:
                # field by field, not by a list comprehension: scan_fails meets a
                # failure on most up-sets, and the lists slowed cold runs by 1-2 %
                labels = alg.labels
                if y is None:
                    return tag, labels[x]
                if z is None:
                    return tag, labels[x], labels[y]
                return tag, labels[x], labels[y], labels[z]
        return None
    return scan


_SCANS = {
    ("filter", "mp"): _scan("mp"),
    ("filter", "product"): _scan("product"),
    ("boolean", "complement"): _scan("complement"),
    ("boolean", "chain"): _scan("chain"),
    ("boolean", "contraction"): _scan("contraction"),
    ("mv", "default"): _scan("mv"),
    ("g", "default"): _scan("g"),
}

# bit i of a mask from :func:`scan_fails` stands for the scan _SCAN_KEYS[i]
_SCAN_KEYS = tuple(_SCANS)

# Every variant of a kind other than "filter" has the same-family filter
# condition, in this formulation, as a conjunct.
_CONJUNCT = ("filter", "mp")
_CONJUNCT_BIT = 1 << _SCAN_KEYS.index(_CONJUNCT)


def _conjoined(kind: str) -> bool:
    """True when the variants of ``kind`` have the :data:`_CONJUNCT` scan as a conjunct."""
    return kind != _CONJUNCT[0]

# the equivalent formulations of the plain family; the first is the default
PLAIN_ROUTES = {"filter": ("product", "mp"), "boolean": ("complement", "chain", "contraction")}


def family_bounds(family: str, den: int, alpha=None, beta=None) -> tuple[int, int]:
    """Numerator bounds (lo, hi) of a family's threshold pair on the 1/den grid.

    alpha and beta matter only for the thresholds family.  An off-grid
    threshold compares with grid values as the grid point below alpha or
    above beta does, so lo = floor(alpha * den) and hi = ceil(beta * den).
    """
    if family == "plain":
        return 0, den
    if family == "eiq":
        return 0, den // 2
    if family == "bar":
        return den // 2, den
    if family != "thresholds":
        raise ValueError(f"unknown fuzzy family {family!r}")
    if alpha is None or beta is None:
        raise ValueError("thresholds family needs alpha and beta")
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not 0 < alpha < beta <= 1:
        raise ValueError(f"thresholds must satisfy 0 < alpha < beta <= 1, got ({alpha}, {beta})")
    return math.floor(alpha * den), math.ceil(beta * den)


def resolve_route(family: str, kind: str, route: str = "default") -> str:
    """The formulation a route names: a key of the scans, or "all"."""
    if family == "plain" and kind in PLAIN_ROUTES:
        routes = PLAIN_ROUTES[kind]
        if route == "default":
            return routes[0]
        if route in routes or route == "all":
            return route
        raise ValueError(f"unknown plain {kind} route {route!r}")
    if route not in ("default", "all"):
        raise ValueError(f"route {route!r} is only meaningful for the plain family")
    return {"filter": "mp", "boolean": "chain"}.get(kind, "default")


def variant_witness(alg: FiniteMtlAlgebra, den: int, nums: tuple[int, ...], key):
    """First violating tuple of one fuzzy-filter variant on a grid map, or None.

    ``nums`` are the membership numerators.  A variant is keyed by
    (kind, lo, hi, route): the family's bounds from :func:`family_bounds`
    and a route from :func:`resolve_route`.  Every kind other than
    "filter" includes the same-family filter condition as a conjunct,
    scanned first.  Route "all" scans every formulation and raises
    AlgebraError, naming the map, if they disagree.
    """
    kind, lo, hi, route = key
    c = _clamp(nums, lo, hi)
    if _conjoined(kind):
        w = _SCANS[_CONJUNCT](alg, c)
        if w is not None:
            return w
    if route != "all":
        return _SCANS[kind, route](alg, c)
    results = {r: _SCANS[kind, r](alg, c) for r in PLAIN_ROUTES[kind]}
    verdicts = {r: w is None for r, w in results.items()}
    if len(set(verdicts.values())) != 1:
        mu = map_doc(alg, den, nums)
        raise AlgebraError(f"{kind} formulations disagree on {mu}: {verdicts}")
    return next((w for w in results.values() if w is not None), None)


def scan_fails(alg: FiniteMtlAlgebra, up: int) -> int:
    """Bit i set iff the scan _SCAN_KEYS[i] fails on the 0/1 indicator of the up-set.

    A weak order's verdicts are the OR of these bits over its chain of
    up-sets (see :func:`weak_orders`; proof in :mod:`softmtl.verifier`).
    When the :data:`_CONJUNCT` scan fails, no conjoined variant reads its
    own scan, so those scans are not run and their bits stay 0.  That is
    also why the complement scan may make one comparison (proof in
    ``docs/verifier.md``, "Fuzzy side").
    """
    indicator = tuple([up >> x & 1 for x in range(alg.n)])
    bits = 0
    for i, key in enumerate(_SCAN_KEYS):  # the filter scans come first
        if bits & _CONJUNCT_BIT and _conjoined(key[0]):
            continue
        if _SCANS[key](alg, indicator) is not None:
            bits |= 1 << i
    return bits


@functools.cache
def scan_masks(kind: str, route: str) -> tuple[int, int]:
    """The (fail, agree) masks of a variant over the bits of :func:`scan_fails`.

    ``route`` is resolved (:func:`resolve_route`).  ``agree`` holds the
    bits of its scans, every formulation's for "all", and ``fail`` holds
    them plus the :data:`_CONJUNCT` bit when the kind is conjoined.  On
    the bits OR'd over a map's chain of up-sets, the variant fails iff
    ``bits & fail``, unless its formulations :func:`disagree`.
    """
    routes = PLAIN_ROUTES[kind] if route == "all" else (route,)
    agree = sum(1 << _SCAN_KEYS.index((kind, r)) for r in routes)
    return agree | (_CONJUNCT_BIT if _conjoined(kind) else 0), agree


def disagree(bits: int, fail: int, agree: int) -> bool:
    """True iff the formulations of a ``route="all"`` variant disagree on the OR'd bits.

    They are compared only when the conjunct, if any, passes, as
    :func:`variant_witness` does; otherwise their scans were not run.
    """
    return not bits & fail & ~agree and bits & agree not in (0, agree)


def check_fuzzy_witness(mu: FuzzySet, family: str, kind: str, route: str = "default",
                        alpha=None, beta=None):
    """First violating tuple of the requested fuzzy-filter variant, or None.

    Every kind other than "filter" includes the same-family filter
    condition as a conjunct.  ``route`` selects among the provably
    equivalent formulations where several exist (plain filter and plain
    Boolean); ``route="all"`` evaluates every formulation and raises if
    they disagree.  Raises AlgebraError if the tables are not an
    MTL-algebra.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    require_mtl(mu.alg)
    lo, hi = family_bounds(family, mu.den, alpha, beta)
    key = (kind, lo, hi, resolve_route(family, kind, route))
    return variant_witness(mu.alg, mu.den, mu.nums, key)


def weak_orders(n: int, r: int):
    """Every weak order of n elements with exactly r ranks, once each.

    The weak order w, a map onto the ranks 0..r-1, is given as its chain
    of up-sets (U_1, ..., U_{r-1}), U_i = {x : w[x] >= i} as a bitmask.
    Each U_i is a non-empty proper subset of the one before (U_0 holds
    all n elements), so w[x] is the number of the U_i holding x.  With r
    increasing values v_0 < ... < v_{r-1}, x -> v_{w[x]} is a grid map,
    and every grid map arises from exactly one (w, v): w is the weak order
    of its values and v their sorted distinct values.

    The verifier lists weak orders only to name counterexample maps: it
    decides every rank count at once over the words of the chain
    automaton (:func:`chain_automaton`), and walks the weak orders of a
    rank count only when its DP flags it.
    """
    def extend(chain, top, left):
        if not left:
            yield chain
            return
        # the next up-set needs one element for each of the `left` ranks it holds
        sub = (top - 1) & top
        while sub:
            if sub.bit_count() >= left:
                yield from extend((*chain, sub), sub, left - 1)
            sub = (sub - 1) & top

    if 1 <= r <= n:
        yield from extend((), (1 << n) - 1, r - 1)


def grid_map(order: tuple[int, ...], values, n: int) -> tuple[int, ...]:
    """The map sending each element of rank i in the weak order to values[i]."""
    rank = [0] * n
    for up in order:
        for x in range(n):
            rank[x] += up >> x & 1
    return tuple([values[r] for r in rank])


def up_sets(alg: FiniteMtlAlgebra, most: float = math.inf) -> list[int] | None:
    """Every non-empty proper up-set of the algebra's order, as a bitmask, ascending, or None
    when the order has more than ``most`` of them.

    Sets grow from the top down: an element joins a set that holds all
    above it, so every set held is an up-set of the whole order.  The
    bottom, below every element, would only make the carrier, so it never
    joins, and every set held but the empty one is non-empty and proper.
    No set held goes, so a listing stops once it holds more than ``most``.
    A complete listing is kept on the algebra (``alg.tables.up_sets``),
    and every later call answers from it.
    """
    tables = alg.tables
    if tables.up_sets is None:
        above, sets = tables.above, [0]
        rest = [x for x in range(alg.n) if x != alg.bottom]
        for x in sorted(rest, key=lambda x: above[x].bit_count()):
            sets += [s | 1 << x for s in sets if not above[x] & ~s]
            if len(sets) - 1 > most:
                return None
        tables.up_sets = tuple(sorted(sets[1:]))
    return None if len(tables.up_sets) > most else list(tables.up_sets)


def chain_automaton(alg: FiniteMtlAlgebra, ups: list[int], atoms: dict[int, int], other: int,
                    ranks: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows of the chain automaton that a DP over ``ranks`` ranks walks, kept by rank count.

    A chain carrier > U_1 > ... > U_r-1 of non-empty sets is a word of the
    automaton, each U_i read as its atom: ``atoms`` maps each of ``ups``,
    the non-empty proper up-sets ascending, to its atom, and ``other`` is
    the atom of every other set.  A state is (L, k), L the last up-set and
    k the run of non-up-sets since it, and a node is a set of states, one
    mask of set ids L per run k (:func:`_chain_masks`), packed into one
    int: (L, k) at k * m + L, m the number of ids.  Each node met at most
    ``ranks`` - 2 letters from the start is expanded, level by level, and
    numbered as met, the start 0.  Row j lists node j's (letter, node
    number) pairs by ascending letter, so the rows hold nothing of the
    algebra, and ``alg.tables.automaton`` keeps them by rank count (proof
    in ``docs/verifier.md``, "The chain automaton").
    """
    sets, letters = [0, *ups, (1 << alg.n) - 1], {}
    for i, up in enumerate(ups, 1):  # each atom -> the ids of the up-sets that have it
        letters[atoms[up]] = letters.get(atoms[up], 0) | 1 << i
    start = len(sets) - 1  # the carrier's id, and the state (carrier, 0)
    # two ranks expand only the start: below the carrier lies every up-set, and its room is n - 1
    below, free, room, atmost = (_chain_masks(alg, sets) if ranks > 2 else
                                 ({start: (1 << start) - 1}, (), {start: alg.n - 1}, ()))
    nodes, rows = {1 << start: 0}, []  # each node met -> its number, so in the order met
    for _ in range(ranks - 1):
        for node in list(nodes)[len(rows):]:  # those met on the last level
            targets = run = 0
            for state in elements(node):
                # (L, k) reads atom(U) to (U, 0), and other to (L, k + 1) while the run fits
                k, at = divmod(state, len(sets))
                targets |= free[at] & atmost[room[at] - k] if k else below[at]
                run |= (k < room[at]) << state + len(sets)
            row = {atom: targets & ids for atom, ids in letters.items() if targets & ids}
            if run := row.pop(other, 0) | run:  # an up-set's atom may be other's
                row[other] = run
            rows.append(tuple((atom, nodes.setdefault(row[atom], len(nodes)))
                              for atom in sorted(row)))
    rows = alg.tables.automaton[ranks] = tuple(rows)
    return rows


def _chain_masks(alg: FiniteMtlAlgebra, sets: list[int]) -> tuple[list[int], ...]:
    """below, free and room of each set id L, and atmost of each size s.

    A set's id is its position in ``sets``: the empty set, the non-empty
    proper up-sets, ascending, and the carrier.  below[L] holds the ids of
    the up-sets strictly inside L, free[L] those of the U with L - U no
    antichain, room[L] is the longest run of non-up-sets below L, and
    atmost[s] holds the sets of at most s elements.  Each mask is built
    from those of smaller up-sets, and no two up-sets are compared.
    """
    ids, tables = {s: i for i, s in enumerate(sets)}, alg.tables
    downs = [sum(1 << x for x in tables.elems if tables.ups[x] >> y & 1) for y in tables.elems]
    below, free, room, sizes = [], [], [], [0] * (alg.n + 1)

    def inside(t):  # the up-set t, met already, and the up-sets inside it
        return 1 << ids[t] | below[ids[t]]

    for i, s in enumerate(sets):  # ascending: every up-set inside s comes first
        core = functools.reduce(int.__or__, [tables.above[x] for x in elements(s)], 0)
        # inside s: its lower covers s - x, x minimal; missing y in the core: s - downs[y]
        below.append(functools.reduce(int.__or__, [inside(s ^ 1 << x) for x in elements(s)
                                                   if s ^ 1 << x in ids], 0))
        free.append(functools.reduce(int.__or__, [inside(s & ~downs[y]) for y in elements(core)],
                                     0))
        room.append(s.bit_count() - 1 if core else 0)
        sizes[s.bit_count()] |= 1 << i
    return below, free, room, list(itertools.accumulate(sizes, int.__or__))

