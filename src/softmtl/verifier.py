"""Machine-checking of the characterization theorems.

Each catalog entry ties a fuzzy-side predicate (family + kind) to a
soft-side predicate (level cuts over an interval, classified per kind),
or relates two soft-side predicates.  Verification is one pass over
grid fuzzy sets on the algebra, each produced once as its integer
numerators k in 0..D and checked against every requested theorem: all
(D+1)^n of them within budget, else the two-valued maps (below).

A verdict depends only on how the values k[x] are ordered, not on the
values themselves.  So a map is split into a weak order W of the
carrier (a map onto the ranks 0..r-1, given as its chain of up-sets
U_i = {x : W[x] >= i}, see :func:`softmtl.fuzzy.weak_orders`) and a
strictly increasing value tuple V from combinations(range(D+1), r):
k[x] = V[W[x]].  Every grid map is exactly one such pair, r = 1..min(n,
D+1), and the pass splits the work by what it depends on.

- Per W: the soft side.  The cut at index j is {x : k[x] >= j}; for
  every j in (V[i-1], V[i]] (V[-1] = 0) it is U_i (U_0 is the whole
  carrier), and above V[r-1] it is empty.  Each U_i is classified once
  per algebra (:func:`softmtl.filters.classify_filter` keeps the memo),
  and only its failing kinds are read.
- Per V: the span of each rank i, the cut indices (V[i-1], V[i]] it
  covers.  Nothing else of V is read.
- Per (W, V): one table entry OR'd per rank, below.

Fuzzy side.  Every scan in :data:`softmtl.fuzzy._SCANS` compares the
clamped numerators c = min(max(k, lo), hi) at positions of the algebra,
and its witness names elements, not values.  Each fails exactly when
some tuple it reads has c[p] < c[q] for every q in a set Q: Q = {b} for
c[p] < c[b], Q = {x, y} for a common smaller side c[p] < c[x], c[y],
and c[a] != c[b] is two such cases, c[a] < c[b] or c[b] < c[a].  Lemma:
on a map whose weak order has the up-set chain (U_1, ..., U_m), such a
scan fails iff it fails on the 0/1 indicator of some U_i.  Proof: c[p] <
c[q] for all q in Q iff some U_i holds Q but not p (i = the least rank
in Q; conversely rank q >= i > rank p), and on the indicator of U, iff
U holds Q but not p.  A scan added later must keep that shape (one that
fails on a constant map, or asks c[a] < c[b] < c[d], does not).

So a run keeps :func:`softmtl.fuzzy.scan_fails` per up-set of the
algebra's order, and one for all other sets (below), and a map's scan
verdicts are the OR over its chain.  Each fuzzy check reads its verdict
straight off those bits through two masks
(:func:`softmtl.fuzzy.scan_masks`): it fails iff the bits meet its fail
mask.  Clamping sends the ranks with V[i] <= lo to lo and those with
V[i] >= hi to hi, and keeps the ranks strictly between apart.  So the
chain of up-sets of c is W's chain less each U_i whose ranks i - 1 and
i are merged: U_i stays iff V[i] > lo and V[i-1] < hi, that is, iff its
span (V[i-1], V[i]] meets the cut indices lo+1..hi.  That is the test
the soft side makes of its levels, so both sides read the same
positions (per map, below), and the chain of c is never built.

Per profile.  The decision on (W, V) thus reads W only through one atom
per U_i of its chain, one int: the failing crisp kinds of U_i in its
low ``len(KINDS)`` bits and the scan bits of U_i above them.  A run
keeps one map {up-set: atom id}.  An up-set gets the id of its own atom
(:func:`softmtl.filters.classify_filter`, ``scan_fails``), shared with
every up-set whose atom is equal; every other set gets ``other``, the
id of the least non-up-set's atom, computed once with the live scans
(all non-up-sets have that atom, below).  W's profile is the tuple of
the ids of its chain, and :meth:`_Pass.decide` reads nothing else of
W, so two weak orders with the same profile and rank count are decided
alike on every V, and keying by the profile is exact.  The key holds
both halves of the atom: on an MTL-algebra the scan bits follow from the
kinds, but that is what the theorems claim, so a key by kinds alone
would assume what is checked.

:func:`_profiles` finds the distinct profiles of the chains carrier >
U_1 > ... > U_r-1 > {} of every rank count r, level by level, from the
up-sets alone and without listing the chains.  Such a chain is its
up-sets carrier = A_0 > A_1 > ... > A_k, with a run of non-up-sets
between each A_j and the next (after A_k, the empty set), so its profile
is the ids of the A_j with the non-up-sets' id once for each set of each
run.  Lemma: for up-sets A > B and P = A - B, the longest chain of
non-up-sets strictly between B and A, m(A, B), has |P| - 1 sets if P
holds a pair x < y, and none if P is an antichain.  Proof: B with T, a
subset of P, added is an up-set iff T is an up-set of P (an element
above one of T lies in the up-set A, so in B or in P).  If P holds x <
y, drop y first and then the rest of P but x, one at a time: each set
between holds x and not y, so none is an up-set, and no chain strictly
between has more than |P| - 1 sets.  If P is an antichain, every T is an
up-set of P.  Any part of a chain of non-up-sets is one, and the runs of
different gaps are independent, so a chain with these up-sets and runs
exists iff each run is at most the m of its gap.  A state is thus (last
up-set, run since it, profile so far), kept once: what can follow a
chain depends only on those two.  A state is kept only if its run fits
above the empty set, which bounds every gap below its up-set (P lies in
A), so every state kept is some chain's, and the profiles of rank count r
are those of the states after r - 1 steps.  m depends only on P, and
each is computed once per run.  The pass decides each (profile, V) pair
once and never lists the maps, whose count :func:`_walk` knows: every
(W, V) is one grid map, so an exhaustive run checks all (D+1)^n of them.
Only when some profile of a rank count has counterexamples does it walk
that rank count's weak orders (:func:`softmtl.fuzzy.weak_orders`), to
name their maps.  Profiles are few: a3 at D=8 has 4683 weak orders and
65 profiles, and 6747 (profile, V) pairs stand for its 531441 maps.
Nothing is kept on the algebra, and a confirmed run classifies only the
up-sets, the representative and the carrier.  The walk holds the
up-sets, their ids and its states, and nothing that grows with the 2^n
subsets.

Per map.  Every check has two sides, a premise and a conclusion, and
each fails iff some cut of the map fails it at one of its cut indices.
Call (b, j) a position: bit b of the atom of the cut at index j.  A
side's mask is a set of positions, and it fails iff the positions the
map sets meet it.  A fuzzy check's conclusion holds its levels at its
kind's bit, and its premise lo+1..hi at each bit of its fail mask.  A
relation's premise holds its levels at its left-hand kind's bit, and its
conclusion its levels at each right-hand kind's bit.  Lemma: meeting a
mask distributes over OR, so S, the checks whose conclusion fails, is
the OR over the positions the map sets of the checks whose conclusion
holds that position, and so is F for the premises.  :func:`_pack` keeps
one int per position, S | F << width.  Rank i sets the positions (b, j)
of the bits b of its cut's atom and the j of its span (V[i-1], V[i]],
so its share of a map's S | F << width depends only on (atom, span).
Each run tabulates it once per atom id (:meth:`_Pass.table`), for every
span (u, v] with 0 <= u <= v <= D, and a map's S | F << width is one
table entry OR'd per rank.  :meth:`_Pass.sides` does that for all value
tuples of a profile at once, one list per rank, reading each rank's
table index off columns built once per rank count (:func:`_columns`).
A map is a counterexample to some check only if
(S & ~F) | (F & ~S & IFF), that is (S ^ F) & (S | IFF), is non-zero,
IFF marking the biconditionals.  Such maps are sorted lexicographically
and recorded, so every report is the same as that of a pass that runs
each check on each map it walks, in lexicographic order.  Recording
reads each check's two sides off S and F, reads a kind's failing cut
indices as the OR of the spans of the ranks whose atom fails it, and
looks up only its witness: the first failing soft level by ascending t
of the first failing witness kind, or one literal scan
(:func:`softmtl.fuzzy.variant_witness`) for a soft=>fuzzy record.  A
``route="all"`` check also runs its literal formulations on every
recorded map, a cross-check of the per-set decision below.  A literal
scan that contradicts the scan bits, or a witness level whose literal
classification passes the kind its bits fail, raises RuntimeError; the
latter also checks, on every recorded map, that one atom stands for all
non-up-sets.

Route "all".  Its formulations are compared only where the conjunct
passes (:func:`softmtl.fuzzy.disagree`), on the scan bits of lo+1..hi,
an OR over the chain.  Lemma: they disagree on some map iff on the own
bits of some set U, and the least such map is 0 off U, lo+1 on U, least
over those U.  Proof: that map's one cut in range is U.  On a
disagreeing map m the conjunct passes on every U_i in range, some
formulation has its bit on none, and another on some U_j, which
disagrees alone; m >= lo+1 on U_j, so m is at least U_j's map.  With
sound scans no non-up-set disagrees (below), but a broken filter form
can make them all disagree, sharing one atom: over all maps the least of
theirs is that of {x}, x the last element but the top (a singleton is
an up-set iff it holds the top); a two-valued run walks only the
representative's.  :func:`_disagreement` tests each up-set and that one
non-up-set once, before any profile is walked, and names the least (map,
key), on which the literal scans raise AlgebraError (RuntimeError if
they agree there).

Per grid.  Resolving the checks and marking their positions reads only
the specs, the grid and the interval, never the algebra.  So
:func:`_plan` builds them once per (specs, D, interval) into one
immutable plan, of tuples, ints and strs: each check's thresholds,
levels, fuzzy key, relation kinds, iff flag and theorem id, the int of
each position, the distinct ``route="all"`` keys, the bits of the
biconditionals, and the D+1 grid values as a counterexample prints
them.  It keeps the last 8 plans (``functools.lru_cache``), so repeated
runs at one grid, on any algebra, share one; each plan holds no algebra
and grows only with D, about 22 KB for the catalog at D=24.  Each run
makes its own reports, atom ids, profiles, tables, value tuples and
columns.  A table holds (D+1)(D+2)/2 ints, about as many as the C(D+1,
2) value tuples of r = 2, so the tables hold atoms x (D+1)(D+2)/2 in
all; on a fine grid that is far below the C(D+1, r) tuples of the
largest r (a3 at D=24: 3 tables of 325 ints, about 41 KB, against 177100
tuples at r = 6).  All of it stays on the run and goes with it, and no
memo grows with the maps.

Two-valued maps.  Over budget the pass walks only the constant maps
(r = 1) and the maps a off U, b on U with a < b (r = 2, chain (U,)), for
U each non-empty proper up-set of the algebra's order
(:func:`softmtl.fuzzy.up_sets`) and the least mask that is not one, the
representative.  It is the same loop, ids and walk with r <= 2: the
profiles of r = 2 are the distinct ids of those sets (the carrier holds
bottom < top, so some set is no up-set), and the chains (U,) are listed
only to name counterexamples.  The maps are grid maps, so their records
are the grid's on them, and each check the grid refutes is refuted on
one of them:

- Per-U_i split.  S, F and a ``route="all"`` check's scan bits are ORs
  over a map's chain.  U_i counts where its span (V[i-1], V[i]] meets a
  mask's cut indices, the levels or lo+1..hi, which (V[i-1], V[i])
  fixes; U_0, the carrier, fails no kind and no scan.  So the U_i that
  sets the failing side of a counterexample, or disagrees (Route "all"),
  makes the grid map V[i-1] off U_i, V[i] on U_i do the same.
- One atom for every non-up-set.  A set with x <= y, x in it and y not,
  is no filter, so it fails every kind.  On its indicator the unit check
  (1 not in it) or mp at (x, y) fails, as x -> y = 1, and so does the
  product route's order check; the conjoined scans are skipped.  So all
  non-up-sets share one atom, and one stands for all.

``Fraction`` appears only when a counterexample is formatted.  Every
input for which the claimed biconditional or implication fails is
recorded.  A confirmation is always "at this algebra and grid", never a
proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, count
from operator import or_
from typing import NamedTuple

from . import filters
from .algebra import FiniteMtlAlgebra, require_mtl
from .filters import KINDS
from .fuzzy import (FuzzySet, check_den, disagree, family_bounds, grid_map, map_doc,
                    resolve_route, scan_fails, scan_masks, up_sets, variant_witness, weak_orders)
from .soft import FULL, LOWER, SOFT_KINDS, UPPER, ParameterInterval, cut_index

@dataclass(frozen=True)
class TheoremSpec:
    id: str
    soft_kind: str                       # "in" or "q"
    interval: ParameterInterval | None   # None: thresholds default for the grid
    filter_kind: str
    family: str | None                   # None for soft-to-soft relation claims
    route: str = "default"
    direction: str = "iff"               # "iff" or "forward"
    relation: tuple[str, tuple[str, ...]] | None = None

    def __hash__(self):
        # Equal specs have equal ids.  The generated hash reads the Fraction
        # fields, and a run hashes its specs to find its plan.
        return hash(self.id)


# (soft kind, interval, fuzzy family) pattern shared by all four filter kinds
_PATTERN = (
    ("in", FULL, "plain"),
    ("q", FULL, "plain"),
    ("in", LOWER, "eiq"),
    ("in", UPPER, "bar"),
    ("q", LOWER, "bar"),
    ("q", UPPER, "eiq"),
    ("in", None, "thresholds"),
)

_IDS = {
    "filter": ("T3.3", "T3.4", "T3.6", "T3.8", "T3.9", "T3.10", "T3.12"),
    "boolean": ("T4.1.4", "T4.1.5", "T4.1.7", "T4.1.9", "T4.1.10", "T4.1.11", "T4.1.12"),
    "mv": ("T4.2.4", "T4.2.5", "T4.2.7", "T4.2.9", "T4.2.10", "T4.2.11", "T4.2.12"),
    "g": ("T4.3.3", "T4.3.4", "T4.3.6", "T4.3.8", "T4.3.9", "T4.3.10", "T4.3.11"),
}


_CATALOG = (
    *(TheoremSpec(tid, soft_kind, interval, kind, family) for kind, ids in _IDS.items()
      for tid, (soft_kind, interval, family) in zip(ids, _PATTERN)),
    TheoremSpec("T4.2.13", "in", FULL, "boolean", None,
                direction="forward", relation=("boolean", ("mv",))),
    TheoremSpec("T4.3.12", "in", FULL, "boolean", None,
                direction="forward", relation=("boolean", ("g",))),
    TheoremSpec("T4.3.13", "in", FULL, "boolean", None,
                direction="iff", relation=("boolean", ("mv", "g"))),
)


def catalog() -> list[TheoremSpec]:
    """The full fixed catalog: 28 grid entries plus 3 relation entries."""
    return list(_CATALOG)


def catalog_by_id() -> dict[str, TheoremSpec]:
    return {s.id: s for s in _CATALOG}


def default_thresholds(den: int) -> tuple[int, int]:
    """Numerators of the grid-aligned (alpha, beta] used when a theorem is generic in its interval."""
    return (1, 2) if den == 2 else (1, den - 1)


@dataclass
class VerificationReport:
    theorem: str
    algebra: str
    den: int
    checked: int = 0
    mode: str = "exhaustive"
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def confirmed(self) -> bool:
        return not self.counterexamples

    def to_doc(self) -> dict:
        """Every field, and ``confirmed``."""
        return {**vars(self), "confirmed": self.confirmed}


def _check_grid(alg, den) -> None:
    require_mtl(alg)
    check_den(den)


def _walk(alg, den, budget) -> tuple[str, list[int], int]:
    """Check a run's inputs; its mode, the up-sets and representative of :func:`_two_valued`,
    and the number of maps it checks."""
    _check_grid(alg, den)
    if budget is not None and budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    n = alg.n
    maps = (den + 1) ** n
    if budget is None or maps <= budget:
        return "exhaustive", _two_valued(alg), maps
    pairs = (den + 1) * den // 2  # the maps a off U, b on U of one U
    most = max((budget - den - 1) // pairs - 1, 0)  # the most up-sets the budget has maps for
    sets = _two_valued(alg, most)
    if sets is None:  # the listing stopped
        raise ValueError(f"budget {budget} is below the two-valued maps of the 1/{den} grid "
                         f"on {n} elements, whose order has more than {most} up-sets")
    maps = den + 1 + len(sets) * pairs
    if maps > budget:  # before any map is walked
        raise ValueError(f"budget {budget} is below the {maps} two-valued maps "
                         f"of the 1/{den} grid on {n} elements")
    return "two-valued", sets, maps


def _two_valued(alg, most=None) -> list[int] | None:
    """Each non-empty proper up-set of the algebra's order, ascending, then the least non-up-set.

    None when the order has more than ``most`` of those up-sets
    (:func:`softmtl.fuzzy.up_sets` stops listing them).
    """
    ups = up_sets(alg, most)
    if ups is None:
        return None
    known = set(ups)
    return [*ups, next(mask for mask in count(1) if mask not in known)]


def _room(above, part: int) -> int:
    """The longest chain of non-up-sets strictly between up-sets A > B, where part = A - B.

    ``above`` holds each element's strict up-set mask.  |part| - 1 if part
    holds a pair x < y, else 0 (proof in the module docstring).
    """
    rest = part
    while rest:
        x = rest & -rest
        if above[x.bit_length() - 1] & part:  # x < y for some y in part
            return part.bit_count() - 1
        rest ^= x
    return 0


def _profiles(alg, ids: dict[int, int], other: int, ranks: int) -> list[list[tuple[int, ...]]]:
    """For r = 1..ranks, the distinct atom-id profiles of the chains carrier > U_1 > ... > U_r-1.

    Every U_i is non-empty.  ``ids`` maps each non-empty proper up-set,
    ascending, to its id, and ``other`` is the id of every other set.  A
    state is (last up-set, run of non-up-sets since it, profile so far),
    each kept once, and every state kept completes: its run fits between
    its last up-set and the empty set (proof in the module docstring).
    """
    rooms = {}

    def room(part):  # _room, once per part in a run
        if part not in rooms:
            rooms[part] = _room(alg.tables.above, part)
        return rooms[part]

    states = {((1 << alg.n) - 1, 0, ())}
    levels = [[()]]
    for _ in range(1, ranks):
        grown = set()
        for last, run, profile in states:
            if run < room(last):  # one more non-up-set
                grown.add((last, run + 1, (*profile, other)))
            for up, i in ids.items():  # an up-set inside the last one, the run between them
                if up >= last:  # the up-sets ascend, and one inside the last is below it
                    break
                if not up & ~last and (not run or run <= room(last ^ up)):
                    grown.add((up, 0, (*profile, i)))
        states = grown
        levels.append(list({profile for _, _, profile in states}))
    return levels


class _Check(NamedTuple):
    """One theorem resolved against the grid before the pass starts."""

    theorem: str                  # the spec's id, which its report names
    soft_kind: str
    thresholds: tuple[int, int]   # numerators of the soft interval (alpha, beta]
    levels: int                   # bitmask of the cut indices of the soft levels
    kind: str                     # the soft side's kind: the conclusion, or a relation's premise
    fuzzy: tuple | None           # variant_witness key of the premise; None for a relation
    rhs: tuple[str, ...] = ()     # right-hand kinds of a relation, its conclusion
    iff: bool = True


def _check(spec, den, interval) -> _Check:
    """Resolve one theorem against the 1/den grid."""
    if interval is not None and spec.interval is not None:
        generic = ", ".join(s.id for s in _CATALOG if s.interval is None)
        raise ValueError(f"{spec.id} is stated over {spec.interval}; "
                         f"only generic-interval theorems ({generic}) take an interval")
    if spec.soft_kind not in SOFT_KINDS:
        raise ValueError(f"unknown soft-set kind {spec.soft_kind!r}")
    iv = interval or spec.interval
    lo, hi = default_thresholds(den) if iv is None else iv.numerators(den)
    # the levels j = lo+1..hi have consecutive cut indices, ascending for "in", descending for "q"
    first, last = sorted(cut_index(spec.soft_kind, j, den) for j in (lo + 1, hi))
    levels = (2 << last) - (1 << first)
    if spec.relation:
        lhs, rhs = spec.relation
        return _Check(spec.id, spec.soft_kind, (lo, hi), levels, lhs, None, tuple(rhs),
                      spec.direction == "iff")
    if spec.filter_kind not in KINDS:
        raise ValueError(f"unknown filter kind {spec.filter_kind!r}")
    flo, fhi = family_bounds(spec.family, den, Fraction(lo, den), Fraction(hi, den))
    key = (spec.filter_kind, flo, fhi, resolve_route(spec.family, spec.filter_kind, spec.route))
    return _Check(spec.id, spec.soft_kind, (lo, hi), levels, spec.filter_kind, key,
                  iff=spec.direction == "iff")


class _Plan(NamedTuple):
    """The checks of a pass and their verdict bits on the 1/den grid; nothing of the algebra.

    Each position (atom bit b, cut index j) has one int, ``positions[b][j]``:
    S | F << width, the checks whose conclusion (S) or premise (F) mask
    holds it (module docstring, "Per map").  ``all_routes`` holds the
    distinct fuzzy keys of the ``route="all"`` checks (:func:`_disagreement`).
    """

    checks: tuple[_Check, ...]
    den: int
    positions: tuple[tuple[int, ...], ...]
    width: int                     # F's bits start here: one per check
    all_routes: tuple[tuple, ...]
    iff: int                       # the bits of the biconditionals
    printed: tuple[str, ...]       # each grid value k/den as a counterexample prints it


def _pack(checks, den) -> _Plan:
    """Mark each check's two sides at the positions their masks hold."""
    lane, width = den + 1, len(checks)
    rows = []  # atom bit -> its int at each cut index

    def put(atom, cuts, bits):  # at each position (b, j), b a bit of ``atom``, j one of ``cuts``
        rows.extend([0] * lane for _ in range(atom.bit_length() - len(rows)))
        for b, row in enumerate(rows):
            for j in range(lane):
                if atom >> b & cuts >> j & 1:
                    row[j] |= bits

    for c, check in enumerate(checks):
        for kind in check.rhs or (check.kind,):
            put(1 << KINDS.index(kind), check.levels, 1 << c)
        if check.fuzzy is None:  # a relation's left-hand kind
            put(1 << KINDS.index(check.kind), check.levels, 1 << width + c)
            continue
        # the fuzzy side: the scan bits of its fail mask over the cut indices lo+1..hi
        kind, lo, hi, route = check.fuzzy
        put(scan_masks(kind, route)[0] << len(KINDS), (2 << hi) - (2 << lo), 1 << width + c)
    return _Plan(
        tuple(checks), den, tuple(map(tuple, rows)), width,
        tuple({check.fuzzy for check in checks if check.fuzzy and check.fuzzy[3] == "all"}),
        sum(1 << c for c, check in enumerate(checks) if check.iff),
        tuple(str(Fraction(k, den)) for k in range(lane)))


@lru_cache(maxsize=8)
def _plan(specs: tuple[TheoremSpec, ...] | None, den: int, interval) -> _Plan:
    """The plan of ``specs`` on the 1/den grid, ``interval`` overriding a generic one's.

    It depends only on its arguments, so it is built once and shared by
    every run with them (module docstring, "Per grid").  None stands for
    the catalog, whose 31 specs would each be hashed on every lookup.
    """
    return _pack([_check(spec, den, interval)
                  for spec in (_CATALOG if specs is None else specs)], den)


def _columns(vs, den):
    """For each rank i, the table index of its span (V[i-1], V[i]] on every V of ``vs``.

    V[-1] = 0.  A table lists the spans (u, v], 0 <= u <= v <= den, by u
    and then v, so (u, v] is at ``start[u] + v`` (:meth:`_Pass.table`).
    """
    lane = den + 1
    start = [u * lane - u * (u + 1) // 2 for u in range(lane)]
    ranks = [(0,) * len(vs), *zip(*vs)]
    return [[start[u] + v for u, v in zip(low, high)] for low, high in zip(ranks, ranks[1:])]


def _disagreement(keys, ids, atoms, n):
    """The least (map, key) on which the formulations of a ``route="all"`` key disagree, or None.

    ``ids`` maps the up-sets, and one non-up-set for all, to their atoms'
    indices in ``atoms``.  The map is 0 off U, lo+1 on U for a set U
    whose own scan bits disagree (module docstring, "Route "all"").
    """
    return min([(grid_map((up,), (0, key[1] + 1), n), key) for key in keys
                for up, i in ids.items()
                if disagree(atoms[i] >> len(KINDS), *scan_masks(key[0], "all"))], default=None)


def _record(run, nums, split, soft: int, fail: int) -> None:
    """Append each check's counterexample on one map, read off the sides ``decide`` returned.

    ``split`` is the map's profile and value tuple.
    """
    alg, plan, reports = run.alg, run.plan, run.reports
    den, checks, printed = plan.den, plan.checks, plan.printed
    doc = dict(zip(alg.labels, [printed[k] for k in nums]))  # as map_doc prints it
    profile, vals = split
    ranks = list(zip((run.carrier, *profile), (0, *vals), vals))  # (atom id, span (u, v])
    for b, check in enumerate(checks):
        conclusion, premise = soft >> b & 1, fail >> b & 1
        witness = None  # None: the first failing soft level of a witness kind
        # a soft=>fuzzy witness; route "all" compares its formulations on every recorded map
        if check.fuzzy is not None and (premise and not conclusion and check.iff
                                        or check.fuzzy[3] == "all"):
            witness = variant_witness(alg, den, nums, check.fuzzy)
            if (witness is not None) != premise:
                raise RuntimeError(f"{check.theorem}: the literal scan contradicts "
                                   f"the scan bits on {doc}")
        if conclusion and not premise:
            direction = "fuzzy=>soft" if check.fuzzy else "forward"
            kinds = check.rhs or (check.kind,)
        elif premise and not conclusion and check.iff:
            direction, kinds = ("soft=>fuzzy" if check.fuzzy else "converse"), (check.kind,)
        else:
            continue
        if witness is None:
            for kind in kinds:  # the first that fails at one of the levels: its ranks' spans
                k = KINDS.index(kind)
                levels = check.levels & sum((2 << v) - (2 << u) for i, u, v in ranks
                                            if run.atoms[i] >> k & 1)
                if levels:
                    break
            # its first failing level by ascending t: the cut index of an
            # in-level rises with t, that of a q-level falls
            if check.soft_kind == "q":
                j = levels.bit_length() - 1
            else:
                j = (levels & -levels).bit_length() - 1
            cls = filters.classify_filter(alg, sum(1 << x for x, k in enumerate(nums) if k >= j))
            if cls.has(kind):
                raise RuntimeError(f"{check.theorem}: the literal classification contradicts "
                                   f"the kind bits on {doc}")
            key = kind if cls.is_filter else "filter"
            witness = (printed[cut_index(check.soft_kind, j, den)], key, cls.witnesses.get(key))
        reports[b].counterexamples.append(
            {"mu": doc, "direction": direction, "witness": [str(part) for part in witness]})


class _Pass:
    """The state of one verification pass, and its decision on the maps of one profile.

    A map is a weak order W of the carrier, as its chain of up-sets (see
    :func:`softmtl.fuzzy.weak_orders`), with a strictly increasing value
    tuple V.  :meth:`atom_id` names each cut's atom, an int holding its
    failing kinds and, above them, its scan bits, and ``carrier`` is the id
    of the rank-0 cut's.  :meth:`table` gives an atom's verdict bits over
    every span of cut indices, and :meth:`sides` ORs one table entry per
    rank into S | F << width of each map, from which :meth:`decide` keeps
    the counterexamples (module docstring, "Per map").  ``reports`` are
    this run's own, one per check.
    """

    def __init__(self, alg, plan: _Plan, reports: list[VerificationReport]):
        self.alg, self.plan, self.reports = alg, plan, reports
        self.atoms = []    # id -> atom: failing kinds | scan_fails of the indicator << len(KINDS)
        self.tables = []   # id -> the atom's table, None when it sets no bit; built as needed
        # the rank-0 cut, the whole carrier, is in every chain; no scan fails on its constant map
        self.carrier = self._id(filters.classify_filter(alg, (1 << alg.n) - 1).fails)

    def _id(self, atom):  # the first id of an equal atom, else a new one
        if atom not in self.atoms:
            self.atoms.append(atom)
        return self.atoms.index(atom)

    def atom_id(self, cut):
        """The id of the cut's atom, all that :meth:`decide` reads of it; equal atoms share one."""
        alg = self.alg
        atom = filters.classify_filter(alg, cut).fails | scan_fails(alg, cut) << len(KINDS)
        return self._id(atom)

    def table(self, atom):
        """S | F << width of a rank with ``atom`` over each span (u, v].

        The spans are listed by u and then v, 0 <= u <= v <= den; the empty
        span (u, u] sets nothing.  None when the atom sets no bit anywhere.
        """
        col = [0] * (self.plan.den + 1)  # the bits at each cut index
        for b, row in enumerate(self.plan.positions):
            if atom >> b & 1:
                col = list(map(or_, col, row))
        if not any(col):
            return None
        return list(chain.from_iterable((0, *accumulate(col[u + 1:], or_))
                                        for u in range(len(col))))

    def sides(self, profile, cols):
        """S | F << width of the map of each value tuple: one table entry OR'd per rank.

        ``cols`` are the ranks' table indices (:func:`_columns`).
        """
        tables = self.tables
        tables += map(self.table, self.atoms[len(tables):])  # the atoms named since the last call
        bits = None
        for i, col in zip((self.carrier, *profile), cols):
            t = tables[i]
            if t:
                bits = [t[k] for k in col] if bits is None else \
                    [s | t[k] for s, k in zip(bits, col)]
        return bits or [0] * len(cols[0])

    def decide(self, profile, vs, cols):
        """(V, S, F) of each counterexample among the maps of the profile and value tuples ``vs``.

        A map is one for some check iff (S & ~F) | (F & ~S & IFF), that is
        (S ^ F) & (S | IFF), is non-zero.
        """
        width, iff = self.plan.width, self.plan.iff
        every = (1 << width) - 1
        return [(vals, s & every, s >> width)
                for vals, s in zip(vs, self.sides(profile, cols))
                if (s ^ s >> width) & (s | iff) & every]


def _verify(alg, specs, den, walk, interval=None) -> list[VerificationReport]:
    """Run the checks of ``specs`` (a tuple, or None for the catalog) on the maps of ``walk``.

    ``walk`` is the mode, sets and map count of :func:`_walk`.
    """
    mode, sets, checked = walk
    plan = _plan(specs, den, interval)
    name = "/".join(alg.labels)
    reports = [VerificationReport(check.theorem, name, den, checked, mode)
               for check in plan.checks]
    run, n = _Pass(alg, plan, reports), alg.n
    *ups, rep = sets
    ids = {up: run.atom_id(up) for up in ups}
    other = run.atom_id(rep)
    if mode == "exhaustive":  # every map: the chains of any non-empty proper subsets
        ranks = range(1, min(n, den + 1) + 1)
        orders = [weak_orders(n, r) for r in ranks]
        # the lexicographically least non-up-set: {x}, x the last element but the top
        rep = 1 << n - 1 - (alg.top == n - 1)
    else:  # the constant maps, and a off U, b on U: the chains (U,)
        orders = [[()], [(up,) for up in sets]]
    if plan.all_routes and (least := _disagreement(plan.all_routes, ids | {rep: other},
                                                   run.atoms, n)):
        variant_witness(alg, den, *least)  # raises AlgebraError, naming the map
        raise RuntimeError(f"the scan bits flag disagreeing formulations on "
                           f"{map_doc(alg, den, least[0])}, and the literal scans agree")
    found = []  # (map, (profile, values), S, F) of each counterexample
    levels = _profiles(alg, ids, other, len(orders))
    for r, (of_r, profiles) in enumerate(zip(orders, levels), 1):
        vs = list(combinations(range(den + 1), r))
        cols = _columns(vs, den)
        # each distinct profile -> (values, S, F) of its counterexamples
        decided = {profile: run.decide(profile, vs, cols) for profile in profiles}
        if any(decided.values()):  # list the weak orders, only to name their maps
            for order in of_r:
                profile = tuple([ids.get(up, other) for up in order])
                for vals, soft, fail in decided[profile]:
                    found.append((grid_map(order, vals, n), (profile, vals), soft, fail))
    found.sort()  # the lexicographic order of the maps
    for counterexample in found:
        _record(run, *counterexample)
    return reports


def verify(alg: FiniteMtlAlgebra, spec: TheoremSpec, den: int, budget: int | None = None,
           interval: ParameterInterval | None = None) -> VerificationReport:
    """Check one catalog entry against every grid fuzzy set, or the two-valued ones over budget.

    ``interval`` overrides the default (alpha, beta] of a generic-interval
    entry (``spec.interval is None``) and is rejected for any other.
    """
    return _verify(alg, (spec,), den, _walk(alg, den, budget), interval)[0]


def verify_all(alg: FiniteMtlAlgebra, den: int,
               budget: int | None = None) -> list[VerificationReport]:
    """Check the whole catalog in one pass over the grid fuzzy sets."""
    return _verify(alg, None, den, _walk(alg, den, budget))


def find_strictness_witness(alg: FiniteMtlAlgebra, theorem_id: str, den: int,
                            budget: int | None = None, seed: int = 0) -> FuzzySet | None:
    """A fuzzy set showing that the converse of T4.2.13 / T4.3.12 fails, or None.

    It is the indicator of the first filter in :func:`softmtl.filters.enumerate_filters`
    that is an MV- (resp. G-) filter but not a Boolean one, and None means
    that no grid has a witness.  Proof: every in-cut over (0, 1] of the
    indicator of F is F, so it is a witness iff F is one; and any witness
    has an in-cut over (0, 1] that is not Boolean, so not empty, and is an
    MV- (G-) filter like all its in-cuts.

    ``budget`` and ``seed`` are ignored.  They stay only because the
    benchmark's ``witness-sampled`` workload passes them, and go when that
    workload is replaced.
    """
    rhs = {"T4.2.13": "mv", "T4.3.12": "g"}.get(theorem_id)
    if rhs is None:
        raise ValueError(f"{theorem_id!r} has no strictness claim; use T4.2.13 or T4.3.12")
    _check_grid(alg, den)  # the tables and the grid are checked as for verify
    rhs_bit, boolean_bit = 1 << KINDS.index(rhs), 1 << KINDS.index("boolean")
    for mask in filters.enumerate_filters(alg):
        fails = filters.classify_filter(alg, mask).fails
        if fails & boolean_bit and not fails & rhs_bit:
            return FuzzySet.characteristic(alg, den, mask)
    return None
