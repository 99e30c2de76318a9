"""Machine-checking of the characterization theorems.

Each catalog entry ties a fuzzy-side predicate (family + kind) to a
soft-side predicate (level cuts over an interval, classified per kind),
or relates two soft-side predicates.  Verification is one pass over
grid fuzzy sets on the algebra, each produced once as its integer
numerators k in 0..D and checked against every requested theorem: all
(D+1)^n of them within budget, else the two-valued maps (below).  Each
lemma below is proved in ``docs/verifier.md``, under the same heading.

A verdict depends only on how the values k[x] are ordered.  So a map is
split into a weak order W of the carrier, given as its chain of cuts
U_i = {x : W[x] >= i} (:func:`softmtl.fuzzy.weak_orders`), and a
strictly increasing value tuple V from combinations(range(D+1), r):
k[x] = V[W[x]].  Every grid map is exactly one such pair, r = 1..min(n,
D+1).  The cut at index j is U_i for every j in the span (V[i-1], V[i]]
of rank i (V[-1] = 0; U_0 is the carrier), and empty above V[r-1].

Fuzzy side.  Every scan in :data:`softmtl.fuzzy._SCANS` reads one
law's table of instances (:class:`softmtl.algebra.DerivedTables`) and
fails exactly when some instance has c[p] < c[q] and c[p] < c[r], c the
numerators clamped to [lo, hi]: the tables hold no other shape.  Lemma:
such a scan fails on a map iff it fails on the 0/1 indicator of some
U_i of its chain, and clamping keeps exactly the U_i whose span meets
lo+1..hi.  So a map's scan bits are the OR of
:func:`softmtl.fuzzy.scan_fails` over those cuts, the span test the
soft side makes of its levels, and a fuzzy check fails iff they meet
its fail mask (:func:`softmtl.fuzzy.scan_masks`).

The chain automaton.  The decision on (W, V) thus reads W only through
one atom per cut of its chain, one int: the cut's failing crisp kinds
in its low ``len(KINDS)`` bits and its scan bits above them.  An up-set
has its own atom (:func:`softmtl.filters.classify_filter`,
``scan_fails``), and every other set that of the least non-up-set, the
representative ("Two-valued maps").  W's profile is the tuple of the
atoms of its chain, and the decision reads nothing else of W.  The atom
holds both halves: on an MTL-algebra the scan bits follow from the
kinds, but that is what the theorems claim.  Lemma: the chains are the
paths of an automaton over states (L, k), L the last up-set and k the
run of non-up-sets since it.  It starts at (carrier, 0); other leads
from (L, k) to (L, k + 1) while k < room(L), and atom(U) to (U, 0) for
each non-empty up-set U inside L with k = 0, or with L - U no antichain
and |U| <= |L| - k - 1; every state completes.  L - U is an antichain
iff U holds core(L), L less its minimal elements, an up-set, and
room(L) is |L| - 1 if core(L) is not empty, else 0.  So the profiles of
r ranks are its words of length r - 1, and the masks of each state's
targets are built through covers (:func:`softmtl.fuzzy.chain_automaton`),
never by comparing two up-sets.  A node of the determinized automaton
is a set of states, one int, and the words that reach it are followed
by the same letters, so the DP (below) runs over the nodes, not the
words.  The automaton is small: a3 has 4683 weak orders, 65 profiles and
15 nodes, a3 x a1 34,731 profiles at D=24 and 150 nodes.  The nodes are
expanded only as the DP reaches them, so a two-valued run expands only
the start.  The maps are never listed; :func:`_walk` knows their count.
Only a rank count that the DP flags has its weak orders walked, grouped
by profile, and each profile's value tuples listed, to name its maps.  A
confirmed run classifies only the up-sets, the representative and the
carrier.

Per map.  A check has two sides, premise and conclusion, and each
reads a mask of atom bits at a set of cut indices: the conclusion is
the soft side's kind, or a relation's right-hand kinds, at the check's
levels; the premise is a relation's left-hand kind at the levels, or
the fuzzy side's fail mask at the cut indices lo+1..hi.  A side fails
iff the atom of the cut at one of its indices meets its mask.
:func:`_table` reads an atom's entry at each cut index straight off the
checks' sides: S | F << width, S the checks whose conclusion the atom
fails there, F those whose premise.  Lemma: meeting a mask distributes
over OR, so a map's S | F << width is the OR, over its ranks, of the
entries of the rank's atom on its span.  A map refutes some check iff
(S ^ F) & (S | IFF) is non-zero, IFF marking the biconditionals.
:func:`_flags` decides every rank count at once by a DP over the ranks
and the automaton's nodes, and lists no value tuple: after rank i, each
node i letters from the start maps each value v to the ORs of ranks
0..i over its words and the prefixes V[0] < ... < V[i] = v, that is the
union of the ORs at v - 1 of rank i and of rank i - 1 at every node that
leads to it, each OR'd with rank i's entry at v.  Rank count r is
flagged iff some OR after rank r - 1 refutes a check.  That is D + 1
steps per node and rank, against the C(D+1, r) value tuples of a
listing, for every profile of r ranks.  A
flagged rank count's profiles are listed (:func:`_listed`), and one
with no map that fails raises RuntimeError.  Counterexamples are sorted lexicographically and
recorded, so every report is that of a pass that runs each check on
each map it walks, in lexicographic order.  Recording reads each
check's two sides off S and F and looks up only its witness: one
literal scan (:func:`softmtl.fuzzy.variant_witness`) for a soft=>fuzzy
record, else a soft level read off the map's own level cuts
(:func:`softmtl.soft.level_cuts`), the first by ascending t whose cut
is not empty and has an atom failing the first witness kind that fails
at some level.  A ``route="all"`` check also runs its literal
formulations on every recorded map.  A literal scan that contradicts
the scan bits, or a witness level whose literal classification passes
the kind its bits fail, raises RuntimeError; the latter also checks, on
every recorded map, that one atom stands for all non-up-sets.

Route "all".  Its formulations are compared only where the conjunct
passes (:func:`softmtl.fuzzy.disagree`).  Lemma: they disagree on some
map iff on the own scan bits of some set U, and the least such map is 0
off U, lo+1 on U, least over those U.  A broken filter form can make
all non-up-sets disagree, and the least map of theirs is that of {x}, x
the last element but the top.  :func:`_disagreement` tests each up-set
and that one non-up-set (the representative in a two-valued run) once,
before the DP runs, and names the least (map, key), on which
the literal scans raise AlgebraError (RuntimeError if they agree there).

Per plan.  Resolving the checks reads only the specs, the grid and the
interval, never the algebra.  So :func:`_plan` builds them once per
(specs, D, interval) into one plan, of tuples, ints and strs: each
check's levels (cut indices), fuzzy key, relation kinds, iff flag and
theorem id, the distinct ``route="all"`` keys, the bits of the
biconditionals, and the D+1 grid values as a counterexample prints
them.  An atom's table reads only the checks, so the plan also keeps
{atom: table}, filled by the first run on any algebra that meets the
atom.  A table holds D+1 ints, and an atom is an int below
2^(len(KINDS) + len(_SCAN_KEYS)), so a plan holds at most 2048 tables
(a3 meets 4 atoms, 3 of which set a bit).  The DP reads only the tables
and the automaton's rows, in which the nodes are numbered as the walk
meets them and the letters are atoms, so the plan keeps {(carrier's
atom, rank count, rows): flags} as well, one bool per rank count, never
a map.  An atom is its own id (below), so the key is exact across
algebras, and an algebra whose automaton has the same rows reads the
flags of another.
:func:`_plan` keeps the last 8 plans (``functools.lru_cache``), so
repeated runs at one grid, on any algebra, share one, and the tables
and verdicts go with their plan.  A plan holds no algebra, and without
its memos grows only with its checks and D, about 16 KB for the catalog
at D=24.

Per algebra.  The up-sets (:func:`softmtl.fuzzy.up_sets`), the atom of
each cut a run meets (:func:`_atoms`: the carrier, the up-sets and the
representative) and the automaton's rows walked for each rank count
depend only on the algebra, so ``alg.tables`` keeps them, next to the
classifications (:class:`softmtl.algebra.DerivedTables`).  A first run
on an algebra does the work of a run without them, and every later run
classifies, scans and expands nothing, except the nodes of a rank count
no run walked before.  They hold at most len(up-sets) + 2 atoms and one
tuple of rows per rank count walked, and go with the algebra.

Per run.  Each run makes its own reports, reads its flags off its plan
with one lookup, and for a flagged rank count walks its weak orders,
lists the value tuples of their profiles and records its
counterexamples.  All of it stays on the run and goes with it, and no
memo grows with the maps.  A run that refutes nothing on a plan and
algebra met before decides, expands, lists and walks nothing.

Two-valued maps.  Over the budget N, (D+1)^n > N, the pass walks only
the constant maps (r = 1) and the maps a off U, b on U with a < b
(r = 2, chain (U,)), for U each non-empty proper up-set of the
algebra's order (:func:`softmtl.fuzzy.up_sets`) and the representative,
the least mask that is not one: {0}, or {1} when 0 is the top.  With u
up-sets that is D+1 + (u + 1) C(D+1, 2) maps, so a run is refused,
before any map is walked, iff u > (N - D - 1) // C(D+1, 2) - 1, where
the listing stops.  It is the same loop, atoms and DP with r <= 2,
which expands only the automaton's start, whose letters are the atoms
of those sets, and the chains (U,) are listed only to name
counterexamples.  The maps are grid maps, so their records are the
grid's on them, and each check the grid refutes is refuted on one of
them, by two lemmas: the U_i that sets the failing side of a
counterexample, or disagrees, makes the grid map V[i-1] off U_i, V[i] on
U_i do the same; and every non-up-set fails every kind and the same
scans, so all share one atom.

``Fraction`` appears only when a counterexample is formatted.  Every
input for which the claimed biconditional or implication fails is
recorded.  A confirmation is always "at this algebra and grid", never a
proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, compress
from operator import or_
from typing import NamedTuple

from . import filters
from .algebra import FiniteMtlAlgebra, require_mtl
from .filters import KINDS
from .fuzzy import (FuzzySet, chain_automaton, check_den, disagree, family_bounds, grid_map,
                    map_doc, resolve_route, scan_fails, scan_masks, up_sets, variant_witness,
                    weak_orders)
from .soft import FULL, LOWER, SOFT_KINDS, UPPER, ParameterInterval, cut_index, level_cuts

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
    """Check a run's inputs; its mode, its sets and the number of maps it checks.

    The sets are the non-empty proper up-sets, ascending, then the
    representative (module docstring, "Two-valued maps").
    """
    _check_grid(alg, den)
    if budget is not None and budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    n = alg.n
    maps = (den + 1) ** n
    if budget is None or maps <= budget:
        mode, ups = "exhaustive", up_sets(alg)
    else:
        pairs = (den + 1) * den // 2  # the maps a off U, b on U of one U
        most = (budget - den - 1) // pairs - 1  # the most up-sets the budget has maps for
        ups = up_sets(alg, most)
        if ups is None:
            raise ValueError(f"budget {budget} is below the two-valued maps of the 1/{den} grid "
                             f"on {n} elements, whose order has more than {max(most, 0)} up-sets")
        mode, maps = "two-valued", den + 1 + (len(ups) + 1) * pairs
    return mode, [*ups, 1 << (alg.top == 0)], maps  # the least non-up-set: {0}, or {1}


class _Check(NamedTuple):
    """One theorem resolved against the grid before the pass starts.

    ``levels`` lists the cut index of each soft level j/den, j = lo+1..hi,
    in that order: it rises with t for "in" and falls for "q".  Both
    :func:`_table` and :func:`_record` read it.
    """

    theorem: str                  # the spec's id, which its report names
    soft_kind: str
    levels: tuple[int, ...]       # the cut index of each soft level, by ascending t
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
    levels = tuple(cut_index(spec.soft_kind, j, den) for j in range(lo + 1, hi + 1))
    if spec.relation:
        lhs, rhs = spec.relation
        return _Check(spec.id, spec.soft_kind, levels, lhs, None, tuple(rhs),
                      spec.direction == "iff")
    if spec.filter_kind not in KINDS:
        raise ValueError(f"unknown filter kind {spec.filter_kind!r}")
    flo, fhi = family_bounds(spec.family, den, Fraction(lo, den), Fraction(hi, den))
    key = (spec.filter_kind, flo, fhi, resolve_route(spec.family, spec.filter_kind, spec.route))
    return _Check(spec.id, spec.soft_kind, levels, spec.filter_kind, key,
                  iff=spec.direction == "iff")


class _Plan(NamedTuple):
    """The checks of a pass and their verdict bits on the 1/den grid; nothing of the algebra.

    Check c's conclusion is bit c and its premise bit width + c of
    S | F << width (module docstring, "Per map").  ``all_routes`` holds the
    distinct fuzzy keys of the ``route="all"`` checks (:func:`_disagreement`).
    ``tables`` maps an atom to its verdict table, read off the checks'
    sides (:func:`_table`), and ``verdicts`` a DP's key to whether each
    rank count has a counterexample (:func:`_flags`); both are filled on
    first use by a run on any algebra, and all else is immutable.
    """

    checks: tuple[_Check, ...]
    den: int
    width: int                     # F's bits start here: one per check
    all_routes: tuple[tuple, ...]
    iff: int                       # the bits of the biconditionals
    printed: tuple[str, ...]       # each grid value k/den as a counterexample prints it
    tables: dict[int, tuple[int, ...]]
    verdicts: dict[tuple, tuple[bool, ...]]


def _pack(checks, den) -> _Plan:
    """The plan of ``checks`` on the 1/den grid, its memos empty."""
    return _Plan(
        tuple(checks), den, len(checks),
        tuple({check.fuzzy for check in checks if check.fuzzy and check.fuzzy[3] == "all"}),
        sum(1 << c for c, check in enumerate(checks) if check.iff),
        tuple(str(Fraction(k, den)) for k in range(den + 1)), {}, {})


@lru_cache(maxsize=8)
def _plan(specs: tuple[TheoremSpec, ...] | None, den: int, interval) -> _Plan:
    """The plan of ``specs`` on the 1/den grid, ``interval`` overriding a generic one's.

    It depends only on its arguments, so it is built once and shared by
    every run with them (module docstring, "Per plan").  None stands for
    the catalog, whose 31 specs would each be hashed on every lookup.
    """
    return _pack([_check(spec, den, interval)
                  for spec in (_CATALOG if specs is None else specs)], den)


def _table(plan, atom) -> tuple[int, ...]:
    """S | F << width of a rank with ``atom`` at each cut index 0..den, kept in ``plan.tables``.

    A rank over the span (u, v] adds the OR of the entries u+1..v.  Each
    side of check c whose mask the atom meets sets its bit, c for the
    conclusion and width + c for the premise, at every cut index it reads:
    the check's levels, or lo+1..hi for a fuzzy premise (module docstring,
    "Per map").
    """
    col = [0] * (plan.den + 1)
    for c, check in enumerate(plan.checks):
        conclusion = sum(1 << KINDS.index(kind) for kind in check.rhs or (check.kind,))
        if check.fuzzy is None:  # a relation's premise: its left-hand kind at the levels
            premise, cuts = 1 << KINDS.index(check.kind), check.levels
        else:  # the fuzzy side: the scan bits of its fail mask over the cut indices lo+1..hi
            kind, lo, hi, route = check.fuzzy
            premise, cuts = scan_masks(kind, route)[0] << len(KINDS), range(lo + 1, hi + 1)
        for mask, at, bit in ((conclusion, check.levels, 1 << c),
                              (premise, cuts, 1 << plan.width + c)):
            if atom & mask:
                for j in at:
                    col[j] |= bit
    col = plan.tables[atom] = tuple(col)
    return col


def _fails(plan, bits) -> int:
    """The checks refuted by a map with S | F << width ``bits``: (S ^ F) & (S | IFF)."""
    return (bits ^ bits >> plan.width) & (bits | plan.iff) & ((1 << plan.width) - 1)


def _flags(plan, key) -> tuple[bool, ...]:
    """Whether some map of r ranks is a counterexample, for r = 1..ranks, kept in ``plan.verdicts``.

    ``key`` is the rank-0 cut's atom, the rank count and the rows of the
    chain automaton that it walks (:func:`softmtl.fuzzy.chain_automaton`).
    A DP over the ranks: after rank i, each node i letters from the start
    maps each value v to the ORs S | F << width of ranks 0..i over the
    words that reach the node and the prefixes V[0] < ... < V[i] = v
    (module docstring, "Per map"), held at index v + 1.  Rank count r is
    read after rank r - 1.  No value tuple is listed.
    """
    carrier, ranks, rows = key
    flags, starts = [], {0: (carrier, [{0}] + [set()] * (plan.den + 1))}  # V[-1] = -1
    for i in range(ranks):
        ends = {}  # each node -> the ORs ending at each value, as starts holds them
        for node, (atom, start) in starts.items():
            t = plan.tables.get(atom) or _table(plan, atom)
            # the prefixes with V[i] = v: those with V[i] = v - 1 or V[i-1] = v - 1, and index v
            ends[node] = list(accumulate(range(plan.den + 1), lambda ors, v: {
                x | t[v] for x in ors | start[v]}, initial=set()))
        flags.append(any(_fails(plan, x) for end in ends.values() for ors in end for x in ors))
        starts = {}
        for node, end in ends.items() if i + 1 < ranks else ():
            for atom, to in rows[node]:  # the words reaching a node merge: what follows is its own
                starts[to] = (atom, [a | b for a, b in zip(starts[to][1], end)]
                              if to in starts else end)
    flags = plan.verdicts[key] = tuple(flags)
    return flags


def _listed(plan, atoms) -> list[tuple[tuple[int, ...], int, int]]:
    """(V, S, F) of each counterexample among the maps of ``atoms``, the carrier's atom first."""
    # each rank's OR of its table entries over the span (u, v], at [u][v]
    spans = [[(0,) * u + tuple(accumulate(t[u + 1:], or_, initial=0)) for u in range(len(t))]
             for t in map(plan.tables.__getitem__, atoms)]
    found = []
    for vals in combinations(range(plan.den + 1), len(atoms)):
        bits = 0
        for rows, u, v in zip(spans, (0, *vals), vals):
            bits |= rows[u][v]
        if _fails(plan, bits):
            found.append((vals, bits & (1 << plan.width) - 1, bits >> plan.width))
    return found


def _disagreement(keys, atoms, n):
    """The least (map, key) on which the formulations of a ``route="all"`` key disagree, or None.

    ``atoms`` maps the up-sets, and one non-up-set for all, to their
    atoms.  The map is 0 off U, lo+1 on U for a set U whose own scan bits
    disagree (module docstring, "Route "all"").
    """
    return min([(grid_map((up,), (0, key[1] + 1), n), key) for key in keys
                for up, atom in atoms.items()
                if disagree(atom >> len(KINDS), *scan_masks(key[0], "all"))], default=None)


def _atoms(alg, sets) -> dict[int, int]:
    """The algebra's memo {cut: atom}, holding the carrier's atom and that of each of ``sets``.

    An atom holds the cut's failing kinds and, above them, its scan bits.
    ``sets`` are :func:`_walk`'s, the same in every run on the algebra,
    so only the first run classifies and scans them, the representative
    last (module docstring, "Per algebra").
    """
    atoms = alg.tables.atoms
    if sets[-1] not in atoms:
        # the rank-0 cut, the whole carrier, is in every chain; no scan fails on its constant map
        full = (1 << alg.n) - 1
        atoms[full] = filters.classify_filter(alg, full).fails
        for cut in sets:
            atoms[cut] = (filters.classify_filter(alg, cut).fails
                          | scan_fails(alg, cut) << len(KINDS))
    return atoms


def _record(alg, plan, reports, atoms, other, nums, soft: int, fail: int) -> None:
    """Append each check's counterexample on one map to its report, read off its sides S and F.

    A soft-side witness is read off the map's level cuts, each cut's atom
    being ``atoms.get(cut, other)`` (:func:`_atoms`): the first level in
    ``check.levels`` whose cut is not empty and fails the first witness
    kind that fails at some level.  That cut is classified literally, and
    a classification that passes the kind raises RuntimeError.
    """
    den, checks, printed = plan.den, plan.checks, plan.printed
    doc = dict(zip(alg.labels, [printed[k] for k in nums]))  # as map_doc prints it
    cuts = None  # the map's level cuts, once a soft-side witness needs them
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
            cuts = cuts or level_cuts(nums, den)
            # an empty cut passes every kind, though other, its atom, fails them all
            kind, j = next((kind, j) for kind in kinds for j in check.levels
                           if cuts[j] and atoms.get(cuts[j], other) >> KINDS.index(kind) & 1)
            cls = filters.classify_filter(alg, cuts[j])
            if cls.has(kind):
                raise RuntimeError(f"{check.theorem}: the literal classification contradicts "
                                   f"the kind bits on {doc}")
            key = kind if cls.is_filter else "filter"
            witness = (printed[cut_index(check.soft_kind, j, den)], key, cls.witnesses.get(key))
        reports[b].counterexamples.append(
            {"mu": doc, "direction": direction, "witness": [str(part) for part in witness]})


def _verify(alg, specs, den, walk, interval=None) -> list[VerificationReport]:
    """Run the checks of ``specs`` (a tuple, or None for the catalog) on the maps of ``walk``.

    ``walk`` is the mode, sets and map count of :func:`_walk`.
    """
    mode, sets, checked = walk
    plan = _plan(specs, den, interval)
    name = "/".join(alg.labels)
    reports = [VerificationReport(check.theorem, name, den, checked, mode)
               for check in plan.checks]
    n, atoms = alg.n, _atoms(alg, sets)
    carrier = atoms[(1 << n) - 1]
    *ups, rep = sets
    other = atoms[rep]
    if mode == "exhaustive":  # every map: the chains of any non-empty proper subsets
        orders = [weak_orders(n, r) for r in range(1, min(n, den + 1) + 1)]
        # the lexicographically least non-up-set: {x}, x the last element but the top
        rep = 1 << n - 1 - (alg.top == n - 1)
    else:  # the constant maps, and a off U, b on U: the chains (U,)
        orders = [[()], [(up,) for up in sets]]
    if plan.all_routes and (least := _disagreement(
            plan.all_routes, {up: atoms[up] for up in ups} | {rep: other}, n)):
        variant_witness(alg, den, *least)  # raises AlgebraError, naming the map
        raise RuntimeError(f"the scan bits flag disagreeing formulations on "
                           f"{map_doc(alg, den, least[0])}, and the literal scans agree")
    ranks = len(orders)  # neither the rows nor the flags are empty: ranks >= 2
    key = (carrier, ranks, alg.tables.automaton.get(ranks)
           or chain_automaton(alg, ups, atoms, other, ranks))
    flags = plan.verdicts.get(key) or _flags(plan, key)
    found = []  # (map, S, F) of each counterexample
    # each flagged rank count's weak orders, walked only to name their maps
    for r, of_r in compress(enumerate(orders, 1), flags):
        named = {}  # each profile met -> (values, S, F) of its counterexamples
        for order in of_r:
            # the carrier is in no order, and the representative's atom is other's
            profile = tuple([atoms.get(up, other) for up in order])
            if profile not in named:
                named[profile] = _listed(plan, (carrier, *profile))
            if named[profile]:
                rank = grid_map(order, range(r), n)  # each element's rank
                for vals, soft, fail in named[profile]:
                    found.append((tuple([vals[i] for i in rank]), soft, fail))
        if not any(named.values()):
            raise RuntimeError(f"the DP flags rank count {r}, and none of its maps fails")
    found.sort()  # the lexicographic order of the maps
    for counterexample in found:
        _record(alg, plan, reports, atoms, other, *counterexample)
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
