"""A literal reference checker for the theorem catalog, in Fractions.

It shares no decision code with ``softmtl``.  Of an algebra it reads only
the operation tables ``prod``, ``res``, ``leq`` and ``join`` (and ``meet``
for the derived laws) and the elements ``top`` and ``bottom`` (``labels``
only to name elements), and none of its derived tables, fuzzy scans or
filter classifiers:

- the axioms and the derived laws are the plain triple loops of
  :func:`literal_axioms` and :func:`literal_laws`, each subscript read
  from the tables at every step;

- each fuzzy filter condition is the paper's inequality
  mu(p) >= min(mu(q), ...), and a family with thresholds (lo, hi) reads it
  as max(mu(p), lo) >= min(mu(q), ..., hi);
- each soft level at a representative t = j/D of (lo, hi] is
  {x : x_t in mu} or {x : x_t q mu}, read through :func:`evaluate`;
- each crisp filter kind is decided from its definition, and its witness
  is the first instance of the definition that fails;
- a strictness witness for T4.2.13 (T4.3.12) is found by walking every
  grid map for one whose non-empty in-levels are all MV- (G-) filters and
  not all Boolean;
- over budget it walks the two-valued maps, a off U and b on U, listing
  the up-sets U by a brute force over every subset.

The one exception is the subset walk at the end (:func:`_profiles` with
:func:`_subset_ids` and :func:`_below`): the verifier's former source of
exhaustive profiles, kept to check the words of the chain automaton
(:func:`softmtl.fuzzy.chain_automaton`), which replaced it after a walk
over the up-sets did.  It lists the up-sets and the representative by
its own brute force (:func:`two_valued_sets`), and reads the verifier's
atoms of them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from softmtl.fuzzy import FuzzySet
from softmtl.verifier import _atoms

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)

# each membership mode as a predicate on (mu(x), t)
MODES = {
    "in": lambda value, t: value >= t,
    "q": lambda value, t: value + t > ONE,
    "in-or-q": lambda value, t: value >= t or value + t > ONE,
    "not-in": lambda value, t: not value >= t,
    "not-q": lambda value, t: not value + t > ONE,
    "not-in-or-not-q": lambda value, t: not value >= t or not value + t > ONE,
}


@dataclass(frozen=True)
class MembershipQuery:
    x: int
    level: Fraction
    mode: str = "in"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown membership mode {self.mode!r}")
        if not ZERO < self.level <= ONE:
            raise ValueError("membership level must lie in (0, 1]")


def evaluate(mu: FuzzySet, query: MembershipQuery) -> bool:
    """Exact fuzzy-point membership: x_t in mu, x_t q mu, and negations."""
    return MODES[query.mode](Fraction(mu.nums[query.x], mu.den), query.level)


# --- algebra side ---------------------------------------------------------------

def _recorder(alg):
    """A violations dict, axiom -> [labels of each instance], and its recorder."""
    found = {}

    def record(axiom, *elems):
        found.setdefault(axiom, []).append(tuple(alg.labels[e] for e in elems))
    return found, record


def literal_axioms(alg):
    """The residuated-lattice axioms plus prelinearity, instance by instance."""
    n, prod, res, leq, join, top = alg.n, alg.prod, alg.res, alg.leq, alg.join, alg.top
    found, record = _recorder(alg)
    for x in range(n):
        if prod[x][top] != x:
            record("prod-unit", x)
        for y in range(n):
            if prod[x][y] != prod[y][x]:
                record("prod-commutative", x, y)
            for z in range(n):
                if prod[prod[x][y]][z] != prod[x][prod[y][z]]:
                    record("prod-associative", x, y, z)
                if leq[x][y] and not leq[prod[x][z]][prod[y][z]]:
                    record("prod-isotone", x, y, z)
                if leq[prod[x][y]][z] != leq[x][res[y][z]]:
                    record("adjunction", x, y, z)
    for x in range(n):
        for y in range(n):
            if join[res[x][y]][res[y][x]] != top:
                record("prelinearity", x, y)
    return found


def literal_laws(alg):
    """The laws every MTL-algebra satisfies, instance by instance."""
    n, prod, res, leq, meet, join = alg.n, alg.prod, alg.res, alg.leq, alg.meet, alg.join
    bot, top = alg.bottom, alg.top
    neg = [res[x][bot] for x in range(n)]
    found, record = _recorder(alg)
    for x in range(n):
        if res[bot][x] != top:
            record("bottom-residuates-to-top", x)
        if res[top][x] != x:
            record("top-residuum-identity", x)
        if not (neg[x] == neg[neg[neg[x]]] and leq[x][neg[neg[x]]] and prod[neg[x]][x] == bot):
            record("negation-laws", x)
        if join[x][neg[x]] == top and meet[x][neg[x]] != bot:
            record("complemented-implies-disjoint", x)
        for y in range(n):
            if leq[x][y] != (res[x][y] == top):
                record("order-residuum", x, y)
            if res[x][res[y][x]] != top:
                record("weakening", x, y)
            if not leq[y][res[res[y][x]][x]]:
                record("double-residuation-lift", x, y)
            if not leq[prod[x][y]][meet[x][y]]:
                record("prod-below-meet", x, y)
            for z in range(n):
                a = res[x][res[y][z]]
                if not (a == res[prod[x][y]][z] == res[y][res[x][z]]):
                    record("exchange", x, y, z)
                if not (leq[res[x][y]][res[res[z][x]][res[z][y]]]
                        and leq[res[x][y]][res[res[y][z]][res[x][z]]]):
                    record("residuum-monotonicity", x, y, z)
                if res[x][join[y][z]] != join[res[x][y]][res[x][z]]:
                    record("residuum-join-distribution", x, y, z)
    return found


# --- fuzzy side ----------------------------------------------------------------

BOUNDS = {"plain": (ZERO, ONE), "eiq": (ZERO, HALF), "bar": (HALF, ONE)}

# The formulations of each kind in the plain family, the default first, and
# the one formulation of each kind in every other family.
PLAIN_FORMS = {"filter": ("product", "mp"), "boolean": ("complement", "chain", "contraction"),
               "mv": ("mv",), "g": ("g",)}
OTHER_FORMS = {"filter": "mp", "boolean": "chain", "mv": "mv", "g": "g"}


def conditions(alg, form):
    """Every instance of one formulation, in lexicographic order of its variables.

    An instance is (name, variables, p, qs) and reads
    mu(p) >= min(mu(q) for q in qs).
    """
    e, prod, res, leq, join = range(alg.n), alg.prod, alg.res, alg.leq, alg.join
    neg = [res[x][alg.bottom] for x in e]
    if form == "mp":
        for x in e:  # mu(1) >= mu(x)
            yield "unit", (x,), alg.top, (x,)
        for x, y in itertools.product(e, e):  # mu(y) >= min(mu(x -> y), mu(x))
            yield "mp", (x, y), y, (res[x][y], x)
    elif form == "product":
        for x, y in itertools.product(e, e):
            yield "product", (x, y), prod[x][y], (x, y)  # mu(x . y) >= min(mu(x), mu(y))
            if leq[x][y]:
                yield "order", (x, y), y, (x,)  # x <= y implies mu(y) >= mu(x)
    elif form == "complement":
        for x in e:  # mu(x v x') >= mu(1)
            yield "complement", (x,), join[x][neg[x]], (alg.top,)
    elif form == "chain":
        for x, y, z in itertools.product(e, e, e):
            # mu(x -> z) >= min(mu(x -> (z' -> y)), mu(y -> z))
            yield "chain", (x, y, z), res[x][z], (res[x][res[neg[z]][y]], res[y][z])
    elif form == "contraction":
        for x, y in itertools.product(e, e):  # mu(x) >= mu((x -> y) -> x)
            yield "contraction", (x, y), x, (res[res[x][y]][x],)
    elif form == "mv":
        for x, y in itertools.product(e, e):  # mu(((y -> x) -> x) -> y) >= mu(x -> y)
            yield "mv", (x, y), res[res[res[y][x]][x]][y], (res[x][y],)
    elif form == "g":
        for x, y in itertools.product(e, e):  # mu(x -> y) >= mu(x . x -> y)
            yield "g", (x, y), res[x][y], (res[prod[x][x]][y],)
    else:
        raise ValueError(f"unknown formulation {form!r}")


@functools.lru_cache(maxsize=1024)  # the conjunct recurs within a map
def violation(alg, values, form, lo, hi):
    """The first instance of the formulation where max(mu(p), lo) >= min(mu(qs), hi) fails."""
    for name, xs, p, qs in conditions(alg, form):
        if max(values[p], lo) < min(*(values[q] for q in qs), hi):
            return (name, *(alg.labels[x] for x in xs))
    return None


def fuzzy_witness(alg, values, kind, lo, hi, forms):
    """The first violated instance of a fuzzy filter kind under thresholds (lo, hi), or None.

    Every kind other than "filter" has the filter condition (unit and
    modus ponens) as a conjunct.  With several formulations, they must
    agree.
    """
    if kind != "filter":
        w = violation(alg, values, "mp", lo, hi)
        if w is not None:
            return w
    found = [violation(alg, values, form, lo, hi) for form in forms]
    if len({w is None for w in found}) > 1:
        raise AssertionError(f"{kind} formulations {forms} disagree on {values}: {found}")
    return next((w for w in found if w is not None), None)


def forms_of(family, kind, route="default"):
    """The formulations a spec's family, kind and route name."""
    if family != "plain":
        return (OTHER_FORMS[kind],)
    if route == "all":
        return PLAIN_FORMS[kind]
    return (PLAIN_FORMS[kind][0] if route == "default" else route,)


# --- crisp and soft side -------------------------------------------------------

KINDS = tuple(PLAIN_FORMS)


def violations(alg, s, kind):
    """The instances of a crisp kind's definition that the subset s violates, as labels,
    in lexicographic order of their variables."""
    e, prod, res, leq, join, lab = range(alg.n), alg.prod, alg.res, alg.leq, alg.join, alg.labels
    pairs = list(itertools.product(e, e))
    if kind == "filter":
        for x in sorted(s):
            # x, y in F implies x . y in F; x in F and x <= y imply y in F
            yield from (("prod", lab[x], lab[y]) for y in e if y in s and prod[x][y] not in s)
            yield from (("up", lab[x], lab[y]) for y in e if leq[x][y] and y not in s)
    elif kind == "boolean":  # x v x' in F
        yield from ((lab[x],) for x in e if join[x][res[x][alg.bottom]] not in s)
    elif kind == "mv":  # x -> y in F implies ((y -> x) -> x) -> y in F
        yield from ((lab[x], lab[y]) for x, y in pairs
                    if res[x][y] in s and res[res[res[y][x]][x]][y] not in s)
    else:  # x . x -> y in F implies x -> y in F
        yield from ((lab[x], lab[y]) for x, y in pairs
                    if res[prod[x][x]][y] in s and res[x][y] not in s)


def crisp_witness(alg, s, kind):
    """Why the non-empty subset s is not a filter of the kind, or None: (key, the first
    violation), where key is "filter" when s is no filter at all."""
    for key in dict.fromkeys(("filter", kind)):
        first = next(violations(alg, s, key), None)
        if first is not None:
            return key, first
    return None


def level(mu, soft_kind, t):
    """The level at t of a soft set of mu: {x : x_t in mu} or {x : x_t q mu}."""
    return frozenset(x for x in range(mu.alg.n) if evaluate(mu, MembershipQuery(x, t, soft_kind)))


@functools.lru_cache(maxsize=1024)  # the levels recur from map to map
def crisp_verdicts(alg, cut, kind):
    """Whether the non-empty subset cut is a filter of the kind, and whether it is Boolean."""
    return crisp_witness(alg, cut, kind) is None, crisp_witness(alg, cut, "boolean") is None


def is_strictness_witness(mu, kind):
    """True when the in-levels of mu over (0, 1] show that a filter of the kind need not be
    Boolean: every non-empty level is a filter of the kind, and some one is not Boolean."""
    cuts = {level(mu, "in", Fraction(j, mu.den)) for j in range(1, mu.den + 1)} - {frozenset()}
    verdicts = [crisp_verdicts(mu.alg, cut, kind) for cut in cuts]
    return all(ok for ok, _ in verdicts) and not all(boolean for _, boolean in verdicts)


def literal_strictness_witness(alg, kind, den):
    """The first map of the 1/den grid, lexicographically, that is a strictness witness
    for the kind ("mv" for T4.2.13, "g" for T4.3.12), or None."""
    for nums in itertools.product(range(den + 1), repeat=alg.n):
        mu = FuzzySet(alg, den, nums)
        if is_strictness_witness(mu, kind):
            return mu
    return None


def thresholds(den):
    """The (alpha, beta] that a generic-interval theorem is checked at on the 1/den grid."""
    return (HALF, ONE) if den == 2 else (Fraction(1, den), Fraction(den - 1, den))


def two_valued_sets(alg):
    """Each non-empty proper up-set of the order, ascending, then the least other subset,
    by a brute force over every subset."""
    n, leq = alg.n, alg.leq
    subsets = range(1, (1 << n) - 1)
    upward = [all(m >> y & 1 for x in range(n) if m >> x & 1 for y in range(n) if leq[x][y])
              for m in subsets]
    sets = [m for m, up in zip(subsets, upward) if up]
    return [*sets, next(m for m, up in zip(subsets, upward) if not up)]


def two_valued_maps(alg, den):
    """The maps of the two-valued pass, in lexicographic order: the constant maps, and for
    a < b the map a off U, b on U, U each of :func:`two_valued_sets`."""
    n, sets = alg.n, two_valued_sets(alg)
    pairs = itertools.combinations(range(den + 1), 2)
    maps = [(k,) * n for k in range(den + 1)]
    maps += [tuple(b if m >> x & 1 else a for x in range(n)) for a, b in pairs for m in sets]
    return sorted(maps)


def literal_reports(alg, specs, den, budget=None, interval=None):
    """What ``verify`` reports on each spec, as stated: ``VerificationReport.to_doc()``.

    A counterexample's witness is the fuzzy side's first violated instance,
    or (t, key, crisp witness) at the first non-empty level, by ascending
    t, that fails the kind.  A forward relation names its first failing
    right-hand kind, a converse one its left-hand kind.
    """
    if budget is not None and (den + 1) ** alg.n > budget:
        maps, mode = two_valued_maps(alg, den), "two-valued"
    else:
        maps, mode = itertools.product(range(den + 1), repeat=alg.n), "exhaustive"
    ts = [Fraction(j, den) for j in range(1, den + 1)]  # the representatives of (0, 1]
    softs, variants, plans = {}, {}, []  # soft sets and fuzzy variants, each met once per map
    for spec in specs:
        iv = interval or spec.interval
        lo, hi = (iv.lo, iv.hi) if iv is not None else thresholds(den)
        within = tuple(i for i, t in enumerate(ts) if lo < t <= hi)
        soft = softs.setdefault((spec.soft_kind, within), len(softs))
        variant = None
        if not spec.relation:
            flo, fhi = (lo, hi) if spec.family == "thresholds" else BOUNDS[spec.family]
            forms = forms_of(spec.family, spec.filter_kind, spec.route)
            variant = variants.setdefault((spec.filter_kind, flo, fhi, forms), len(variants))
        plans.append((spec, soft, variant))
    whys = {}  # level -> {kind: its crisp witness}
    found = {spec.id: [] for spec in specs}
    checked = 0
    for nums in maps:
        checked += 1
        mu = FuzzySet(alg, den, nums)
        at = {}  # (soft kind, index of t) -> the level there
        failing = []  # per soft set: each kind it fails -> the soft witness
        for soft_kind, within in softs:
            first = {}
            for i in within:
                if (soft_kind, i) not in at:
                    at[soft_kind, i] = level(mu, soft_kind, ts[i])
                cut = at[soft_kind, i]
                if cut:
                    if cut not in whys:
                        whys[cut] = {kind: crisp_witness(alg, cut, kind) for kind in KINDS}
                    for kind, why in whys[cut].items():
                        if why is not None:
                            first.setdefault(kind, (ts[i], *why))
            failing.append(first)
        values = tuple(Fraction(k, den) for k in nums)
        fuzzy = [fuzzy_witness(alg, values, *variant) for variant in variants]
        for spec, soft, variant in plans:
            fails, iff = failing[soft], spec.direction == "iff"
            if variant is None:
                lhs, rhs = spec.relation
                rhs_fails = [fails[k] for k in rhs if k in fails]
                if lhs not in fails and rhs_fails:
                    direction, witness = "forward", rhs_fails[0]
                elif lhs in fails and not rhs_fails and iff:
                    direction, witness = "converse", fails[lhs]
                else:
                    continue
            else:
                kind, fw = spec.filter_kind, fuzzy[variant]
                if fw is None and kind in fails:
                    direction, witness = "fuzzy=>soft", fails[kind]
                elif fw is not None and kind not in fails and iff:
                    direction, witness = "soft=>fuzzy", fw
                else:
                    continue
            found[spec.id].append({"mu": mu.to_doc(), "direction": direction,
                                   "witness": [str(part) for part in witness]})
    return [{"theorem": spec.id, "algebra": "/".join(alg.labels), "den": den,
             "checked": checked, "mode": mode, "confirmed": not found[spec.id],
             "counterexamples": found[spec.id]} for spec in specs]


def _subset_ids(alg) -> list[int]:
    """The atom of every subset, by mask: an up-set's own, the representative's for the rest.

    An atom is an int below 2^11, so it serves as its own id.
    """
    *ups, other = sets = two_valued_sets(alg)
    atoms = _atoms(alg, sets)
    ids = [atoms[other]] * (1 << alg.n)
    for up in ups:
        ids[up] = atoms[up]
    return ids


def _below(ids: list[int]) -> list[int]:
    """For each set S, the bitmask of the atom ids ``ids`` gives S's non-empty proper subsets."""
    below = [0] * len(ids)
    for s in range(1, len(ids)):
        union, rest = 0, s
        while rest:  # every proper subset of S lies in some S - x
            x = rest & -rest
            rest ^= x
            if sub := s ^ x:
                union |= below[sub] | 1 << ids[sub]
        below[s] = union
    return below


def _profiles(ids, below, full: int, r: int) -> list[tuple[int, ...]]:
    """The distinct atom-id profiles of the chains full > U_1 > ... > U_r-1, all sets non-empty.

    A state is (last set, profile so far), each kept once: what can follow
    a chain depends only on its last set.  The last level reads ``below``.
    """
    if r == 1:
        return [()]
    states = {(full, ())}
    for need in range(r - 1, 1, -1):  # U_i holds the ranks i..r-1, so r - i elements or more
        grown = set()
        for last, profile in states:
            sub = (last - 1) & last
            while sub:
                if sub.bit_count() >= need:
                    grown.add((sub, (*profile, ids[sub])))
                sub = (sub - 1) & last
        states = grown
    tails = {}  # profile so far -> the ids its last sets have below them
    for last, profile in states:
        tails[profile] = tails.get(profile, 0) | below[last]
    return [(*profile, i) for profile, mask in tails.items()
            for i in range(mask.bit_length()) if mask >> i & 1]
