"""Independent oracle for the benchmark: algebra generators and a crisp classifier.

Nothing here imports ``softmtl``.  Algebras are built from a product table
and an order only; the residuum is derived from its definition
(x -> y = max{z : x * z <= y}), so a table error in the program's fixtures
or loader cannot leak into the expected answers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class OracleError(RuntimeError):
    """A generated algebra or an oracle answer broke a known fact."""


class Alg:
    """Finite bounded lattice with a monoid product; residuum derived."""

    def __init__(self, labels, prod, leq):
        self.labels = list(labels)
        self.n = n = len(self.labels)
        self.prod = prod
        self.leq = leq
        self.bottom = next(x for x in range(n) if all(leq[x][y] for y in range(n)))
        self.top = next(x for x in range(n) if all(leq[y][x] for y in range(n)))
        self.join = [[self._sup(x, y) for y in range(n)] for x in range(n)]
        self.res = [[self._residuum(x, y) for y in range(n)] for x in range(n)]

    def _sup(self, x, y):
        ups = [z for z in range(self.n) if self.leq[x][z] and self.leq[y][z]]
        least = [z for z in ups if all(self.leq[z][w] for w in ups)]
        if len(least) != 1:
            raise OracleError(f"no join of {self.labels[x]},{self.labels[y]}")
        return least[0]

    def _residuum(self, x, y):
        below = [z for z in range(self.n) if self.leq[self.prod[x][z]][y]]
        greatest = [z for z in below if all(self.leq[w][z] for w in below)]
        if len(greatest) != 1:
            raise OracleError(f"product is not residuated at {self.labels[x]},{self.labels[y]}")
        return greatest[0]

    def to_doc(self, labels=None) -> dict:
        """Document in the shape the program's loader reads, optionally renamed."""
        lab = list(labels or self.labels)
        return {
            "labels": list(lab),
            "prod": [[lab[z] for z in row] for row in self.prod],
            "res": [[lab[z] for z in row] for row in self.res],
            "bottom": lab[self.bottom],
            "top": lab[self.top],
        }


def chain(n, prod_fn, name):
    labels = [f"{name}{i}" for i in range(n)]
    prod = [[prod_fn(x, y) for y in range(n)] for x in range(n)]
    leq = [[x <= y for y in range(n)] for x in range(n)]
    return Alg(labels, prod, leq)


def godel(n):
    """G_n: product is the minimum."""
    return chain(n, min, "g")


def lukasiewicz(n):
    """Ł_n on 0..n-1: x * y = max(0, x + y - (n-1))."""
    return chain(n, lambda x, y: max(0, x + y - (n - 1)), "l")


def nilpotent_minimum(n):
    """NM_n on the grid i/(n-1): x * y = min(x, y) if x + y > 1, else 0."""
    return chain(n, lambda x, y: min(x, y) if x + y > n - 1 else 0, "m")


def product(a, b):
    """Direct product with componentwise operations (MTL is a variety)."""
    pairs = [(x, y) for x in range(a.n) for y in range(b.n)]
    idx = {p: i for i, p in enumerate(pairs)}
    labels = [f"{a.labels[x]}.{b.labels[y]}" for x, y in pairs]
    prod = [[idx[a.prod[x][u], b.prod[y][v]] for u, v in pairs] for x, y in pairs]
    leq = [[a.leq[x][u] and b.leq[y][v] for u, v in pairs] for x, y in pairs]
    return Alg(labels, prod, leq)


def _from_labels(labels, prod_rows, covers):
    """Algebra from a product table over labels and the covering pairs of its order."""
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    leq = [[x == y for y in range(n)] for x in range(n)]
    for lo, hi in covers:
        leq[idx[lo]][idx[hi]] = True
    for k in range(n):  # transitive closure
        for x in range(n):
            if leq[x][k]:
                for y in range(n):
                    leq[x][y] = leq[x][y] or leq[k][y]
    prod = [[idx[c] for c in row.split()] for row in prod_rows]
    return Alg(labels, prod, leq)


_CHAIN4 = (("0", "a"), ("a", "b"), ("b", "1"))

# The example algebras of the source paper, restated from their product
# tables and orders only.
FIXTURES = {
    "a1": _from_labels("0 a b 1".split(),
                       ["0 0 0 0", "0 a a a", "0 a a b", "0 a b 1"], _CHAIN4),
    "a2": _from_labels("0 a b 1".split(),
                       ["0 0 0 0", "0 0 0 a", "0 0 a b", "0 a b 1"], _CHAIN4),
    "a3": _from_labels("0 a b c d 1".split(),
                       ["0 0 0 0 0 0", "0 a c c 0 a", "0 c b c d b",
                        "0 c c c 0 c", "0 0 d 0 0 d", "0 a b c d 1"],
                       (("0", "d"), ("d", "c"), ("c", "a"), ("c", "b"),
                        ("a", "1"), ("b", "1"))),
    "b2": _from_labels(["0", "1"], ["0 0", "0 1"], (("0", "1"),)),
}

# The generated census algebras, by name; each maps to its family name.
CENSUS = {
    **{f"G{n}": "godel" for n in (8, 12, 16)},
    **{f"L{n}": "lukasiewicz" for n in (8, 12, 16)},
    **{f"NM{n}": "nm" for n in (8, 12, 16)},
    "a1xb2": "product", "a3xb2": "product", "b2^4": "product", "a1xa1": "product",
}


@lru_cache(maxsize=None)
def census_algebra(name) -> Alg:
    if name.startswith("NM"):
        return nilpotent_minimum(int(name[2:]))
    if name[0] == "G":
        return godel(int(name[1:]))
    if name[0] == "L":
        return lukasiewicz(int(name[1:]))
    f = FIXTURES
    return {"a1xb2": lambda: product(f["a1"], f["b2"]),
            "a3xb2": lambda: product(f["a3"], f["b2"]),
            "b2^4": lambda: product(product(product(f["b2"], f["b2"]), f["b2"]), f["b2"]),
            "a1xa1": lambda: product(f["a1"], f["a1"])}[name]()


def mtl_violations(a: Alg) -> list[str]:
    """Names of the MTL conditions the algebra breaks (empty when it is MTL).

    Residuation holds by construction of ``res``; what is left is a
    commutative monoid with the top as unit, isotone product, and
    prelinearity (x -> y) v (y -> x) = top.
    """
    n, p, r, top = a.n, a.prod, a.res, a.top
    bad = set()
    for x in range(n):
        if p[x][top] != x:
            bad.add("unit")
        for y in range(n):
            if p[x][y] != p[y][x]:
                bad.add("commutative")
            if a.join[r[x][y]][r[y][x]] != top:
                bad.add("prelinear")
            for z in range(n):
                if p[p[x][y]][z] != p[x][p[y][z]]:
                    bad.add("associative")
                if a.leq[x][y] and not a.leq[p[x][z]][p[y][z]]:
                    bad.add("isotone")
    return sorted(bad)


def _is_filter(a: Alg, s: set) -> bool:
    """Non-empty, upward closed and closed under the product."""
    return bool(s) and all(a.prod[x][y] in s for x in s for y in s) and \
        all(y in s for x in s for y in range(a.n) if a.leq[x][y])


def filters(a: Alg) -> list[frozenset]:
    """Every filter of a finite MTL-algebra, as the up-set of an idempotent.

    A finite filter F contains the product m of all its elements, m lies
    below every member, and m * m is in F, so F = up(m) with m idempotent;
    conversely up(e) is a filter for every idempotent e.  Small algebras
    are cross-checked against the definition over all subsets.
    """
    found = {frozenset(y for y in range(a.n) if a.leq[e][y])
             for e in range(a.n) if a.prod[e][e] == e}
    if a.n <= 8:
        brute = {frozenset(s) for m in range(1, 1 << a.n)
                 if _is_filter(a, s := {x for x in range(a.n) if m >> x & 1})}
        if brute != found:
            raise OracleError("idempotent characterization disagrees with the definition")
    return sorted(found, key=lambda f: (len(f), sorted(f)))


def flags(a: Alg, f: frozenset) -> tuple[bool, bool, bool]:
    """(Boolean, G, MV) for a filter, each from its definition.

    Boolean: x v x' in F for every x, where x' = x -> bottom.
    G: x -> x*x in F for every x (equivalent to x*x -> y in F implying
    x -> y in F: take y = x*x one way, and chain the two residua the other).
    MV: x -> y in F implies ((y -> x) -> x) -> y in F.
    """
    n, r, p = a.n, a.res, a.prod
    boolean = all(a.join[x][r[x][a.bottom]] in f for x in range(n))
    g = all(r[x][p[x][x]] in f for x in range(n))
    mv = all(r[r[r[y][x]][x]][y] in f for x in range(n) for y in range(n) if r[x][y] in f)
    return boolean, g, mv


def census_expectation(a: Alg, family: str) -> dict:
    """Expected census answer; masks use the algebra's own element order."""
    if mtl_violations(a):
        raise OracleError(f"generated algebra is not MTL: {mtl_violations(a)}")
    out = {}
    for f in filters(a):
        b, g, mv = flags(a, f)
        if b != (g and mv):
            raise OracleError("Boolean <=> G and MV fails in the oracle")
        if (family == "godel" and not g) or (family == "lukasiewicz" and not mv):
            raise OracleError(f"a {family} filter lacks its family's flag")
        out[sum(1 << x for x in f)] = (b, g, mv)
    return out


def strict_filter_exists(a: Alg, kind: str) -> bool:
    """Whether some filter has the kind ("mv" or "g") but is not Boolean.

    Exactly then a strictness witness exists at every grid: the
    characteristic function of such a filter has that filter as every cut.
    """
    col = {"g": 1, "mv": 2}[kind]
    return any(fl[col] and not fl[0] for fl in (flags(a, f) for f in filters(a)))


def witness_error(a: Alg, kind: str, den: int, mu_doc: dict) -> str | None:
    """Why a claimed strictness witness is wrong, or None when it holds.

    Every membership cut {x : mu(x) >= k/den} must be empty or a filter of
    the kind, and some cut must be a non-Boolean filter.
    """
    if sorted(mu_doc) != sorted(a.labels):
        return f"witness is not total over the carrier: {sorted(mu_doc)}"
    values = [Fraction(mu_doc[lab]) for lab in a.labels]
    if any(not 0 <= v <= 1 or (v * den).denominator != 1 for v in values):
        return f"witness leaves the 1/{den} grid: {mu_doc}"
    col = {"g": 1, "mv": 2}[kind]
    all_filters = set(filters(a))
    strict = False
    for k in range(1, den + 1):
        cut = frozenset(x for x in range(a.n) if values[x] >= Fraction(k, den))
        if not cut:
            continue
        if cut not in all_filters:
            return f"cut at {k}/{den} is not a filter"
        fl = flags(a, cut)
        if not fl[col]:
            return f"cut at {k}/{den} is not a {kind} filter"
        strict = strict or not fl[0]
    return None if strict else "every cut is Boolean"
