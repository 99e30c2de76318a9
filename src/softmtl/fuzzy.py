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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, FiniteMtlAlgebra, require_mtl
from .filters import KINDS

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


# --- inequality scans on numerators; each returns the first violating tuple or None ---
#
# With numerator bounds lo < hi, max(a, lo) < min(b, hi) holds exactly when
# c[a] < c[b] for the clamped numerators c = min(max(k, lo), hi), so every
# scan takes c.  The product, complement and contraction forms exist only
# for the plain family, whose bounds (0, D) leave c = k.  Every violation
# is a conjunction of comparisons c[p] < c[q] with one smaller side p
# (!= counts as two of them); :func:`scan_fails` relies on that shape.

def _clamp(k, lo, hi):
    return tuple([lo if v < lo else hi if v > hi else v for v in k])


def _w_filter(alg, c):
    labels = alg.labels
    ctop = c[alg.top]
    for x, cx in enumerate(c):
        if ctop < cx:
            return ("unit", labels[x])
    for x, y, rxy in alg.tables.mp_pairs:
        cy = c[y]
        if cy < c[rxy] and cy < c[x]:
            return ("mp", labels[x], labels[y])
    return None


def _w_filter_product(alg, c):
    labels = alg.labels
    for x, y, pxy, x_le_y in alg.tables.product_pairs:
        cx, cy, cp = c[x], c[y], c[pxy]
        if cp < cx and cp < cy:
            return ("product", labels[x], labels[y])
        if x_le_y and cx > cy:
            return ("order", labels[x], labels[y])
    return None


def _w_boolean_complement(alg, c):
    ctop = c[alg.top]
    for x, joined in enumerate(alg.tables.complement_joins):
        if c[joined] != ctop:
            return ("complement", alg.labels[x])
    return None


def _w_boolean_chain(alg, c):
    labels = alg.labels
    for x, y, z, rxz, lhs, ryz in alg.tables.chain_triples:
        cl = c[rxz]
        if cl < c[lhs] and cl < c[ryz]:
            return ("chain", labels[x], labels[y], labels[z])
    return None


def _w_boolean_contraction(alg, c):
    for x, y, r in alg.tables.contraction_pairs:
        if c[x] < c[r]:
            return ("contraction", alg.labels[x], alg.labels[y])
    return None


def _w_mv(alg, c):
    for x, y, lhs, rxy in alg.tables.mv_pairs:
        if c[lhs] < c[rxy]:
            return ("mv", alg.labels[x], alg.labels[y])
    return None


def _w_g(alg, c):
    for x, y, rxy, rxxy in alg.tables.g_pairs:
        if c[rxy] < c[rxxy]:
            return ("g", alg.labels[x], alg.labels[y])
    return None


_SCANS = {
    ("filter", "mp"): _w_filter,
    ("filter", "product"): _w_filter_product,
    ("boolean", "complement"): _w_boolean_complement,
    ("boolean", "chain"): _w_boolean_chain,
    ("boolean", "contraction"): _w_boolean_contraction,
    ("mv", "default"): _w_mv,
    ("g", "default"): _w_g,
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
    own scan, so those scans are not run and their bits stay 0.
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
    finds and decides their distinct profiles without them, and walks the
    weak orders of a rank count only when some profile has counterexamples.
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


def up_sets(alg: FiniteMtlAlgebra, most: int | None = None) -> list[int] | None:
    """Every non-empty proper up-set of the algebra's order, as a bitmask, ascending.

    Sets grow from the top down: an element joins a set that holds all
    above it, so every set held is an up-set of the whole order.  The
    bottom, below every element, would only make the carrier, so it never
    joins, and every set held but the empty one is non-empty and proper.
    With ``most`` given, a listing that holds more than ``most`` of them
    before it is complete stops and returns None.  A complete listing is
    kept on the algebra (``alg.tables.up_sets``), and a later call lists
    again only when the kept list holds more than ``most``, where it is
    that listing that tells whether it stops.
    """
    tables = alg.tables
    ups = tables.up_sets
    if ups is None or most is not None and len(ups) > most:
        above = tables.above
        rest = [x for x in range(alg.n) if x != alg.bottom]
        sets = [0]
        for x in sorted(rest, key=lambda x: above[x].bit_count()):
            if most is not None and len(sets) - 1 > most:
                return None
            sets += [s | 1 << x for s in sets if not above[x] & ~s]
        ups = tables.up_sets = tuple(sorted(sets[1:]))
    return list(ups)
