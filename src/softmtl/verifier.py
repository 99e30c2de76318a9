"""Machine-checking of the characterization theorems.

Each catalog entry ties a fuzzy-side predicate (family + kind) to a
soft-side predicate (level cuts over an interval, classified per kind),
or relates two soft-side predicates.  Verification is one pass over the
grid fuzzy sets on the algebra (every one, or a seeded sample when over
budget), each produced once as its integer numerators k in 0..D and
checked against every requested theorem.

A verdict depends only on how the values k[x] are ordered, not on the
values themselves:

- Fuzzy side.  Every scan in :data:`softmtl.fuzzy._SCANS` compares the
  clamped numerators c = min(max(k, lo), hi) at positions of the
  algebra (c[a] < c[b], c[a] != c[b]) and its witness names elements,
  not values.  So its verdict and its witness are the same for any two
  maps whose clamped values have the same weak order.  Per run, the
  fuzzy checks are grouped by their bounds (lo, hi), and each group's
  fail bits are kept by the weak order of c, written as its dense rank
  tuple: at most Fubini(n) entries per group, whatever D is.
- Soft side.  The cut at index j is {x : k[x] >= j}, an up-set of the
  rank order of k: it is the same for every j in (v', v] between two
  consecutive distinct values v' < v (v' = 0 below the least), and empty
  above the largest.  So the at most n distinct values give every
  non-empty cut with the indices it covers.  Each cut is classified once
  per algebra (:func:`softmtl.filters.failing_kinds` keeps the memo),
  which gives the failing cut indices of each kind, and per run the soft
  verdicts of all checks are kept by those indices.

Each map thus yields two bitmasks over the checks: F, the fuzzy checks
whose predicate fails, and S, those with a failing soft level, plus R,
the relation checks that fail.  A map is a counterexample to some check
only if (S & ~F) | (F & ~S & IFF) | R is non-zero, IFF marking the
biconditionals; only then are its checks run one by one and their
witnesses recorded, so every report is the same as that of a pass that
runs each check on each map.

``Fraction`` appears only when a counterexample is formatted.  Every
input for which the claimed biconditional or implication fails is
recorded.  A confirmation is always "at this algebra and grid", never a
proof.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from . import filters
from .algebra import FiniteMtlAlgebra, require_mtl
from .filters import KINDS
from .fuzzy import (ONE, FuzzySet, FuzzyWitnesses, count_fuzzy_sets,
                    family_bounds, grid_maps, resolve_route, sample_grid_maps)
from .soft import (FULL, LOWER, SOFT_KINDS, UPPER, ParameterInterval,
                   build_soft, classify_soft, cut_index)

RELATION_IDS = ("T4.2.13", "T4.3.12", "T4.3.13")


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


def catalog() -> list[TheoremSpec]:
    """The full fixed catalog: 28 grid entries plus 3 relation entries."""
    specs = []
    for kind, ids in _IDS.items():
        for tid, (soft_kind, interval, family) in zip(ids, _PATTERN):
            specs.append(TheoremSpec(tid, soft_kind, interval, kind, family))
    specs.append(TheoremSpec("T4.2.13", "in", FULL, "boolean", None,
                             direction="forward", relation=("boolean", ("mv",))))
    specs.append(TheoremSpec("T4.3.12", "in", FULL, "boolean", None,
                             direction="forward", relation=("boolean", ("g",))))
    specs.append(TheoremSpec("T4.3.13", "in", FULL, "boolean", None,
                             direction="iff", relation=("boolean", ("mv", "g"))))
    return specs


def catalog_by_id() -> dict[str, TheoremSpec]:
    return {s.id: s for s in catalog()}


def default_thresholds(den: int) -> ParameterInterval:
    """Grid-aligned (alpha, beta] used when a theorem is generic in its interval."""
    if den == 2:
        return ParameterInterval(Fraction(1, 2), ONE)
    return ParameterInterval(Fraction(1, den), Fraction(den - 1, den))


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
        return {
            "theorem": self.theorem,
            "algebra": self.algebra,
            "den": self.den,
            "checked": self.checked,
            "mode": self.mode,
            "confirmed": self.confirmed,
            "counterexamples": self.counterexamples,
        }


def _stream(alg, den, budget, seed):
    """Numerator tuples to check, and the mode: exhaustive, or sampled when over budget."""
    require_mtl(alg)
    if den <= 0 or den % 2:
        raise ValueError(f"grid denominator must be positive and even, got {den}")
    if budget is not None and budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if budget is not None and count_fuzzy_sets(alg, den) > budget:
        return sample_grid_maps(alg.n, den, budget, seed), "sampled"
    return grid_maps(alg.n, den), "exhaustive"


@dataclass(frozen=True)
class _Check:
    """One theorem resolved against the grid before the pass starts."""

    report: VerificationReport
    soft_kind: str
    interval: ParameterInterval
    levels: int                   # bitmask of the cut indices of the soft levels
    kind: str                     # soft-side kind; the left-hand side of a relation
    fuzzy: tuple | None           # FuzzyWitnesses key; None for a relation
    rhs: tuple[str, ...] = ()     # right-hand kinds of a relation
    iff: bool = True


def _plan(alg, spec, den, mode, interval) -> _Check:
    if interval is not None and spec.interval is not None:
        generic = ", ".join(s.id for s in catalog() if s.interval is None)
        raise ValueError(f"{spec.id} is stated over {spec.interval}; "
                         f"only generic-interval theorems ({generic}) take an interval")
    if spec.soft_kind not in SOFT_KINDS:
        raise ValueError(f"unknown soft-set kind {spec.soft_kind!r}")
    iv = interval or spec.interval or default_thresholds(den)
    lo, hi = iv.numerators(den)
    levels = sum(1 << cut_index(spec.soft_kind, j, den) for j in range(lo + 1, hi + 1))
    report = VerificationReport(spec.id, "/".join(alg.labels), den, mode=mode)
    if spec.relation:
        lhs, rhs = spec.relation
        return _Check(report, spec.soft_kind, iv, levels, lhs, None, tuple(rhs),
                      spec.direction == "iff")
    if spec.filter_kind not in KINDS:
        raise ValueError(f"unknown filter kind {spec.filter_kind!r}")
    flo, fhi = family_bounds(spec.family, den, iv.lo, iv.hi)
    key = (spec.filter_kind, flo, fhi, resolve_route(spec.family, spec.filter_kind, spec.route))
    return _Check(report, spec.soft_kind, iv, levels, spec.filter_kind, key,
                  iff=spec.direction == "iff")


def _value_masks(nums) -> dict[int, int]:
    """The elements taking each value of nums, as {value: bitmask}."""
    at = {}
    for x, k in enumerate(nums):
        at[k] = at.get(k, 0) | 1 << x
    return at


def _by_kind(bad: int, lane: int) -> dict[str, int]:
    """Split the packed failing cut indices into one bitmask per kind."""
    full = (1 << lane) - 1
    return {kind: bad >> i * lane & full for i, kind in enumerate(KINDS)}


def _soft_masks(checks, bad: int, lane: int) -> tuple[int, int]:
    """Bits of the fuzzy checks with a failing soft level, and of the failed relations."""
    fails = _by_kind(bad, lane)
    soft = rel = 0
    for b, check in enumerate(checks):
        fail = fails[check.kind] & check.levels
        if check.fuzzy is not None:
            if fail:
                soft |= 1 << b
        else:
            rhs_fail = any(fails[k] & check.levels for k in check.rhs)
            if (rhs_fail and not fail) or (fail and not rhs_fail and check.iff):
                rel |= 1 << b
    return soft, rel


def _record(alg, den, nums, checks, bad: dict[str, int]) -> None:
    """Run every check on one set and append its counterexample, if any."""
    fuzzy = FuzzyWitnesses(alg, den, nums)
    mu = None
    for check in checks:
        soft_fail = bad[check.kind] & check.levels
        witness = None  # None: the first failing soft level of `kind`
        if check.fuzzy is not None:
            fw = fuzzy.witness(check.fuzzy)
            if fw is None and soft_fail:
                direction, kind = "fuzzy=>soft", check.kind
            elif fw is not None and not soft_fail and check.iff:
                direction, witness = "soft=>fuzzy", fw
            else:
                continue
        else:
            rhs_fail = [k for k in check.rhs if bad[k] & check.levels]
            if not soft_fail and rhs_fail:
                direction, kind = "forward", rhs_fail[0]
            elif soft_fail and not rhs_fail and check.iff:
                direction, kind = "converse", check.kind
            else:
                continue
        if mu is None:
            mu = FuzzySet.from_nums(alg, den, nums)
            doc = mu.to_doc()
        if witness is None:
            soft = build_soft(mu, check.interval, check.soft_kind)
            witness = classify_soft(soft, kind)[1]
        check.report.counterexamples.append(
            {"mu": doc, "direction": direction,
             "witness": [str(part) for part in witness]})


def _verify(alg, specs, den, budget, seed, interval=None) -> list[VerificationReport]:
    stream, mode = _stream(alg, den, budget, seed)
    checks = [_plan(alg, spec, den, mode, interval) for spec in specs]
    # The failing cut indices of kind KINDS[i] are packed at bits i*lane + (0..den).
    lane = den + 1
    spread = [sum(1 << i * lane for i in range(len(KINDS)) if kinds >> i & 1)
              for kinds in range(1 << len(KINDS))]
    iff = sum(1 << b for b, check in enumerate(checks) if check.iff)
    bounds = {}
    for b, check in enumerate(checks):
        if check.fuzzy is not None:
            bounds.setdefault(check.fuzzy[1:3], []).append((b, check.fuzzy))
    # per bounds (lo, hi): weak order of the clamped numerators -> fuzzy fail bits
    groups = [(lo, hi, members, {}) for (lo, hi), members in bounds.items()]
    soft = {}  # packed failing cut indices -> (soft fail bits, relation fail bits)
    failing = alg.tables.failing_kinds
    checked = 0
    for nums in stream:
        checked += 1
        at = _value_masks(nums)
        vals = sorted(at)
        # cut[j] = {x : k[x] >= j} is the same for every j in (lower, v]
        bad = cut = 0
        for i in range(len(vals) - 1, -1, -1):
            v = vals[i]
            if not v:
                break
            cut |= at[v]
            kinds = failing.get(cut)
            if kinds is None:
                kinds = filters.failing_kinds(alg, cut)
            if kinds:
                lower = vals[i - 1] if i else 0
                bad |= ((2 << v) - (2 << lower)) * spread[kinds]
        rank = tuple(map(vals.index, nums))
        top = len(vals) - 1
        fuzzy = None
        fail = 0
        for lo, hi, members, memo in groups:
            # clamping merges the ranks <= low and the ranks >= high
            low = max(bisect_right(vals, lo) - 1, 0)
            high = bisect_left(vals, hi)
            if low or high < top:
                key = tuple([0 if r <= low else high - low if r >= high else r - low
                             for r in rank])
            else:
                key = rank
            bits = memo.get(key)
            if bits is None:
                if fuzzy is None:
                    fuzzy = FuzzyWitnesses(alg, den, nums)
                bits = memo[key] = sum(1 << b for b, k in members
                                       if fuzzy.witness(k) is not None)
            fail |= bits
        masks = soft.get(bad)
        if masks is None:
            masks = soft[bad] = _soft_masks(checks, bad, lane)
        sfail, rel = masks
        if (sfail & ~fail) | (fail & ~sfail & iff) | rel:
            _record(alg, den, nums, checks, _by_kind(bad, lane))
    for check in checks:
        check.report.checked = checked
    return [check.report for check in checks]


def verify(alg: FiniteMtlAlgebra, spec: TheoremSpec, den: int,
           budget: int | None = None, seed: int = 0,
           interval: ParameterInterval | None = None) -> VerificationReport:
    """Check one catalog entry against every (or a sampled set of) grid fuzzy set.

    ``interval`` overrides the default (alpha, beta] of a generic-interval
    entry (``spec.interval is None``) and is rejected for any other.
    """
    return _verify(alg, [spec], den, budget, seed, interval)[0]


def verify_all(alg: FiniteMtlAlgebra, den: int, budget: int | None = None,
               seed: int = 0) -> list[VerificationReport]:
    """Check the whole catalog in one pass over the grid fuzzy sets."""
    return _verify(alg, catalog(), den, budget, seed)


def find_strictness_witness(alg: FiniteMtlAlgebra, theorem_id: str, den: int,
                            budget: int | None = None, seed: int = 0) -> FuzzySet | None:
    """Search for a fuzzy set showing the converse of T4.2.13 / T4.3.12 fails.

    Returns the first mu whose level cuts are all MV- (resp. G-) filters
    but not all Boolean filters, or None if the search space has none
    (absence at one scale is not a refutation).
    """
    rhs = {"T4.2.13": "mv", "T4.3.12": "g"}.get(theorem_id)
    if rhs is None:
        raise ValueError(f"{theorem_id!r} has no strictness claim; use T4.2.13 or T4.3.12")
    stream, _ = _stream(alg, den, budget, seed)
    rhs_bit, boolean_bit = 1 << KINDS.index(rhs), 1 << KINDS.index("boolean")
    for nums in stream:
        # the in-cuts over (0, 1] are {x : k[x] >= v} for the values v > 0
        at = _value_masks(nums)
        cut = kinds = 0
        for v in sorted(at, reverse=True):
            if not v or kinds & rhs_bit:
                break
            cut |= at[v]
            kinds |= filters.failing_kinds(alg, cut)
        if kinds & boolean_bit and not kinds & rhs_bit:
            return FuzzySet.from_nums(alg, den, nums)
    return None
