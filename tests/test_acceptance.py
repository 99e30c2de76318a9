"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import copy
import itertools
import random
import time
from fractions import Fraction

import pytest

from softmtl.algebra import check_derived_laws, load_algebra, validate_mtl
from softmtl.filters import (classify_filter, crisp_decomposition_check,
                             enumerate_filters, labels_of, mask_of)
from softmtl.fixtures import FIXTURE_DOCS, load_fixture
from softmtl.fuzzy import FuzzySet, check_fuzzy_witness
from softmtl.soft import FULL, build_soft
from softmtl.verifier import (catalog_by_id, find_strictness_witness, verify,
                              verify_all)

F = Fraction

SCALES = (("a1", 4), ("a2", 4), ("a3", 2))


class timed:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.limit, \
                f"runtime {self.elapsed:.2f}s exceeds {self.limit}s"


def ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_fixture_validation():
    with timed(1.0) as t:
        for name in ("a1", "a2", "a3"):
            alg = load_fixture(name)
            assert validate_mtl(alg).ok
            assert check_derived_laws(alg).ok
        doc = copy.deepcopy(FIXTURE_DOCS["a1"])
        doc["prod"][1][2] = "0"
        mutated = validate_mtl(load_algebra(doc))
        assert not mutated.ok
        assert sum(len(v) for v in mutated.violations.values()) >= 1
    ok(1, f"fixture validation ({t.elapsed:.2f}s)")


def test_criterion_2_filter_census():
    with timed(1.0) as t:
        a1, a2, a3 = (load_fixture(n) for n in ("a1", "a2", "a3"))
        census = [set(labels_of(a1, m)) for m in enumerate_filters(a1)]
        assert census == [{"1"}, {"a", "b", "1"}, {"0", "a", "b", "1"}]
        assert classify_filter(a1, mask_of(a1, ["a", "b", "1"])).boolean
        c2 = classify_filter(a2, mask_of(a2, ["1"]))
        assert (c2.mv, c2.g, c2.boolean) == (True, False, False)
        c3 = classify_filter(a3, mask_of(a3, ["1", "a"]))
        assert (c3.g, c3.mv, c3.boolean) == (True, False, False)
    ok(2, f"filter census ({t.elapsed:.2f}s)")


def test_criterion_3_route_agreement():
    with timed(10.0) as t:
        for name in ("a1", "a2"):
            alg = load_fixture(name)
            checked = filters_seen = 0
            for nums in itertools.product(range(5), repeat=alg.n):
                mu = FuzzySet(alg, 4, nums)
                holds = lambda kind, route: check_fuzzy_witness(mu, "plain", kind, route) is None
                checked += 1
                direct = holds("filter", "product")
                assert direct == holds("filter", "mp")
                if direct:
                    filters_seen += 1
                    a = holds("boolean", "complement")
                    assert a == holds("boolean", "chain")
                    assert a == holds("boolean", "contraction")
            assert checked == 625 and filters_seen > 0
    ok(3, f"route agreement ({t.elapsed:.2f}s)")


def test_criterion_4_theorem_suite():
    with timed(120.0) as t:
        for name, den in SCALES:
            reports = verify_all(load_fixture(name), den)
            assert len(reports) == 31
            expected = 625 if den == 4 else 729
            for rep in reports:
                assert rep.mode == "exhaustive" and rep.checked == expected
                assert rep.confirmed, (name, rep.theorem, rep.counterexamples[:1])
    ok(4, f"31 theorems on a1/a2/a3 ({t.elapsed:.2f}s)")


def test_criterion_5_decomposition():
    spec = catalog_by_id()["T4.3.13"]
    for name, den in SCALES:
        alg = load_fixture(name)
        assert crisp_decomposition_check(alg) == []
        assert verify(alg, spec, den).confirmed
    ok(5, "boolean <=> g & mv, crisp and soft")


def test_criterion_6_strictness_witnesses():
    a2, a3, b2 = (load_fixture(n) for n in ("a2", "a3", "b2"))
    assert find_strictness_witness(a3, "T4.3.12", 2) is not None
    assert find_strictness_witness(a2, "T4.2.13", 2) is not None
    assert find_strictness_witness(b2, "T4.2.13", 4) is None
    assert find_strictness_witness(b2, "T4.3.12", 4) is None
    ok(6, "strictness witnesses")


@pytest.mark.parametrize("name,den", SCALES)
def test_criterion_7_level_set_completeness(name, den):
    alg = load_fixture(name)
    rng = random.Random(2024)
    pts = range(den + 1)
    for _ in range(1000):
        mu = FuzzySet(alg, den, tuple(rng.choice(pts) for _ in range(alg.n)))
        t = F(2 * rng.randint(0, den - 1) + 1, 2 * den)  # off-grid threshold in (0,1]
        direct_eps = sum(1 << x for x in range(alg.n) if F(mu.nums[x], den) >= t)
        direct_q = sum(1 << x for x in range(alg.n) if F(mu.nums[x], den) + t > 1)
        assert build_soft(mu, FULL, "in").level_at(t) == direct_eps
        assert build_soft(mu, FULL, "q").level_at(t) == direct_q
    ok(7, f"level-set completeness on {name}")
