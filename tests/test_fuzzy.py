import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from products import load_named
from reference import MembershipQuery, evaluate, forms_of, fuzzy_witness
from softmtl import algebra, fuzzy
from softmtl.filters import KINDS, classify_filter, is_filter
from softmtl.fixtures import load_fixture
from softmtl.fuzzy import (FuzzySet, check_fuzzy_witness, disagree, grid_map, scan_fails,
                           scan_masks, up_sets, variant_witness, weak_orders)
from softmtl.verifier import verify_all

F = Fraction


def mk(alg, den, **vals):
    return FuzzySet.from_mapping(alg, den, {k.strip("_"): v for k, v in vals.items()})


def check_fuzzy(mu, family, kind, route="default", alpha=None, beta=None):
    return check_fuzzy_witness(mu, family, kind, route, alpha, beta) is None


def every_set(alg, den):
    return (FuzzySet(alg, den, nums)
            for nums in itertools.product(range(den + 1), repeat=alg.n))


# ---- fuzzy-point membership -------------------------------------------------

def test_belongs_is_non_strict(a1):
    mu = mk(a1, 10, _0=0, a=0, b=0, _1=F(6, 10))
    assert evaluate(mu, MembershipQuery(a1.index("1"), F(6, 10), "in"))


def test_quasi_coincidence_is_strict(a1):
    mu = mk(a1, 4, _0=0, a=0, b=0, _1=F(1, 2))
    q = MembershipQuery(a1.index("1"), F(1, 2), "q")
    assert not evaluate(mu, q)  # 1/2 + 1/2 = 1, not > 1
    assert evaluate(mu, MembershipQuery(a1.index("1"), F(1, 2), "in"))


def test_quasi_coincidence_above_one(a1):
    mu = mk(a1, 10, _0=F(3, 10), a=0, b=0, _1=1)
    assert evaluate(mu, MembershipQuery(a1.index("0"), F(8, 10), "q"))


def test_barred_modes_are_negations(a1):
    mu = mk(a1, 4, _0=F(1, 4), a=F(1, 2), b=F(3, 4), _1=1)
    for x in range(a1.n):
        for k in range(1, 5):
            t = F(k, 4)
            e = evaluate(mu, MembershipQuery(x, t, "in"))
            q = evaluate(mu, MembershipQuery(x, t, "q"))
            assert evaluate(mu, MembershipQuery(x, t, "not-in")) == (not e)
            assert evaluate(mu, MembershipQuery(x, t, "not-q")) == (not q)
            assert evaluate(mu, MembershipQuery(x, t, "in-or-q")) == (e or q)
            assert evaluate(mu, MembershipQuery(x, t, "not-in-or-not-q")) == (not e or not q)


def test_query_validation(a1):
    with pytest.raises(ValueError):
        MembershipQuery(0, F(0), "in")
    with pytest.raises(ValueError):
        MembershipQuery(0, F(1, 2), "member")


# ---- fuzzy filter variants --------------------------------------------------

def test_constant_one_satisfies_everything(a1):
    mu = FuzzySet.constant(a1, 4, 1)
    for family in ("plain", "eiq", "bar"):
        for kind in ("filter", "boolean", "mv", "g"):
            assert check_fuzzy(mu, family, kind)
    for kind in ("filter", "boolean", "mv", "g"):
        assert check_fuzzy(mu, "thresholds", kind, alpha=F(1, 4), beta=F(3, 4))


def test_eiq_filter_example(a1):
    mu = mk(a1, 10, _1=F(9, 10), b=F(6, 10), a=F(6, 10), _0=F(3, 10))
    # oracle: by the level-cut characterization, mu is a capped fuzzy filter
    # iff every cut {x: mu(x) >= t} for t in (0, 1/2] is a filter
    for k in range(1, 6):
        t = F(k, 10)
        cut = sum(1 << x for x in range(a1.n) if F(mu.nums[x], mu.den) >= t)
        assert cut == 0 or is_filter(a1, cut)
    assert check_fuzzy(mu, "eiq", "filter")


def test_characteristic_of_non_filter_fails_plainly(a1):
    mu = FuzzySet.characteristic(a1, 4, sum(1 << a1.index(l) for l in ("b", "1")))
    assert not check_fuzzy(mu, "plain", "filter")


@pytest.mark.parametrize("name", ["a1", "a2"])
def test_characteristic_function_bridge(name):
    # chi_A is a plain fuzzy filter of each kind iff A is a crisp filter of that kind
    alg = load_fixture(name)
    for mask in range(1, 1 << alg.n):
        mu = FuzzySet.characteristic(alg, 4, mask)
        cls = classify_filter(alg, mask)
        for kind in ("filter", "boolean", "mv", "g"):
            assert check_fuzzy(mu, "plain", kind) == cls.has(kind), (mask, kind)


@pytest.mark.parametrize("name,den", [("a1", 4), ("a2", 4), ("a3", 2)])
def test_filter_route_agreement(name, den):
    # the product/order form and the unit/modus-ponens form always agree
    alg = load_fixture(name)
    for mu in every_set(alg, den):
        assert check_fuzzy(mu, "plain", "filter", "product") == \
            check_fuzzy(mu, "plain", "filter", "mp")


@pytest.mark.parametrize("name", ["a1", "a2"])
def test_boolean_route_agreement_on_filters(name):
    alg = load_fixture(name)
    seen = 0
    for mu in every_set(alg, 4):
        if check_fuzzy(mu, "plain", "filter"):
            seen += 1
            a = check_fuzzy(mu, "plain", "boolean", "complement")
            b = check_fuzzy(mu, "plain", "boolean", "chain")
            c = check_fuzzy(mu, "plain", "boolean", "contraction")
            assert a == b == c
    assert seen > 0


@pytest.mark.parametrize("name,den", [("a1", 4), ("a3", 2)])
def test_plain_implies_relaxed_families(name, den):
    alg = load_fixture(name)
    for mu in every_set(alg, den):
        if check_fuzzy(mu, "plain", "filter"):
            assert check_fuzzy(mu, "eiq", "filter")
            assert check_fuzzy(mu, "bar", "filter")


def test_non_filter_is_never_a_kind(a1):
    mu = mk(a1, 4, _0=1, a=0, b=0, _1=0)  # not order-preserving
    for family in ("plain", "eiq", "bar"):
        for kind in ("boolean", "mv", "g"):
            assert not check_fuzzy(mu, family, kind)


def test_invalid_routes_and_thresholds(a1):
    mu = FuzzySet.constant(a1, 4, 1)
    with pytest.raises(ValueError):
        check_fuzzy(mu, "plain", "filter", route="sideways")
    with pytest.raises(ValueError):
        check_fuzzy(mu, "eiq", "mv", route="chain")
    with pytest.raises(ValueError):
        check_fuzzy(mu, "thresholds", "filter", alpha=F(3, 4), beta=F(1, 4))
    with pytest.raises(ValueError):
        check_fuzzy(mu, "thresholds", "filter")


# ---- enumeration ------------------------------------------------------------

def test_enumeration_counts(a1, a3, b2):
    assert sum(1 for _ in every_set(a1, 4)) == 625
    assert sum(1 for _ in every_set(a3, 2)) == 729
    first = next(every_set(b2, 2))
    assert first.nums == (0, 0)


@pytest.mark.parametrize("den", [2, 4, 6])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weak_orders_and_values_give_every_grid_map_once(n, den):
    orders = [list(weak_orders(n, r)) for r in range(n + 2)]
    # ordered Bell (Fubini) numbers: 1, 3, 13, 75 weak orders of 1..4 elements
    assert sum(map(len, orders)) == {1: 1, 2: 3, 3: 13, 4: 75}[n]
    assert orders[0] == orders[n + 1] == []
    pairs = [(order, vals) for r, of_r in enumerate(orders) for order in of_r
             for vals in itertools.combinations(range(den + 1), r)]
    maps = [grid_map(order, vals, n) for order, vals in pairs]
    assert sorted(maps) == list(itertools.product(range(den + 1), repeat=n))
    # each map gives back its own (weak order, values)
    assert [_split(nums) for nums in maps] == pairs


def _split(nums):
    """The weak order of a grid map, as its chain of up-sets, and its sorted distinct values."""
    vals = sorted(set(nums))
    return tuple(sum(1 << x for x, k in enumerate(nums) if k >= v) for v in vals[1:]), tuple(vals)


def _all_weak_orders(n, max_ranks):
    return [order for r in range(1, max_ranks + 1) for order in weak_orders(n, r)]


def _sampled_weak_orders(n, count, seed):
    rng = random.Random(seed)
    return [_split([rng.randrange(n) for _ in range(n)])[0] for _ in range(count)]


@pytest.mark.parametrize("name, orders", [
    *((name, lambda n: _all_weak_orders(n, n)) for name in ("a1", "a2", "a3", "b2")),
    # 8 elements have 545835 weak orders: every one with at most two ranks
    # (each up-set alone), and a seeded sample of the others
    ("a1xb2", lambda n: _all_weak_orders(n, 2) + _sampled_weak_orders(n, 1000, 8)),
], ids=["a1", "a2", "a3", "b2", "a1xb2"])
def test_scan_verdicts_are_the_or_over_the_up_sets(name, orders):
    # For a weak order W with ranks 0..r-1 and every clamp [low, high] of
    # them, the OR of scan_fails over the up-sets in W[low:high], read
    # through each variant's masks, gives the verdict of the literal
    # variant on W's ranks clamped to [low, high], and no disagreement.
    alg = load_named(name)
    keys = (*fuzzy._SCAN_KEYS, ("filter", "all"), ("boolean", "all"))
    masks = [scan_masks(*key) for key in keys]
    per_cut, per_bits, slices = {}, {}, 0
    for order in orders(alg.n):
        r = len(order) + 1
        nums = grid_map(order, range(r), alg.n)
        for low in range(r):
            for high in range(low, r):
                bits = 0
                for up in order[low:high]:
                    if up not in per_cut:
                        per_cut[up] = scan_fails(alg, up)
                    bits |= per_cut[up]
                if bits not in per_bits:
                    assert not any(disagree(bits, *m) for m in masks), bits
                    per_bits[bits] = [bool(bits & fail) for fail, _ in masks]
                want = [variant_witness(alg, r, nums, (kind, low, high, route)) is not None
                        for kind, route in keys]
                assert per_bits[bits] == want, (order, low, high)
                slices += 1
    assert slices > len(per_cut) > 0


def _is_up_set(alg, mask):
    return all(mask >> y & 1 for x in range(alg.n) if mask >> x & 1
               for y in range(alg.n) if alg.leq[x][y])


ALGEBRAS = ("b2", "a1", "a2", "a3", "a1xb2")


@pytest.mark.parametrize("name", ALGEBRAS)
def test_up_sets_are_the_up_closed_masks(name):
    alg = load_named(name)
    assert up_sets(alg) == [m for m in range(1, (1 << alg.n) - 1) if _is_up_set(alg, m)]


def test_the_up_set_listing_stops_once_it_holds_more_than_most():
    alg = load_named("a3xa1")
    ups = up_sets(alg)
    assert len(ups) == 292
    assert up_sets(alg, 292) == up_sets(alg, 10**6) == ups
    for most in (0, 1, 100, 250):
        assert up_sets(alg, most) is None, most
    # through the budget: 10 two-valued maps for each of at most 198 up-sets at D = 4
    with pytest.raises(ValueError, match="^budget 2000 is below the two-valued maps of the 1/4 "
                                         "grid on 24 elements, whose order has more than 198 "
                                         "up-sets$"):
        verify_all(alg, 4, budget=2000)


def test_a_kept_listing_answers_every_most_without_listing_again(monkeypatch):
    alg = load_named("a3xa1")
    ups = up_sets(alg)

    def unread(tables):
        raise AssertionError("the up-sets were listed again")

    # every listing reads the elements above each one; the kept list answers alone
    monkeypatch.setattr(algebra.DerivedTables, "above", property(unread))
    for most in (-2, 0, 1, 100, 291):
        assert up_sets(alg, most) is None, most
    for most in (292, 293, 10**6):
        assert up_sets(alg, most) == ups, most
    assert up_sets(alg) == ups


# what the verifier reads of a set that is not an up-set: it fails every kind,
# and on its indicator the mp and product scans fail, so no conjoined scan runs
NON_UP_SET_ATOM = ((1 << len(KINDS)) - 1,
                   sum(1 << fuzzy._SCAN_KEYS.index(("filter", r)) for r in ("mp", "product")))


@pytest.mark.parametrize("name", (*ALGEBRAS, "a3xa1"))
def test_every_non_up_set_has_one_atom(name):
    alg = load_named(name)
    masks = range(1, (1 << alg.n) - 1)
    if name == "a3xa1":  # 2^24 subsets: 300 seeded ones
        rng = random.Random(16)
        masks = [rng.choice(masks) for _ in range(300)]
    masks = [m for m in masks if not _is_up_set(alg, m)]
    assert masks
    for mask in masks:
        assert (classify_filter(alg, mask).fails, scan_fails(alg, mask)) == NON_UP_SET_ATOM, mask


def test_off_grid_value_rejected(a1):
    with pytest.raises(ValueError):
        FuzzySet.from_mapping(a1, 4, dict(zip(a1.labels, (F(1, 3), F(0), F(0), F(1)))))
    with pytest.raises(ValueError):
        FuzzySet(a1, 3, (0,) * 4)  # odd denominator


def test_numerators_are_checked(a1):
    assert FuzzySet.from_mapping(a1, 4, {"0": 0, "a": 0.25, "b": "1/2", "1": 1}).nums == \
        (0, 1, 2, 4)
    assert fuzzy.numerator(F(3, 4), 8) == 6
    for nums in ((0, 0, 0, 5), (0, 0, 0, -1), (0, 0, 0, F(1)), (0, 0, 0, 1.0)):
        with pytest.raises(ValueError, match="^membership numerator .* is not an int in 0..4$"):
            FuzzySet(a1, 4, nums)
    with pytest.raises(ValueError, match="^fuzzy set must be total over the carrier$"):
        FuzzySet(a1, 4, (0, 0, 0))
    for value in (F(1, 3), F(5, 4), F(-1, 4)):
        with pytest.raises(ValueError, match=f"^membership value {value} is not on the 1/4 grid$"):
            fuzzy.numerator(value, 4)
    for den in (0, -2, 3):
        with pytest.raises(ValueError, match=f"^grid denominator must be positive and even, "
                                             f"got {den}$"):
            fuzzy.numerator(F(1, 2), den)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_grid_closure_of_checks(nums):
    # any grid map gets a definite verdict and the relaxations only widen it
    a1 = load_fixture("a1")
    mu = FuzzySet(a1, 4, tuple(nums))
    plain = check_fuzzy(mu, "plain", "filter")
    if plain:
        assert check_fuzzy(mu, "eiq", "filter") and check_fuzzy(mu, "bar", "filter")


@settings(max_examples=300)
@given(st.sampled_from(["a2", "a3"]), st.lists(st.integers(0, 4), min_size=6, max_size=6),
       st.sampled_from(["filter", "boolean", "mv", "g"]),
       st.integers(1, 11), st.integers(1, 11))
def test_threshold_kernels_match_fraction_reference(name, nums, kind, a, width):
    # thresholds on the finer 1/12 grid are mostly off the 1/4 grid of mu
    alg = load_fixture(name)
    alpha, beta = F(a, 12), F(min(a + width, 12), 12)
    mu = FuzzySet(alg, 4, tuple(nums[:alg.n]))
    values = tuple(F(k, 4) for k in mu.nums)
    assert check_fuzzy_witness(mu, "thresholds", kind, alpha=alpha, beta=beta) == \
        fuzzy_witness(alg, values, kind, alpha, beta, forms_of("thresholds", kind))
