import itertools
import random
from fractions import Fraction

import pytest

from softmtl.filters import labels_of
from softmtl.fixtures import load_fixture
from softmtl.fuzzy import FuzzySet
from softmtl.soft import FULL, ParameterInterval, build_soft, classify_soft, level_cuts

F = Fraction


def level_labels(alg, soft):
    """Each level's labels, keyed by its threshold j/den."""
    return {F(j, soft.den): set(labels_of(alg, m)) for j, m in soft.levels}


def test_interval_validation():
    with pytest.raises(ValueError):
        ParameterInterval(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        ParameterInterval(F(-1, 4), F(1, 2))
    iv = ParameterInterval.parse("1/4,3/4")
    assert F(1, 2) in iv and F(1, 4) not in iv and F(3, 4) in iv


def test_level_cuts_are_the_sets_at_or_above_each_numerator(a3):
    # every map of 3 elements at D=4, and seeded random maps on a3 at D=12
    rng = random.Random(5)
    maps = [(nums, 4) for nums in itertools.product(range(5), repeat=3)]
    maps += [(tuple(rng.randint(0, 12) for _ in range(a3.n)), 12) for _ in range(200)]
    for nums, den in maps:
        cuts = level_cuts(nums, den)
        assert len(cuts) == den + 1
        for j in range(den + 1):
            assert cuts[j] == sum(1 << x for x, k in enumerate(nums) if k >= j), (nums, j)


def test_epsilon_soft_example(a1):
    mu = FuzzySet.from_mapping(a1, 4, {"1": 1, "b": F(1, 2), "a": F(1, 2), "0": F(1, 4)})
    levels = level_labels(a1, build_soft(mu, FULL, "in"))
    assert levels[F(1, 4)] == {"0", "a", "b", "1"}
    assert levels[F(1, 2)] == {"a", "b", "1"}
    assert levels[F(3, 4)] == {"1"}
    assert levels[F(1)] == {"1"}


def test_epsilon_soft_smallest_level_drops_zeros(a2):
    mu = FuzzySet.from_mapping(a2, 4, {"0": 0, "a": F(1, 4), "b": 0, "1": 1})
    soft = build_soft(mu, FULL, "in")
    assert set(labels_of(a2, soft.levels[0][1])) == {"a", "1"}


def test_constant_one_levels_are_carrier(a3):
    mu = FuzzySet.constant(a3, 2, 1)
    for _, mask in build_soft(mu, FULL, "in").levels:
        assert mask == (1 << a3.n) - 1
    for _, mask in build_soft(mu, FULL, "q").levels:
        assert mask == (1 << a3.n) - 1


def test_q_soft_half_example(a1):
    mu = FuzzySet.constant(a1, 4, F(1, 2))
    levels = level_labels(a1, build_soft(mu, FULL, "q"))
    assert levels[F(1, 2)] == set()        # 1/2 + 1/2 = 1, not > 1
    assert levels[F(3, 4)] == {"0", "a", "b", "1"}


def test_q_soft_strict_comparison(a1):
    mu = FuzzySet.from_mapping(a1, 10, {"0": F(3, 10), "a": F(8, 10), "b": F(9, 10), "1": 1})
    soft = build_soft(mu, FULL, "q")
    assert set(labels_of(a1, soft.level_at(F(2, 10)))) == {"b", "1"}  # mu > 8/10


def test_level_nesting(a1):
    rng = random.Random(7)
    pts = range(5)
    for _ in range(50):
        mu = FuzzySet(a1, 4, tuple(rng.choice(pts) for _ in range(a1.n)))
        eps = build_soft(mu, FULL, "in").levels
        for (_, hi), (_, lo) in zip(eps, eps[1:]):
            assert hi & lo == lo       # shrinking
        qs = build_soft(mu, FULL, "q").levels
        for (_, lo), (_, hi) in zip(qs, qs[1:]):
            assert hi & lo == lo       # growing


def test_duality_between_cut_kinds(a2):
    # {x: mu(x) >= t} equals the quasi-coincidence cut at t' = 1 - t + 1/D
    rng = random.Random(11)
    pts = range(5)
    for _ in range(50):
        mu = FuzzySet(a2, 4, tuple(rng.choice(pts) for _ in range(a2.n)))
        eps = build_soft(mu, FULL, "in")
        qs = build_soft(mu, FULL, "q")
        for j, mask in eps.levels:
            t2 = 1 - F(j, 4) + F(1, 4)
            assert qs.level_at(t2) == mask


@pytest.mark.parametrize("name,den", [("a1", 4), ("a2", 4), ("a3", 2)])
def test_off_grid_representative(name, den):
    # cuts are constant on ((k-1)/D, k/D], so the grid family loses nothing
    alg = load_fixture(name)
    rng = random.Random(23)
    pts = range(den + 1)
    for _ in range(200):
        mu = FuzzySet(alg, den, tuple(rng.choice(pts) for _ in range(alg.n)))
        t = F(2 * rng.randint(0, den - 1) + 1, 2 * den)  # strictly between grid points
        direct_eps = sum(1 << x for x in range(alg.n) if F(mu.nums[x], den) >= t)
        direct_q = sum(1 << x for x in range(alg.n) if F(mu.nums[x], den) + t > 1)
        assert build_soft(mu, FULL, "in").level_at(t) == direct_eps
        assert build_soft(mu, FULL, "q").level_at(t) == direct_q


def test_off_grid_interval_rejected(a1):
    mu = FuzzySet.constant(a1, 4, 1)
    with pytest.raises(ValueError, match="grid"):
        build_soft(mu, ParameterInterval(F(0), F(1, 3)), "in")


def test_interval_endpoints_are_fractions():
    # float endpoints are read exactly, as FuzzySet reads its values
    iv = ParameterInterval(0.25, 0.5)
    assert (iv.lo, iv.hi) == (F(1, 4), F(1, 2)) and type(iv.lo) is type(iv.hi) is F
    assert iv.numerators(4) == (1, 2)
    with pytest.raises(ValueError, match=r"^interval \(1/3,1\] is not aligned to the 1/4 grid$"):
        ParameterInterval(F(1, 3), F(1)).numerators(4)


def test_classify_soft_boolean_example(a1):
    mu = FuzzySet.from_mapping(a1, 4, {"1": 1, "b": F(3, 4), "a": F(3, 4), "0": F(1, 4)})
    soft = build_soft(mu, FULL, "in")
    ok, witness = classify_soft(soft, "boolean")
    assert not ok
    assert witness[0] == 4  # {1} at t=4/4 is not Boolean
    assert classify_soft(soft, "filter") == (True, None)


def test_classify_accepts_empty_levels(a1):
    mu = FuzzySet.constant(a1, 4, 0)
    soft = build_soft(mu, FULL, "in")
    assert all(mask == 0 for _, mask in soft.levels)
    for kind in ("filter", "boolean", "mv", "g"):
        assert classify_soft(soft, kind) == (True, None)


def test_soft_doc_mirrors_paper_shape(a3):
    # carrier on (0, 0.4], {1, a} above: the shape of the printed example
    mu = FuzzySet.from_mapping(
        a3, 10, {"0": F(2, 5), "a": F(4, 5), "b": F(2, 5), "c": F(2, 5),
                 "d": F(2, 5), "1": 1})
    soft = build_soft(mu, ParameterInterval(F(0), F(4, 5)), "in")
    levels = level_labels(a3, soft)
    assert levels[F(2, 5)] == {"0", "a", "b", "c", "d", "1"}
    assert levels[F(3, 5)] == {"a", "1"}
    assert classify_soft(soft, "g") == (True, None)
    assert not classify_soft(soft, "mv")[0]


def test_classify_soft_rejects_an_unknown_kind(a1):
    for value in (0, 1):  # every level empty, then every level the carrier
        soft = build_soft(FuzzySet.constant(a1, 4, value), FULL, "in")
        with pytest.raises(ValueError, match="^unknown filter kind 'bogus'$"):
            classify_soft(soft, "bogus")
