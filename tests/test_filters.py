import dataclasses
import json

import pytest

from products import load_named, product_doc
from reference import crisp_witness
from softmtl import filters
from softmtl.cli import main
from softmtl.filters import (KINDS, classify_filter, crisp_decomposition_check, elements,
                             enumerate_filters, is_filter, labels_of, mask_of)
from softmtl.fixtures import load_fixture


def test_singleton_top_is_filter(a1):
    assert is_filter(a1, mask_of(a1, ["1"]))


def test_b_1_not_a_filter(a1):
    # b (.) b = a escapes the set
    assert not is_filter(a1, mask_of(a1, ["b", "1"]))


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2"])
def test_full_carrier_is_filter(name):
    alg = load_fixture(name)
    assert is_filter(alg, (1 << alg.n) - 1)


def test_empty_set_rejected(a1):
    with pytest.raises(ValueError):
        is_filter(a1, 0)


def filter_by_modus_ponens(alg, mask):
    """Reference definition: contains top and is closed under modus ponens."""
    return bool(mask >> alg.top & 1) and all(
        mask >> y & 1 for x in elements(mask) for y in range(alg.n)
        if mask >> alg.res[x][y] & 1)


@pytest.mark.parametrize("name", ["a1", "a2", "a3"])
def test_both_filter_definitions_agree_everywhere(name):
    alg = load_fixture(name)
    for mask in range(1, 1 << alg.n):
        assert is_filter(alg, mask) == filter_by_modus_ponens(alg, mask), labels_of(alg, mask)


def test_a1_filter_census(a1):
    expected = [{"1"}, {"a", "b", "1"}, {"0", "a", "b", "1"}]
    got = [set(labels_of(a1, m)) for m in enumerate_filters(a1)]
    assert got == expected


def test_two_element_census(b2):
    got = [set(labels_of(b2, m)) for m in enumerate_filters(b2)]
    assert got == [{"1"}, {"0", "1"}]


def test_a3_census_contains_1a(a3):
    assert mask_of(a3, ["1", "a"]) in enumerate_filters(a3)


def test_a1_abu_is_boolean(a1):
    cls = classify_filter(a1, mask_of(a1, ["a", "b", "1"]))
    assert cls.is_filter and cls.boolean


def test_a2_top_is_mv_only(a2):
    cls = classify_filter(a2, mask_of(a2, ["1"]))
    assert cls.is_filter and cls.mv and not cls.g and not cls.boolean
    # the recorded witnesses are genuine violations
    x, y = (a2.index(l) for l in cls.witnesses["g"])
    assert a2.res[a2.prod[x][x]][y] == a2.top  # premise in {1}
    assert a2.res[x][y] != a2.top              # conclusion escapes


def test_a3_1a_is_g_only(a3):
    cls = classify_filter(a3, mask_of(a3, ["1", "a"]))
    assert cls.is_filter and cls.g and not cls.mv and not cls.boolean
    assert cls.witnesses["mv"] == ("0", "b")


def test_non_filter_has_witness(a1):
    cls = classify_filter(a1, mask_of(a1, ["b", "1"]))
    assert not cls.is_filter
    assert cls.witnesses["filter"] == ("prod", "b", "b")


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2"])
def test_filters_contain_top_and_respect_flags(name):
    alg = load_fixture(name)
    for m in enumerate_filters(alg):
        assert m >> alg.top & 1
        cls = classify_filter(alg, m)
        assert cls.is_filter
        # boolean implies both decomposition components
        if cls.boolean:
            assert cls.g and cls.mv


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2"])
def test_crisp_decomposition(name):
    assert crisp_decomposition_check(load_fixture(name)) == []


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2", "a1xb2", "a3xb2"])
def test_enumeration_matches_every_subset_scan(name):
    alg = load_named(name)
    scanned = [m for m in range(1, 1 << alg.n) if is_filter(alg, m)]
    assert enumerate_filters(alg) == sorted(scanned, key=lambda m: (m.bit_count(), m))


def test_enumeration_is_cached_and_scans_no_subsets(monkeypatch):
    alg = load_named("a3xb2")
    assert alg.n == 12
    closure_calls = []
    closure = filters._filter_by_closure

    def counted(alg, mask):
        closure_calls.append(mask)
        return closure(alg, mask)

    monkeypatch.setattr(filters, "_filter_by_closure", counted)
    found = enumerate_filters(alg)
    assert crisp_decomposition_check(alg) == []
    assert closure_calls == []  # every up-set of an idempotent is a filter, unscanned
    # callers get a copy: changing it does not change the cached enumeration
    original = list(found)
    found.clear()
    assert enumerate_filters(alg) == original
    assert len(original) == 10  # 5 filters of a3 times 2 of b2


@pytest.mark.parametrize("mask", [-1, -16, 1 << 4, 1 << 10 | 1])
def test_mask_outside_carrier_rejected(a1, mask):
    for call in (is_filter, classify_filter):
        with pytest.raises(ValueError, match="not a subset of the 4-element carrier"):
            call(a1, mask)
    assert mask not in a1.tables.classifications


def test_filters_command_on_24_element_product(tmp_path, capsys, a1, a3):
    # enumerate_filters has no size cap
    path = tmp_path / "a3xa1.json"
    path.write_text(json.dumps(product_doc("a3", "a1")))
    assert main(["filters", str(path), "--json"]) == 0
    got = [row["elements"] for row in json.loads(capsys.readouterr().out)["filters"]]
    alg = load_named("a3xa1")
    assert alg.n == 24 and all(is_filter(alg, mask_of(alg, f)) for f in got)
    # A scan of all 2^24 subsets is out of reach, so scan the factors: a
    # filter F of a product is F1 x F2, since (a, b) in F puts (a, 1) and
    # (1, b) in F by upward closure, and (a, 1) . (1, b) = (a, b).
    def scan(alg):
        return [labels_of(alg, m) for m in range(1, 1 << alg.n) if is_filter(alg, m)]

    expected = {frozenset(f"({x},{y})" for x in left for y in right)
                for left in scan(a3) for right in scan(a1)}
    assert {frozenset(f) for f in got} == expected and len(got) == 15


def test_cached_classification_is_read_only(a1):
    # every caller gets the same memoized object, so no caller may change it
    mask = mask_of(a1, ["a", "b", "1"])
    cls = classify_filter(a1, mask)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cls.boolean = False
    with pytest.raises(TypeError):
        cls.witnesses["boolean"] = ("a",)
    again = classify_filter(a1, mask)
    assert again is cls and again.boolean and dict(again.witnesses) == {}


def assert_classification_is_literal(alg, mask):
    cls = classify_filter(alg, mask)
    for kind in KINDS:
        key = "filter" if not cls.is_filter else kind
        got = None if cls.has(kind) else (key, cls.witnesses[key])
        assert got == crisp_witness(alg, set(elements(mask)), kind), (labels_of(alg, mask), kind)
    failed = {kind for kind in KINDS if not cls.has(kind)}
    assert set(cls.witnesses) == ({"filter"} if not cls.is_filter else failed)


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2", "a1xb2"])
def test_every_subset_is_classified_with_the_literal_witnesses(name):
    alg = load_named(name)
    for mask in range(1, 1 << alg.n):
        assert_classification_is_literal(alg, mask)


@pytest.mark.parametrize("name", ["a3xb2", "a1xa1", "a3xa1"])
def test_every_filter_is_classified_with_the_literal_witnesses(name):
    alg = load_named(name)
    for mask in enumerate_filters(alg):
        assert_classification_is_literal(alg, mask)
