import copy

import pytest

from softmtl.algebra import (AlgebraError, check_derived_laws, load_algebra,
                             negation, validate_mtl)
from softmtl.fixtures import FIXTURE_DOCS, load_fixture


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2"])
def test_fixture_is_mtl_algebra(name):
    alg = load_fixture(name)
    report = validate_mtl(alg)
    assert report.ok, report.violations


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2"])
def test_fixture_derived_laws(name):
    report = check_derived_laws(load_fixture(name))
    assert report.ok, report.violations


def test_a1_is_chain(a1):
    # 0 < a < b < 1
    order = ["0", "a", "b", "1"]
    for i, x in enumerate(order):
        for j, y in enumerate(order):
            assert a1.leq[a1.index(x)][a1.index(y)] == (i <= j)


def test_a3_order_structure(a3):
    leq = lambda x, y: a3.leq[a3.index(x)][a3.index(y)]
    assert leq("0", "d") and leq("d", "c") and leq("c", "a") and leq("c", "b")
    assert leq("a", "1") and leq("b", "1")
    assert not leq("a", "b") and not leq("b", "a")


def test_two_element_boolean_algebra():
    alg = load_fixture("b2")
    assert alg.n == 2
    assert validate_mtl(alg).ok


def test_negation_values(a1, a2):
    assert a1.labels[negation(a1, a1.index("a"))] == "0"
    assert a2.labels[negation(a2, a2.index("a"))] == "b"
    assert a2.labels[negation(a2, a2.index("b"))] == "a"
    for alg in (a1, a2):
        assert negation(alg, alg.bottom) == alg.top


@pytest.mark.parametrize("name", ["a1", "a2", "a3"])
def test_definitional_invariants(name):
    alg = load_fixture(name)
    n = alg.n
    for x in range(n):
        # x' = x'''
        assert negation(alg, x) == negation(alg, negation(alg, negation(alg, x)))
        for y in range(n):
            # order round-trips through the residuum
            assert alg.leq[x][y] == (alg.res[x][y] == alg.top)
            assert alg.leq[alg.prod[x][y]][alg.meet[x][y]]
            for z in range(n):
                # adjunction via the definitional route
                assert alg.leq[alg.prod[x][y]][z] == alg.leq[x][alg.res[y][z]]


def _mutated(name, edit):
    doc = copy.deepcopy(FIXTURE_DOCS[name])
    edit(doc)
    return doc


def test_mutated_product_is_flagged():
    doc = copy.deepcopy(FIXTURE_DOCS["a1"])
    doc["prod"][1][2] = "0"  # a (.) b
    alg = load_algebra(doc)
    report = validate_mtl(alg)
    assert not report.ok
    assert report.failed_axioms


def test_non_square_table_rejected():
    for doc in (_mutated("a1", lambda d: d.update(prod=d["prod"][:3])),
                _mutated("a1", lambda d: d.pop("res")),
                _mutated("a1", lambda d: d["prod"].__setitem__(0, "0000"))):
        with pytest.raises(AlgebraError, match="4x4"):
            load_algebra(doc)


def test_unknown_label_rejected():
    for doc in (_mutated("a1", lambda d: d["res"][0].__setitem__(0, "zz")),
                _mutated("a1", lambda d: d["res"][0].__setitem__(0, ["1"])),
                _mutated("a1", lambda d: d["res"][0].__setitem__(0, 1)),
                _mutated("a1", lambda d: d.update(bottom="z")),
                _mutated("a1", lambda d: d.update(top=["1"]))):
        with pytest.raises(AlgebraError, match="unknown label"):
            load_algebra(doc)


def test_broken_order_rejected():
    # residuum that makes <= fail antisymmetry: a -> 0 = 1 alongside 0 -> a = 1
    doc = copy.deepcopy(FIXTURE_DOCS["a1"])
    doc["res"][1][0] = "1"
    with pytest.raises(AlgebraError):
        load_algebra(doc)


def test_inconsistent_meet_rejected():
    doc = copy.deepcopy(FIXTURE_DOCS["a1"])
    doc["meet"][1][2] = "0"  # a /\ b is a on the chain
    with pytest.raises(AlgebraError, match="meet"):
        load_algebra(doc)


def test_duplicate_labels_rejected():
    # and documents whose labels are not a list of strings, or that have none
    for doc in (_mutated("a1", lambda d: d.update(labels=["0", "a", "a", "1"])),
                _mutated("b2", lambda d: d.update(labels="01")),
                _mutated("b2", lambda d: d.update(labels=5)),
                _mutated("b2", lambda d: d.update(labels=["0", 1])),
                [1, 2]):
        with pytest.raises(AlgebraError):
            load_algebra(doc)
