import copy
import itertools
import types

import pytest

from products import load_named, single_cell_mutations
from reference import literal_axioms, literal_laws
from softmtl import algebra
from softmtl.algebra import (AlgebraError, DerivedTables, check_derived_laws, load_algebra,
                             require_mtl, validate_mtl)
from softmtl.filters import classify_filter, crisp_decomposition_check, enumerate_filters
from softmtl.fixtures import FIXTURE_DOCS, FIXTURE_NAMES, load_fixture
from softmtl.kernels import AXIOM_KERNELS, LAW_KERNELS
from softmtl.verifier import verify_all


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
    assert a1.labels[a1.tables.neg[a1.index("a")]] == "0"
    assert a2.labels[a2.tables.neg[a2.index("a")]] == "b"
    assert a2.labels[a2.tables.neg[a2.index("b")]] == "a"
    for alg in (a1, a2):
        assert alg.tables.neg[alg.bottom] == alg.top


@pytest.mark.parametrize("name", ["a1", "a2", "a3"])
def test_definitional_invariants(name):
    alg = load_fixture(name)
    n, neg = alg.n, alg.tables.neg
    for x in range(n):
        # x' = x'''
        assert neg[x] == neg[neg[neg[x]]]
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


def naive_bound(alg, x, y, lower):
    """The common lower (upper) bound of x and y that is above (below) all the others."""
    le = (lambda u, v: alg.leq[u][v]) if lower else (lambda u, v: alg.leq[v][u])
    bounds = [z for z in range(alg.n) if le(z, x) and le(z, y)]
    (best,) = [z for z in bounds if all(le(w, z) for w in bounds)]
    return best


PRODUCTS = [f"{a}x{b}" for a, b in itertools.combinations_with_replacement(FIXTURE_NAMES, 2)]


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, *PRODUCTS])
def test_meet_and_join_match_the_definition(name):
    alg = load_named(name)
    for x in range(alg.n):
        for y in range(alg.n):
            assert alg.meet[x][y] == naive_bound(alg, x, y, True)
            assert alg.join[x][y] == naive_bound(alg, x, y, False)


def order_doc(labels, order, drop=()):
    """A document whose residuum encodes a relation: x -> y is the top iff x <= y.

    x <= y holds for x = y, for x the first label or y the last, and for
    each pair listed in ``order``, except the pairs listed in ``drop``.
    """
    labels = labels.split()
    le = {(x, y) for x in labels for y in labels
          if x == y or x == labels[0] or y == labels[-1]}
    le = (le | {tuple(p) for p in order.split()}) - {tuple(p) for p in drop}
    res = [[labels[-1] if (x, y) in le else labels[0] for y in labels] for x in labels]
    return {"labels": labels, "prod": [[labels[0]] * len(labels) for _ in labels], "res": res}


# Each document breaks the order in several places; the message names the first.
@pytest.mark.parametrize("doc, message", [
    (order_doc("0 a b c 1", "", drop=["bb", "cc"]), "derived order not reflexive at b"),
    (order_doc("0 a b c 1", "", drop=["cc", "0a"]), "a not between declared bottom and top"),
    (order_doc("0 a b c 1", "", drop=["b1"]), "b not between declared bottom and top"),
    (order_doc("0 a b c d 1", "ab ba cd dc"), "derived order not antisymmetric on a,b"),
    (order_doc("0 a b c d 1", "ab ba bc"), "derived order not antisymmetric on a,b"),
    (order_doc("0 a b c d 1", "ab bc bd cd dc"), "derived order not transitive on a,b,c"),
    (order_doc("0 a b c d e 1", "bc cd ce ab"), "derived order not transitive on a,b,c"),
    (order_doc("0 a b c 1", "ac cb"), "derived order not transitive on a,c,b"),
    (order_doc("0 a b c d 1", "ac ad bc bd"), "no meet for c,d: order is not a lattice"),
    (order_doc("0 a b c d e 1", "bd be cd ce ad ae"), "no meet for d,e: order is not a lattice"),
])
def test_order_error_names_the_first_violation(doc, message):
    with pytest.raises(AlgebraError) as err:
        load_algebra(doc)
    assert str(err.value) == message


def assert_reports_are_literal(alg):
    for report, literal in ((validate_mtl(alg), literal_axioms(alg)),
                            (check_derived_laws(alg), literal_laws(alg))):
        assert report.violations == literal
        assert list(report.violations) == list(literal)  # the same first axiom, too


KERNEL_NAMES = ["a1", "a2", "a3", "b2", "a1xb2", "a3xb2", "a1xa1", "a3xa1"]


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_violations_match_the_literal_loops(name):
    assert_reports_are_literal(load_named(name))


def mutated_algebras(names=("a1", "a2", "a3", "b2"), rows=None):
    """Every single-cell mutation of the prod or res of each named algebra that still loads."""
    mutated = []
    for name, key in itertools.product(names, ("prod", "res")):
        for doc in single_cell_mutations(name, key, rows):
            try:
                mutated.append(load_algebra(doc))
            except AlgebraError:
                pass  # the changed residuum derives no lattice order
    return mutated


def test_violations_of_mutated_tables_match_the_literal_loops():
    mutated = mutated_algebras()
    assert len(mutated) == 380
    for alg in mutated:
        assert_reports_are_literal(alg)
        assert not validate_mtl(alg).ok


def test_on_a_kernel_failure_the_literal_loops_run_alone(monkeypatch):
    # as on a carrier over 256 elements, which bytes cannot index
    failing = {"failing": lambda alg: True}
    monkeypatch.setattr(algebra, "AXIOM_KERNELS", failing)
    monkeypatch.setattr(algebra, "LAW_KERNELS", failing)
    for alg in [load_named("a3xb2"), *mutated_algebras()[::7]]:
        assert_reports_are_literal(alg)


def assert_kernels_are_literal(alg):
    """Each kernel fails iff the literal loops record a violation of its law."""
    for kernels, literal in ((AXIOM_KERNELS, literal_axioms(alg)),
                             (LAW_KERNELS, literal_laws(alg))):
        for law, fails in kernels.items():
            assert fails(alg) == bool(literal.get(law)), law


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernels_pass_the_valid_algebras(name):
    alg = load_named(name)
    assert_kernels_are_literal(alg)
    assert not any(fails(alg) for fails in (*AXIOM_KERNELS.values(), *LAW_KERNELS.values()))


def test_kernels_of_mutated_tables_fail_iff_the_literal_loops_record():
    # and on rows of a 12-element product, whose order checks span two blocks of 8 elements
    mutated = [*mutated_algebras(), *mutated_algebras(["a3xb2"], rows=(0, 5, 11))]
    assert len(mutated) == 380 + 606
    failed = set()
    for alg in mutated:
        assert_kernels_are_literal(alg)
        failed |= {law for law, found in (*literal_axioms(alg).items(),
                                          *literal_laws(alg).items()) if found}
    assert failed >= {*AXIOM_KERNELS, *LAW_KERNELS}  # each kernel fails somewhere


def test_the_exchange_kernel_compares_both_sides():
    # the left-zero monoid {e, a, b} acting on itself, as product and residuum:
    # x -> (y -> z) = x . y -> z everywhere, but not y -> (x -> z) at (a, b)
    table = ((0, 1, 2), (1, 1, 1), (2, 2, 2))
    assert LAW_KERNELS["exchange"](types.SimpleNamespace(prod=table, res=table))


def test_the_load_keeps_the_up_sets_it_checks_the_order_with():
    for name in KERNEL_NAMES:
        alg = load_named(name)
        assert alg.tables.ups == DerivedTables(alg).ups == tuple(
            sum(1 << y for y, le in enumerate(row) if le) for row in alg.leq)


def test_the_load_keeps_the_down_sets_it_builds_the_meet_with():
    for name in KERNEL_NAMES:
        alg = load_named(name)
        assert alg.tables.downs == DerivedTables(alg).downs == tuple(
            sum(1 << x for x in range(alg.n) if alg.leq[x][y]) for y in range(alg.n))


def test_an_algebra_is_validated_once(monkeypatch):
    validated = []

    def counted(alg):
        validated.append(alg)
        return validate_mtl(alg)

    monkeypatch.setattr(algebra, "validate_mtl", counted)
    alg = load_algebra(FIXTURE_DOCS["a3"])
    assert algebra.validate_mtl(alg).ok and check_derived_laws(alg).ok
    enumerate_filters(alg)
    classify_filter(alg, 1 << alg.top)
    assert crisp_decomposition_check(alg) == []
    verify_all(alg, 2)
    assert validated == [alg]


def test_a_kept_verdict_raises_the_message_of_a_fresh_one():
    doc = copy.deepcopy(FIXTURE_DOCS["a1"])
    doc["prod"][1][2] = "0"
    messages = []
    for direct in (False, True):
        alg = load_algebra(doc)
        if direct:
            assert not validate_mtl(alg).ok
        with pytest.raises(AlgebraError, match="inconsistent") as err:
            require_mtl(alg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
