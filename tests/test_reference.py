"""``verify`` against the literal Fraction checker of ``reference``, which shares no code
with it."""

import itertools
from fractions import Fraction

import pytest

from products import load_named
from reference import (BOUNDS, MembershipQuery, conditions, evaluate, forms_of, fuzzy_witness,
                       literal_reports)
from softmtl import fuzzy
from softmtl.algebra import load_algebra
from softmtl.fixtures import FIXTURE_DOCS, load_fixture
from softmtl.soft import FULL, UPPER
from softmtl.verifier import TheoremSpec, catalog, catalog_by_id, verify, verify_all
from test_golden import FALSE_SPECS

F = Fraction

# Inputs whose witnesses name G instances: the soft side's on a2, the fuzzy side's on a1.
G_SPECS = (
    ("a2", 4, TheoremSpec("false-g-eiq-over-full", "in", FULL, "g", "eiq"), {}),
    ("a1", 4, TheoremSpec("false-g-plain-over-upper", "in", UPPER, "g", "plain"), {}),
)


@pytest.mark.parametrize("name, den, budget", [
    ("a1", 4, None),   # every map
    ("a3", 4, 200),    # the 75 two-valued maps of the 5^6
], ids=["a1-exhaustive", "a3-two-valued"])
def test_catalog_matches_the_reference(name, den, budget):
    alg = load_algebra(FIXTURE_DOCS[name])
    reports = [rep.to_doc() for rep in verify_all(alg, den, budget=budget)]
    assert reports == literal_reports(alg, catalog(), den, budget=budget)
    assert reports[0]["mode"] == ("two-valued" if budget else "exhaustive")


@pytest.mark.parametrize("name, den, spec, kw", FALSE_SPECS + G_SPECS,
                         ids=[s[2].id for s in FALSE_SPECS + G_SPECS])
def test_false_specs_match_the_reference(name, den, spec, kw):
    alg = load_algebra(FIXTURE_DOCS[name])
    report = verify(alg, spec, den, **kw).to_doc()
    assert report["counterexamples"]
    assert [report] == literal_reports(alg, [spec], den, **kw)


def _verdicts(report):
    return [(ce["mu"], ce["direction"]) for ce in report["counterexamples"]]


def test_a_broken_scan_changes_verify_but_not_the_reference(monkeypatch):
    # on a1 the filter {1} is not an MV-filter
    spec = catalog_by_id()["T4.2.4"]
    want = literal_reports(load_algebra(FIXTURE_DOCS["a1"]), [spec], 2)
    assert want[0]["confirmed"] and [verify(load_fixture("a1"), spec, 2).to_doc()] == want
    # the MV scan now passes every map, so the fuzzy side claims too much
    monkeypatch.setitem(fuzzy._SCANS, ("mv", "default"), lambda alg, c: None)
    broken = verify(load_algebra(FIXTURE_DOCS["a1"]), spec, 2).to_doc()
    assert not broken["confirmed"]
    assert {direction for _, direction in _verdicts(broken)} == {"fuzzy=>soft"}
    assert literal_reports(load_algebra(FIXTURE_DOCS["a1"]), [spec], 2) == want


def test_reversed_g_pairs_change_verify_witnesses_but_not_the_reference():
    want, broken = [], []
    for name, den, spec, _ in G_SPECS:
        want += literal_reports(load_algebra(FIXTURE_DOCS[name]), [spec], den)
        alg = load_algebra(FIXTURE_DOCS[name])  # fresh: the memos must not reach other tests
        alg.tables.g = alg.tables.g[::-1]
        broken.append(verify(alg, spec, den).to_doc())
        assert literal_reports(alg, [spec], den) == want[-1:]
    assert [_verdicts(rep) for rep in broken] == [_verdicts(rep) for rep in want]
    assert broken != want  # the G instances are now scanned from the last


@pytest.mark.parametrize("name", ["b2", "a1", "a2", "a3", "a3xb2", "a1xa1"])
def test_each_scan_table_lists_the_reference_instances_in_order(name):
    # a scan reports its table's first violated instance, so the order is part of the witness
    alg = load_named(name)
    for form in ("mp", "product", "complement", "chain", "contraction", "mv", "g"):
        table = [(tag, tuple(v for v in xyz if v is not None), p, {q, r})
                 for p, q, r, tag, *xyz in getattr(alg.tables, form)]
        assert table == [(tag, xs, p, set(qs)) for tag, xs, p, qs in conditions(alg, form)], form


def _points_hold(alg, mu, den, family):
    """The filter conditions of the (in, in-or-q) or the (not-in, not-in-or-not-q)
    family, stated with fuzzy points x_t for t, r on the 1/den grid; mu is the map's
    tuple of values."""
    ts = [F(j, den) for j in range(1, den + 1)]
    top, res, elems, js = alg.top, alg.res, range(alg.n), range(len(ts))
    pairs = list(itertools.product(elems, elems))

    def holds(mode):  # [x][j]: x_t <mode> mu at t = ts[j]; min(t, r) is ts[min(i, j)]
        return [[evaluate(mu, MembershipQuery(x, t, mode)) for t in ts] for x in elems]

    if family == "eiq":
        # x_t in mu => 1_t in-or-q mu;  x_t, (x -> y)_r in mu => y_min(t,r) in-or-q mu
        inn, inq = holds("in"), holds("in-or-q")
        unit = all(inq[top][i] for x in elems for i in js if inn[x][i])
        mp = all(inq[y][min(i, j)] for x, y in pairs for i in js for j in js
                 if inn[x][i] and inn[res[x][y]][j])
    else:
        # 1_t not-in mu => x_t not-in-or-not-q mu;
        # y_min(t,r) not-in mu => x_t or (x -> y)_r not-in-or-not-q mu
        out, outq = holds("not-in"), holds("not-in-or-not-q")
        unit = all(outq[x][i] for x in elems for i in js if out[top][i])
        mp = all(outq[x][i] or outq[res[x][y]][j] for x, y in pairs for i in js for j in js
                 if out[y][min(i, j)])
    return unit and mp


@pytest.mark.parametrize("family", ["eiq", "bar"])
def test_max_min_conditions_are_the_fuzzy_point_definitions(a1, family):
    held = 0
    for nums in itertools.product(range(5), repeat=a1.n):
        mu = tuple(F(k, 4) for k in nums)
        witness = fuzzy_witness(a1, mu, "filter", *BOUNDS[family], forms_of(family, "filter"))
        holds = witness is None
        assert _points_hold(a1, mu, 4, family) == holds, nums
        held += holds
    assert 0 < held < 625
