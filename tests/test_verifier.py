import bisect
import collections
import dataclasses
import functools
import gc
import itertools
import json
import math
import operator
import random
import weakref
from fractions import Fraction

import pytest

from softmtl import algebra, fixtures, fuzzy, verifier
from softmtl.cli import main
from products import load_named, product_doc, single_cell_mutations
from softmtl.algebra import AlgebraError, load_algebra, require_mtl, validate_mtl
from softmtl.filters import KINDS, classify_filter, enumerate_filters
from softmtl.fixtures import FIXTURE_DOCS, load_fixture
from softmtl.soft import FULL, LOWER, ParameterInterval, build_soft, classify_soft, cut_index
from softmtl.fuzzy import FuzzySet, check_fuzzy_witness, grid_map, up_sets, weak_orders
import reference
from reference import (is_strictness_witness, literal_reports, literal_strictness_witness,
                       two_valued_maps)
from test_fuzzy import _is_up_set
from test_golden import CLI_RUNS, FALSE_SPECS, GOLDEN, render_cli
from softmtl.verifier import (TheoremSpec, _plan, catalog, catalog_by_id,
                              default_thresholds, find_strictness_witness,
                              verify, verify_all)

F = Fraction


def test_catalog_size_and_closure():
    specs = catalog()
    assert len(specs) == 31
    assert len({s.id for s in specs}) == 31


def test_catalog_key_entries():
    by_id = catalog_by_id()
    t33 = by_id["T3.3"]
    assert (t33.soft_kind, t33.interval, t33.family, t33.filter_kind) == \
        ("in", FULL, "plain", "filter")
    t36 = by_id["T3.6"]
    assert (t36.soft_kind, t36.interval, t36.family) == ("in", LOWER, "eiq")
    t31213 = by_id["T4.3.13"]
    assert t31213.direction == "iff"
    assert t31213.relation == ("boolean", ("mv", "g"))
    assert by_id["T4.2.13"].direction == "forward"
    # each filter kind gets the same seven-slot grid
    for kind in ("filter", "boolean", "mv", "g"):
        assert sum(1 for s in specs_of_kind(kind)) == 7


def test_catalog_is_not_shared_with_callers():
    specs = catalog()
    first = list(specs)
    specs.reverse()
    specs.append(TheoremSpec("bogus", "in", FULL, "filter", "eiq"))
    del specs[0]
    assert catalog() == first and len(first) == 31
    with pytest.raises(AttributeError):
        first[0].id = "bogus"  # the specs themselves are frozen
    assert first[0].id == "T3.3"


def specs_of_kind(kind):
    return [s for s in catalog() if s.filter_kind == kind and s.relation is None]


def test_default_thresholds_are_grid_aligned(a1):
    assert default_thresholds(2) == (1, 2)
    assert default_thresholds(4) == (1, 3)
    assert default_thresholds(10) == (1, 9)
    # a generic-interval check reads its levels over the default thresholds (alpha, beta]:
    # the in-cuts at j = alpha+1..beta, whose cut index is j
    t312 = catalog_by_id()["T3.12"]
    assert _plan((t312,), 2, None).checks[0].levels == (2,)
    assert _plan((t312,), 10, None).checks[0].levels == tuple(range(2, 10))


def test_verify_t33_exhaustive(a1):
    rep = verify(a1, catalog_by_id()["T3.3"], 4)
    assert rep.mode == "exhaustive"
    assert rep.checked == 625
    assert rep.confirmed


def test_verify_forward_relation(a2):
    rep = verify(a2, catalog_by_id()["T4.2.13"], 4)
    assert rep.confirmed and rep.checked == 625


def test_verify_decomposition_relation(a3):
    rep = verify(a3, catalog_by_id()["T4.3.13"], 2)
    assert rep.confirmed and rep.checked == 729


def test_verify_is_deterministic(a1):
    spec = catalog_by_id()["T3.6"]
    assert verify(a1, spec, 4).to_doc() == verify(a1, spec, 4).to_doc()


def test_verifier_catches_false_claims(a1):
    # deliberately wrong pairing: capped-family predicate against full-interval cuts
    bogus = TheoremSpec("bogus", "in", FULL, "filter", "eiq")
    rep = verify(a1, bogus, 4)
    assert not rep.confirmed
    ce = rep.counterexamples[0]
    assert ce["direction"] in ("fuzzy=>soft", "soft=>fuzzy")
    # the recorded mu really separates the two predicates
    mu = FuzzySet.from_mapping(a1, 4, {k: F(v) for k, v in ce["mu"].items()})
    fuzzy_holds = check_fuzzy_witness(mu, "eiq", "filter") is None
    assert fuzzy_holds != classify_soft(build_soft(mu, FULL, "in"))[0]


def test_sampling_fallback(a3):
    # over budget: the 3 constant maps, and 3 more for each of the 6 up-sets and the non-up-set
    rep = verify(a3, catalog_by_id()["T3.3"], 2, budget=100)
    assert rep.mode == "two-valued"
    assert rep.checked == 3 + 3 * (len(up_sets(a3)) + 1) == 24
    assert rep.confirmed
    with pytest.raises(ValueError, match="^budget 23 is below the two-valued maps of the 1/2 "
                                         "grid on 6 elements, whose order has more than 5 "
                                         "up-sets$"):
        verify(a3, catalog_by_id()["T3.3"], 2, budget=23)


@pytest.mark.parametrize("name, den, maps, most", [("a3", 2, 24, 5), ("a3xa1", 4, 2935, 291)])
def test_a_two_valued_run_fits_a_budget_of_exactly_its_maps(name, den, maps, most):
    # D+1 constant maps and C(D+1, 2) for each up-set and the representative:
    # 3 + 7 * 3 on a3 (6 up-sets), 5 + 293 * 10 on a3 x a1 (292 up-sets)
    alg, spec = load_named(name), catalog_by_id()["T3.3"]
    refused = (f"^budget {maps - 1} is below the two-valued maps of the 1/{den} grid on "
               f"{alg.n} elements, whose order has more than {most} up-sets$")
    with pytest.raises(ValueError, match=refused):  # the listing stops
        verify(alg, spec, den, budget=maps - 1)
    rep = verify(alg, spec, den, budget=maps)
    assert (rep.mode, rep.checked, rep.confirmed) == ("two-valued", maps, True)
    with pytest.raises(ValueError, match=refused):  # the kept listing is too long
        verify(alg, spec, den, budget=maps - 1)


def _relabelled(doc, order):
    """``doc``, which lists its bottom first and its top last, with its elements listed in
    ``order`` (a permutation of their indices) and its bottom and top named."""
    labels = doc["labels"]
    return {"labels": [labels[i] for i in order], "bottom": labels[0], "top": labels[-1],
            **{key: [[doc[key][i][j] for j in order] for i in order]
               for key in doc if key != "labels"}}


@pytest.mark.parametrize("name", [*FIXTURE_DOCS, "a1xb2", "a2xb2", "a3xb2", "a1xa1", "a3xa1"])
def test_the_representative_is_the_least_non_up_set(name):
    # {0}, or {1} when 0 is the top: as listed, the fixtures and their products have it last,
    # so only the orders that list the top first have it at 0
    doc = product_doc(*name.split("x")) if "x" in name else FIXTURE_DOCS[name]
    n, reps = len(doc["labels"]), set()
    for order in (range(n), range(n)[::-1], [n - 1, *range(n - 1)]):
        alg = load_algebra(_relabelled(doc, order))
        sets = verifier._walk(alg, 2, None)[1]
        assert sets[-1] == next(mask for mask in itertools.count(1) if not _is_up_set(alg, mask))
        if n <= 16:  # the brute force walks every subset
            assert sets == reference.two_valued_sets(alg), order
        reps.add(sets[-1])
    assert reps == {1, 2}


def test_restriction_coherence(a1):
    # a plain fuzzy filter also satisfies the capped predicate, and its
    # narrow-interval cuts agree with the full-interval ones restricted
    for nums in itertools.product(range(5), repeat=a1.n):
        mu = FuzzySet(a1, 4, nums)
        if check_fuzzy_witness(mu, "plain", "filter") is None:
            assert check_fuzzy_witness(mu, "eiq", "filter") is None
            full = dict(build_soft(mu, FULL, "in").levels)
            low = build_soft(mu, LOWER, "in").levels
            for t, mask in low:
                assert full[t] == mask


def test_strictness_witness_found(a2, a3):
    mu = find_strictness_witness(a2, "T4.2.13", 2)
    assert mu is not None
    soft = build_soft(mu, FULL, "in")
    assert classify_soft(soft, "mv")[0] and not classify_soft(soft, "boolean")[0]

    mu = find_strictness_witness(a3, "T4.3.12", 2)
    assert mu is not None
    soft = build_soft(mu, FULL, "in")
    assert classify_soft(soft, "g")[0] and not classify_soft(soft, "boolean")[0]


def test_no_witness_on_boolean_algebra(b2):
    assert find_strictness_witness(b2, "T4.2.13", 4) is None
    assert find_strictness_witness(b2, "T4.3.12", 4) is None


@pytest.mark.parametrize("name, den", [(name, den) for name in ("a1", "a2", "a3", "b2")
                                       for den in (2, 4)] + [("a1xb2", 2)])
def test_strictness_witness_matches_the_literal_walk(name, den):
    alg = load_named(name)
    for theorem, kind in (("T4.2.13", "mv"), ("T4.3.12", "g")):
        mu = find_strictness_witness(alg, theorem, den)
        assert (mu is None) == (literal_strictness_witness(alg, kind, den) is None), theorem
        if mu is not None:
            values = tuple(F(k, den) for k in mu.nums)
            assert set(mu.nums) == {0, den}, theorem
            assert is_strictness_witness(alg, values, den, kind), theorem


def test_strictness_witness_on_a_product_the_sampler_missed():
    # 3^24 maps at D = 2, too many to walk, and too few of them are witnesses to sample
    alg = load_named("a3xa1")
    mu = find_strictness_witness(alg, "T4.3.12", 2)
    assert mu is not None and set(mu.nums) == {0, 2}
    assert is_strictness_witness(alg, tuple(F(k, 2) for k in mu.nums), 2, "g")
    assert find_strictness_witness(alg, "T4.2.13", 2) is None


def test_witness_rejects_other_theorems(a1):
    with pytest.raises(ValueError):
        find_strictness_witness(a1, "T3.3", 4)


@pytest.mark.parametrize("den", range(2, 13, 2))
def test_levels_mask_holds_the_cut_index_of_each_level(a1, den):
    user = ParameterInterval(F(1, den), F(den // 2 + 1, den))
    specs = [(spec, None) for spec in catalog()]
    specs += [(TheoremSpec(f"user-{kind}", kind, None, "mv", "thresholds"), user)
              for kind in ("in", "q")]
    for spec, interval in specs:
        check, = _plan((spec,), den, interval).checks
        iv = interval or spec.interval
        lo, hi = default_thresholds(den) if iv is None else iv.numerators(den)
        # by ascending t: the cut index of an in-level rises with t, that of a q-level falls
        assert check.levels == tuple(cut_index(spec.soft_kind, j, den)
                                     for j in range(lo + 1, hi + 1)), (spec.id, den)


@pytest.mark.parametrize("den", [3, 0, -2])
def test_odd_or_nonpositive_grid_rejected(a1, den):
    with pytest.raises(ValueError, match="positive and even"):
        verify(a1, catalog_by_id()["T3.3"], den)
    with pytest.raises(ValueError, match="positive and even"):
        find_strictness_witness(a1, "T4.2.13", den)


@pytest.mark.parametrize("name", ["a1", "a2"])
def test_non_mtl_tables_rejected(name, monkeypatch):
    # each of the 48 mutations loads, but its tables are not an MTL-algebra
    validated = []

    def counted(alg):
        validated.append(alg)
        return validate_mtl(alg)

    monkeypatch.setattr(algebra, "validate_mtl", counted)
    docs = list(single_cell_mutations(name, "prod"))
    assert len(docs) == 48
    for doc in docs:
        alg = load_algebra(doc)
        mu = FuzzySet.constant(alg, 2, 1)
        for call in (lambda: verify_all(alg, 2),
                     # the tables are checked before the budget
                     lambda: verify_all(alg, 2, budget=1),
                     lambda: find_strictness_witness(alg, "T4.2.13", 2),
                     lambda: enumerate_filters(alg),
                     lambda: classify_filter(alg, 1 << alg.top),
                     lambda: check_fuzzy_witness(mu, "plain", "filter")):
            with pytest.raises(AlgebraError, match="inconsistent"):
                call()
        assert validated == [alg]  # validated once, the verdict kept
        validated.clear()
        assert not validate_mtl(alg).ok


def test_verify_all_matches_the_reference_loop(a1):
    # at D = 8 most sets are served from the memos of the shared a1; the whole
    # exhaustive D = 8 run is pinned by the verify-all-a1-D8 golden
    reports = [rep.to_doc() for rep in verify_all(a1, 8, budget=300)]
    assert reports == literal_reports(a1, catalog(), 8, budget=300)
    assert all(rep["mode"] == "two-valued" and rep["checked"] == 153 for rep in reports)


@pytest.mark.parametrize("name, den, spec, kw", FALSE_SPECS, ids=[s[2].id for s in FALSE_SPECS])
def test_false_specs_match_the_reference_loop(name, den, spec, kw):
    # the shared fixture, warm from earlier runs, against the literal reference
    alg = load_fixture(name)
    report = verify(alg, spec, den, **kw).to_doc()
    assert report["counterexamples"]
    assert [report] == literal_reports(alg, [spec], den, **kw)


@pytest.mark.parametrize("name", ["b2", "a1", "a2", "a3"])
def test_two_valued_runs_give_the_grids_verdicts(name):
    # On b2 the two-valued maps are all the maps, so no budget selects them:
    # the pass gets their sets straight from the walk, the same at every grid.
    alg = load_algebra(FIXTURE_DOCS[name])
    sets = verifier._walk(alg, 2, None)[1]
    refuted = 0
    for _, grid, spec, kw in FALSE_SPECS:
        for den in (grid, grid + 4):
            walk = ("two-valued", sets, den + 1 + len(sets) * math.comb(den + 1, 2))
            full = verify(alg, spec, den, interval=kw.get("interval")).counterexamples
            two = verifier._verify(alg, (spec,), den, walk, kw.get("interval"))[0].counterexamples
            docs = {tuple(str(F(k, den)) for k in nums) for nums in two_valued_maps(alg, den)}
            on_maps = [ce for ce in full if tuple(ce["mu"][lab] for lab in alg.labels) in docs]
            assert bool(two) == bool(full), (spec.id, den)
            assert two == on_maps, (spec.id, den)
            refuted += bool(full)
    assert refuted


def test_q_level_witnesses_match_the_reference_on_a_fine_grid():
    # Eight q-levels over (0, 1]: each fuzzy=>soft witness names the first
    # failing level by ascending t, whose cut index is the highest failing one.
    name, _, spec, _ = next(s for s in FALSE_SPECS if s[2].id == "false-q-full-eiq-filter")
    alg = load_fixture(name)
    report = verify(alg, spec, 8).to_doc()
    assert len(report["counterexamples"]) == 1030
    assert [report] == literal_reports(alg, [spec], 8)


def test_fuzzy_scans_do_not_grow_with_the_grid(monkeypatch):
    alg = load_algebra(FIXTURE_DOCS["a1"])
    calls = []

    def counted(key, scan):
        def wrapper(alg, c):
            calls.append((key, c))
            return scan(alg, c)
        return wrapper

    monkeypatch.setattr(fuzzy, "_SCANS", {k: counted(k, f) for k, f in fuzzy._SCANS.items()})
    runs = []
    for den, budget in ((8, None), (16, None), (16, 1000)):
        start = len(calls)
        reports = verify_all(alg, den, budget=budget)
        assert reports[0].mode == ("two-valued" if budget else "exhaustive")
        runs.append(calls[start:])
    # The algebra keeps each up-set's scan bits: over the three runs together,
    # each up-set (given by its 0/1 indicator) is scanned at most once per
    # scan, whatever the grid, the bounds and the mode, and 4 elements have
    # 14 up-sets that are neither empty nor the whole carrier.
    assert runs[0] and not runs[1] and not runs[2]
    assert len(calls) == len(set(calls))
    indicators = {c for _, c in calls}
    assert len(indicators) <= 14 and all(set(c) == {0, 1} for c in indicators)


def test_a_run_keeps_only_cut_classifications_on_the_algebra():
    # a two-valued run on a large carrier: 5^24 grid maps, 292 up-sets
    alg = load_named("a3xa1")
    for name, attr in vars(type(alg.tables)).items():
        if isinstance(attr, functools.cached_property):
            getattr(alg.tables, name)  # the law tables, built once per algebra
    require_mtl(alg)
    ups = up_sets(alg)  # kept on the algebra, as the law tables are
    before = dict(vars(alg.tables))
    sizes = {name: len(value) for name, value in before.items() if isinstance(value, dict)}
    budget = (len(ups) + 1) * math.comb(5, 2) + 5
    assert len(ups) + 1 == 293
    reports = verify_all(alg, 4, budget=budget)
    assert all(rep.mode == "two-valued" and rep.checked == budget and rep.confirmed
               for rep in reports)
    after = vars(alg.tables)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    grown = {name for name, size in sizes.items() if len(after[name]) != size}
    # the memos of classify_filter and of the atoms, by cut: the up-sets, the
    # representative and the carrier; and the automaton's rows, by rank count
    assert grown == {"classifications", "atoms", "automaton"}
    for name in ("classifications", "atoms"):
        assert len(after[name]) - sizes[name] <= len(ups) + 2
        assert all(0 < cut < 1 << alg.n for cut in after[name])
    # two ranks, whose walk expands only the start node
    assert list(after["automaton"]) == [2] and len(after["automaton"][2]) == 1


def _atom(alg, up):
    """What the pass reads of an up-set: its failing crisp kinds and its scan bits."""
    return classify_filter(alg, up).fails, fuzzy.scan_fails(alg, up)


@pytest.mark.parametrize("spec_id, kind, up_fails, planted", [
    # U is a G-filter; the planted g bit gives it the scans of the filters failing g too
    ("T4.3.3", "g", ("boolean", "mv"), ("g", "default")),
    # U fails boolean, mv and g, as another up-set does; the product bit tells them apart
    ("T3.3", "filter", ("boolean", "mv", "g"), ("filter", "product")),
])
def test_a_scan_failure_planted_on_one_up_set_flips_exactly_its_maps(monkeypatch, spec_id, kind,
                                                                      up_fails, planted):
    # a fresh algebra: the planted bit must not reach a shared memo
    alg, den = load_algebra(FIXTURE_DOCS["a3"]), 2
    atoms = {up: _atom(alg, up) for up in range(1, (1 << alg.n) - 1)}
    up = min(u for u, (fails, _) in atoms.items()
             if fails == sum(1 << KINDS.index(k) for k in up_fails))
    bit = 1 << fuzzy._SCAN_KEYS.index(planted)
    fails, scans = atoms[up]
    assert not scans & bit
    # another up-set that a key by kinds alone, or by scan bits alone, would mistake for U
    assert any((f == fails) != (s == scans | bit) for u, (f, s) in atoms.items() if u != up)
    scan_fails = verifier.scan_fails
    monkeypatch.setattr(verifier, "scan_fails",
                        lambda alg, u: scan_fails(alg, u) | (bit if u == up else 0))
    recorded = []
    monkeypatch.setattr(verifier, "_record",
                        lambda alg, plan, reports, atoms, other, nums, soft, fail:
                        recorded.append(nums))
    verify(alg, catalog_by_id()[spec_id], den)
    # The plain fuzzy side now fails on every map with U as a level cut, so the
    # maps on which it held, and so the soft side held, become counterexamples.
    expected = []
    for nums in itertools.product(range(den + 1), repeat=alg.n):
        cuts = {sum(1 << x for x, k in enumerate(nums) if k >= j) for j in range(1, den + 1)}
        mu = FuzzySet(alg, den, nums)
        if up in cuts and check_fuzzy_witness(mu, "plain", kind) is None:
            expected.append(nums)
    assert expected and recorded == expected


def test_a_kind_failure_planted_on_one_up_set_is_an_internal_error(monkeypatch, capsys):
    # U is a G-filter, and its atom now fails g too: on every map with U as a
    # level cut on which the fuzzy side holds, the bits fail the soft side alone,
    # and the literal classification of that level, U, passes g.
    alg, den = load_algebra(FIXTURE_DOCS["a3"]), 2
    fails = sum(1 << KINDS.index(k) for k in ("boolean", "mv"))
    up = min(u for u in up_sets(alg) if classify_filter(alg, u).fails == fails)
    atoms_of = verifier._atoms

    def planted(alg, sets):
        atoms = atoms_of(alg, sets)
        atoms[up] |= 1 << KINDS.index("g")
        return atoms

    monkeypatch.setattr(verifier, "_atoms", planted)
    maps = (FuzzySet(alg, den, nums) for nums in itertools.product(range(den + 1), repeat=alg.n))
    first = next(mu for mu in maps
                 if up in {sum(1 << x for x, k in enumerate(mu.nums) if k >= j)
                           for j in range(1, den + 1)}
                 and check_fuzzy_witness(mu, "plain", "g") is None)
    with pytest.raises(RuntimeError) as raised:
        verify(alg, catalog_by_id()["T4.3.3"], den)
    assert str(raised.value) == ("T4.3.3: the literal classification contradicts the kind bits "
                                 f"on {first.to_doc()}")
    # the CLI reports an internal error
    monkeypatch.setattr(fixtures, "resolve_algebra", lambda target: alg)
    assert main(["verify", "a3", "T4.3.3", "--grid", str(den)]) == 3
    assert "RuntimeError: T4.3.3: the literal classification" in capsys.readouterr().err


def test_a_literal_scan_that_contradicts_the_bits_is_an_internal_error(monkeypatch, capsys):
    # The planted g bit of the test above, recorded: on the first map with U as
    # a cut, the bits fail the fuzzy side and pass the soft side, and the
    # literal scan finds no violation to name as a soft=>fuzzy witness.
    alg, den = load_algebra(FIXTURE_DOCS["a3"]), 2
    fails = sum(1 << KINDS.index(k) for k in ("boolean", "mv"))
    up = min(u for u in range(1, (1 << alg.n) - 1) if classify_filter(alg, u).fails == fails)
    bit = 1 << fuzzy._SCAN_KEYS.index(("g", "default"))
    scan_fails = verifier.scan_fails
    monkeypatch.setattr(verifier, "scan_fails",
                        lambda alg, u: scan_fails(alg, u) | (bit if u == up else 0))
    first = next(FuzzySet(alg, den, nums)
                 for nums in itertools.product(range(den + 1), repeat=alg.n)
                 if sum(1 << x for x, k in enumerate(nums) if k) == up)
    assert check_fuzzy_witness(first, "plain", "g") is None
    with pytest.raises(RuntimeError) as raised:
        verify(alg, catalog_by_id()["T4.3.3"], den)
    assert str(raised.value).startswith("T4.3.3: ") and str(first.to_doc()) in str(raised.value)
    # the CLI reports an internal error, not the bad input of an AlgebraError
    monkeypatch.setattr(fixtures, "resolve_algebra", lambda target: alg)
    assert main(["verify", "a3", "T4.3.3", "--grid", str(den)]) == 3
    assert "RuntimeError: T4.3.3: " in capsys.readouterr().err


def test_a_disagree_bit_the_literal_scans_do_not_share_is_an_internal_error(monkeypatch):
    # every set is flagged, so the least flagged map is 0 off {1} and 1/2 on it
    monkeypatch.setattr(verifier, "disagree", lambda bits, fail, agree: True)
    alg = load_algebra(FIXTURE_DOCS["a1"])
    spec = TheoremSpec("all-routes", "in", FULL, "boolean", "plain", route="all")
    with pytest.raises(RuntimeError, match="formulations on ") as raised:
        verify(alg, spec, 2)
    assert str({"0": "0", "a": "0", "b": "0", "1": "1/2"}) in str(raised.value)


def test_the_pass_builds_the_automaton_once_and_runs_the_dp_once(monkeypatch):
    alg, den = load_algebra(FIXTURE_DOCS["a3"]), 8
    verifier._plan.cache_clear()  # a new plan, with no verdicts of earlier runs
    calls = []

    def counted(fn, f):
        def wrapper(*args):
            calls.append(fn)
            return f(*args)
        return wrapper

    for fn in ("chain_automaton", "_flags"):
        monkeypatch.setattr(verifier, fn, counted(fn, getattr(verifier, fn)))
    masks = []
    chain_masks = fuzzy._chain_masks
    monkeypatch.setattr(fuzzy, "_chain_masks", lambda alg, sets: masks.append(alg)
                        or chain_masks(alg, sets))
    reports = verify_all(alg, den)
    assert all(rep.confirmed and rep.checked == (den + 1) ** alg.n for rep in reports)
    assert calls == ["chain_automaton", "_flags"] and masks == [alg]
    # one verdict per rank count, kept under the carrier's atom, the rank count and the
    # automaton's rows: ints, nothing of the algebra
    (key, flags), = _plan(None, den, None).verdicts.items()
    assert key == (alg.tables.atoms[(1 << alg.n) - 1], alg.n, alg.tables.automaton[alg.n])
    assert flags == (False,) * alg.n
    # a warm run, and a run on a fresh load, run no DP; the fresh load builds its own automaton
    calls.clear()
    assert [rep.to_doc() for rep in verify_all(alg, den)] == [rep.to_doc() for rep in reports]
    assert calls == []
    verify_all(load_algebra(FIXTURE_DOCS["a3"]), den)
    assert calls == ["chain_automaton"]
    # a two-valued run on a product expands only the start node, whose letters are the atoms of
    # every up-set and other's, and builds no masks
    alg, masks[:] = load_named("a3xa1"), []
    reports = verify_all(alg, 12, budget=10**6)
    assert all(rep.mode == "two-valued" and rep.confirmed for rep in reports)
    (ranks, rows), = alg.tables.automaton.items()
    ids, other = _walk_atoms(alg)
    assert ranks == 2 and masks == [] and len(rows) == 1
    assert [atom for atom, _ in rows[0]] == sorted({*ids.values(), other})


def _walk_atoms(alg):
    """The atom of each up-set, and of every other set, as ``_verify`` gives them."""
    *ups, rep = sets = verifier._walk(alg, 2, None)[1]
    atoms = verifier._atoms(alg, sets)
    return {up: atoms[up] for up in ups}, atoms[rep]


def _automaton(alg, ranks):
    """The chain automaton's rows for ``ranks`` ranks, on the atoms ``_verify`` gives."""
    ids, other = _walk_atoms(alg)
    return fuzzy.chain_automaton(alg, list(ids), ids, other, ranks)


def _words(rows, ranks):
    """The words of the automaton ``rows`` of each length 0..ranks - 1, each level sorted."""
    levels, paths = [], {(0, ())}  # (node, word) of each word of the length
    for r in range(ranks):
        levels.append(sorted({word for _, word in paths}))
        if r + 1 < ranks:
            paths = {(to, (*word, atom)) for node, word in paths for atom, to in rows[node]}
    return levels


@pytest.mark.parametrize("name, ranks", [("b2", None), ("a1", None), ("a2", None), ("a3", None),
                                         ("a1xb2", 3)])
def test_the_walk_finds_the_profiles_of_every_map_onto_the_ranks(name, ranks):
    alg = load_named(name)
    ranks = ranks or alg.n  # every rank count, unless the carrier is large
    rows = _automaton(alg, ranks)
    # deterministic: no letter leads from a node twice
    assert all([atom for atom, _ in row] == sorted({atom for atom, _ in row}) for row in rows)
    levels = _words(rows, ranks)
    assert len(levels) == ranks
    atom = functools.cache(functools.partial(_atom, alg))
    for r, walked in enumerate(levels, 1):
        # the literal side: the atoms of the cuts of every map onto the ranks
        literal = {tuple(atom(sum(1 << x for x, k in enumerate(rank) if k >= i))
                         for i in range(1, r))
                   for rank in itertools.product(range(r), repeat=alg.n) if len(set(rank)) == r}
        assert len(walked) == len(literal), r
        assert {tuple((atom & (1 << len(KINDS)) - 1, atom >> len(KINDS)) for atom in profile)
                for profile in walked} == literal, r


@pytest.mark.parametrize("name, ranks", [("b2", None), ("a1", None), ("a2", None), ("a3", None),
                                         ("a1xb2", 5), ("a3xb2", 5), ("a1xa1", 3)])
def test_the_up_set_walk_finds_the_subset_walks_profiles(name, ranks):
    alg = load_named(name)
    ranks = ranks or alg.n
    levels = _words(_automaton(alg, ranks), ranks)
    subset_ids = reference._subset_ids(alg)
    below = reference._below(subset_ids)
    assert len(levels) == ranks
    for r, walked in enumerate(levels, 1):
        assert walked == sorted(reference._profiles(subset_ids, below, len(below) - 1, r)), r


def _longest_non_up_chain(alg, a, b):
    """The most non-up-sets in a chain strictly between the sets b < a, by brute force."""
    part = a & ~b

    def drops(s):  # the sets s - x, x in s - b
        return [s & ~(1 << x) for x in range(alg.n) if (s & part) >> x & 1]

    @functools.cache
    def most(s):  # in a chain of non-up-sets T with b < T <= s
        return 0 if s == b else max(map(most, drops(s))) + (not _is_up_set(alg, s))

    return max(map(most, drops(a)))


@pytest.mark.parametrize("name", ["b2", "a1", "a2", "a3", "a1xb2"])
def test_the_room_between_up_sets_is_their_longest_chain_of_non_up_sets(name):
    alg = load_named(name)
    sets = [0, *up_sets(alg), (1 << alg.n) - 1]  # the set ids: the empty set and the carrier too
    assert sets == [m for m in range(1 << alg.n) if _is_up_set(alg, m)]
    below, free, room, atmost = fuzzy._chain_masks(alg, sets)
    runs = set()  # whether some run fits between the pairs
    for a, big in enumerate(sets):
        # below: the up-sets strictly inside, found by comparing them
        assert below[a] == sum(1 << b for b, small in enumerate(sets) if small != big
                               and not small & ~big), big
        if big:  # the longest run below it, to the empty set
            assert room[a] == _longest_non_up_chain(alg, big, 0), big
        for b in (b for b in range(len(sets)) if below[a] >> b & 1):
            # (L, k) steps to U for k = 0 and for each k >= 1 up to their longest run
            steps = [k for k in range(1, room[a] + 1) if (free[a] & atmost[room[a] - k]) >> b & 1]
            assert steps == list(range(1, _longest_non_up_chain(alg, big, sets[b]) + 1)), (big, b)
            runs.add(bool(steps))
    assert runs == {True, False}


@pytest.mark.parametrize("name, den, maps", [("a3xa1", 2, 282429536481),
                                            ("a1xa1", 4, 152587890625)])
def test_large_exhaustive_runs_confirm_the_catalog(name, den, maps):
    alg = load_named(name)
    assert maps == (den + 1) ** alg.n
    # the two-valued maps first: a wrong refutation fails here in seconds, before the
    # exhaustive run lists every weak order of the carrier to name its maps
    reports = verify_all(alg, den, budget=10**6)
    assert len(reports) == 31
    assert all(rep.mode == "two-valued" and rep.confirmed for rep in reports)
    reports = verify_all(alg, den)
    assert len(reports) == 31
    assert all(rep.mode == "exhaustive" and rep.confirmed and rep.checked == maps
               for rep in reports)


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2"])
def test_an_exhaustive_run_reports_every_grid_map_checked(name):
    alg = load_fixture(name)
    for den in (2, 4):
        reports = verify_all(alg, den)
        assert {(rep.mode, rep.checked) for rep in reports} == {("exhaustive", (den + 1) ** alg.n)}


def test_a_two_valued_run_reports_its_maps_checked(a3):
    # the D+1 constant maps, and a < b with a off U, b on U for each up-set U and one other set
    ups = sum(_is_up_set(a3, mask) for mask in range(1, (1 << a3.n) - 1))
    maps = 13 + (ups + 1) * math.comb(13, 2)
    assert maps == len(two_valued_maps(a3, 12))
    reports = verify_all(a3, 12, budget=10**6)
    assert {(rep.mode, rep.checked) for rep in reports} == {("two-valued", maps)}


def test_an_exhaustive_run_classifies_only_the_cuts_it_must():
    # a fresh algebra: its memo holds only what this run classified
    alg = load_algebra(FIXTURE_DOCS["a3"])
    assert all(rep.confirmed and rep.mode == "exhaustive" for rep in verify_all(alg, 8))
    ups = up_sets(alg)
    other = next(mask for mask in itertools.count(1) if mask not in ups)
    # the up-sets, the representative non-up-set and the carrier, not all 63 masks
    assert set(alg.tables.classifications) == {*ups, other, (1 << alg.n) - 1}
    assert len(alg.tables.classifications) == 8
    # and on a fresh product of 24 elements, exhaustive at D = 2 over 3^24 maps
    alg = load_named("a3xa1")
    assert all(rep.confirmed and rep.mode == "exhaustive" for rep in verify_all(alg, 2))
    ups = up_sets(alg)
    other = next(mask for mask in itertools.count(1) if mask not in ups)
    assert set(alg.tables.classifications) == {*ups, other, (1 << alg.n) - 1}
    assert len(alg.tables.classifications) == 292 + 2

def _cut_atoms(den, carrier, atoms, vals):
    """The (failing kinds, scan bits) of the cut at each index 1..den of the map whose ranks
    0..r-1 take the values ``vals``, and whose cuts U_1, ..., U_r-1 have the ``atoms``; U_0,
    the carrier, fails the kinds ``carrier`` and no scan, and the empty cut fails nothing."""
    cuts = [(carrier, 0), *atoms, (0, 0)]  # the cut at j is U_i for vals[i-1] < j <= vals[i]
    return {j: cuts[bisect.bisect_left(vals, j)] for j in range(1, den + 1)}


def _span_bits(plan, atoms, vals):
    """S | F << width of the map whose ranks have ``atoms`` (the carrier's first) and take the
    values ``vals``: the OR of each rank's verdict-table entries over its span (module
    docstring, "Per map")."""
    tables = [plan.tables[atom] if atom in plan.tables else verifier._table(plan, atom)
              for atom in atoms]
    return functools.reduce(operator.or_, [
        table[j] for table, u, v in zip(tables, (0, *vals), vals) for j in range(u + 1, v + 1)], 0)


def _literal_verdicts(checks, den, carrier, atoms, vals):
    """S, F and R by the per-check rule, on the map of :func:`_cut_atoms`.

    A soft side fails iff a cut at one of its levels fails its kind.  S holds the checks whose
    conclusion fails: a fuzzy check's soft side, or some right-hand kind of a relation.  F
    holds those whose premise fails: a fuzzy check's fuzzy side, or a relation's left-hand
    kind.  A fuzzy check clamps the ranks to its bounds, merging the ranks at or below lo and
    those at or above hi, and ORs the scan bits of the cuts between them.  R holds the
    relations that fail: the left side holds and a right-hand kind fails, or, for an iff
    claim, the other way round."""
    fails = {kind: sum(1 << j for j, (kinds, _) in _cut_atoms(den, carrier, atoms, vals).items()
                       if kinds >> i & 1)
             for i, kind in enumerate(KINDS)}
    soft = fail = rel = 0
    for b, check in enumerate(checks):
        levels = sum(1 << j for j in check.levels)
        soft_fail = fails[check.kind] & levels
        if check.fuzzy is None:
            rhs_fail = any(fails[kind] & levels for kind in check.rhs)
            if (rhs_fail and not soft_fail) or (soft_fail and not rhs_fail and check.iff):
                rel |= 1 << b
            soft |= rhs_fail << b
            fail |= bool(soft_fail) << b
            continue
        soft |= bool(soft_fail) << b
        kind, lo, hi, route = check.fuzzy
        low = max(bisect.bisect_right(vals, lo) - 1, 0)
        high = min(bisect.bisect_left(vals, hi), len(vals) - 1)
        scans = 0
        for _, bits in atoms[low:high]:  # U_low+1, ..., U_high
            scans |= bits
        fail |= bool(scans & fuzzy.scan_masks(kind, route)[0]) << b
    return soft, fail, rel


def _decide(plan, atoms):
    """Whether some map of the profile ``atoms``, the carrier's atom first, is a counterexample.

    The per-profile DP the verifier ran before the chain automaton, kept as the oracle of
    :func:`verifier._flags`: after rank i, each value V[i] maps to the ORs S | F << width of
    ranks 0..i over the prefixes V[0] < ... < V[i] that end there, V[i] bounded by the ranks
    above it.
    """
    den, r = plan.den, len(atoms)
    states = {-1: {0}}  # V[-1] = -1, so rank 0's span (0, V[0]] may be empty
    for i, atom in enumerate(atoms):
        t = plan.tables[atom] if atom in plan.tables else verifier._table(plan, atom)
        grown, ors = {}, set()
        for v in range(i, den - r + i + 2):
            ors = ors | states[v - 1] if v - 1 in states else ors
            if t[v]:
                ors = {x | t[v] for x in ors}
            grown[v] = ors
        states = grown
    return any(verifier._fails(plan, x) for ors in states.values() for x in ors)


def _one_word(word):
    """The rows of the automaton whose only word is ``word``."""
    return tuple(((atom, i + 1),) for i, atom in enumerate(word))


@pytest.mark.parametrize("name", ["b2", "a1", "a2", "a3", "a1xb2", "a3xb2"])
def test_packed_soft_verdicts_are_the_per_check_rule(name):
    # S and F, the conclusions and premises of every check, read off the verdict tables
    alg = load_named(name)
    rng = random.Random(17)
    seen = set()  # counterexample? of the maps
    refuted = 0  # the bits of the relations that some map refutes
    for den in (4, 8):
        # the catalog, the false specs and route "all": every soft kind, interval and
        # relation shape, and "all" at every family's bounds, each read over its own range
        specs = [(spec, None) for spec in catalog()]
        specs += [(spec, kw.get("interval")) for _, _, spec, kw in FALSE_SPECS]
        specs += [(TheoremSpec("all-routes", "in", FULL, "filter", "plain", route="all"), None)]
        checks = [_plan((spec,), den, interval).checks[0] for spec, interval in specs]
        checks += [check._replace(fuzzy=(*check.fuzzy[:3], "all")) for check in checks
                   if check.fuzzy and check.fuzzy[0] in ("filter", "boolean")]
        assert {check.fuzzy[1:3] for check in checks if check.fuzzy and check.fuzzy[3] == "all"} \
            == {(0, den), (0, den // 2), (den // 2, den), (1, den - 1)}
        iff = sum(1 << b for b, check in enumerate(checks) if check.iff)
        relations = sum(1 << b for b, check in enumerate(checks) if check.fuzzy is None)
        plan = verifier._pack(checks, den)
        every = (1 << plan.width) - 1
        sets = verifier._walk(alg, 2, None)[1]
        memo = verifier._atoms(alg, sets)
        carrier = memo[(1 << alg.n) - 1]
        # the carrier's atom and the distinct atoms of the up-sets
        pool = list(dict.fromkeys([carrier, *(memo[up] for up in sets[:-1])]))
        # each atom again with one scan bit flipped: scan bits that do not follow from the kinds
        pool += [atom ^ 1 << len(KINDS) + rng.randrange(len(fuzzy._SCAN_KEYS)) for atom in pool]
        decoded = [(atom & (1 << len(KINDS)) - 1, atom >> len(KINDS)) for atom in pool]
        # the run's carrier, and one failing random kinds and no scan, as a carrier does
        carriers = (carrier, rng.getrandbits(len(KINDS)))
        maps = [(carrier, tuple(rng.randrange(len(decoded)) for _ in range(r - 1)), r)
                for carrier in carriers
                for r in range(1, min(alg.n, den + 1) + 1) for _ in range(4)]
        for carrier, picks, r in maps:
            key = (carrier, *(pool[i] for i in picks))
            atoms = [decoded[i] for i in picks]
            listed = []  # (V, S, F) of each value tuple the literal rule refutes
            for vals in itertools.combinations(range(den + 1), r):
                soft, fail, rel = _literal_verdicts(checks, den, carrier, atoms, vals)
                bits = _span_bits(plan, key, vals)
                assert (bits & every, bits >> plan.width) == (soft, fail), (key, vals)
                decision = (soft & ~fail) | (fail & ~soft & iff)
                # the one rule decides each relation as its literal rule does
                assert decision & relations == rel, (key, vals)
                if decision:
                    listed.append((vals, soft, fail))
                seen.add(bool(decision))
                refuted |= rel
            # the oracle, and the DP on the profile's one-word automaton, flag the profile iff
            # some value tuple is refuted, and the listing is exactly those value tuples
            flags = verifier._flags(plan, (carrier, r, _one_word(key[1:])))
            assert _decide(plan, key) == bool(listed) == flags[-1], key
            assert verifier._listed(plan, key) == listed, key
    assert seen == {False, True}
    assert refuted  # so the relation bits were asserted on refutations too


def test_a_flagged_rank_count_whose_maps_all_pass_is_an_internal_error(monkeypatch, capsys):
    # the DP, run for its tables, flags every rank count; the catalog holds on a3 at D = 2
    alg, flags = load_algebra(FIXTURE_DOCS["a3"]), verifier._flags
    monkeypatch.setattr(verifier, "_flags", lambda plan, key: tuple(
        flag or True for flag in flags(plan, key)))
    with pytest.raises(RuntimeError) as raised:
        verify_all(alg, 2)
    assert str(raised.value) == "the DP flags rank count 1, and none of its maps fails"
    # the CLI reports an internal error; the real verdicts, kept on the plan, go with it
    verifier._plan.cache_clear()
    monkeypatch.setattr(fixtures, "resolve_algebra", lambda target: alg)
    assert main(["verify-all", "a3", "--grid", "2"]) == 3
    assert "RuntimeError: the DP flags rank count 1" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a2", "a3"])
def test_a_forward_premise_failing_alone_decides_no_map(name):
    # An MV- (a2) or G-filter (a3) that is not Boolean fails a forward relation's
    # premise alone.  The catalog holds, so no profile has a map to record.
    alg = load_named(name)
    den = 4
    plan = _plan(tuple(catalog()), den, None)
    forward = sum(1 << b for b, check in enumerate(plan.checks) if not check.iff)
    every = (1 << plan.width) - 1
    carrier = alg.tables.atoms[(1 << alg.n) - 1]
    alone = 0  # the checks whose premise fails alone on some map
    ranks = min(alg.n, den + 1)
    rows = _automaton(alg, ranks)
    assert verifier._flags(plan, (carrier, ranks, rows)) == (False,) * ranks
    for r, profiles in enumerate(_words(rows, ranks), 1):
        for profile in profiles:
            key = (carrier, *profile)
            assert not _decide(plan, key)
            atoms = [(atom & (1 << len(KINDS)) - 1, atom >> len(KINDS)) for atom in profile]
            for vals in itertools.combinations(range(den + 1), r):
                bits = _span_bits(plan, key, vals)
                soft, fail = bits & every, bits >> plan.width & every
                assert (soft, fail) == _literal_verdicts(plan.checks, den, carrier, atoms,
                                                         vals)[:2]
                assert not soft & ~fail
                alone |= fail & ~soft
    assert alone and not alone & ~forward


def _random_plan(rng):
    """A plan with random verdict tables for 8 atoms and 2 checks, some biconditional, on a grid
    of 1 to 6 steps; as in every plan, cut index 0 (the carrier on every map) sets no bit."""
    den, width = rng.randint(1, 6), 2
    return verifier._pack([], den)._replace(
        tables={atom: (0, *(rng.choice([0, 0, rng.getrandbits(2 * width)]) for _ in range(den)))
                for atom in range(8)},
        width=width, iff=rng.getrandbits(width))


def test_the_dp_decides_as_every_value_tuple_does_on_random_plans():
    # random plans, and random profiles of every rank count: far more shapes than the
    # catalog's; the DP runs on each profile's one-word automaton and flags each prefix
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        plan = _random_plan(rng)
        every = (1 << plan.width) - 1
        for r in range(1, plan.den + 2):
            key = tuple(rng.getrandbits(3) for _ in range(r))
            refuted = []  # of each prefix of the profile
            for length in range(1, r + 1):
                found = False
                for vals in itertools.combinations(range(plan.den + 1), length):
                    bits = _span_bits(plan, key[:length], vals)
                    soft, fail = bits & every, bits >> plan.width
                    found |= bool(soft & ~fail | fail & ~soft & plan.iff)
                refuted.append(found)
                assert _decide(plan, key[:length]) == found, (plan.tables, plan.iff, key)
            flags = verifier._flags(plan, (key[0], r, _one_word(key[1:])))
            assert flags == tuple(refuted), (plan.tables, plan.iff, key)
            seen.update(refuted)
    assert seen == {False, True}


def test_the_dp_decides_as_the_oracle_does_on_random_automata():
    # random automata of up to 8 nodes, each node read as one letter, some reached by several
    # words of one length and some at several lengths: the DP merges the words that reach a
    # node, and flags a rank count iff the oracle flags one of its words
    rng = random.Random(37)
    seen, merged = set(), 0
    for _ in range(300):
        plan, size = _random_plan(rng), rng.randint(1, 8)
        letters = [rng.getrandbits(3) for _ in range(size)]
        rows = tuple(tuple((letters[to], to) for to in sorted(
            rng.sample(range(j + 1, size), rng.randint(0, size - j - 1)))) for j in range(size))
        ranks, paths = rng.randint(1, plan.den + 1), {(0, ())}
        for _ in range(ranks - 1):  # some node reached by two words of one length
            paths = {(to, (*word, atom)) for node, word in paths for atom, to in rows[node]}
            merged += len(paths) > len({node for node, _ in paths})
        levels = _words(rows, ranks)
        flags = verifier._flags(plan, (letters[0], ranks, rows))
        assert flags == tuple(any(_decide(plan, (letters[0], *word)) for word in level)
                              for level in levels), (plan.tables, plan.iff, letters, rows)
        seen.update(flags)
    assert seen == {False, True} and merged


DP_RUNS = [(name, den) for name in ("b2", "a1", "a2", "a3", "a3xb2", "a1xa1", "a2xb2")
           for den in (2, 4, 8, 16)]


def _profile_flags(alg, plan, ranks):
    """The DP's flag of each rank count, and whether the oracle flags some profile of it."""
    rows = _automaton(alg, ranks)
    carrier = alg.tables.atoms[(1 << alg.n) - 1]
    return (verifier._flags(plan, (carrier, ranks, rows)),
            tuple(any(_decide(plan, (carrier, *word)) for word in level)
                  for level in _words(rows, ranks)))


@pytest.mark.parametrize("name, den", DP_RUNS)
def test_the_dp_flags_a_rank_count_iff_the_oracle_flags_one_of_its_profiles(name, den):
    # the catalog in one plan, and each false spec in its own, each plan fresh
    alg = load_named(name)
    ranks = min(alg.n, den + 1)
    plans = [verifier._pack(_plan(None, den, None).checks, den)]
    # a false spec's interval, (1/4, 1/2], needs quarters; on halves it takes the default one
    plans += [verifier._pack(_plan((spec,), den, kw.get("interval") if den % 4 == 0 else None)
                             .checks, den) for _, _, spec, kw in FALSE_SPECS]
    results = [_profile_flags(alg, plan, ranks) for plan in plans]
    assert all(flags == oracle for flags, oracle in results)
    assert results[0][0] == (False,) * ranks  # the catalog holds


@pytest.mark.parametrize("name, den, spec, kw", FALSE_SPECS, ids=[s[2].id for s in FALSE_SPECS])
def test_the_dp_flags_the_false_specs_rank_counts_as_the_oracle_does(name, den, spec, kw):
    alg = load_named(name)
    for den in (den, 2 * den):
        plan = verifier._pack(_plan((spec,), den, kw.get("interval")).checks, den)
        flags, oracle = _profile_flags(alg, plan, min(alg.n, den + 1))
        assert flags == oracle and any(flags), den


@pytest.mark.parametrize("name, den, spec, kw", FALSE_SPECS, ids=[s[2].id for s in FALSE_SPECS])
def test_false_specs_refute_every_map_the_literal_rule_does_at_twice_the_grid(name, den, spec,
                                                                               kw):
    # exhaustive at 2D; the count is by brute force over every weak order and value tuple,
    # the atoms of every cut classified and scanned on their own, not by the verifier's memo
    alg, den = load_algebra(FIXTURE_DOCS[name]), 2 * den
    report = verify(alg, spec, den, interval=kw.get("interval"))
    assert report.mode == "exhaustive" and report.checked == (den + 1) ** alg.n
    check = _plan((spec,), den, kw.get("interval")).checks[0]
    carrier = classify_filter(alg, (1 << alg.n) - 1).fails
    atom = functools.cache(functools.partial(_atom, alg))
    total = 0
    for r in range(1, min(alg.n, den + 1) + 1):
        profiles = collections.Counter(tuple(map(atom, order)) for order in weak_orders(alg.n, r))
        for atoms, orders in profiles.items():
            for vals in itertools.combinations(range(den + 1), r):
                soft, fail, _ = _literal_verdicts((check,), den, carrier, list(atoms), vals)
                total += orders * bool(soft & ~fail | fail & ~soft & check.iff)
    assert total and len(report.counterexamples) == total


@pytest.mark.parametrize("name", ["a3", "a2xb2"])
def test_exhaustive_runs_on_a_fine_grid_confirm_the_catalog(name):
    # a fresh algebra and plan: 25^6 and 25^8 maps, decided without listing a value tuple
    alg, den = load_named(name) if "x" in name else load_algebra(FIXTURE_DOCS[name]), 24
    verifier._plan.cache_clear()
    reports = verify_all(alg, den)
    assert len(reports) == 31
    assert all(rep.mode == "exhaustive" and rep.confirmed and rep.checked == (den + 1) ** alg.n
               for rep in reports)


def test_verdicts_do_not_depend_on_earlier_runs(monkeypatch):
    # one algebra object, warmed at other grids and by a two-valued run, then the golden runs
    alg = load_algebra(FIXTURE_DOCS["a1"])
    verify_all(alg, 4)
    verify_all(alg, 16)
    assert verify_all(alg, 16, budget=1000)[0].mode == "two-valued"
    algs = {"a1": alg}
    targets = []
    monkeypatch.setattr(fixtures, "resolve_algebra", lambda target: targets.append(target)
                        or algs.setdefault(target, load_algebra(FIXTURE_DOCS[target])))
    # runs at one grid on other algebras share its plan, and a false spec verified
    # between two of them gets its own
    name, den, spec, kw = FALSE_SPECS[0]
    assert (name, den) == ("a1", 4)
    false_doc = json.loads((GOLDEN / "false-specs.json").read_text())[0]
    for run in ("verify-all-a1-D4", "verify-all-b2-D4", "verify-all-a2-D4", "verify-all-a3-D2",
                "verify-all-a1-D8"):
        golden = (GOLDEN / f"{run}.json").read_bytes()
        assert render_cli(CLI_RUNS[run]).encode() == golden, run
        if run == "verify-all-a1-D4":
            assert verify(alg, spec, den, **kw).to_doc() == false_doc
    assert targets == ["a1", "b2", "a2", "a3", "a1"]


@pytest.mark.parametrize("name, den, spec, kw", FALSE_SPECS, ids=[s[2].id for s in FALSE_SPECS])
def test_false_specs_do_not_depend_on_the_memo(name, den, spec, kw):
    cold = verify(load_algebra(FIXTURE_DOCS[name]), spec, den, **kw).counterexamples
    cold_catalog = [rep.to_doc() for rep in verify_all(load_algebra(FIXTURE_DOCS[name]), den)]
    alg = load_algebra(FIXTURE_DOCS[name])
    verify_all(alg, den + 2)
    before = [rep.to_doc() for rep in verify_all(alg, den)]
    warm = [verify(alg, spec, den, **kw).counterexamples for _ in range(2)]
    # the catalog at the same grid again, after the false spec
    after = [rep.to_doc() for rep in verify_all(alg, den)]
    assert cold and warm == [cold, cold]
    assert before == after == cold_catalog


def test_a_plan_holds_only_immutable_values(a1):
    # every shape of check: relations, intervals, route "all" and each family
    specs = (*catalog(), *(spec for _, _, spec, _ in FALSE_SPECS))
    plan = _plan(specs, 4, None)
    assert plan is _plan(specs, 4, None)  # one plan, shared by the runs
    verifier._verify(a1, specs, 4, verifier._walk(a1, 4, None))
    # the plan's two memos: the verdict table of each atom met, a tuple of ints, and the
    # verdict of each rank count, keyed by the carrier's atom, the rank count and the rows of
    # the chain automaton the DP walked: (letter, node number) pairs, letters being atoms
    bound = 1 << len(KINDS) + len(fuzzy._SCAN_KEYS)
    assert plan.tables and all(type(atom) is int and 0 <= atom < bound for atom in plan.tables)
    # no level or bound has cut index 0: not even the atom with every bit set meets a side there
    assert verifier._table(plan, bound - 1)[0] == 0
    (carrier, ranks, rows), flags = next(iter(plan.verdicts.items()))
    assert len(plan.verdicts) == 1 and True in flags  # the false specs flag some
    assert type(carrier) is int and 0 <= carrier < bound and type(ranks) is int
    assert type(flags) is tuple and len(flags) == ranks and all(type(f) is bool for f in flags)
    assert type(rows) is tuple and all(
        type(row) is tuple and all(type(atom) is int and 0 <= atom < bound and type(to) is int
                                   for atom, to in row) for row in rows)
    parts, seen = [plan._replace(tables=tuple(plan.tables.values()), verdicts=())], 0
    while parts:
        part = parts.pop()
        seen += 1
        if isinstance(part, tuple):
            parts.extend(part)
        else:
            assert part is None or type(part) in (int, bool, str), type(part)
    assert seen > len(specs) * 8


def test_runs_share_the_plan_and_not_the_reports(a1):
    first, second = verify_all(a1, 4), verify_all(a1, 4)
    assert all(x is not y and x.counterexamples is not y.counterexamples
               for x, y in zip(first, second))
    expected = [rep.to_doc() for rep in second]
    first[0].counterexamples.append({"mu": "planted"})
    first[1].checked = 0
    assert [rep.to_doc() for rep in second] == expected
    assert [rep.to_doc() for rep in verify_all(a1, 4)] == expected


ALL_ROUTES = TheoremSpec("all-routes", "in", FULL, "boolean", "plain", route="all")


@pytest.mark.parametrize("name", ["b2", "a1", "a2", "a3", "a3xa1"])
def test_warm_runs_give_the_reports_of_cold_runs(monkeypatch, name):
    doc = product_doc(*name.split("x")) if "x" in name else FIXTURE_DOCS[name]
    ups = len(up_sets(load_algebra(doc)))

    def two_valued(den):  # a budget of the two-valued maps; on b2 they are all the maps
        return den + 1 + (ups + 1) * math.comb(den + 1, 2)

    # the catalog at several grids in mixed order, a false spec and route "all"
    _, grid, spec, kw = next((s for s in FALSE_SPECS if s[0] == name), FALSE_SPECS[0])
    if name == "a3xa1":  # 24 elements: exhaustive at D = 2 only
        runs = [(2, None), (4, two_valued(4)), (12, two_valued(12)), (2, None)]
        kw, route_kw = {**kw, "budget": two_valued(grid)}, {"budget": two_valued(4)}
    else:
        runs = [(4, None), (12, two_valued(12)), (2, None), (8, None), (4, None)]
        route_kw = {}
    runs = [lambda alg, den=den, budget=budget: verify_all(alg, den, budget)
            for den, budget in runs]
    runs += [lambda alg: [verify(alg, spec, grid, **kw)],
             lambda alg: [verify(alg, ALL_ROUTES, 4, **route_kw)]]

    def docs(reports):
        return [rep.to_doc() for rep in reports]

    calls = []  # the per-algebra and per-plan work a warm run must not repeat

    def counted(fn, f):
        def wrapper(*args):
            calls.append(fn)
            return f(*args)
        return wrapper

    for fn in ("scan_fails", "chain_automaton", "_table", "_flags"):
        monkeypatch.setattr(verifier, fn, counted(fn, getattr(verifier, fn)))
    alg = load_algebra(doc)
    warm = [docs(run(alg)) for run in runs]  # each run after the others, on one algebra
    verifier._plan.cache_clear()  # and with no plan kept
    cold = [docs(run(load_algebra(doc))) for run in runs]
    assert warm == cold
    assert set(calls) == {"scan_fails", "chain_automaton", "_table", "_flags"}
    assert any(doc["counterexamples"] for reports in cold for doc in reports)
    assert any(doc["mode"] == "two-valued" for reports in cold for doc in reports) == \
        (alg.n > 2)  # b2's two-valued maps are all its maps
    calls.clear()
    for _ in range(2):
        for run, expected in zip(runs, cold):
            reports = run(alg)
            assert docs(reports) == expected
            for rep in reports:  # a caller's edits reach no later run
                rep.counterexamples.append({"mu": "planted"})
                rep.checked = 0
    assert calls == []


def test_the_memos_go_with_their_owners():
    alg = load_algebra(FIXTURE_DOCS["a3"])
    verify_all(alg, 8)
    verify_all(alg, 12, budget=10**6)
    tables = alg.tables
    assert tables.up_sets and tables.atoms and tables.automaton
    refs = weakref.ref(alg), weakref.ref(tables)
    del alg, tables
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    # an evicted plan's tables and verdicts go with it: a new plan for its key starts with none
    a1 = load_algebra(FIXTURE_DOCS["a1"])
    plan = _plan(None, 6, None)
    verify_all(a1, 6)
    assert plan.tables and plan.verdicts
    for den in range(8, 8 + 2 * _plan.cache_info().maxsize, 2):
        _plan(None, den, None)
    fresh = _plan(None, 6, None)
    assert fresh is not plan and fresh.tables == fresh.verdicts == {}
    verify_all(a1, 6)
    assert fresh.tables.keys() == plan.tables.keys()


def test_the_plan_cache_keeps_nothing_of_the_algebra():
    alg = load_algebra(FIXTURE_DOCS["a1"])
    verify_all(alg, 4)
    name, den, spec, kw = FALSE_SPECS[0]
    assert verify(alg, spec, den, **kw).counterexamples  # recorded maps and witnesses
    algebra_ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert algebra_ref() is None


def test_the_plan_cache_is_bounded(a1):
    bound = _plan.cache_info().maxsize
    assert 2 <= bound <= 16
    for den in range(2, 2 * bound + 6, 2):  # more grids than the bound
        assert verify_all(a1, den, budget=5000)[0].confirmed
        assert _plan.cache_info().currsize <= bound


@pytest.mark.parametrize("spec, interval, message", [
    (catalog_by_id()["T3.12"], ParameterInterval(F(1, 3), F(2, 3)),
     "interval (1/3,2/3] is not aligned to the 1/4 grid"),
    (TheoremSpec("bad-kind", "x", FULL, "filter", "plain"), None, "unknown soft-set kind 'x'"),
])
def test_a_plan_that_raises_raises_again(a1, spec, interval, message):
    for _ in range(2):  # the error is not cached as a plan
        with pytest.raises(ValueError) as raised:
            verify(a1, spec, 4, interval=interval)
        assert str(raised.value) == message


def test_specs_hash_and_plan_by_value(a1):
    t312 = catalog_by_id()["T3.12"]
    assert hash(dataclasses.replace(t312)) == hash(t312)
    # the catalog entry's id with its own interval: another spec, and another plan
    interval = ParameterInterval(F(1, 4), F(1, 2))
    own = dataclasses.replace(t312, interval=interval)
    refuted = dataclasses.replace(own, soft_kind="q")
    assert len({own, refuted, t312}) == 3
    assert _plan((t312,), 4, None).checks[0].levels == (2, 3)
    assert _plan((own,), 4, None).checks[0].levels == (2,)
    # interleaved, each gets its own verdicts
    expected = verify(a1, t312, 4).to_doc()
    assert expected["confirmed"]
    assert verify(a1, own, 4).to_doc() == verify(a1, t312, 4, interval=interval).to_doc()
    assert verify(a1, t312, 4).to_doc() == expected
    doc = verify(a1, refuted, 4).to_doc()
    assert len(doc["counterexamples"]) == 172
    assert verify(a1, dataclasses.replace(refuted, id="q-own"), 4).to_doc() == \
        {**doc, "theorem": "q-own"}
    assert verify(a1, t312, 4).to_doc() == expected


def _disagreement(alg, den, nums, kind="boolean"):
    """The message the plain ``route="all"`` check of the kind raises on the map, or None."""
    try:
        check_fuzzy_witness(FuzzySet(alg, den, nums), "plain", kind, "all")
    except AlgebraError as single:
        return str(single)
    return None


def test_disagreeing_routes_name_the_map(monkeypatch):
    # a fresh algebra: the broken scan below must not reach a shared memo
    alg = load_algebra(FIXTURE_DOCS["a1"])
    # broken: fails every non-constant map, so the Boolean formulations disagree
    monkeypatch.setitem(fuzzy._SCANS, ("boolean", "contraction"),
                        lambda alg, c: ("broken",) if len(set(c)) > 1 else None)
    spec = TheoremSpec("all-routes", "in", FULL, "boolean", "plain", route="all")
    with pytest.raises(AlgebraError, match="boolean formulations disagree on ") as raised:
        verify(alg, spec, 4, budget=50)  # the 45 two-valued maps of the 625
    # the lexicographically first two-valued map on which the check alone raises
    first = next(nums for nums in two_valued_maps(alg, 4) if _disagreement(alg, 4, nums))
    assert _disagreement(alg, 4, first) == str(raised.value)


def test_disagreeing_routes_name_the_first_map_in_an_exhaustive_run(monkeypatch):
    alg = load_algebra(FIXTURE_DOCS["a3"])
    mp = fuzzy._SCANS["filter", "mp"]
    # broken: also fails every non-constant map, so "product" and "mp" disagree
    monkeypatch.setitem(fuzzy._SCANS, ("filter", "mp"),
                        lambda alg, c: mp(alg, c) or (("broken",) if len(set(c)) > 1 else None))
    spec = TheoremSpec("all-routes", "in", FULL, "filter", "plain", route="all")
    with pytest.raises(AlgebraError, match="filter formulations disagree on ") as raised:
        verify(alg, spec, 2)
    def message(nums):
        try:
            check_fuzzy_witness(FuzzySet(alg, 2, nums), "plain", "filter", "all")
        except AlgebraError as single:
            return str(single)
        return None

    # the lexicographically first map on which the check alone raises
    first = next(nums for nums in itertools.product(range(3), repeat=alg.n) if message(nums))
    assert message(first) == str(raised.value)
    # the pass's own order, (rank count, weak order, values), meets another one first
    maps = (grid_map(order, vals, alg.n) for r in range(1, alg.n + 1)
            for order in weak_orders(alg.n, r) for vals in itertools.combinations(range(3), r))
    assert next(nums for nums in maps if message(nums)) != first


def test_disagreeing_routes_are_named_where_the_soft_side_fails_too(monkeypatch):
    # The contraction form now passes every map.  On a fuzzy filter that is
    # not a Boolean one, the other forms fail, and so does the soft side:
    # the map is no counterexample, and only the disagree bit records it.
    alg = load_algebra(FIXTURE_DOCS["a1"])
    monkeypatch.setitem(fuzzy._SCANS, ("boolean", "contraction"), lambda alg, c: None)
    spec = TheoremSpec("all-routes", "in", FULL, "boolean", "plain", route="all")
    with pytest.raises(AlgebraError, match="boolean formulations disagree on ") as raised:
        verify(alg, spec, 4)
    first = next(nums for nums in itertools.product(range(5), repeat=alg.n)
                 if _disagreement(alg, 4, nums))
    assert _disagreement(alg, 4, first) == str(raised.value)
    mu = FuzzySet(alg, 4, first)
    assert not classify_soft(build_soft(mu, FULL, "in"), "boolean")[0]


def _fails_off_constants(alg, c):
    return ("broken",) if len(set(c)) > 1 else None


@pytest.mark.parametrize("broken", [_fails_off_constants, lambda alg, c: None],
                         ids=["fails-non-constant", "passes-all"])
@pytest.mark.parametrize("kind, route", [(kind, route) for kind, routes in
                                         fuzzy.PLAIN_ROUTES.items() for route in routes])
@pytest.mark.parametrize("name", ["a1", "a3"])
def test_disagreeing_routes_name_the_first_map_whichever_form_breaks(monkeypatch, name,
                                                                       kind, route, broken):
    # a fresh algebra, one plain formulation broken: the run raises on the lexicographically
    # first map on which the check alone raises, and confirms when there is none
    alg = load_algebra(FIXTURE_DOCS[name])
    monkeypatch.setitem(fuzzy._SCANS, (kind, route), broken)
    maps = itertools.product(range(3), repeat=alg.n)
    first = next(filter(None, (_disagreement(alg, 2, nums, kind) for nums in maps)), None)
    spec = TheoremSpec("all-routes", "in", FULL, kind, "plain", route="all")
    if first is None:
        assert verify(alg, spec, 2).checked == 3 ** alg.n
    else:
        with pytest.raises(AlgebraError) as raised:
            verify(alg, spec, 2)
        assert str(raised.value) == first


@pytest.mark.parametrize("name, den", [("a1", 4), ("a3", 2)])
def test_formulations_disagree_on_some_map_iff_on_some_set(name, den):
    # Scan bits flipped at random on a few up-sets, route "all" at the bounds of every family:
    # some map disagrees iff some set's own bits do, and _disagreement names the least such
    # (map, key).  By the literal rule, a map's bits are the OR of its cuts' at lo+1..hi, each
    # set's own (flipped on an up-set), and the formulations disagree when their verdicts
    # differ, a failing conjunct failing them all.
    alg = load_named(name)
    rng = random.Random(29)
    ups = up_sets(alg)
    sets = (*ups, next(mask for mask in itertools.count(1) if mask not in ups))
    own = [fuzzy.scan_fails(alg, s) for s in range(1 << alg.n)]
    maps = list(itertools.product(range(den + 1), repeat=alg.n))  # lexicographic
    cuts = [[sum(1 << x for x, k in enumerate(nums) if k >= j) for j in range(den + 1)]
            for nums in maps]
    bounds = sorted({(0, den), (0, den // 2), (den // 2, den), default_thresholds(den)})
    every = [(kind, lo, hi, "all") for lo, hi in bounds for kind in fuzzy.PLAIN_ROUTES]
    conjunct = fuzzy._CONJUNCT_BIT

    def verdicts(bits, kind):  # does each formulation fail?
        gate = conjunct if fuzzy._conjoined(kind) else 0
        return {bool(bits & (gate | 1 << fuzzy._SCAN_KEYS.index((kind, r))))
                for r in fuzzy.PLAIN_ROUTES[kind]}

    named = set()  # the bounds of the keys named
    for _ in range(40):
        bits = list(own)
        for up in rng.sample(ups, rng.randrange(min(len(ups), 3) + 1)):
            bits[up] ^= 1 << rng.randrange(len(fuzzy._SCAN_KEYS))
        # some keys only: with lo = 0 the least map is never one of a greater lo
        keys = rng.sample(every, rng.randrange(len(every)) + 1)
        firsts = []  # (the first map that disagrees, key) of each key with one
        for key in keys:
            kind, lo, hi, _ = key
            ored = (functools.reduce(operator.or_, [bits[cut] for cut in at[lo + 1:hi + 1]])
                    for at in cuts)
            first = next((nums for nums, b in zip(maps, ored) if len(verdicts(b, kind)) == 2), None)
            if first is not None:
                firsts.append((first, key))
        expected = min(firsts, default=None)
        atoms = [bits[s] << len(KINDS) | rng.getrandbits(len(KINDS)) for s in sets]
        assert verifier._disagreement(keys, dict(zip(sets, atoms)), alg.n) == expected
        named.add(expected and expected[1][1:3])
    assert None in named and any(bounds and bounds[0] for bounds in named)  # lo > 0 named
