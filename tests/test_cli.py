import argparse
import copy
import dataclasses
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from products import product_doc
from softmtl import cli, fixtures, verifier
from softmtl.cli import _emit, _json, build_parser, main
from softmtl.fixtures import FIXTURE_DOCS, load_fixture
from softmtl.verifier import VerificationReport, verify, verify_all
from test_golden import CLI_RUNS, FALSE_SPECS, GOLDEN, golden_path, render_cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_algebra_fixture(capsys):
    code, out, _ = run(capsys, "check-algebra", "a1")
    assert code == 0
    assert "PASS" in out


def test_check_algebra_json(capsys):
    code, out, _ = run(capsys, "check-algebra", "a2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["axioms"]["ok"] and doc["laws"]["ok"]


def _mutated(name, edit):
    doc = copy.deepcopy(FIXTURE_DOCS[name])
    edit(doc)
    return json.dumps(doc).encode()


def _non_mtl(doc):
    doc["prod"][1][2] = "0"


def test_check_algebra_mutated_file(tmp_path, capsys):
    # check-algebra reports tables that every other command rejects with exit 2
    path = tmp_path / "broken.json"
    path.write_bytes(_mutated("a1", _non_mtl))
    code, out, _ = run(capsys, "check-algebra", str(path))
    assert code == 1
    assert "FAIL" in out


def test_unknown_target_is_usage_error(capsys):
    code, _, err = run(capsys, "check-algebra", "nope")
    assert code == 2
    assert "error" in err


def test_filters_classify(capsys):
    code, out, _ = run(capsys, "filters", "a1", "--classify")
    assert code == 0
    assert "3 filter(s)" in out
    assert "{a,b,1}  [boolean g mv]" in out


def test_classify_subset(capsys):
    code, out, _ = run(capsys, "classify", "a2", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["filter"] and doc["mv"] and not doc["g"] and not doc["boolean"]


def test_fuzzy_check_and_exit_codes(capsys):
    code, _, _ = run(capsys, "fuzzy-check", "a1",
                     "--mu", "0=1/4,a=1/2,b=1/2,1=1", "--family", "plain")
    assert code == 0
    code, out, _ = run(capsys, "fuzzy-check", "a1",
                       "--mu", "0=0,a=0,b=1,1=1", "--family", "plain")
    assert code == 1
    assert "FAILS" in out


def test_fuzzy_check_bad_value(capsys):
    code, _, err = run(capsys, "fuzzy-check", "a1", "--mu", "0=1/3,a=0,b=0,1=1")
    assert code == 2
    for command in ("fuzzy-check", "soft-build"):
        for mu, fragment in (("0=0,a=0,b=0,1=1,zz=1/2", "unknown element 'zz'"),
                             ("0=0,a=0,b=0,1=1,1=0", "repeated membership entry for element '1'")):
            code, out, err = run(capsys, command, "a1", "--mu", mu)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err


def test_soft_build(capsys):
    code, out, _ = run(capsys, "soft-build", "a1",
                       "--mu", "0=1/4,a=1/2,b=1/2,1=1", "--kind", "filter")
    assert code == 0
    assert "t=1/2: {a,b,1}" in out


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "a1", "T3.3")
    assert code == 0
    assert "confirmed" in out


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "a1", "T9.9")
    assert code == 2


def test_verify_all_a1(capsys):
    code, out, _ = run(capsys, "verify-all", "a1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 31
    assert all(r["confirmed"] for r in doc["reports"])


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "a3", "T4.3.12", "--grid", "2")
    assert code == 0
    assert "converse fails" in out
    code, out, _ = run(capsys, "witness", "a3", "T4.3.12", "--grid", "2", "--json")
    # the indicator of the G-filter {a, 1}, which is not Boolean
    assert json.loads(out)["witness"] == {"0": "0", "a": "1", "b": "0", "c": "0", "d": "0",
                                          "1": "1"}
    code, out, _ = run(capsys, "witness", "b2", "T4.3.12")
    assert code == 0
    assert out == "T4.3.12: no strictness witness on any grid\n"


def test_odd_grid_rejected(capsys):
    code, _, _ = run(capsys, "verify", "a1", "T3.3", "--grid", "3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("fuzzy-check", "a1", "--mu", "0=0,a=0,b=0,1=0"),
    ("soft-build", "a1", "--mu", "0=0,a=0,b=0,1=0"),
    ("verify", "a1", "T3.3"),
    ("verify-all", "a1"),
    ("witness", "a3", "T4.3.12"),
])
def test_zero_grid_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--grid", "0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "got 0" in err


def _mu(target, a="1"):
    """A membership of the fixture ``target`` that is ``a`` at a and 1 elsewhere."""
    return ",".join(f"{label}={a if label == 'a' else 1}"
                    for label in FIXTURE_DOCS[target]["labels"])


# each command that takes --grid and prints a --json doc: its arguments after the target,
# and the grids the doc names
GRID_DOCS = {
    "soft-build": (lambda target: ["--mu", _mu(target)], lambda doc: {doc["den"]}),
    "verify": (lambda target: ["T3.12"], lambda doc: {doc["den"]}),
    "verify-all": (lambda target: [], lambda doc: {r["den"] for r in doc["reports"]}),
    "witness": (lambda target: ["T4.3.12"],
                lambda doc: {doc["soft"]["den"]} if doc["witness"] else set()),
}


@pytest.mark.parametrize("command", sorted(GRID_DOCS))
@pytest.mark.parametrize("target, grid, den", [
    ("a1", (), 4),
    ("a3", (), 2),  # 6 elements
    ("a1", ("--grid", "2"), 2),
    ("a3", ("--grid", "4"), 4),
])
def test_default_grid_is_4_or_2_from_six_elements(capsys, monkeypatch, command, target, grid,
                                                  den):
    # a witness doc names no grid when there is no witness (a1), so read it off the call
    called = []
    find = verifier.find_strictness_witness
    monkeypatch.setattr(verifier, "find_strictness_witness",
                        lambda alg, theorem, d: called.append(d) or find(alg, theorem, d))
    extra, dens = GRID_DOCS[command]
    code, out, _ = run(capsys, command, target, *extra(target), *grid, "--json")
    assert code == 0
    assert dens(json.loads(out)) | set(called) == {den}


@pytest.mark.parametrize("target, grid, on_grid", [
    ("a1", (), True),
    ("a3", (), False),
    ("a1", ("--grid", "2"), False),
    ("a3", ("--grid", "4"), True),
])
def test_fuzzy_check_reads_values_on_the_default_grid(capsys, target, grid, on_grid):
    code, out, err = run(capsys, "fuzzy-check", target, "--mu", _mu(target, a="1/4"), *grid)
    if on_grid:
        assert code in (0, 1) and err == ""
    else:
        assert code == 2 and out == ""
        assert err == "error: membership value 1/4 is not on the 1/2 grid\n"


@pytest.mark.parametrize("argv", [
    ("check-algebra",),
    ("filters",),
    ("classify", "1"),
    ("fuzzy-check", "--mu", _mu("a1")),
    ("soft-build", "--mu", _mu("a1")),
    ("verify", "T3.12"),
    ("verify-all",),
    ("witness", "T4.3.12"),
], ids=lambda argv: argv[0])
def test_main_resolves_the_target_once(capsys, monkeypatch, argv):
    targets = []
    resolve = fixtures.resolve_algebra
    monkeypatch.setattr(fixtures, "resolve_algebra",
                        lambda target: targets.append(target) or resolve(target))
    code, _, _ = run(capsys, argv[0], "a1", *argv[1:])
    assert code == 0 and targets == ["a1"]
    code, out, err = run(capsys, argv[0], "nope", *argv[1:])
    assert code == 2 and out == "" and targets == ["a1", "nope"]
    assert err.count("\n") == 1 and err.startswith("error: ") and "'nope'" in err


def test_parser_is_reused_across_calls(capsys):
    assert build_parser() is build_parser()
    for _ in range(2):
        code, out, _ = run(capsys, "fuzzy-check", "a1", "--mu", "0=0,a=0,b=0,1=1",
                           "--family", "thresholds", "--interval", "1/4,3/4", "--json")
        assert code == 0 and json.loads(out)["family"] == "thresholds"
        # no option of the call before carries over
        code, out, _ = run(capsys, "fuzzy-check", "a1", "--mu", "0=0,a=0,b=1,1=1")
        assert code == 1 and out.startswith("plain filter (default): FAILS")
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        assert "verify-all" in capsys.readouterr().out
        code, out, _ = run(capsys, "verify-all", "b2", "--grid", "2")
        assert code == 0 and out.endswith("31 theorems, 0 with counterexamples\n")
        for bad in (["verify-all"], ["verify-all", "a1", "--grid", "x"], ["nope"]):
            with pytest.raises(SystemExit) as exited:
                main(bad)
            assert exited.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "usage: softmtl" in captured.err
        code, out, _ = run(capsys, "verify", "a1", "T3.12", "--interval", "1/4,1/2")
        assert code == 0 and "confirmed" in out
        code, out, _ = run(capsys, "witness", "b2", "T4.3.12")
        assert code == 0 and "no strictness witness" in out


def _outcome(capsys, call):
    """(what call() returns, or the code it exits with; stdout; stderr)."""
    try:
        result = call()
    except SystemExit as exited:
        result = exited.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["verify-all", "-h"], ["nope"], ["verify-all"],
    ["verify-all", "a1", "--grid", "x"],
    ["witness", "a3", "T4.3.12", "--budget", "10"],  # left over: the top-level message
    ["verify-all", "a1", "--json", "extra"],
    ["verify-all", "a1", "--grid", "2", "--json"], ["filters", "a3", "--classify"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    expected = _outcome(capsys, lambda: build_parser().parse_args(argv))
    parsed = []
    monkeypatch.setattr(cli, "_emit", lambda args, doc, lines: parsed.append(args))
    got = _outcome(capsys, lambda: main(argv))
    if isinstance(expected[0], argparse.Namespace):  # parsed: main runs it with that namespace
        assert got == (0, "", "") and parsed == [expected[0]]
    else:  # help or a usage error: the same exit code, stdout and stderr
        assert got == expected and parsed == []
    # the console script's main() reads sys.argv[1:] and takes the same path
    monkeypatch.setattr(sys, "argv", ["softmtl", *argv])
    first, parsed[:] = parsed[:], []
    assert _outcome(capsys, main) == got and parsed == first


@pytest.mark.parametrize("argv", [
    ("verify", "a1", "T3.3", "--budget", "0"),
    ("verify-all", "a1", "--budget", "-1"),
    ("verify-all", "a1", "--grid", "1000000", "--budget", "10"),  # below the two-valued maps
])
def test_vacuous_budget_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "budget" in err


def test_an_over_budget_run_stops_listing_up_sets(tmp_path, capsys):
    # b2^6 has about 7.8M up-sets; 1000 maps allow 331 at the default D = 2
    path = tmp_path / "b2-power-6.json"
    path.write_text(json.dumps(product_doc(*["b2"] * 6)))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-all", str(path), "--budget", "1000")
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert err == ("error: budget 1000 is below the two-valued maps of the 1/2 grid on 64 "
                   "elements, whose order has more than 331 up-sets\n")


def test_a_budget_below_the_constant_maps_names_no_negative_count(capsys):
    # the 1000001 constant maps alone are over 10, so (10 - 1000001) // C(1000001, 2) - 1 < 0
    code, out, err = run(capsys, "verify-all", "a1", "--grid", "1000000", "--budget", "10")
    assert code == 2 and out == ""
    assert err == ("error: budget 10 is below the two-valued maps of the 1/1000000 grid on 4 "
                   "elements, whose order has more than 0 up-sets\n")


@pytest.mark.parametrize("option", ["--budget", "--seed"])
def test_witness_takes_no_sampling_options(capsys, option):
    with pytest.raises(SystemExit) as exited:
        main(["witness", "a3", "T4.3.12", option, "10"])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_interval_only_on_generic_theorems(capsys):
    code, out, err = run(capsys, "verify", "a1", "T3.3", "--interval", "1/4,3/4")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "T3.12" in err
    code, out, _ = run(capsys, "verify", "a1", "T3.12", "--interval", "1/4,1/2")
    assert code == 0 and "confirmed" in out


def test_fuzzy_check_interval_only_for_thresholds(capsys):
    code, out, err = run(capsys, "fuzzy-check", "a1", "--mu", "0=0,a=0,b=0,1=1",
                         "--family", "plain", "--interval", "1/4,3/4")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "thresholds" in err
    code, out, _ = run(capsys, "fuzzy-check", "a1", "--mu", "0=0,a=0,b=0,1=1",
                       "--family", "thresholds", "--interval", "1/4,3/4")
    assert code == 0 and "HOLDS" in out


@pytest.mark.parametrize("interval", ["1/3,2/3", "1/3,1/2", "0,1"])
def test_bad_generic_interval_is_usage_error(capsys, interval):
    code, out, err = run(capsys, "verify", "a1", "T3.12", "--interval", interval)
    assert code == 2 and out == ""
    assert err.count("\n") == 1


_NO_INTERVAL = "error: cannot parse interval ''; expected e.g. '0,1' or '1/4,3/4'"


@pytest.mark.parametrize("argv, doc, line", [
    (("classify", "a1", "zz"), None, "error: unknown element label 'zz'"),
    (("fuzzy-check", "a1", "--mu", "a"), None,
     "error: bad membership entry 'a'; expected label=value"),
    (("fuzzy-check", "a1", "--mu", "0=x,a=0,b=0,1=1"), None, "error: bad membership value 'x'"),
    (("fuzzy-check", "a1", "--mu", "0=0,a=0,b=0"), None,
     "error: no membership value for element '1'"),
    (("fuzzy-check", "a1", "--mu", "0=0,a=0,b=0,1=1", "--family", "thresholds"), None,
     "error: --family thresholds needs --interval, e.g. '1/4,3/4'"),
    # an empty --interval is given, and as bad as any other unparsable one
    (("verify", "a1", "T3.3", "--interval", ""), None, _NO_INTERVAL),
    (("soft-build", "a1", "--mu", "0=0,a=1/2,b=1,1=1", "--interval", ""), None, _NO_INTERVAL),
    (("check-algebra",), {"labels": ["0"], "prod": [["0"]], "res": [["0"]]},
     "error: carrier must contain at least bottom and top"),
    (("check-algebra",), {**FIXTURE_DOCS["b2"], "bottom": "1"},
     "error: bottom and top must differ"),
    # the family is plain, but the kind has no routes
    (("fuzzy-check", "a1", "--mu", "0=0,a=0,b=0,1=1", "--family", "plain", "--kind", "mv",
      "--route", "product"), None,
     "error: plain mv has no route 'product'; only plain filter and plain boolean have routes"),
], ids=["unknown-label", "mu-no-equals", "mu-bad-value", "mu-missing-element",
        "thresholds-no-interval", "verify-empty-interval", "soft-build-empty-interval",
        "one-label", "bottom-is-top", "route-on-a-kind-without-routes"])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, doc, line):
    if doc is not None:  # the target is an algebra file
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(doc))
        argv = (argv[0], str(path), *argv[1:])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", line + "\n")


def test_a_refuted_verify_prints_its_first_five_counterexamples(capsys, monkeypatch):
    # no catalog theorem is refuted, so a false spec joins the catalog
    name, den, spec, _ = FALSE_SPECS[0]
    assert (name, den, spec.id) == ("a1", 4, "false-eiq-over-full")
    catalog = verifier.catalog_by_id()
    monkeypatch.setattr(verifier, "catalog_by_id", lambda: {**catalog, spec.id: spec})
    code, out, err = run(capsys, "verify", "a1", spec.id, "--grid", "4")
    first, *rest = out.splitlines()
    assert code == 1 and err == ""
    assert first == ("false-eiq-over-full on 0/a/b/1 at D=4 (exhaustive, 625 fuzzy sets): "
                     "113 counterexample(s)")
    rep = verify(load_fixture("a1"), spec, 4)
    assert len(rest) == 5 and all(" fails for mu=" in line for line in rest)
    assert rest == [f"  {ce['direction']} fails for mu={ce['mu']} witness={ce['witness']}"
                    for ce in rep.counterexamples[:5]]
    # with --json, every counterexample, as json.dumps prints the report's document
    code, out, err = run(capsys, "verify", "a1", spec.id, "--grid", "4", "--json")
    assert (code, err) == (1, "")
    assert out == json.dumps(rep.to_doc(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("content, argv, fragment", [
    (b"[1,2]", ("check-algebra",), "object"),
    (_mutated("b2", lambda d: d.update(labels=5)), ("check-algebra",), "labels"),
    (_mutated("b2", lambda d: d.update(labels="01")), ("check-algebra",), "labels"),
    (_mutated("a1", lambda d: d["prod"][1].__setitem__(2, ["a"])), ("check-algebra",),
     "unknown label ['a']"),
    (_mutated("a1", lambda d: d.pop("res")), ("check-algebra",), "'res' is missing"),
    (_mutated("a1", lambda d: d.update(bottom="z")), ("check-algebra",), "'z' in 'bottom'"),
    ('{"labels": ["0", "\u00e9"]}'.encode("latin-1"), ("check-algebra",), "decode"),
    (_mutated("a1", _non_mtl), ("filters",), "inconsistent"),
    (_mutated("a1", _non_mtl), ("verify-all",), "inconsistent"),
    (_mutated("a1", _non_mtl), ("witness", "T4.3.12"), "inconsistent"),
    (_mutated("a1", _non_mtl), ("classify", "1"), "inconsistent"),
    (_mutated("a1", _non_mtl), ("fuzzy-check", "--mu", "0=0,a=0,b=0,1=1"), "inconsistent"),
    # every level empty: no filter is read, and the tables are still checked
    (_mutated("a1", _non_mtl), ("soft-build", "--mu", "0=0,a=0,b=0,1=0"), "inconsistent"),
    # json.loads runs out of stack before it reads the document
    (b"[" * 100_000 + b"]" * 100_000, ("filters",), "algebra.json' nests too deeply"),
], ids=["not-object", "labels-int", "labels-string", "list-cell", "missing-res",
        "unknown-bottom", "undecodable", "non-mtl-filters", "non-mtl-verify-all",
        "non-mtl-witness", "non-mtl-classify", "non-mtl-fuzzy-check", "non-mtl-soft-build",
        "deeply-nested"])
def test_malformed_algebra_file_is_usage_error(tmp_path, capsys, content, argv, fragment):
    path = tmp_path / "algebra.json"
    path.write_bytes(content)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("internal")

    monkeypatch.setattr(verifier, "verify_all", broken)
    code, out, err = run(capsys, "verify-all", "a1")
    assert code == 3 and out == ""
    assert "Traceback" in err and "ZeroDivisionError: internal" in err


def _subprocess(args, env=None, **kwargs):
    # buffered stdout, as in a terminal session: unwritten output outlives a failed write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | (env or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, stderr=subprocess.PIPE,
                          timeout=60, **kwargs)


@pytest.mark.parametrize("argv, expected", [
    (("verify-all", "a1", "--json"), 0),
    (("fuzzy-check", "a1", "--mu", "0=0,a=0,b=1,1=1"), 1),
    (("--help",), 0),
])
def test_broken_pipe_keeps_exit_code(argv, expected):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = _subprocess(["-m", "softmtl.cli", *argv], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == expected
    assert proc.stderr == b""


@pytest.mark.parametrize("argv, expected", [
    (("verify-all", "a1", "--grid", "3"), 2),  # bad input, not "counterexamples found"
    (("verify-all", "a1", "--grid", "4"), 0),
])
def test_the_package_runs_as_the_command(argv, expected):
    proc = _subprocess(["-m", "softmtl", *argv], stdout=subprocess.PIPE)
    assert proc.returncode == expected, proc.stderr
    if expected:
        assert proc.stderr == b"error: grid denominator must be positive and even, got 3\n"
    else:
        assert proc.stdout.endswith(b"31 theorems, 0 with counterexamples\n")


def test_budget_environment_variable_is_ignored():
    proc = _subprocess(["-c", "import softmtl.cli"], env={"SOFTMTL_BUDGET": "abc"},
                       stdout=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr


# what the report template must print as json.dumps prints the report's to_doc():
# str fields of any text (non-ASCII, quotes, backslashes, control characters,
# U+2028; the example adds a lone surrogate), and counterexamples whose labels
# are listed against their sorted order, some sharing a report's labels, with
# empty and non-empty witness lists
TEXT = st.text(max_size=4)
LABELS = st.lists(TEXT, max_size=4, unique=True).map(lambda labels: sorted(labels, reverse=True))


@st.composite
def _counterexamples(draw):
    shared = draw(LABELS)  # as in a run, where every map is over one algebra's labels
    return [{"direction": draw(TEXT), "mu": {label: draw(TEXT) for label in labels},
             "witness": draw(st.lists(TEXT, max_size=3))}
            for labels in draw(st.lists(st.just(shared) | LABELS, max_size=4))]


@st.composite
def _any_report(draw):
    return VerificationReport(draw(TEXT), draw(TEXT), draw(st.integers()), draw(st.integers()),
                              draw(TEXT), draw(_counterexamples()))


# reports in runs, as verify-all writes them: each report's run fields (algebra,
# checked, den, mode) are the last report's, differ from them in exactly one
# field, or go back to an earlier report's (A-B-A), and confirmed and refuted
# reports mix within a run
RUN_FIELDS = (TEXT, st.integers(), st.integers(), TEXT)


@st.composite
def _reports_in_runs(draw):
    fields, seen, reports = [draw(field) for field in RUN_FIELDS], [], []
    for _ in range(draw(st.integers(1, 8))):
        step = draw(st.sampled_from(["same", "one", "back"]))
        if step == "one":
            i = draw(st.integers(0, 3))
            fields[i] = draw(RUN_FIELDS[i].filter(lambda value, old=fields[i]: value != old))
        elif step == "back":
            fields = list(draw(st.sampled_from(seen or [fields])))
        seen.append(tuple(fields))
        algebra, checked, den, mode = fields
        reports.append(VerificationReport(draw(TEXT), algebra, den, checked, mode,
                                          draw(_counterexamples())))
    return reports


CE = {"direction": "forward", "mu": {"1": "1", "0": "1/2"}, "witness": ["1/2", "boolean"]}


@settings(max_examples=200)
@given(st.lists(_any_report(), min_size=1, max_size=3) | _reports_in_runs())
@example([VerificationReport("\u2028", "b/\u00e9", 4, 0, "\\\"", [
    {"direction": "x", "mu": {"b": "1", "\x00": "", "a": "\u2028"}, "witness": []},
    {"direction": "", "mu": {"b": "0", "\x00": "1/2", "a": "1"}, "witness": ["\ud83d", "\n"]}])])
@example([VerificationReport("T1", "a/b", 4, 25, "exhaustive"),        # run A
          VerificationReport("T2", "a/b", 4, 25, "exhaustive", [CE]),  # refuted in run A
          VerificationReport("T3", "a/b", 4, 25, "exhaustive"),
          VerificationReport("T4", "a/c", 4, 25, "exhaustive"),        # algebra differs
          VerificationReport("T5", "a/b", 4, 25, "exhaustive"),        # back to run A
          VerificationReport("T6", "a/b", 4, 26, "exhaustive", [CE]),  # checked differs
          VerificationReport("T7", "a/b", 2, 26, "exhaustive"),        # den differs
          VerificationReport("T8", "a/b", 2, 26, "two-valued"),        # mode differs
          VerificationReport("T9", "a/b", 2, 26, "two-valued", [CE])])
def test_the_report_template_prints_any_report_as_json_dumps_prints_its_doc(reports):
    for rep in reports:
        assert _json(rep) == json.dumps(rep.to_doc(), indent=2, sort_keys=True)
    docs = {"reports": [rep.to_doc() for rep in reports]}
    assert _json({"reports": reports}) == json.dumps(docs, indent=2, sort_keys=True)



# documents the report template does not write: each goes to json.dumps whole,
# keys that are not str, floats and str subclasses included, and so does a
# "reports" list that is empty or sits beside another key
@pytest.mark.parametrize("doc", [{1: "a"}, {"a": [0.5]}, [{"b": {True: None}}],
                                 ("x", {"y": [2, 1e300]}), {"z": type("Label", (str,), {})("s")},
                                 {"reports": []}, {"reports": [{"theorem": "T"}], "den": 4}])
def test_a_document_the_writer_cannot_print_goes_to_json_dumps(monkeypatch, capsys, doc):
    def refused(reports, newline):
        raise AssertionError("a document that is not a report went to the report template")

    monkeypatch.setattr(cli, "_reports", refused)
    _emit(argparse.Namespace(json=True), doc, [])
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

@functools.cache
def _reports(source):
    """The reports of a false spec, by its id, or of the catalog on a fixture at a grid."""
    if source in ("a1-D4", "a3-D12"):
        name, den = source.split("-D")
        return verify_all(load_fixture(name), int(den), budget=1_000_000)
    (name, den, spec, kw), = [entry for entry in FALSE_SPECS if entry[2].id == source]
    return [verify(load_fixture(name), spec, den, **kw)]


def _first_difference(text, expected):
    """None, or the first line where two texts differ: pytest's own diff of long texts is slow."""
    if text == expected:
        return None
    pairs = zip(text.splitlines(), expected.splitlines())
    return next(((i, a, b) for i, (a, b) in enumerate(pairs, 1) if a != b),
                ("lengths", len(text), len(expected)))


@pytest.mark.parametrize("source", [entry[2].id for entry in FALSE_SPECS] + ["a1-D4", "a3-D12"])
def test_the_report_template_prints_what_json_dumps_prints_of_its_doc(source):
    reports = _reports(source)
    assert source != "a3-D12" or {rep.mode for rep in reports} == {"two-valued"}
    for rep in reports:
        for doc, plain in ((rep, rep.to_doc()), ({"reports": [rep]}, {"reports": [rep.to_doc()]})):
            expected = json.dumps(plain, indent=2, sort_keys=True)
            assert _first_difference(_json(doc), expected) is None


def test_the_report_template_prints_every_field_and_confirmed():
    for rep in _reports("a1-D4")[:1] + _reports("false-eiq-over-full"):
        keys = list(json.loads(_json(rep)))
        assert keys == sorted([f.name for f in dataclasses.fields(VerificationReport)]
                              + ["confirmed"])


@pytest.mark.parametrize("name", ["verify-all-a3-D2", "verify-all-a3-D2-text",
                                  "verify-a3-T4.1.12-D4-interval"])
def test_the_verify_commands_print_without_a_report_document(monkeypatch, name):
    def refused(self):
        raise AssertionError("a report was turned into a dict")

    monkeypatch.setattr(VerificationReport, "to_doc", refused)
    assert render_cli(CLI_RUNS[name]).encode() == golden_path(name).read_bytes()


REPORT_KEYS = {f.name for f in dataclasses.fields(VerificationReport)} | {"confirmed"}


def _as_reports(doc):
    """``doc`` with each report document in it turned back into its ``VerificationReport``."""
    if isinstance(doc, dict) and doc.keys() == REPORT_KEYS:
        rep = VerificationReport(**{key: doc[key] for key in REPORT_KEYS - {"confirmed"}})
        assert rep.to_doc() == doc
        return rep
    if isinstance(doc, dict):
        return {key: _as_reports(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_as_reports(item) for item in doc]
    return doc


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
def test_the_json_writer_prints_every_golden(path):
    text = path.read_text()
    doc = json.loads(text)
    if type(doc) is list:  # the FALSE_SPECS reports, written here as verify-all writes its own
        doc = {"reports": doc}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert _json(_as_reports(doc)) + "\n" == text
