"""Golden reports, compared byte for byte.

They pin every verdict, the order of counterexamples and the formatting
of ``mu`` and of witnesses.  The false specs are the only inputs that
produce counterexamples, so they pin the counterexample paths: both
directions of a fuzzy/soft theorem, both directions of a soft relation,
in- and q-cuts, a generic interval, the plain ``all`` route and a
two-valued run, which walks only the maps a off U, b on U of the
verifier's two-valued pass.

Regenerate (only when a report format changes on purpose) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from products import product_doc
from softmtl import soft
from softmtl.cli import main
from softmtl.fixtures import FIXTURE_DOCS, load_fixture
from softmtl.fuzzy import FuzzySet
from softmtl.soft import FULL, LOWER, UPPER, ParameterInterval
from softmtl.verifier import TheoremSpec, verify

GOLDEN = Path(__file__).parent / "golden"

# Explicit budget, so a change of the CLI's default budget cannot change a run.
CLI_RUNS = {
    "verify-all-a1-D4": ["verify-all", "a1", "--grid", "4", "--budget", "1000000", "--json"],
    "verify-all-a1-D8": ["verify-all", "a1", "--grid", "8", "--budget", "1000000", "--json"],
    "verify-all-a2-D4": ["verify-all", "a2", "--grid", "4", "--budget", "1000000", "--json"],
    "verify-all-a3-D2": ["verify-all", "a3", "--grid", "2", "--budget", "1000000", "--json"],
    "verify-all-a3-D8": ["verify-all", "a3", "--grid", "8", "--budget", "1000000", "--json"],
    "verify-all-b2-D4": ["verify-all", "b2", "--grid", "4", "--budget", "1000000", "--json"],
    "verify-all-a3-D12-two-valued": ["verify-all", "a3", "--grid", "12", "--budget", "1000000",
                                     "--json"],
    "verify-all-a3-D2-text": ["verify-all", "a3", "--grid", "2", "--budget", "1000000"],
    "verify-a3-T4.1.12-D4-interval": ["verify", "a3", "T4.1.12", "--grid", "4", "--interval",
                                      "1/4,3/4", "--budget", "1000000", "--json"],
    "filters-a3-classify": ["filters", "a3", "--classify", "--json"],
    "witness-a3-T4.3.12-D2": ["witness", "a3", "T4.3.12", "--grid", "2", "--json"],
    "soft-build-a1-in-boolean": ["soft-build", "a1", "--mu", "0=1/4,a=1/2,b=1/2,1=1",
                                 "--soft", "in", "--kind", "boolean"],
    "soft-build-a3-q-mv": ["soft-build", "a3", "--mu", "0=0,a=1/2,b=1,c=1/2,d=0,1=1",
                           "--soft", "q", "--interval", "1/2,1", "--kind", "mv", "--json"],
    "fuzzy-check-a2-thresholds-mv": ["fuzzy-check", "a2", "--mu", "0=0,a=1/4,b=3/4,1=1",
                                     "--family", "thresholds", "--interval", "1/3,2/3",
                                     "--kind", "mv", "--json"],
    "check-algebra-non-mtl-a1": ["check-algebra", "non_mtl.json", "--json"],
    "filters-a3xb2-classify": ["filters", "a3_b2.json", "--classify", "--json"],
}


def non_mtl_doc():
    """a1 with a . b changed to 0: no longer an MTL-algebra."""
    doc = copy.deepcopy(FIXTURE_DOCS["a1"])
    doc["prod"][1][2] = "0"
    return doc


# The document files that runs name, written to a temporary directory for
# the run; CI writes the same files under the same names.
DOC_FILES = {"non_mtl.json": non_mtl_doc, "a3_b2.json": lambda: product_doc("a3", "b2")}

# The runs that do not exit 0: a level, a variant or an axiom fails.
EXIT_CODES = {"soft-build-a1-in-boolean": 1, "fuzzy-check-a2-thresholds-mv": 1,
              "check-algebra-non-mtl-a1": 1}

# (fixture, grid, spec, verify keyword arguments)
FALSE_SPECS = (
    ("a1", 4, TheoremSpec("false-eiq-over-full", "in", FULL, "filter", "eiq"), {}),
    ("a3", 2, TheoremSpec("false-q-lower-eiq-boolean", "q", LOWER, "boolean", "eiq"), {}),
    ("a1", 4, TheoremSpec("false-q-full-eiq-filter", "q", FULL, "filter", "eiq"), {}),
    ("a2", 4, TheoremSpec("false-thresholds-q-mv", "q", None, "mv", "thresholds"),
     {"interval": ParameterInterval(Fraction(1, 4), Fraction(1, 2))}),
    ("a2", 4, TheoremSpec("false-boolean-iff-mv", "in", FULL, "boolean", None,
                          relation=("boolean", ("mv",))), {}),
    ("a3", 2, TheoremSpec("false-g-iff-boolean-and-mv", "q", UPPER, "g", None,
                          relation=("g", ("boolean", "mv"))), {}),
    ("a1", 4, TheoremSpec("false-plain-boolean-all-routes", "in", LOWER, "boolean", "plain",
                          route="all"), {}),
    ("a3", 4, TheoremSpec("false-eiq-mv-two-valued", "in", UPPER, "mv", "eiq"),
     {"budget": 400}),
)


def render_cli(argv, code=0) -> str:
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name in DOC_FILES.keys() & set(argv):
            Path(tmp, name).write_text(json.dumps(DOC_FILES[name]()))
        argv = [str(Path(tmp, arg)) if arg in DOC_FILES else arg for arg in argv]
        with contextlib.redirect_stdout(buf):
            assert main(argv) == code, argv
    return buf.getvalue()


def render_false_specs() -> str:
    docs = [verify(load_fixture(name), spec, den, **kw).to_doc()
            for name, den, spec, kw in FALSE_SPECS]
    assert all(doc["counterexamples"] for doc in docs)
    return json.dumps(docs, indent=2, sort_keys=True) + "\n"


def render(name) -> str:
    if name == "false-specs":
        return render_false_specs()
    return render_cli(CLI_RUNS[name], EXIT_CODES.get(name, 0))


def golden_path(name) -> Path:
    """The golden of a run: a ``.json`` file, or ``.txt`` for a run that prints text."""
    text = name in CLI_RUNS and "--json" not in CLI_RUNS[name]
    return GOLDEN / f"{name}.{'txt' if text else 'json'}"


NAMES = (*CLI_RUNS, "false-specs")


@pytest.mark.parametrize("name", NAMES)
def test_golden_report(name):
    assert render(name).encode() == golden_path(name).read_bytes()


def test_false_specs_are_recorded_from_the_numerators(monkeypatch):
    # a counterexample's mu and witnesses come from the decision bits and the numerators
    def refused(*args, **kwargs):
        raise AssertionError("the verifier built a FuzzySet or a SoftSet")

    monkeypatch.setattr(FuzzySet, "__post_init__", refused)
    monkeypatch.setattr(soft, "build_soft", refused)
    monkeypatch.setattr(soft, "classify_soft", refused)
    assert render("false-specs").encode() == (GOLDEN / "false-specs.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in NAMES:
        golden_path(name).write_bytes(render(name).encode())
