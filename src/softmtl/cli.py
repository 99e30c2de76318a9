"""Command-line front door.

``main`` alone parses ``argv`` (``sys.argv[1:]`` when None), resolves
the target algebra, fills in the default grid (4, or 2 for carriers of 6
or more elements) and prints.  When ``argv[0]`` names a command, that
command's own parser reads the rest, one argparse pass rather than two;
no arguments, ``-h``, an unknown command and any argument left over go
through the top-level parser, so help, usage and error messages are as
argparse prints them (:func:`_parse`).  Each command ``cmd_x(args, alg)``
only computes its report and returns ``(code, doc, lines)``: the exit
code, the ``--json`` document and the text lines, an iterable that
:func:`_emit` reads only for text output.  ``--json`` prints what
``json.dumps(doc, indent=2, sort_keys=True)`` prints, from one of two
writers (:func:`_json`): ``verify`` and ``verify-all`` put their
``VerificationReport`` objects themselves in the document, and
:func:`_reports` writes them as ``json.dumps`` writes their ``to_doc()``:
each report's seven fields from one template, the four a run's reports
share (``algebra``, ``checked``, ``den``, ``mode``) formatted once per
run of consecutive reports that share them, the counterexamples by
``json.dumps``; every other document goes to ``json.dumps``.  So text
output builds no report document at all.

Exit codes: 0 = success / confirmed, 1 = counterexamples or failed
axioms, 2 = bad input, 3 = internal error.  Input is checked where it is
read, and a bad one raises ValueError (OSError for files); ``main`` alone
turns that into a one-line ``error:`` message and exit 2, and any other
exception into a traceback and exit 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from fractions import Fraction

from . import algebra, filters, fixtures, fuzzy, soft, verifier
from .verifier import VerificationReport

DEFAULT_BUDGET = 1_000_000

_escape = json.encoder.encode_basestring_ascii


def _parse_mu(alg, den, text):
    mapping = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad membership entry {item!r}; expected label=value")
        lab, val = (part.strip() for part in item.split("=", 1))
        if lab in mapping:
            raise ValueError(f"repeated membership entry for element {lab!r}")
        try:
            mapping[lab] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad membership value {val!r}") from None
    return fuzzy.FuzzySet.from_mapping(alg, den, mapping)


def _write(text):
    """Print text and flush stdout, so that a closed pipe fails here, not at exit.

    The reader may have gone (say, `| head`); the exit code still carries
    the verdict.  The unwritten text stays buffered, so point stdout at
    devnull for the flush at exit.
    """
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _reports(reports, newline) -> str:
    """What ``json.dumps`` writes for each report's ``to_doc()``, joined by "," and ``newline``.

    A report's seven keys, sorted, come from one template.  Its four
    run-wide fields (``algebra``, ``checked``, ``den``, ``mode``) are
    formatted once for each run of consecutive reports that share them: the
    str fields escaped and the ints written by ``int.__repr__``, both of
    which raise TypeError on a value that is not a str or an int (the
    verifier never puts a bool there).  A confirmed report is then that
    run's prefix and its escaped ``theorem``.  A refuted one's
    counterexamples are ``json.dumps``' own, the report's indentation added
    after each newline (a JSON string holds no raw newline).
    """
    inner, end, run, out = newline + "  ", newline + "}", None, []
    for rep in reports:
        key = (rep.algebra, rep.checked, rep.den, rep.mode)
        if key != run:  # a new run: its prefix, and the confirmed report's
            run = key
            head = (f'{{{inner}"algebra": {_escape(rep.algebra)}'
                    f',{inner}"checked": {int.__repr__(rep.checked)},{inner}"confirmed": ')
            tail = (f',{inner}"den": {int.__repr__(rep.den)}'
                    f',{inner}"mode": {_escape(rep.mode)},{inner}"theorem": ')
            confirmed = f'{head}true,{inner}"counterexamples": []{tail}'
        if rep.counterexamples:
            ces = json.dumps(rep.counterexamples, indent=2, sort_keys=True).replace("\n", inner)
            out.append(f'{head}false,{inner}"counterexamples": {ces}{tail}'
                       f'{_escape(rep.theorem)}{end}')
        else:
            out.append(confirmed + _escape(rep.theorem) + end)
    return ("," + newline).join(out)


def _json(doc) -> str:
    """What ``json.dumps(doc, indent=2, sort_keys=True)`` prints, with a report as its ``to_doc()``.

    A report, alone (``verify``) or as ``{"reports": [...]}``
    (``verify-all``), is written by :func:`_reports`; ``json.dumps`` writes
    every other document.
    """
    if type(doc) is VerificationReport:
        return _reports([doc], "\n")
    if type(doc) is dict and list(doc) == ["reports"] and doc["reports"]:
        inner = "\n    "
        return '{\n  "reports": [' + inner + _reports(doc["reports"], inner) + "\n  ]\n}"
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit(args, doc, text_lines):
    """Print the text lines, or with ``--json`` the document as :func:`_json` writes it.

    The text lines are read only here, so ``verify`` and ``verify-all``
    format theirs only for text output, and their reports are written from
    templates rather than turned into documents first.
    """
    _write(("\n".join(text_lines) if not args.json else _json(doc)) + "\n")


def cmd_check_algebra(args, alg):
    axioms = algebra.validate_mtl(alg)
    laws = algebra.check_derived_laws(alg)
    doc = {"algebra": "/".join(alg.labels), "axioms": axioms.to_doc(), "laws": laws.to_doc()}
    lines = [f"algebra {'/'.join(alg.labels)}: "
             f"axioms {'PASS' if axioms.ok else 'FAIL'}, "
             f"derived laws {'PASS' if laws.ok else 'FAIL'}"]
    for name, rep in (("axiom", axioms), ("law", laws)):
        for ax in rep.failed_axioms:
            first = rep.violations[ax][0]
            lines.append(f"  {name} {ax}: {len(rep.violations[ax])} violation(s), "
                         f"first at ({', '.join(first)})")
    return (0 if axioms.ok and laws.ok else 1), doc, lines


def cmd_filters(args, alg):
    masks = filters.enumerate_filters(alg)
    rows = []
    for m in masks:
        entry = {"elements": filters.labels_of(alg, m)}
        if args.classify:
            cls = filters.classify_filter(alg, m)
            entry.update(boolean=cls.boolean, g=cls.g, mv=cls.mv)
        rows.append(entry)
    lines = [f"{len(masks)} filter(s)"]
    for entry in rows:
        flags = ""
        if args.classify:
            flags = "  [" + " ".join(k for k in ("boolean", "g", "mv") if entry[k]) + "]"
        lines.append("  {" + ",".join(entry["elements"]) + "}" + flags)
    return 0, {"filters": rows}, lines


def cmd_classify(args, alg):
    mask = filters.mask_of(alg, args.elements)
    cls = filters.classify_filter(alg, mask)
    doc = {"elements": filters.labels_of(alg, mask), "filter": cls.is_filter,
           "boolean": cls.boolean, "g": cls.g, "mv": cls.mv,
           "witnesses": {k: list(v) for k, v in cls.witnesses.items()}}
    lines = [f"{{{','.join(doc['elements'])}}}: filter={cls.is_filter} "
             f"boolean={cls.boolean} g={cls.g} mv={cls.mv}"]
    for key, wit in cls.witnesses.items():
        lines.append(f"  {key} fails at ({', '.join(wit)})")
    return 0, doc, lines


def cmd_fuzzy_check(args, alg):
    mu = _parse_mu(alg, args.grid, args.mu)
    alpha = beta = None
    if args.family == "thresholds":
        if args.interval is None:
            raise ValueError("--family thresholds needs --interval, e.g. '1/4,3/4'")
        iv = soft.ParameterInterval.parse(args.interval)
        alpha, beta = iv.lo, iv.hi
    elif args.interval is not None:
        raise ValueError(f"--interval is only meaningful for --family thresholds, "
                         f"not {args.family}")
    witness = fuzzy.check_fuzzy_witness(mu, args.family, args.kind, args.route, alpha, beta)
    ok = witness is None
    doc = {"mu": mu.to_doc(), "family": args.family, "kind": args.kind,
           "route": args.route, "holds": ok,
           "witness": None if ok else [str(w) for w in witness]}
    lines = [f"{args.family} {args.kind} ({args.route}): {'HOLDS' if ok else 'FAILS'}"]
    if not ok:
        lines.append(f"  violated at ({', '.join(map(str, witness))})")
    return (0 if ok else 1), doc, lines


def cmd_soft_build(args, alg):
    den = args.grid
    mu = _parse_mu(alg, den, args.mu)
    iv = soft.FULL if args.interval is None else soft.ParameterInterval.parse(args.interval)
    st = soft.build_soft(mu, iv, args.soft)
    ok, witness = soft.classify_soft(st, args.kind)
    doc = st.to_doc()
    doc.update(kind_checked=args.kind, holds=ok)
    lines = [f"{args.soft}-soft set over {iv}, grid 1/{den}:"]
    for t, labels in doc["levels"]:
        lines.append(f"  t={t}: {{{','.join(labels)}}}")
    lines.append(f"every level a {args.kind}: {ok}" +
                 ("" if ok else f" (fails at t={Fraction(witness[0], den)})"))
    return (0 if ok else 1), doc, lines


def cmd_verify(args, alg):
    den = args.grid
    specs = verifier.catalog_by_id()
    if args.theorem not in specs:
        raise ValueError(f"unknown theorem id {args.theorem!r}; known: {', '.join(specs)}")
    iv = None if args.interval is None else soft.ParameterInterval.parse(args.interval)
    rep = verifier.verify(alg, specs[args.theorem], den, budget=args.budget, interval=iv)

    def lines():  # formatted only when printed as text
        status = "confirmed" if rep.confirmed else f"{len(rep.counterexamples)} counterexample(s)"
        yield (f"{rep.theorem} on {rep.algebra} at D={den} ({rep.mode}, "
               f"{rep.checked} fuzzy sets): {status}")
        for ce in rep.counterexamples[:5]:
            yield f"  {ce['direction']} fails for mu={ce['mu']} witness={ce['witness']}"

    return (0 if rep.confirmed else 1), rep, lines()


def cmd_verify_all(args, alg):
    reports = verifier.verify_all(alg, args.grid, budget=args.budget)
    bad = len([rep for rep in reports if rep.counterexamples])  # the refuted reports

    def lines():  # formatted only when printed as text
        for rep in reports:
            status = "confirmed" if rep.confirmed else f"FAILED ({len(rep.counterexamples)})"
            yield f"{rep.theorem:9s} {rep.mode:10s} {rep.checked:6d} checked  {status}"
        yield f"{len(reports)} theorems, {bad} with counterexamples"

    return (0 if bad == 0 else 1), {"reports": reports}, lines()


def cmd_witness(args, alg):
    mu = verifier.find_strictness_witness(alg, args.theorem, args.grid)
    if mu is None:
        return 0, {"theorem": args.theorem, "witness": None}, [
            f"{args.theorem}: no strictness witness on any grid"]
    st = soft.build_soft(mu, soft.FULL, "in")
    return 0, {"theorem": args.theorem, "witness": mu.to_doc(), "soft": st.to_doc()}, [
        f"{args.theorem}: converse fails for mu={mu.to_doc()}"]


@functools.cache
def build_parser():
    """The argument parser, built once per process: building it costs more than a small run."""
    p = argparse.ArgumentParser(prog="softmtl",
                                description="MTL-algebra finite-model verification workbench")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, grid=True, budget=False):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(fn=fn)
        sp.add_argument("target", help="fixture name (a1, a2, a3, b2) or JSON file path")
        sp.add_argument("--json", action="store_true", help="structured output")
        if grid:
            sp.add_argument("--grid", type=int, metavar="D",
                            help="grid denominator (even; default 4, or 2 for n >= 6)")
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="max grid maps; over it, the two-valued ones (same verdicts)")
        return sp

    command("check-algebra", cmd_check_algebra, "validate axioms and derived laws", grid=False)

    sp = command("filters", cmd_filters, "enumerate all filters", grid=False)
    sp.add_argument("--classify", action="store_true")

    sp = command("classify", cmd_classify, "classify one subset", grid=False)
    sp.add_argument("elements", nargs="+", metavar="LABEL")

    sp = command("fuzzy-check", cmd_fuzzy_check, "check a fuzzy-filter variant")
    sp.add_argument("--mu", required=True, help="e.g. '0=0,a=1/2,b=3/4,1=1'")
    sp.add_argument("--family", choices=fuzzy.FAMILIES, default="plain")
    sp.add_argument("--kind", choices=fuzzy.KINDS, default="filter")
    sp.add_argument("--route", default="default")
    sp.add_argument("--interval", help="alpha,beta for the thresholds family")

    sp = command("soft-build", cmd_soft_build, "build and classify a level-cut soft set")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--soft", choices=soft.SOFT_KINDS, default="in")
    sp.add_argument("--interval", help="lo,hi (default 0,1)")
    sp.add_argument("--kind", choices=fuzzy.KINDS, default="filter")

    sp = command("verify", cmd_verify, "verify one catalog theorem", budget=True)
    sp.add_argument("theorem")
    sp.add_argument("--interval", help="override (alpha,beta] for generic-interval theorems")

    command("verify-all", cmd_verify_all, "verify the whole catalog", budget=True)

    sp = command("witness", cmd_witness, "find a converse-failure witness")
    sp.add_argument("theorem", help="T4.2.13 or T4.3.12")
    p.commands = sub.choices  # each command's own parser, for _parse
    return p


def _parse(argv):
    """``build_parser().parse_args(argv)``, with one parser pass where argv[0] names a command.

    Then the command's own parser reads the rest, as the top-level one
    would, and ``command`` is set as argparse sets it.  What it leaves
    over goes back through the top-level parser, which then prints its own
    usage and ``unrecognized arguments``.  No arguments, ``-h`` and an
    unknown command go to the top-level parser.
    """
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, rest = sub.parse_known_args(argv[1:])
    if rest:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    finally:
        _write("")  # argparse prints --help itself, then exits
    try:
        alg = fixtures.resolve_algebra(args.target)
        if hasattr(args, "grid") and args.grid is None:
            args.grid = 2 if alg.n >= 6 else 4
        code, doc, lines = args.fn(args, alg)
        _emit(args, doc, lines)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
