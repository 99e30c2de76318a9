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
:func:`_emit` reads only for text output (``verify`` and ``verify-all``
format their lines only then).  :func:`_json` writes the document, with
the sorted, escaped key heads of each dict shape kept in a cache of at
most 64 (keys, indent) layouts.  ``verify`` and ``verify-all`` put their
``VerificationReport`` objects themselves in the document, and
:func:`_report` writes each one from one template, as ``json.dumps``
writes its ``to_doc()``; so text output builds no document at all.

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


@functools.lru_cache(maxsize=64)
def _layout(keys, newline):
    """The written shape of a dict with ``keys``: its values' indent, (key, head) pairs, its close.

    The pairs follow the sorted keys, and each head is the text before
    the value: ``{`` or ``,``, the indent and the escaped key.  sorted()
    or the escape raises TypeError on a key that is not a str, and
    lru_cache keeps no result of a call that raises.
    """
    inner = newline + "  "
    heads = tuple((key, ("," if i else "{") + inner + _escape(key) + ": ")
                  for i, key in enumerate(sorted(keys)))
    return inner, heads, newline + "}"


@functools.lru_cache(maxsize=64)
def _report_parts(algebra, mode, newline):
    """The fixed text of :func:`_report`'s template before ``checked``, ``den`` and ``theorem``.

    All reports of a run share their algebra and mode, so each is escaped
    once, not once per report.  The escape raises TypeError on a value
    that is not a str, and lru_cache keeps no result of a call that raises.
    """
    inner = newline + "  "
    return (f'{{{inner}"algebra": {_escape(algebra)},{inner}"checked": ',
            f',{inner}"den": ', f',{inner}"mode": {_escape(mode)},{inner}"theorem": ')


def _report(rep, newline) -> str:
    """What :func:`_json` writes for ``rep.to_doc()``: its seven keys, sorted, in one template.

    The str fields are escaped (:func:`_report_parts`) and ``den`` and
    ``checked`` written by ``int.__repr__``; both raise TypeError on a
    value that is not a str or an int (the verifier never puts a bool
    there).  The counterexamples go to :func:`_json`.
    """
    inner = newline + "  "
    head, mid, tail = _report_parts(rep.algebra, rep.mode, newline)
    ces = rep.counterexamples
    return (f'{head}{int.__repr__(rep.checked)}'
            f',{inner}"confirmed": {"true" if rep.confirmed else "false"}'
            f',{inner}"counterexamples": {_json(ces, inner) if ces else "[]"}'
            f'{mid}{int.__repr__(rep.den)}{tail}{_escape(rep.theorem)}{newline}}}')


def _json(doc, newline="\n") -> str:
    """What ``json.dumps(doc, indent=2, sort_keys=True)`` prints, for JSON-native documents.

    With an indent, ``json.dumps`` runs CPython's pure-Python encoder, and
    for a small report that costs more than the run.  This writes dicts
    with str keys, lists, tuples (as lists), str, int, bool and None;
    strings are escaped by the same C function.  A ``VerificationReport``
    is written by :func:`_report`, as its ``to_doc()`` would be.  Any
    other key or value raises TypeError.  A dict's str, int and bool
    values are written in place rather than by a call each, after the
    heads that :func:`_layout` keeps for its keys.
    """
    kind = type(doc)
    if kind is str:
        return _escape(doc)
    if kind is VerificationReport:
        return _report(doc, newline)
    if kind is dict:
        if not doc:
            return "{}"
        inner, heads, close = _layout(tuple(doc), newline)
        items = []
        for key, head in heads:
            value = doc[key]
            kind = type(value)
            if kind is str:
                text = _escape(value)
            elif kind is int:
                text = int.__repr__(value)
            elif kind is bool:
                text = "true" if value else "false"
            else:
                text = _json(value, inner)
            items.append(head + text)
        return "".join(items) + close
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        inner = newline + "  "
        items = [_json(item, inner) for item in doc]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is int:
        return int.__repr__(doc)
    if kind is bool:
        return "true" if doc else "false"
    if doc is None:
        return "null"
    raise TypeError(f"{kind.__name__} is left to json.dumps")


def _report_doc(obj):
    """``json.dumps``' ``default``: a report as its ``to_doc()``; any other object raises."""
    if type(obj) is not VerificationReport:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return obj.to_doc()


def _emit(args, doc, text_lines):
    """Print the report; ``--json`` prints ``json.dumps(doc, indent=2, sort_keys=True)``.

    :func:`_json` writes those bytes, and a document it cannot write goes
    to ``json.dumps`` whole, with each report as its ``to_doc()``, so the
    output never depends on which wrote it.
    """
    if not args.json:
        text = "\n".join(text_lines)
    else:
        try:
            text = _json(doc)
        except TypeError:
            text = json.dumps(doc, indent=2, sort_keys=True, default=_report_doc)
    _write(text + "\n")


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
        iv = soft.ParameterInterval.parse(args.interval or "")
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
    iv = soft.ParameterInterval.parse(args.interval) if args.interval else soft.FULL
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
    iv = soft.ParameterInterval.parse(args.interval) if args.interval else None
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
    bad = sum(not rep.confirmed for rep in reports)

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

    def common(sp, grid=True, budget=False):
        sp.add_argument("target", help="fixture name (a1, a2, a3, b2) or JSON file path")
        sp.add_argument("--json", action="store_true", help="structured output")
        if grid:
            sp.add_argument("--grid", type=int, metavar="D",
                            help="grid denominator (even; default 4, or 2 for n >= 6)")
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="max grid maps; over it, the two-valued ones (same verdicts)")

    sp = sub.add_parser("check-algebra", help="validate axioms and derived laws")
    common(sp, grid=False)
    sp.set_defaults(fn=cmd_check_algebra)

    sp = sub.add_parser("filters", help="enumerate all filters")
    common(sp, grid=False)
    sp.add_argument("--classify", action="store_true")
    sp.set_defaults(fn=cmd_filters)

    sp = sub.add_parser("classify", help="classify one subset")
    common(sp, grid=False)
    sp.add_argument("elements", nargs="+", metavar="LABEL")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("fuzzy-check", help="check a fuzzy-filter variant")
    common(sp)
    sp.add_argument("--mu", required=True, help="e.g. '0=0,a=1/2,b=3/4,1=1'")
    sp.add_argument("--family", choices=fuzzy.FAMILIES, default="plain")
    sp.add_argument("--kind", choices=fuzzy.KINDS, default="filter")
    sp.add_argument("--route", default="default")
    sp.add_argument("--interval", help="alpha,beta for the thresholds family")
    sp.set_defaults(fn=cmd_fuzzy_check)

    sp = sub.add_parser("soft-build", help="build and classify a level-cut soft set")
    common(sp)
    sp.add_argument("--mu", required=True)
    sp.add_argument("--soft", choices=soft.SOFT_KINDS, default="in")
    sp.add_argument("--interval", help="lo,hi (default 0,1)")
    sp.add_argument("--kind", choices=fuzzy.KINDS, default="filter")
    sp.set_defaults(fn=cmd_soft_build)

    sp = sub.add_parser("verify", help="verify one catalog theorem")
    common(sp, budget=True)
    sp.add_argument("theorem")
    sp.add_argument("--interval", help="override (alpha,beta] for generic-interval theorems")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("verify-all", help="verify the whole catalog")
    common(sp, budget=True)
    sp.set_defaults(fn=cmd_verify_all)

    sp = sub.add_parser("witness", help="find a converse-failure witness")
    common(sp)
    sp.add_argument("theorem", help="T4.2.13 or T4.3.12")
    sp.set_defaults(fn=cmd_witness)
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
