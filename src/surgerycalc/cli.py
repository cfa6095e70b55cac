"""Command-line interface.

Subcommands:

* ``expand``: expand rational contact surgery coefficients into a
  (+-1)-surgery presentation, for a diagram file or for a single knot
  given by --tb/--rot/--chi and a coefficient (a one-component
  diagram). The output holds the N x N linking matrix of the N derived
  curves, written row by row from the expansion's per-group blocks
  and curve records; no per-entry or per-curve object is built.
* ``invariants``: rational invariants of a surgery-dual knot, from a
  diagram file plus --dual (``dual_invariants``) or from the closed
  forms (--chain --tb --rot --n, with no diagram and no --dual).
* ``classify``: run every applicable tight/overtwisted rule on a
  diagram, optionally with (+1)-tight assumptions and a prospective
  +p/q surgery query. thm1 always tests |rot| > -euler_char.
* ``bennequin``: the rational Bennequin bound for a dual knot; the
  inputs and handler of ``invariants``, with its own payload.
* ``selftest``: run the built-in verification grids.

A report is a dict of command, options, results and cited rules. This
module is the one that writes reports: ``--format json`` writes the
bytes of ``json.dumps(report, indent=2, sort_keys=True)`` and a
newline with its own streaming writer, ``_json_pieces``, and the
default text format renders the report with the command's line
renderer. Reports go to standard output, diagnostics to standard
error, and a usage error names the subcommand's usage line. A handler
runs to completion, and raises every input error, before the first
byte is written; the report is then written as it is rendered, a piece
at a time, so an expansion's memory is O(N) plus one linking row
rather than its O(N^2) text. Only writing can fail midway, which may
leave a partial report on stdout before the one error line. Exit
codes: 0 success, 1 selftest failure, 2 malformed or invalid input or
an unwritable report, 3 mathematically undefined request (a
non-nullhomologous dual). The four commands that read a diagram accept
a directory instead of a file and process every *.json inside it
independently, in sorted order; the exit code is the worst of the
files'. With a diagram, the options that describe a knot or a chain
are usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Optional

from .classify import (
    InconsistentAssumptions,
    NotCoprime,
    RULE_NONE,
    bennequin_check,
    check_coprime_positive,
    classify_diagram,
    verdict_from_bennequin,
    verdict_to_obj,
)
from .diagram import (
    AmbientStatus,
    LegendrianKnotData,
    MissingCoefficient,
    ParseError,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
    diagram_obj,
    load_diagram,
    warn_even_euler_char,
)
from .exact import TooManyDigits, format_rational
from .expansion import (
    DEFAULT_ZIGZAG_POLICY,
    ExpandedPresentation,
    LinkingBlocks,
    Unsupported,
    ZIGZAG_POLICIES,
    expand_diagram,
)
from .invariants import (
    DualKnotInvariants,
    NonNullhomologousDual,
    dual_invariants,
    dual_invariants_closed_form,
)
from .selftest import SelfTestFailure, run_checks

__all__ = ["entry", "main"]

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3

_INPUT_ERRORS = (
    ParseError,
    ValidationError,
    MissingCoefficient,
    Unsupported,
    InconsistentAssumptions,
    TooManyDigits,
    OSError,
)


def _report(args: argparse.Namespace, options: dict, results, citations=()) -> dict:
    """The report of a command: the dict that ``--format json`` writes."""
    return {
        "command": args.command,
        "options": {"format": args.format, **options},
        "results": results,
        "citations": sorted(set(citations)),
    }


# --------------------------------------------------------------------------
# Payload builders


def _invariants_obj(invariants: DualKnotInvariants, citations: list) -> dict:
    """The ``invariants`` payload of a dual knot; it cites no rule."""
    # the order stays an int; an unprintable one is an input error here,
    # not a ValueError in the renderer
    format_rational(invariants.order)
    return {
        "tb_q": format_rational(invariants.tb_q),
        "rot_q": format_rational(invariants.rot_q),
        "order": invariants.order,
        "euler_char": invariants.euler_char,
    }


def _bennequin_obj(invariants: DualKnotInvariants, citations: list) -> dict:
    """The ``bennequin`` payload of a dual knot: its invariants, both
    sides of the bound and the verdict, whose rule is cited when it fires."""
    report = bennequin_check(invariants)
    obj = {
        "invariants": _invariants_obj(invariants, citations),
        "lhs": format_rational(report.lhs),
        "rhs": format_rational(report.rhs),
        "satisfied": report.satisfied,
        "verdict": verdict_to_obj(verdict_from_bennequin(report)),
    }
    if obj["verdict"]["rule"] != RULE_NONE:
        citations.append(obj["verdict"]["rule"])
    return obj


def _expansion_obj(presentation: ExpandedPresentation) -> dict:
    """The expansion payload, written from the presentation's records."""
    texts = {None: None, 1: format_rational(1), -1: format_rational(-1)}
    records = presentation.records
    # Stabilizing can carry a tb or rot past CPython's int-string digit
    # limit. The report is rendered as it is written, so this raises
    # TooManyDigits before its first byte rather than stopping it midway.
    for field in ("tb", "rot"):
        format_rational(max(map(abs, map(attrgetter(field), records)), default=0))
    obj = diagram_obj(
        presentation.ambient,
        (
            (curve.id, curve.tb, curve.rot, curve.euler_char, texts[curve.coefficient])
            for curve in records
        ),
        presentation.linking_blocks,
    )
    obj["steps"] = [
        {
            "source_id": curve.source_id,
            "coefficient": texts[curve.coefficient],
            "stabilizations": len(curve.signs),
            "stabilization_signs": list(curve.signs),
        }
        for curve in records
        if curve.coefficient is not None
    ]
    obj["zigzag_policy"] = presentation.zigzag_policy
    return obj


# --------------------------------------------------------------------------
# Input helpers


def _run_diagrams(args: argparse.Namespace, handle) -> tuple[object, int]:
    """Results and exit code of ``handle(path) -> payload`` on a diagram.

    ``args.diagram`` names a diagram file, or a directory whose *.json
    files are processed independently in sorted order; a failing file
    becomes an error entry of the batch.
    """
    key, _, keyed = _COMMANDS[args.command]
    raw = args.diagram
    if not Path(raw).is_dir():
        payload = handle(Path(raw))
        return ({key: payload} if keyed else payload), EXIT_OK
    files = sorted(Path(raw).glob("*.json"))
    if not files:
        raise ParseError(f"directory {raw!r} contains no *.json diagrams")
    entries = []
    worst = EXIT_OK
    for path in files:
        try:
            entries.append({"file": path.name, key: handle(path)})
        except NonNullhomologousDual as error:
            entries.append({"file": path.name, "error": str(error)})
            worst = max(worst, EXIT_UNDEFINED)
        except _INPUT_ERRORS as error:
            entries.append({"file": path.name, "error": str(error)})
            worst = max(worst, EXIT_INPUT)
    return {"batch": entries}, worst


#: The options that describe a knot or a chain instead of a diagram file,
#: as far as a command has them. None of them has a default, so that one
#: given next to a diagram is seen.
_KNOT_OPTIONS = ("tb", "rot", "chi", "id", "n", "p", "q")


def _check_no_knot_options(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    """A diagram brings its own knots: a knot or chain option next to it
    is a usage error, naming the option."""
    for name in _KNOT_OPTIONS:
        if getattr(args, name, None) is not None:
            parser.error(f"--{name} does not apply to a diagram file")


def _knot_from_args(args: argparse.Namespace, knot_id: str) -> LegendrianKnotData:
    """The knot given by --tb/--rot/--chi, checked as a diagram's knots are."""
    knot = LegendrianKnotData(
        id=knot_id, tb=args.tb, rot=args.rot,
        euler_char=1 if args.chi is None else args.chi,
    )
    warn_even_euler_char(knot)
    return knot


def _check_n(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """The --n rules of every command: no --p/--q next to it, N >= 1."""
    if args.n is not None:
        if getattr(args, "p", None) is not None or getattr(args, "q", None) is not None:
            parser.error("give either --n or --p/--q, not both")
        if args.n < 1:
            parser.error("--n must be a positive integer")


def _coefficient_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> Fraction:
    _check_n(args, parser)
    if args.n is not None:
        return Fraction(1, args.n)
    if args.p is None:
        parser.error("a coefficient is required: --n N for +1/N, or --p/--q")
    q = 1 if args.q is None else args.q
    if q < 1:
        parser.error("--q must be a positive integer")
    return Fraction(args.p, q)


# --------------------------------------------------------------------------
# Command handlers: each takes the parsed options and its subcommand's
# parser, which reports usage errors, and returns (report, exit_code)


def _cmd_expand(args, parser) -> tuple[dict, int]:
    options = {"zigzag_policy": args.zigzag_policy}

    def expansion(diagram: SurgeryDiagram) -> dict:
        return _expansion_obj(
            expand_diagram(diagram, zigzag_policy=args.zigzag_policy)
        )

    if args.diagram is not None:
        _check_no_knot_options(args, parser)
        options["input"] = args.diagram
        results, code = _run_diagrams(args, lambda path: expansion(load_diagram(path)))
        return _report(args, options, results), code
    if args.tb is None or args.rot is None:
        parser.error("single-knot mode needs --tb and --rot")
    knot = _knot_from_args(args, "L" if args.id is None else args.id)
    coefficient = _coefficient_from_args(args, parser)
    options.update(
        {"tb": knot.tb, "rot": knot.rot, "chi": knot.euler_char,
         "coefficient": format_rational(coefficient)}
    )
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot=knot, contact_coefficient=coefficient),),
        linking=((0,),),
    )
    return _report(args, options, expansion(diagram)), EXIT_OK


def _cmd_dual(args, parser) -> tuple[dict, int]:
    """``invariants`` and ``bennequin``: ``args.payload`` of a dual knot's
    invariants, from a diagram file or directory plus --dual, or from
    the closed forms of a (+1/n) chain with --chain."""
    citations: list[str] = []
    if args.chain:
        if args.diagram is not None or args.dual is not None:
            parser.error("--chain takes no diagram file and no --dual")
        if args.tb is None or args.rot is None or args.n is None:
            parser.error("--chain mode needs --tb, --rot and --n")
        _check_n(args, parser)
        knot = _knot_from_args(args, "L")
        options = {"tb": knot.tb, "rot": knot.rot, "chi": knot.euler_char, "n": args.n}
        invariants = dual_invariants_closed_form(
            knot.tb, knot.rot, knot.euler_char, args.n
        )
        results, code = args.payload(invariants, citations), EXIT_OK
    else:
        if args.diagram is None:
            parser.error("give a diagram file with --dual ID, or use --chain")
        _check_no_knot_options(args, parser)
        if args.dual is None:
            parser.error("--dual ID is required with a diagram file")
        options = {"input": args.diagram, "dual": args.dual}
        results, code = _run_diagrams(
            args,
            lambda path: args.payload(
                dual_invariants(load_diagram(path), args.dual), citations
            ),
        )
    return _report(args, options, results, citations), code


def _cmd_classify(args, parser) -> tuple[dict, int]:
    _check_n(args, parser)
    if args.q is not None and args.p is None:
        parser.error("--q needs --p")
    p = args.n if args.n is not None else args.p
    q = 1 if args.q is None else args.q
    if args.p is not None:
        try:
            check_coprime_positive(p, q)
        except (ValidationError, NotCoprime) as error:
            parser.error(f"--p/--q: {error}")
    assumptions = {cid: True for cid in (args.assume_plus_one_tight or [])}
    options = {"input": args.diagram, "assume_plus_one_tight": sorted(assumptions)}
    if p is not None:
        options.update({"p": p, "q": q})
    citations: list[str] = []

    def handle(path: Path) -> list[dict]:
        verdicts = classify_diagram(load_diagram(path), assumptions, p=p, q=q)
        objs = [verdict_to_obj(v) for v in verdicts]
        citations.extend(obj["rule"] for obj in objs if obj["rule"] != RULE_NONE)
        return objs

    results, code = _run_diagrams(args, handle)
    return _report(args, options, results, citations), code


def _cmd_selftest(args, parser) -> tuple[dict, int]:
    checks = run_checks()
    results = {
        "checks": [
            {"name": check["name"], "cases": check["cases"], "status": "pass"}
            for check in checks
        ],
        "status": "pass",
    }
    return _report(args, {}, results), EXIT_OK


# --------------------------------------------------------------------------
# Rendering


def _json_pieces(obj):
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for
    byte, as a stream of pieces in order: ``main`` writes each piece as
    it comes.

    Dict keys must be strs (a report's always are; any other key raises
    TypeError). CPython's C encoder is used only without ``indent``, so
    this writes dicts and lists/tuples itself. An expansion's text is
    megabytes and grows as the square of its curves, so it is never
    held whole: the largest piece is one linking row. Two shapes keep
    their work at C level:

    * ``LinkingBlocks``, written as the list of its rows, one piece per
      row, each from its blocks (``LinkingBlocks.row_texts``);
    * a list of records, that is of dicts sharing one non-empty key
      set: one %-template for the whole list, filled once per record
      with its values' texts, a column at a time.

    Plain strs and ints, None and bools are written the way the encoder
    writes them, and empty containers as ``[]`` and ``{}``; every other
    scalar goes through ``json.dumps``.
    """
    yield from _json_chunks(obj, "\n")
    yield "\n"


#: The scalars written the way the encoder writes them, by exact type
#: (an int or str subclass goes through ``json.dumps``).
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_chunks(obj, newline: str):
    """The pieces of ``obj`` written at the indent ``newline`` ends in."""
    write = _SCALAR_TEXT.get(type(obj))
    if write is not None:
        yield write(obj)
        return
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        opener = "{"
        for key, value in sorted(obj.items()):
            yield opener + inner + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(value, inner)
            opener = ","
        yield newline + "}"
    elif type(obj) is LinkingBlocks:
        # each row is one piece, its list separator in front; the first
        # row's separator becomes the list's "["
        deeper = inner + "  "
        rows = obj.row_texts("," + deeper, "," + inner + "[" + deeper, inner + "]")
        first = next(rows, None)
        if first is None:
            yield "[]"
            return
        yield "[" + first[1:]
        yield from rows
        yield newline + "]"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        if set(map(type, obj)) == {dict} and obj[0]:
            keys = obj[0].keys()
            if all(map(keys.__eq__, map(dict.keys, obj))):
                yield "[" + inner
                yield _records_text(obj, sorted(keys), inner)
                yield newline + "]"
                return
        opener = "["
        for value in obj:
            yield opener + inner
            yield from _json_chunks(value, inner)
            opener = ","
        yield newline + "]"
    else:
        yield json.dumps(obj)


def _records_text(records, names: list[str], newline: str) -> str:
    """Dicts with the keys ``names`` (sorted), each written at the indent
    ``newline`` ends in, joined by the list separator."""
    inner = newline + "  "
    template = (
        "{"
        + inner
        + ("," + inner).join(
            encode_basestring_ascii(name).replace("%", "%%") + ": %s"
            for name in names
        )
        + newline
        + "}"
    )
    columns = [
        _column_texts(list(map(itemgetter(name), records)), inner) for name in names
    ]
    return ("," + newline).join([template % row for row in zip(*columns)])


def _column_texts(values: list, newline: str) -> list[str]:
    """The text of each value, written at the indent ``newline`` ends in:
    a column of one scalar type at C speed, any other one value by value."""
    kinds = set(map(type, values))
    write = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    if write is not None:
        return list(map(write, values))
    return ["".join(_json_chunks(value, newline)) for value in values]


def _render_text(report: dict):
    """The text report as a stream of pieces, each of whole lines."""
    key, render, keyed = _COMMANDS[report["command"]]
    results = report["results"]
    yield f"command: {report['command']}\n"
    if "batch" in results:
        for entry in results["batch"]:
            yield f"file: {entry['file']}\n"
            if "error" in entry:
                yield f"  error: {entry['error']}\n"
            else:
                yield from render(entry[key], "  ")
    else:
        yield from render(results[key] if keyed else results, "")
    if report["citations"]:
        yield "rules fired: " + ", ".join(report["citations"]) + "\n"


# A line renderer takes one payload and the indent of its lines, and
# returns its text as pieces of whole lines, each line ending in "\n".


def _verdicts_lines(verdict_objs: list[dict], indent: str) -> list[str]:
    lines = []
    for index, obj in enumerate(verdict_objs, start=1):
        lines.append(f"{indent}[{index}] {obj['conclusion']} (rule: {obj['rule']})\n")
        lines += [f"{indent}    {entry}\n" for entry in obj["trace"]]
    if not verdict_objs:
        lines.append(f"{indent}no verdicts (no components to classify)\n")
    return lines


def _invariants_fields(obj: dict) -> list[str]:
    return [
        f"tb_q = {obj['tb_q']}",
        f"rot_q = {obj['rot_q']}",
        f"order = {obj['order']}",
        f"euler_char = {obj['euler_char']}",
    ]


def _invariants_lines(obj: dict, indent: str) -> list[str]:
    return [f"{indent}{field}\n" for field in _invariants_fields(obj)]


def _bennequin_lines(obj: dict, indent: str) -> list[str]:
    return [
        f"{indent}dual invariants: {', '.join(_invariants_fields(obj['invariants']))}\n",
        f"{indent}lhs = tb_q + |rot_q| = {obj['lhs']}\n",
        f"{indent}rhs = -euler_char/order = {obj['rhs']}\n",
        f"{indent}satisfied = {'yes' if obj['satisfied'] else 'no'}\n",
        *_verdicts_lines([obj["verdict"]], indent),
    ]


def _expand_lines(obj: dict, indent: str):
    """Every line but the linking rows as one piece, then one piece per row."""
    lines = [f"{indent}zigzag policy: {obj['zigzag_policy']}\n", f"{indent}steps:\n"]
    for index, step in enumerate(obj["steps"], start=1):
        signs = ",".join(f"{s:+d}" for s in step["stabilization_signs"])
        lines.append(
            f"{indent}  {index}. source={step['source_id']} "
            f"coefficient={step['coefficient']} "
            f"stabilizations={step['stabilizations']}"
            + (f" signs={signs}\n" if signs else "\n")
        )
    lines.append(f"{indent}derived diagram ({len(obj['components'])} components):\n")
    for component in obj["components"]:
        coefficient = component["contact_coefficient"] or "none"
        lines.append(
            f"{indent}  {component['id']}: tb={component['tb']} rot={component['rot']} "
            f"euler_char={component['euler_char']} coefficient={coefficient}\n"
        )
    lines.append(f"{indent}linking:\n")
    yield "".join(lines)
    yield from obj["linking"].row_texts(", ", indent + "  [", "]\n")


def _selftest_lines(results: dict, indent: str) -> list[str]:
    return [
        f"{indent}{check['name']}: {check['status']} ({check['cases']} cases)\n"
        for check in results["checks"]
    ] + [f"{indent}all checks passed\n"]


# command -> (payload key of a batch entry, line renderer of one payload,
# whether a single file's results keep the key). Only classify keeps it:
# {"verdicts": [...]}. selftest reads no diagram, so it has no key.
_COMMANDS = {
    "expand": ("expansion", _expand_lines, False),
    "invariants": ("invariants", _invariants_lines, False),
    "classify": ("verdicts", _verdicts_lines, True),
    "bennequin": ("bennequin", _bennequin_lines, False),
    "selftest": (None, _selftest_lines, False),
}


# --------------------------------------------------------------------------
# Parser


def _add_knot_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tb", type=int, help="Thurston-Bennequin invariant")
    parser.add_argument("--rot", type=int, help="rotation number")
    parser.add_argument(
        "--chi", type=int,
        help="Euler characteristic of a Seifert surface (default: 1)",
    )


def _add_dual_options(parser: argparse.ArgumentParser) -> None:
    """The options of ``invariants`` and ``bennequin``."""
    parser.add_argument("diagram", nargs="?", help="diagram file or directory")
    parser.add_argument("--dual", help="id of the unsurgered dual component")
    parser.add_argument(
        "--chain", action="store_true",
        help="closed forms for a (+1/n) chain given by --tb/--rot/--n",
    )
    _add_knot_options(parser)
    parser.add_argument("--n", type=int, help="chain length n (with --chain)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surgerycalc",
        description="Exact calculator for rational contact surgeries along "
        "Legendrian knots.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, handler, **defaults) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help)
        sub.set_defaults(handler=handler, command_parser=sub, **defaults)
        return sub

    expand = command(
        "expand", "expand rational coefficients into (+-1)-surgeries", _cmd_expand
    )
    expand.add_argument("diagram", nargs="?", help="diagram file or directory")
    _add_knot_options(expand)
    expand.add_argument("--id", help="knot id label (default: L)")
    expand.add_argument("--n", type=int, help="expand coefficient +1/N")
    expand.add_argument("--p", type=int, help="coefficient numerator (signed)")
    expand.add_argument("--q", type=int, help="coefficient denominator (positive)")
    expand.add_argument(
        "--zigzag-policy", choices=ZIGZAG_POLICIES, default=DEFAULT_ZIGZAG_POLICY,
        help=f"stabilization sign policy (default: {DEFAULT_ZIGZAG_POLICY})",
    )

    _add_dual_options(
        command(
            "invariants", "rational invariants of a surgery-dual knot", _cmd_dual,
            payload=_invariants_obj,
        )
    )

    classify = command(
        "classify", "run tight/overtwisted rules on a diagram", _cmd_classify
    )
    classify.add_argument("diagram", help="diagram file or directory")
    classify.add_argument(
        "--assume-plus-one-tight", action="append", metavar="ID",
        help="assume contact (+1)-surgery along component ID is tight "
        "(repeatable)",
    )
    classify.add_argument("--n", type=int, help="query a prospective +N surgery")
    classify.add_argument("--p", type=int, help="query numerator of +P/Q")
    classify.add_argument("--q", type=int, help="query denominator of +P/Q")

    _add_dual_options(
        command(
            "bennequin", "evaluate the rational Bennequin bound for a dual knot",
            _cmd_dual, payload=_bennequin_obj,
        )
    )

    command("selftest", "run the built-in verification grids", _cmd_selftest)

    for sub in subparsers.choices.values():
        sub.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format (default: text)",
        )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # usage errors name the subcommand's usage line, not the root's
        report, code = args.handler(args, args.command_parser)
    except NonNullhomologousDual as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_UNDEFINED
    except SelfTestFailure as error:
        print(f"selftest failure: {error}", file=sys.stderr)
        return EXIT_SELFTEST
    except _INPUT_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT
    # Every error of the input has been raised by now; the report is
    # rendered while it is written, so only writing can fail from here.
    pieces = _json_pieces(report) if args.format == "json" else _render_text(report)
    try:
        write = sys.stdout.write
        for piece in pieces:
            write(piece)
        sys.stdout.flush()
    except OSError as error:  # a full disk or a closed pipe, for instance
        print(f"error: cannot write the report: {error}", file=sys.stderr)
        return EXIT_INPUT
    return code


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # What main could not write is still buffered, and the interpreter
        # would fail to flush it again at exit, with a second message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
