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

A report is a dict of command, options, results and cited rules:
``--format json`` writes it with stable key order, and the default
text format renders it with the command's line renderer. Reports go
to standard output, diagnostics to standard error, and a usage error
names the subcommand's usage line. Exit codes: 0 success, 1 selftest
failure, 2 malformed or invalid input or an unwritable report, 3
mathematically undefined request (a non-nullhomologous dual). The
four commands that read a diagram accept a directory instead of a
file and process every *.json inside it independently, in sorted
order; the exit code is the worst of the files'.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .classify import (
    InconsistentAssumptions,
    NotCoprime,
    RULE_BENNEQUIN,
    RULE_NONE,
    bennequin_check,
    classify_diagram,
    _check_coprime_positive,
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
    _diagram_obj,
    _warn_even_euler_char,
    json_text,
    load_diagram,
)
from .exact import TooManyDigits, format_rational
from .expansion import (
    ExpandedPresentation,
    RangeError,
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
    RangeError,
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
    sides of the bound and the verdict. A violation cites its rule."""
    report = bennequin_check(invariants)
    obj = {
        "invariants": _invariants_obj(invariants, citations),
        "lhs": format_rational(report.lhs),
        "rhs": format_rational(report.rhs),
        "satisfied": report.satisfied,
        "verdict": verdict_to_obj(verdict_from_bennequin(report)),
    }
    if not report.satisfied:
        citations.append(RULE_BENNEQUIN)
    return obj


def _expansion_obj(presentation: ExpandedPresentation) -> dict:
    """The expansion payload, written from the presentation's records."""
    texts = {None: None, 1: format_rational(1), -1: format_rational(-1)}
    records = presentation.records
    obj = _diagram_obj(
        presentation.ambient,
        (
            (curve.id, curve.tb, curve.rot, euler_char, texts[curve.coefficient])
            for _, euler_char, curve in records
        ),
        presentation.linking_blocks,
    )
    obj["steps"] = [
        {
            "source_id": source_id,
            "coefficient": texts[curve.coefficient],
            "stabilizations": len(curve.signs),
            "stabilization_signs": list(curve.signs),
        }
        for source_id, _, curve in records
        if curve.coefficient is not None
    ]
    obj["zigzag_policy"] = presentation.zigzag_policy
    return obj


def _verdicts_text(verdict_objs: list[dict]) -> list[str]:
    lines = []
    for index, obj in enumerate(verdict_objs, start=1):
        lines.append(f"[{index}] {obj['conclusion']} (rule: {obj['rule']})")
        for entry in obj["trace"]:
            lines.append(f"    {entry}")
    if not verdict_objs:
        lines.append("no verdicts (no components to classify)")
    return lines


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


def _knot_from_args(args: argparse.Namespace, knot_id: str) -> LegendrianKnotData:
    """The knot given by --tb/--rot/--chi, checked as a diagram's knots are."""
    knot = LegendrianKnotData(
        id=knot_id, tb=args.tb, rot=args.rot, euler_char=args.chi
    )
    _warn_even_euler_char(knot)
    return knot


def _check_n(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """The --n rules of expand and classify: no --p/--q next to it, N >= 1."""
    if args.n is not None:
        if args.p is not None or args.q is not None:
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
        options["input"] = args.diagram
        results, code = _run_diagrams(args, lambda path: expansion(load_diagram(path)))
        return _report(args, options, results), code
    if args.tb is None or args.rot is None:
        parser.error("single-knot mode needs --tb and --rot")
    knot = _knot_from_args(args, args.id)
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
        options = {"tb": args.tb, "rot": args.rot, "chi": args.chi, "n": args.n}
        knot = _knot_from_args(args, "L")
        invariants = dual_invariants_closed_form(
            knot.tb, knot.rot, knot.euler_char, args.n
        )
        results, code = args.payload(invariants, citations), EXIT_OK
    else:
        if args.diagram is None:
            parser.error("give a diagram file with --dual ID, or use --chain")
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
            _check_coprime_positive(p, q)
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


def _render_text(report: dict) -> str:
    key, render, keyed = _COMMANDS[report["command"]]
    results = report["results"]
    lines = [f"command: {report['command']}"]
    if "batch" in results:
        for entry in results["batch"]:
            lines.append(f"file: {entry['file']}")
            if "error" in entry:
                lines.append(f"  error: {entry['error']}")
            else:
                lines.extend("  " + line for line in render(entry[key]))
    else:
        lines.extend(render(results[key] if keyed else results))
    if report["citations"]:
        lines.append("rules fired: " + ", ".join(report["citations"]))
    lines.append("")  # the final newline, without copying the text once more
    return "\n".join(lines)


def _invariants_lines(obj: dict) -> list[str]:
    return [
        f"tb_q = {obj['tb_q']}",
        f"rot_q = {obj['rot_q']}",
        f"order = {obj['order']}",
        f"euler_char = {obj['euler_char']}",
    ]


def _bennequin_lines(obj: dict) -> list[str]:
    return [
        "dual invariants: " + ", ".join(_invariants_lines(obj["invariants"])),
        f"lhs = tb_q + |rot_q| = {obj['lhs']}",
        f"rhs = -euler_char/order = {obj['rhs']}",
        f"satisfied = {'yes' if obj['satisfied'] else 'no'}",
        *_verdicts_text([obj["verdict"]]),
    ]


def _expand_lines(obj: dict) -> list[str]:
    lines = [f"zigzag policy: {obj['zigzag_policy']}", "steps:"]
    for index, step in enumerate(obj["steps"], start=1):
        signs = ",".join(f"{s:+d}" for s in step["stabilization_signs"])
        lines.append(
            f"  {index}. source={step['source_id']} "
            f"coefficient={step['coefficient']} "
            f"stabilizations={step['stabilizations']}"
            + (f" signs={signs}" if signs else "")
        )
    lines.append(f"derived diagram ({len(obj['components'])} components):")
    for component in obj["components"]:
        coefficient = component["contact_coefficient"] or "none"
        lines.append(
            f"  {component['id']}: tb={component['tb']} rot={component['rot']} "
            f"euler_char={component['euler_char']} coefficient={coefficient}"
        )
    lines.append("linking:")
    lines.extend(obj["linking"].row_texts(", ", "  [", "]"))
    return lines


def _selftest_lines(results: dict) -> list[str]:
    return [
        f"{check['name']}: {check['status']} ({check['cases']} cases)"
        for check in results["checks"]
    ] + ["all checks passed"]


# command -> (payload key of a batch entry, line renderer of one payload,
# whether a single file's results keep the key). Only classify keeps it:
# {"verdicts": [...]}. selftest reads no diagram, so it has no key.
_COMMANDS = {
    "expand": ("expansion", _expand_lines, False),
    "invariants": ("invariants", _invariants_lines, False),
    "classify": ("verdicts", _verdicts_text, True),
    "bennequin": ("bennequin", _bennequin_lines, False),
    "selftest": (None, _selftest_lines, False),
}


# --------------------------------------------------------------------------
# Parser


def _add_knot_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tb", type=int, help="Thurston-Bennequin invariant")
    parser.add_argument("--rot", type=int, help="rotation number")
    parser.add_argument(
        "--chi", type=int, default=1,
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
    expand.add_argument("--id", default="L", help="knot id label (default: L)")
    expand.add_argument("--n", type=int, help="expand coefficient +1/N")
    expand.add_argument("--p", type=int, help="coefficient numerator (signed)")
    expand.add_argument("--q", type=int, help="coefficient denominator (positive)")
    expand.add_argument(
        "--zigzag-policy", choices=ZIGZAG_POLICIES, default="all-negative",
        help="stabilization sign policy (default: all-negative)",
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
    text = json_text(report) if args.format == "json" else _render_text(report)
    try:
        sys.stdout.write(text)
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
