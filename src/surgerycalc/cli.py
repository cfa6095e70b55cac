"""Command-line interface.

Subcommands:

* ``expand``: expand rational contact surgery coefficients into a
  (+-1)-surgery presentation, either for a diagram file or for a
  single knot given by --tb/--rot/--chi and a coefficient, which is
  expanded as a one-component diagram. The output
  holds the N x N linking matrix of the N derived curves, so it is
  Theta(N^2). The matrix itself is never built: each text and JSON
  row is written from the expansion's per-group blocks by string
  repetition (``LinkingBlocks.row_texts``), one str per block, none
  per entry. The component and step entries are written from the
  expansion's curve records, with no per-curve knot or component
  object, and ``json_text`` writes each list of them from one
  template.
* ``invariants``: rational invariants of a surgery-dual knot, from a
  diagram file plus --dual (``dual_invariants``) or from the closed
  forms (--chain --tb --rot --n, with no diagram and no --dual).
* ``classify``: run every applicable tight/overtwisted rule on a
  diagram, optionally with (+1)-tight assumptions and a prospective
  +p/q surgery query.
* ``bennequin``: evaluate the rational Bennequin bound for a dual
  knot.
* ``selftest``: run the built-in verification grids.

Reports go to standard output (deterministic text by default,
``--format json`` for machine consumption with stable key order);
diagnostics go to standard error, and a usage error names the
subcommand's usage line. Exit codes: 0 success, 1 selftest
failure, 2 malformed or invalid input, 3 mathematically undefined
request (a non-nullhomologous dual). Commands that read a diagram
accept a directory instead of a file and process every *.json inside
it independently, in sorted order.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
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

__all__ = ["entry", "main", "Report"]

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


@dataclass
class Report:
    """A deterministic, serializable command report."""

    command: str
    options: dict
    results: object
    citations: list[str] = field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "command": self.command,
            "options": self.options,
            "results": self.results,
            "citations": sorted(set(self.citations)),
        }

    def to_json(self) -> str:
        return json_text(self.to_obj())


# --------------------------------------------------------------------------
# Payload builders


def _invariants_obj(invariants: DualKnotInvariants) -> dict:
    # the order stays an int; an unprintable one is an input error here,
    # not a ValueError in the renderer
    format_rational(invariants.order)
    return {
        "tb_q": format_rational(invariants.tb_q),
        "rot_q": format_rational(invariants.rot_q),
        "order": invariants.order,
        "euler_char": invariants.euler_char,
    }


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


def _run_diagrams(command: str, raw: str, handle) -> tuple[object, int]:
    """Results and exit code of ``handle(path) -> payload`` on a diagram.

    ``raw`` names a diagram file, or a directory whose *.json files are
    processed independently in sorted order; a failing file becomes an
    error entry of the batch.
    """
    key, _, keyed = _DIAGRAM_COMMANDS[command]
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


def _coefficient_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> Fraction:
    if args.n is not None:
        if args.p is not None or args.q is not None:
            parser.error("give either --n or --p/--q, not both")
        if args.n < 1:
            parser.error("--n must be a positive integer")
        return Fraction(1, args.n)
    if args.p is None:
        parser.error("a coefficient is required: --n N for +1/N, or --p/--q")
    q = 1 if args.q is None else args.q
    if q < 1:
        parser.error("--q must be a positive integer")
    return Fraction(args.p, q)


# --------------------------------------------------------------------------
# Command handlers: each takes the parsed options and its subcommand's
# parser, which reports usage errors, and returns (Report, exit_code)


def _cmd_expand(args, parser) -> tuple[Report, int]:
    options = {"zigzag_policy": args.zigzag_policy, "format": args.format}

    def expansion(diagram: SurgeryDiagram) -> dict:
        return _expansion_obj(
            expand_diagram(diagram, zigzag_policy=args.zigzag_policy)
        )

    if args.diagram is not None:
        options["input"] = args.diagram
        results, code = _run_diagrams(
            "expand", args.diagram, lambda path: expansion(load_diagram(path))
        )
        return Report("expand", options, results), code
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
    return Report("expand", options, expansion(diagram)), EXIT_OK


def _chain_invariants(args, parser) -> DualKnotInvariants:
    if args.diagram is not None or args.dual is not None:
        parser.error("--chain takes no diagram file and no --dual")
    if args.tb is None or args.rot is None or args.n is None:
        parser.error("--chain mode needs --tb, --rot and --n")
    knot = _knot_from_args(args, "L")
    return dual_invariants_closed_form(knot.tb, knot.rot, knot.euler_char, args.n)


def _cmd_invariants(args, parser) -> tuple[Report, int]:
    options = {"format": args.format}
    if args.chain:
        options.update({"tb": args.tb, "rot": args.rot, "chi": args.chi, "n": args.n})
        invariants = _chain_invariants(args, parser)
        return Report("invariants", options, _invariants_obj(invariants)), EXIT_OK
    if args.diagram is None:
        parser.error("give a diagram file with --dual ID, or use --chain")
    if args.dual is None:
        parser.error("--dual ID is required with a diagram file")
    options.update({"input": args.diagram, "dual": args.dual})
    results, code = _run_diagrams(
        "invariants",
        args.diagram,
        lambda path: _invariants_obj(dual_invariants(load_diagram(path), args.dual)),
    )
    return Report("invariants", options, results), code


def _cmd_classify(args, parser) -> tuple[Report, int]:
    if args.diagram is None:
        parser.error("classify needs a diagram file or directory")
    if args.n is not None and (args.p is not None or args.q is not None):
        parser.error("give either --n or --p/--q, not both")
    if args.n is not None and args.n < 1:
        parser.error("--n must be a positive integer")
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
    options = {
        "input": args.diagram,
        "format": args.format,
        "assume_plus_one_tight": sorted(assumptions),
        "both_orientations": args.both_orientations,
    }
    if p is not None:
        options.update({"p": p, "q": q})
    citations: list[str] = []

    def handle(path: Path) -> list[dict]:
        verdicts = classify_diagram(
            load_diagram(path),
            assumptions,
            p=p,
            q=q,
            both_orientations=args.both_orientations,
        )
        objs = [verdict_to_obj(v) for v in verdicts]
        citations.extend(obj["rule"] for obj in objs if obj["rule"] != RULE_NONE)
        return objs

    results, code = _run_diagrams("classify", args.diagram, handle)
    return Report("classify", options, results, citations), code


def _cmd_bennequin(args, parser) -> tuple[Report, int]:
    options = {"format": args.format}
    if args.chain:
        options.update({"tb": args.tb, "rot": args.rot, "chi": args.chi, "n": args.n})
        invariants = _chain_invariants(args, parser)
    else:
        if args.diagram is None or args.dual is None:
            parser.error("bennequin needs a diagram file with --dual ID, or --chain")
        if Path(args.diagram).is_dir():
            parser.error("bennequin takes a single diagram file")
        options.update({"input": args.diagram, "dual": args.dual})
        invariants = dual_invariants(load_diagram(args.diagram), args.dual)
    report = bennequin_check(invariants)
    verdict = verdict_from_bennequin(report)
    results = {
        "invariants": _invariants_obj(invariants),
        "lhs": format_rational(report.lhs),
        "rhs": format_rational(report.rhs),
        "satisfied": report.satisfied,
        "verdict": verdict_to_obj(verdict),
    }
    citations = [] if report.satisfied else [RULE_BENNEQUIN]
    return Report("bennequin", options, results, citations), EXIT_OK


def _cmd_selftest(args, parser) -> tuple[Report, int]:
    checks = run_checks()
    results = {
        "checks": [
            {"name": check["name"], "cases": check["cases"], "status": "pass"}
            for check in checks
        ],
        "status": "pass",
    }
    return Report("selftest", {"format": args.format}, results), EXIT_OK


# --------------------------------------------------------------------------
# Rendering


def _render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    results = report.results
    if report.command in _DIAGRAM_COMMANDS:
        key, render, keyed = _DIAGRAM_COMMANDS[report.command]
        if "batch" in results:
            for entry in results["batch"]:
                lines.append(f"file: {entry['file']}")
                if "error" in entry:
                    lines.append(f"  error: {entry['error']}")
                else:
                    lines.extend("  " + line for line in render(entry[key]))
        else:
            lines.extend(render(results[key] if keyed else results))
    elif report.command == "bennequin":
        lines.extend(
            [
                "dual invariants: "
                + ", ".join(_invariants_lines(results["invariants"])),
                f"lhs = tb_q + |rot_q| = {results['lhs']}",
                f"rhs = -euler_char/order = {results['rhs']}",
                f"satisfied = {'yes' if results['satisfied'] else 'no'}",
            ]
        )
        lines.extend(_verdicts_text([results["verdict"]]))
    elif report.command == "selftest":
        for check in results["checks"]:
            lines.append(f"{check['name']}: {check['status']} ({check['cases']} cases)")
        lines.append("all checks passed")
    if report.citations:
        lines.append("rules fired: " + ", ".join(sorted(set(report.citations))))
    lines.append("")  # the final newline, without copying the text once more
    return "\n".join(lines)


def _invariants_lines(obj: dict) -> list[str]:
    return [
        f"tb_q = {obj['tb_q']}",
        f"rot_q = {obj['rot_q']}",
        f"order = {obj['order']}",
        f"euler_char = {obj['euler_char']}",
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
        coefficient = (
            component["contact_coefficient"]
            if component["contact_coefficient"] is not None
            else "none"
        )
        lines.append(
            f"  {component['id']}: tb={component['tb']} rot={component['rot']} "
            f"euler_char={component['euler_char']} coefficient={coefficient}"
        )
    lines.append("linking:")
    lines.extend(obj["linking"].row_texts(", ", "  [", "]"))
    return lines


# Commands that read a diagram file or directory: command -> (payload key
# of a batch entry, line renderer of one payload, whether a single file's
# results keep the key). Only classify keeps it: {"verdicts": [...]}.
_DIAGRAM_COMMANDS = {
    "expand": ("expansion", _expand_lines, False),
    "invariants": ("invariants", _invariants_lines, False),
    "classify": ("verdicts", _verdicts_text, True),
}


# --------------------------------------------------------------------------
# Parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )


def _add_knot_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tb", type=int, help="Thurston-Bennequin invariant")
    parser.add_argument("--rot", type=int, help="rotation number")
    parser.add_argument(
        "--chi", type=int, default=1,
        help="Euler characteristic of a Seifert surface (default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surgerycalc",
        description="Exact calculator for rational contact surgeries along "
        "Legendrian knots.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    expand = subparsers.add_parser(
        "expand", help="expand rational coefficients into (+-1)-surgeries"
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
    _add_format(expand)
    expand.set_defaults(handler=_cmd_expand, command_parser=expand)

    invariants = subparsers.add_parser(
        "invariants", help="rational invariants of a surgery-dual knot"
    )
    invariants.add_argument("diagram", nargs="?", help="diagram file or directory")
    invariants.add_argument("--dual", help="id of the unsurgered dual component")
    invariants.add_argument(
        "--chain", action="store_true",
        help="closed forms for a (+1/n) chain given by --tb/--rot/--n",
    )
    _add_knot_options(invariants)
    invariants.add_argument("--n", type=int, help="chain length n (with --chain)")
    _add_format(invariants)
    invariants.set_defaults(handler=_cmd_invariants, command_parser=invariants)

    classify = subparsers.add_parser(
        "classify", help="run tight/overtwisted rules on a diagram"
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
    classify.add_argument(
        "--both-orientations",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="test |rot| > -chi instead of the literal rot > -chi "
        "(default: on)",
    )
    _add_format(classify)
    classify.set_defaults(handler=_cmd_classify, command_parser=classify)

    bennequin = subparsers.add_parser(
        "bennequin", help="evaluate the rational Bennequin bound for a dual knot"
    )
    bennequin.add_argument("diagram", nargs="?", help="diagram file")
    bennequin.add_argument("--dual", help="id of the unsurgered dual component")
    bennequin.add_argument(
        "--chain", action="store_true",
        help="closed forms for a (+1/n) chain given by --tb/--rot/--n",
    )
    _add_knot_options(bennequin)
    bennequin.add_argument("--n", type=int, help="chain length n (with --chain)")
    _add_format(bennequin)
    bennequin.set_defaults(handler=_cmd_bennequin, command_parser=bennequin)

    selftest = subparsers.add_parser(
        "selftest", help="run the built-in verification grids"
    )
    _add_format(selftest)
    selftest.set_defaults(handler=_cmd_selftest, command_parser=selftest)

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
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(_render_text(report))
    return code


def entry() -> None:
    raise SystemExit(main())
