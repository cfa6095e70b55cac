"""surgerycalc: exact calculator for rational contact surgeries.

The package expands rational contact surgery coefficients along
Legendrian knots into (+-1)-surgery presentations, computes the exact
rational classical invariants (tb_Q, rot_Q, homological order) of
surgery-dual knots through linking-matrix formulas, and decides
overtwistedness or tightness of the surgered contact manifold where a
criterion certifies it. All arithmetic is exact; nothing is ever a
float.

Modules:

* ``exact``: exact rationals and ``solve_integral``, the one
  fraction-free (Bareiss) elimination kernel: it takes augmented rows
  of Python ints and returns ints y and d, the solution being y / d.
* ``diagram``: the surgery diagram data model, the framed linking
  system of the invariants built cleared of denominators (row i times
  the denominator q_i of its coefficient, so every entry is an int),
  the (+1)-push-off chain diagrams (``chain_diagram(tb, rot,
  euler_char, n)``), and the JSON file format.
* ``expansion``: negative continued fractions and ``expand_diagram``,
  the one expander of rational coefficients into (+-1)-surgeries with
  stabilization bookkeeping, through one private coefficient-shape
  dispatch; a single knot is a one-component diagram. An expansion is
  kept as one record per derived curve and its linking matrix as
  per-group blocks; the per-curve components and the matrix are built
  only when ``derived_diagram`` is first read.
* ``invariants``: invariants of surgery-dual knots; ``dual_invariants``
  is the one entry point: a k x k solve over the unexpanded components
  plus a closed form per expanded curve group, never the curves or the
  expanded matrix, in ints until tb_Q and rot_Q. On an expanded
  diagram it evaluates the dense linking-matrix formulas. The (+1/n)
  closed forms stay as an oracle.
* ``classify``: the tight/overtwisted decision rules with
  justification traces.
* ``cli`` / ``selftest``: the command-line tool and its built-in
  verification grids.
"""

from .classify import (
    BennequinReport,
    Conclusion,
    InconsistentAssumptions,
    NotCoprime,
    Verdict,
    bennequin_check,
    classify_diagram,
    classify_lemma_tight,
    classify_thm1,
    classify_thm2,
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
    chain_diagram,
    diagram_from_obj,
    diagram_to_obj,
    load_diagram,
    parse_diagram,
    serialize_diagram,
)
from .exact import (
    DimensionMismatch,
    SingularMatrix,
    TooManyDigits,
    as_rational,
    format_rational,
    parse_rational,
    solve_integral,
)
from .expansion import (
    ExpandedPresentation,
    RangeError,
    Unsupported,
    evaluate_negative_continued_fraction,
    expand_diagram,
    negative_continued_fraction,
    stabilization_counts,
)
from .invariants import (
    DualKnotInvariants,
    NonNullhomologousDual,
    dual_invariants,
    dual_invariants_closed_form,
)
from .selftest import SelfTestFailure, run_checks

__version__ = "0.1.0"

__all__ = [
    "AmbientStatus",
    "BennequinReport",
    "Conclusion",
    "DimensionMismatch",
    "DualKnotInvariants",
    "ExpandedPresentation",
    "InconsistentAssumptions",
    "LegendrianKnotData",
    "MissingCoefficient",
    "NonNullhomologousDual",
    "NotCoprime",
    "ParseError",
    "RangeError",
    "SelfTestFailure",
    "SingularMatrix",
    "SurgeryComponent",
    "SurgeryDiagram",
    "TooManyDigits",
    "Unsupported",
    "ValidationError",
    "Verdict",
    "as_rational",
    "bennequin_check",
    "chain_diagram",
    "classify_diagram",
    "classify_lemma_tight",
    "classify_thm1",
    "classify_thm2",
    "diagram_from_obj",
    "diagram_to_obj",
    "dual_invariants",
    "dual_invariants_closed_form",
    "evaluate_negative_continued_fraction",
    "expand_diagram",
    "format_rational",
    "load_diagram",
    "negative_continued_fraction",
    "parse_diagram",
    "parse_rational",
    "run_checks",
    "serialize_diagram",
    "solve_integral",
    "stabilization_counts",
    "verdict_from_bennequin",
    "verdict_to_obj",
]
