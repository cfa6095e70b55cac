"""surgerycalc: exact calculator for rational contact surgeries.

The package expands rational contact surgery coefficients along
Legendrian knots into (+-1)-surgery presentations, computes the exact
rational classical invariants (tb_Q, rot_Q, homological order) of
surgery-dual knots through linking-matrix formulas, and decides
overtwistedness or tightness of the surgered contact manifold where a
criterion certifies it. All arithmetic is exact; nothing is ever a
float.

Modules:

* ``exact``: exact vectors and matrices; int entries stay ints, and
  determinants and solves share one fraction-free (Bareiss)
  elimination kernel over Python ints (a row holding a Fraction is
  scaled by the lcm of its denominators). Results are Fractions except
  ``solve_integral``'s: ints y and d, the solution being y / d.
* ``diagram``: the surgery diagram data model, one framed linking
  matrix builder (tb_i + r_i on the diagonal) behind the invariants'
  k x k system and the bordered check matrices, the (+1)-push-off
  chain diagrams, and the JSON file format.
* ``expansion``: negative continued fractions and the expansion of
  rational coefficients into (+-1)-surgeries with stabilization
  bookkeeping; one private coefficient-shape dispatch serves the
  diagram and single-knot expanders. An expansion is kept as one
  record per derived curve and its linking matrix as per-group blocks;
  the per-curve components and steps, and the matrix, are built only
  when ``components``, ``steps`` or ``derived_diagram`` is first read.
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
    PlusOneChainSpec,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
    build_general_matrices,
    chain_diagram,
    diagram_from_obj,
    diagram_to_obj,
    load_diagram,
    parity_lint,
    parse_diagram,
    presentation_matrix,
    reverse_orientation,
    serialize_diagram,
    topological_coefficient,
)
from .exact import (
    DimensionMismatch,
    Rational,
    SingularMatrix,
    SquareMatrix,
    TooManyDigits,
    as_rational,
    det,
    format_rational,
    inner_product,
    parse_rational,
    solve,
    solve_integral,
)
from .expansion import (
    ExpandedPresentation,
    ExpansionStep,
    NotCoprime,
    RangeError,
    Unsupported,
    evaluate_negative_continued_fraction,
    expand_diagram,
    expand_negative_rational,
    expand_positive_rational,
    expand_positive_unit_fraction,
    negative_continued_fraction,
    stabilization_counts,
)
from .invariants import (
    DualKnotInvariants,
    NonNullhomologousDual,
    dual_invariants,
    dual_invariants_closed_form,
    homological_order,
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
    "ExpansionStep",
    "InconsistentAssumptions",
    "LegendrianKnotData",
    "MissingCoefficient",
    "NonNullhomologousDual",
    "NotCoprime",
    "ParseError",
    "PlusOneChainSpec",
    "RangeError",
    "Rational",
    "SelfTestFailure",
    "SingularMatrix",
    "SquareMatrix",
    "SurgeryComponent",
    "SurgeryDiagram",
    "TooManyDigits",
    "Unsupported",
    "ValidationError",
    "Verdict",
    "as_rational",
    "bennequin_check",
    "build_general_matrices",
    "chain_diagram",
    "classify_diagram",
    "classify_lemma_tight",
    "classify_thm1",
    "classify_thm2",
    "det",
    "diagram_from_obj",
    "diagram_to_obj",
    "dual_invariants",
    "dual_invariants_closed_form",
    "evaluate_negative_continued_fraction",
    "expand_diagram",
    "expand_negative_rational",
    "expand_positive_rational",
    "expand_positive_unit_fraction",
    "format_rational",
    "homological_order",
    "inner_product",
    "load_diagram",
    "negative_continued_fraction",
    "parity_lint",
    "parse_diagram",
    "parse_rational",
    "presentation_matrix",
    "reverse_orientation",
    "run_checks",
    "serialize_diagram",
    "solve",
    "solve_integral",
    "stabilization_counts",
    "topological_coefficient",
    "verdict_from_bennequin",
    "verdict_to_obj",
]
