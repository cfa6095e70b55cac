"""surgerycalc: exact calculator for rational contact surgeries.

The package expands rational contact surgery coefficients along
Legendrian knots into (+-1)-surgery presentations, computes the exact
rational classical invariants (tb_Q, rot_Q, homological order) of
surgery-dual knots through linking-matrix formulas, and decides
overtwistedness or tightness of the surgered contact manifold where a
criterion certifies it. All arithmetic is exact; nothing is ever a
float.

Modules:

* ``exact``: Fraction-valued vectors and matrices; determinants and
  solves share one fraction-free (Bareiss) elimination kernel over
  Python ints, each row scaled by the lcm of its denominators.
* ``diagram``: the surgery diagram data model, one framed linking
  matrix builder behind ``dual_system`` (what the invariants run on)
  and the bordered check matrices, and the JSON file format.
* ``expansion``: negative continued fractions and the expansion of
  rational coefficients into (+-1)-surgeries with stabilization
  bookkeeping; one private coefficient-shape dispatch serves the
  diagram and single-knot expanders.
* ``invariants``: closed-form and matrix-path invariants of
  surgery-dual knots; ``dual_invariants`` is the one entry point that
  expands rational coefficients when the matrix path needs it.
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
    UnexpandedCoefficient,
    ValidationError,
    build_extended_matrix,
    build_general_matrices,
    build_linking_matrix,
    chain_diagram,
    diagram_from_obj,
    diagram_to_obj,
    dual_system,
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
    as_rational,
    det,
    format_rational,
    inner_product,
    parse_rational,
    solve,
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
    dual_invariants_matrix,
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
    "UnexpandedCoefficient",
    "Unsupported",
    "ValidationError",
    "Verdict",
    "as_rational",
    "bennequin_check",
    "build_extended_matrix",
    "build_general_matrices",
    "build_linking_matrix",
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
    "dual_invariants_matrix",
    "dual_system",
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
    "stabilization_counts",
    "topological_coefficient",
    "verdict_from_bennequin",
    "verdict_to_obj",
]
