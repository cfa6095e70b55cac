"""surgerycalc: exact calculator for rational contact surgeries.

The package expands rational contact surgery coefficients along
Legendrian knots into (+-1)-surgery presentations, computes the exact
rational classical invariants (tb_Q, rot_Q, homological order) of
surgery-dual knots through linking-matrix formulas, and decides
overtwistedness or tightness of the surgered contact manifold where a
criterion certifies it. All arithmetic is exact; nothing is ever a
float.

Modules, one owner per pipeline stage; no module imports another's
private name:

* ``exact``: exact rationals and ``solve_integral``, the whole
  fraction-free (Bareiss) elimination kernel: it takes augmented rows
  of Python ints and returns ints y and d = det A, the solution being
  y / d.
* ``diagram``: the surgery diagram data model and its validation, the
  (+1)-push-off chain diagrams (``chain_diagram(tb, rot, euler_char,
  n)``), and the JSON file format.
* ``expansion``: negative continued fractions and ``expand_diagram``,
  the one expander of rational coefficients into (+-1)-surgeries with
  stabilization bookkeeping, through one private coefficient-shape
  dispatch; a single knot is a one-component diagram. An expansion is
  kept as one named record per derived curve, which carries its source
  knot's id and Euler characteristic, and its linking matrix as
  per-group blocks; the per-curve components and the matrix are built
  only when ``derived_diagram`` is first read.
* ``invariants``: invariants of surgery-dual knots; ``dual_invariants``
  is the one entry point. It builds the framed linking system cleared
  of denominators (row i times the denominator q_i of its coefficient,
  so every entry is an int) and takes a k x k solve over the unexpanded
  components
  plus a closed form per expanded curve group, never the curves or the
  expanded matrix, in ints until tb_Q and rot_Q. On an expanded
  diagram it evaluates the dense linking-matrix formulas. The (+1/n)
  closed forms stay as an oracle.
* ``classify``: the tight/overtwisted decision rules with
  justification traces.
* ``cli`` / ``selftest``: the command-line tool and its built-in
  verification grids.

The package re-exports each library module's ``__all__``, the one list
of its public names, in the order above; ``cli`` stays out.
"""

from . import classify, diagram, exact, expansion, invariants, selftest
from .exact import *
from .diagram import *
from .expansion import *
from .invariants import *
from .classify import *
from .selftest import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (exact, diagram, expansion, invariants, classify, selftest)
    for name in module.__all__
]
