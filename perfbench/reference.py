"""Independent reference answers for every request the benchmark sends.

Nothing here imports ``surgerycalc``: each expected answer is derived
from the paper's rules as this file states them, so a defect in the
program cannot hide in its own oracle.

* Expansion: the greedy negative continued fraction, the per-curve
  stabilization counts |a1 + 1|, |ai + 2|, the zigzag policies and the
  linking rule "a later curve of a chain links an earlier one by the
  earlier curve's tb; curves of different sources link as their
  sources do".
* Dual invariants: the k x k rational linking matrix of the
  *unexpanded* surgered components, with diagonal tb_i + r_i, gives
  tb_Q = tb_L - l^T Lambda^-1 l. rot_Q and the homological order need
  one vector per expanded group, y = G^-1 (1, ..., 1), where G is the
  group's block of the expanded linking matrix. In the basis
  c'_j = c_j - c_(j-1) the block becomes tridiagonal, so y costs O(m)
  for a group of m curves instead of the O((sum m)^3) dense
  elimination the program runs.
* For a (+1/n)-surgery along K with L a push-off of K the closed forms
  tb/(n tb + 1), rot/(n tb + 1) and |n tb + 1| are checked as well.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

CONWAY_FLAG = "conway-counterexample"


class ReferenceError(RuntimeError):
    """The benchmark's own derivation contradicts itself (a benchmark bug)."""


# --------------------------------------------------------------------------
# Expansion


def cf_digits(r: Fraction) -> list[int]:
    """Digits a1, ..., am with r = a1 - 1/(a2 - ... - 1/am), r < 0."""
    digits = []
    while True:
        a = r.numerator // r.denominator
        digits.append(a)
        if r == a:
            return digits
        r = -1 / (r - a)


def stabilizations(digits: list[int]) -> list[int]:
    return [abs(digits[0] + 1)] + [abs(a + 2) for a in digits[1:]]


def zigzag(count: int, policy: str) -> tuple[int, ...]:
    if policy == "all-negative":
        return (-1,) * count
    if policy == "all-positive":
        return (1,) * count
    if policy == "balanced":
        return tuple(-1 if k % 2 == 0 else 1 for k in range(count))
    raise ReferenceError(f"unknown zigzag policy {policy!r}")


@dataclass(frozen=True)
class Curve:
    id: str
    tb: int
    rot: int
    chi: int
    coefficient: Optional[Fraction]
    signs: tuple[int, ...]
    source: str


def _negative_chain(comp: dict, r: Fraction, policy: str, pushoff: bool) -> list[Curve]:
    digits = cf_digits(r)
    counts = stabilizations(digits)
    keep_id = len(digits) == 1 and counts[0] == 0 and not pushoff
    curves = []
    tb, rot = comp["tb"], comp["rot"]
    for k, count in enumerate(counts, start=1):
        signs = zigzag(count, policy)
        tb -= count
        rot += sum(signs)
        cid = comp["id"] if keep_id else f"{comp['id']}#{k}"
        curves.append(Curve(cid, tb, rot, comp["chi"], Fraction(-1), signs, comp["id"]))
    return curves


def expand_component(comp: dict, policy: str) -> list[Curve]:
    """The curve group one component expands to, in chain order."""
    r = comp["r"]
    plain = Curve(comp["id"], comp["tb"], comp["rot"], comp["chi"], r, (), comp["id"])
    if r is None or r in (1, -1):
        return [plain]
    if r > 0 and r.numerator == 1:
        n = r.denominator
        return [
            Curve(f"{comp['id']}#{k}", comp["tb"], comp["rot"], comp["chi"],
                  Fraction(1), (), comp["id"])
            for k in range(1, n + 1)
        ]
    if r > 0 and r.numerator > r.denominator:
        p, q = r.numerator, r.denominator
        head = Curve(comp["id"], comp["tb"], comp["rot"], comp["chi"], Fraction(1), (),
                     comp["id"])
        return [head] + _negative_chain(comp, Fraction(-p, p - q), policy, True)
    if r < 0:
        return _negative_chain(comp, r, policy, False)
    raise ReferenceError(f"coefficient {r} has no expansion rule")


def expand(diagram: dict, policy: str) -> tuple[list[list[Curve]], list[list[int]]]:
    """Curve groups and the linking matrix of the expanded diagram."""
    groups = [expand_component(comp, policy) for comp in diagram["components"]]
    flat = [(g, k) for g, group in enumerate(groups) for k in range(len(group))]
    size = len(flat)
    link = diagram["linking"]
    linking = [[0] * size for _ in range(size)]
    for a in range(size):
        ga, ka = flat[a]
        row = linking[a]
        for b in range(a + 1, size):
            gb, kb = flat[b]
            value = groups[ga][min(ka, kb)].tb if ga == gb else link[ga][gb]
            row[b] = value
            linking[b][a] = value
    return groups, linking


def _coef_text(value: Optional[Fraction]) -> Optional[str]:
    return None if value is None else str(value)


def expand_results(diagram: dict, policy: str) -> dict:
    groups, linking = expand(diagram, policy)
    curves = [curve for group in groups for curve in group]
    return {
        "ambient": diagram["ambient"],
        "components": [
            {"contact_coefficient": _coef_text(c.coefficient), "euler_char": c.chi,
             "id": c.id, "rot": c.rot, "tb": c.tb}
            for c in curves
        ],
        "linking": linking,
        "steps": [
            {"coefficient": str(c.coefficient), "source_id": c.source,
             "stabilization_signs": list(c.signs), "stabilizations": len(c.signs)}
            for c in curves if c.coefficient is not None
        ],
        "zigzag_policy": policy,
    }


def expand_text(results: dict) -> str:
    lines = ["command: expand", f"zigzag policy: {results['zigzag_policy']}", "steps:"]
    for index, step in enumerate(results["steps"], start=1):
        line = (f"  {index}. source={step['source_id']} "
                f"coefficient={step['coefficient']} "
                f"stabilizations={step['stabilizations']}")
        if step["stabilization_signs"]:
            line += " signs=" + ",".join(f"{s:+d}" for s in step["stabilization_signs"])
        lines.append(line)
    lines.append(f"derived diagram ({len(results['components'])} components):")
    for c in results["components"]:
        coefficient = c["contact_coefficient"] if c["contact_coefficient"] is not None else "none"
        lines.append(f"  {c['id']}: tb={c['tb']} rot={c['rot']} "
                     f"euler_char={c['euler_char']} coefficient={coefficient}")
    lines.append("linking:")
    lines.extend("  [" + ", ".join(str(v) for v in row) + "]" for row in results["linking"])
    return "\n".join(lines) + "\n"


def report_json(command: str, options: dict, results, citations=()) -> str:
    obj = {"citations": sorted(set(citations)), "command": command,
           "options": options, "results": results}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# Exact linear algebra on small rational systems


def solve_small(matrix: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Gauss-Jordan with exact pivots; None when the matrix is singular."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n] for row in aug]


def _group_vector(group: list[Curve]) -> list[Fraction]:
    """y = G^-1 (1, ..., 1) for the block G of one curve group.

    G[i][j] = t_min(i,j) off the diagonal and t_j + c_j on it, where t
    are the curves' tb and c their +-1 coefficients. With P the
    difference operator (P G P^T = H tridiagonal, P 1 = e_1) this is
    y = P^T H^-1 e_1, solved by a two-sweep recurrence.
    """
    t = [c.tb for c in group]
    c = [int(curve.coefficient) for curve in group]
    m = len(group)
    delta = [t[0]] + [t[k] - t[k - 1] for k in range(1, m)]
    diag = [delta[k] + c[k] + (c[k - 1] if k else 0) for k in range(m)]
    off = [0] + [-c[k - 1] for k in range(1, m)]  # off[k] = H[k][k-1]
    # w[k] = ratio[k] * w[k-1] for k >= 1, from the bottom row up.
    ratio = [Fraction(0)] * m
    for k in range(m - 1, 0, -1):
        pivot = diag[k] + (off[k + 1] * ratio[k + 1] if k + 1 < m else 0)
        if pivot == 0:
            raise ReferenceError(f"zero pivot in group {group[0].source}")
        ratio[k] = Fraction(-off[k]) / pivot
    pivot = diag[0] + (off[1] * ratio[1] if m > 1 else 0)
    if pivot == 0:
        raise ReferenceError(f"singular group {group[0].source}")
    w = [1 / Fraction(pivot)]
    for k in range(1, m):
        w.append(ratio[k] * w[-1])
    return [w[k] - (w[k + 1] if k + 1 < m else 0) for k in range(m)]


@dataclass(frozen=True)
class Invariants:
    tb_q: Fraction
    rot_q: Fraction
    order: int
    chi: int

    def obj(self) -> dict:
        return {"euler_char": self.chi, "order": self.order,
                "rot_q": str(self.rot_q), "tb_q": str(self.tb_q)}


def needs_expansion(diagram: dict) -> bool:
    """Whether the program's matrix path expands the diagram first.

    The documented matrix path takes integer contact coefficients as
    single curves with their own rot, and expands the whole diagram
    (all-negative zigzags) only when some coefficient is not an integer.
    """
    return any(c["r"] is not None and c["r"].denominator != 1
               for c in diagram["components"])


def dual_invariants(diagram: dict, dual_id: str,
                    expanded: Optional[bool] = None) -> Optional[Invariants]:
    """Invariants of the unsurgered component ``dual_id``; None if det M = 0.

    ``expanded`` defaults to the program's rule (``needs_expansion``).
    tb_Q and the order do not depend on it; rot_Q does whenever an
    integer coefficient other than +-1 stands for a stabilized curve.
    """
    if expanded is None:
        expanded = needs_expansion(diagram)
    comps = diagram["components"]
    d = next(i for i, comp in enumerate(comps) if comp["id"] == dual_id)
    others = [i for i in range(len(comps)) if i != d]
    link = diagram["linking"]
    lam = [[Fraction(comps[i]["tb"]) + comps[i]["r"] if i == j else Fraction(link[i][j])
            for j in others] for i in others]
    l = [Fraction(link[d][i]) for i in others]
    z = solve_small(lam, l)
    if z is None:
        return None
    tb_q = comps[d]["tb"] - sum(a * b for a, b in zip(l, z))
    rot_sum = Fraction(0)
    order = 1
    for row, i in enumerate(others):
        group = expand_component(comps[i], "all-negative") if expanded else [
            Curve(comps[i]["id"], comps[i]["tb"], comps[i]["rot"], comps[i]["chi"],
                  comps[i]["r"], (), comps[i]["id"])]
        if len(group) == 1:
            xs = [z[row]]
        else:
            y = _group_vector(group)
            if sum(y) != 1 / lam[row][row]:
                raise ReferenceError(f"1^T G^-1 1 != 1/(tb + r) on {comps[i]['id']}")
            xs = [lam[row][row] * z[row] * v for v in y]
        for curve, x in zip(group, xs):
            rot_sum += curve.rot * x
            order = math.lcm(order, x.denominator)
    inv = Invariants(Fraction(tb_q), comps[d]["rot"] - rot_sum, order, comps[d]["chi"])
    for value in (inv.tb_q, inv.rot_q):
        if order % value.denominator:
            raise ReferenceError(f"denominator of {value} does not divide order {order}")
    return inv


def chain_invariants(tb: int, rot: int, chi: int, n: int) -> Optional[Invariants]:
    """Closed forms for the dual of contact (+1/n)-surgery."""
    d = n * tb + 1
    if d == 0:
        return None
    return Invariants(Fraction(tb, d), Fraction(rot, d), abs(d), chi)


def bennequin(inv: Invariants) -> tuple[Fraction, Fraction, bool]:
    lhs = inv.tb_q + abs(inv.rot_q)
    rhs = Fraction(-inv.chi, inv.order)
    return lhs, rhs, lhs <= rhs


# --------------------------------------------------------------------------
# Classification


def classify(diagram: dict, assumed: str, n: int) -> tuple[int, list[tuple[str, str]], bool]:
    """Exit code, (conclusion, rule) per verdict and the Conway flag.

    Mirrors the rules for ``classify --assume-plus-one-tight ID --n N``:
    thm2 in an overtwisted ambient, thm1 in a tight one, lemma-tight
    for the assumed component, and the flag when its tb in the surgered
    manifold is an integer <= -2 with 2 <= N < |tb|.
    """
    ambient = diagram["ambient"]
    if ambient == "overtwisted":
        return 2, [], False
    verdicts = []
    for comp in diagram["components"]:
        r = comp["r"]
        if r is None:
            continue
        verdict = ("inconclusive", "none")
        if r > 0 and r.numerator == 1 and ambient == "tight":
            if comp["chi"] <= 0 and comp["tb"] < 0 and abs(comp["rot"]) > -comp["chi"]:
                verdict = ("overtwisted", "thm1")
        verdicts.append(verdict)
    if any(v[0] == "overtwisted" for v in verdicts):
        return 2, [], False
    flag = False
    for comp in diagram["components"]:
        if comp["r"] is not None:
            continue
        if comp["id"] == assumed:
            verdicts.append(("tight", "lemma-tight"))
            inv = dual_invariants(diagram, comp["id"])
            tb = None if inv is None else inv.tb_q
            flag = tb is not None and tb.denominator == 1 and tb <= -2 and n < -tb
        else:
            verdicts.append(("inconclusive", "none"))
    return 0, verdicts, flag
