"""Checks each request's exit code and output against the reference.

``expand`` and ``invariants`` output is compared byte for byte with
text the benchmark renders itself: both are data dumps whose format
the project keeps byte-identical. ``classify`` and ``bennequin`` are
compared on their facts (conclusions, rules, the Conway flag, the
invariants, both sides of the bound), not on the wording of their
justification traces.
"""

from __future__ import annotations

import json
import re

import reference as ref
from gen import Inputs, Request

VERDICT = re.compile(r"\[\d+\] (\S+) \(rule: (\S+)\)$")
SELFTEST_LINE = re.compile(r".+: pass \(\d+ cases\)$")


def _option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _fmt(argv: list[str]) -> str:
    return _option(argv, "--format", "text")


def _invariants_text(inv: ref.Invariants) -> list[str]:
    return [f"tb_q = {inv.tb_q}", f"rot_q = {inv.rot_q}", f"order = {inv.order}",
            f"euler_char = {inv.chi}"]


def _chain_args(argv: list[str]) -> tuple[int, int, int, int]:
    return tuple(int(_option(argv, f"--{k}", 1)) for k in ("tb", "rot", "chi", "n"))


def is_chain(d: dict) -> bool:
    """L is a push-off of the only surgered component K, r = +1/n."""
    if len(d["components"]) != 2:
        return False
    l, k = d["components"]
    return (l["r"] is None and k["r"] is not None and k["r"] > 0 and k["r"].numerator == 1
            and (l["tb"], l["rot"], l["chi"]) == (k["tb"], k["rot"], k["chi"])
            and d["linking"][0][1] == k["tb"])


class Checker:
    """Expected answers, computed once per distinct request."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.memo: dict[tuple, object] = {}
        self.convention_diffs: set[str] = set()

    def prepare(self) -> None:
        """Work out every expected answer, so that none is computed mid-run."""
        for req in self.inputs.requests:
            key = tuple(req.argv)
            if key not in self.memo:
                self.memo[key] = self._expect(req)

    def check(self, req: Request, code, out: str | None, digest: str) -> str | None:
        """None when the request behaved as the reference says, else why not.

        ``out`` is the request's standard output, or None when only its
        SHA-256 ``digest`` was kept (large ``expand`` outputs).
        """
        expect_code, verify = self.memo[tuple(req.argv)]
        if code != expect_code:
            return f"exit code {code}, expected {expect_code}"
        if expect_code != 0:
            return None if out == "" else "output on a failed request"
        if req.kind == "expand":
            return verify(digest)
        if out is None:
            return "output too large to check"
        return verify(out)

    def _invariants(self, req: Request):
        argv = req.argv
        if req.kind == "chain":
            return ref.chain_invariants(*_chain_args(argv))
        d = self.inputs.diagrams[req.diagram]
        dual = _option(argv, "--dual")
        inv = ref.dual_invariants(d, dual)
        if inv is not None and is_chain(d):
            k = d["components"][1]
            closed = ref.chain_invariants(k["tb"], k["rot"], k["chi"], k["r"].denominator)
            if closed != inv:
                raise ref.ReferenceError(f"closed form {closed} != linking form {inv}")
        if inv is not None and not ref.needs_expansion(d):
            if ref.dual_invariants(d, dual, expanded=True) != inv:
                self.convention_diffs.add(req.diagram)
        return inv

    def _expect(self, req: Request):
        argv, kind = req.argv, req.kind
        d = self.inputs.diagrams.get(req.diagram) if req.diagram else None
        if req.diagram and d is None:
            return 2, None  # malformed input
        if kind == "selftest":
            return 0, _check_selftest
        if kind == "expand":
            policy = _option(argv, "--zigzag-policy", "all-negative")
            results = ref.expand_results(d, policy)
            if _fmt(argv) == "text":
                text = ref.expand_text(results)
            else:
                options = {"format": "json", "input": argv[1], "zigzag_policy": policy}
                text = ref.report_json("expand", options, results)
            expected = ref.digest(text)
            return 0, lambda digest: None if digest == expected else "expand output differs"
        if kind == "classify":
            code, verdicts, flag = ref.classify(d, _option(argv, "--assume-plus-one-tight"),
                                                int(_option(argv, "--n")))
            _check_known(req, flag)
            return code, lambda out: _check_classify(out, _fmt(argv), verdicts, flag)
        inv = self._invariants(req)
        _check_known(req, inv)
        if inv is None:
            return 3, None
        if argv[0] == "invariants":
            lines = ["command: invariants"] + _invariants_text(inv)
            if _fmt(argv) == "text":
                expected = "\n".join(lines) + "\n"
            else:
                if req.kind == "chain":
                    tb, rot, chi, n = _chain_args(argv)
                    options = {"format": "json", "tb": tb, "rot": rot, "chi": chi, "n": n}
                else:
                    options = {"dual": _option(argv, "--dual"), "format": "json",
                               "input": argv[1]}
                expected = ref.report_json("invariants", options, inv.obj())
            return 0, lambda out: None if out == expected else "invariants output differs"
        return 0, lambda out: _check_bennequin(out, _fmt(argv), inv)


# Published answers on the bundled diagrams; the reference must reproduce them.
KNOWN = {
    ("figure1.json", "invariants"): lambda inv: inv is not None and inv.tb_q == -3,
    ("figure1.json", "classify"): lambda flag: flag,
    ("s1xs2.json", "invariants"): lambda inv: inv is None,
}


def _check_known(req: Request, value) -> None:
    known = KNOWN.get((req.diagram, req.kind))
    if known is not None and not known(value):
        raise ref.ReferenceError(f"reference misses the known answer for {req.argv}")


def _check_selftest(out: str) -> str | None:
    lines = out.splitlines()
    if (len(lines) < 3 or lines[0] != "command: selftest" or lines[-1] != "all checks passed"
            or not all(SELFTEST_LINE.match(line) for line in lines[1:-1])):
        return "selftest output is not a full pass"
    return None


def _check_classify(out: str, fmt: str, verdicts, flag: bool) -> str | None:
    rules = sorted({rule for _, rule in verdicts if rule != "none"})
    if fmt == "json":
        obj = json.loads(out)
        got = [(v["conclusion"], v["rule"]) for v in obj["results"]["verdicts"]]
        got_flag = any(ref.CONWAY_FLAG in line for v in obj["results"]["verdicts"]
                       for line in v["trace"])
        got_rules = obj["citations"]
    else:
        lines = out.splitlines()
        got = [m.groups() for m in map(VERDICT.match, lines) if m]
        got_flag = any(ref.CONWAY_FLAG + ":" in line for line in lines)
        fired = [line for line in lines if line.startswith("rules fired: ")]
        got_rules = fired[0][len("rules fired: "):].split(", ") if fired else []
    if got != verdicts:
        return f"verdicts {got}, expected {verdicts}"
    if got_flag != flag:
        return f"{ref.CONWAY_FLAG} flag {got_flag}, expected {flag}"
    if got_rules != rules:
        return f"rules fired {got_rules}, expected {rules}"
    return None


def _check_bennequin(out: str, fmt: str, inv: ref.Invariants) -> str | None:
    lhs, rhs, satisfied = ref.bennequin(inv)
    verdict = ("inconclusive", "none") if satisfied else ("overtwisted", "bennequin-violation")
    citations = [] if satisfied else ["bennequin-violation"]
    if fmt == "json":
        obj = json.loads(out)
        r = obj["results"]
        got = (r["invariants"], r["lhs"], r["rhs"], r["satisfied"],
               (r["verdict"]["conclusion"], r["verdict"]["rule"]), obj["citations"])
        want = (inv.obj(), str(lhs), str(rhs), satisfied, verdict, citations)
        return None if got == want else f"bennequin report {got}, expected {want}"
    lines = out.splitlines()
    want = [
        "command: bennequin",
        "dual invariants: " + ", ".join(_invariants_text(inv)),
        f"lhs = tb_q + |rot_q| = {lhs}",
        f"rhs = -euler_char/order = {rhs}",
        f"satisfied = {'no' if not satisfied else 'yes'}",
        f"[1] {verdict[0]} (rule: {verdict[1]})",
    ]
    if lines[:6] != want:
        return f"bennequin lines {lines[:6]}, expected {want}"
    fired = lines[-1] == "rules fired: bennequin-violation"
    if fired == satisfied:
        return "rules fired line does not match the bound"
    return None
