"""Seeded input generator: the only source of the benchmark's inputs.

A workload's inputs are a pure function of (workload, seed): the same
pair gives byte-identical files and argv. Each workload fixes what
sets the cost of its requests (component kinds, curve counts, and for
the long chains the coefficients and tb) and the seed draws the rest
(rot, linking numbers, small coefficients, formats, zigzag policies,
request order), so run-to-run spread comes from the program, not from
the input mix.

Every Euler characteristic drawn is odd and at most 1: even values
make the program warn on every knot it constructs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

from reference import chain_invariants, expand_component, dual_invariants

CHI = (1, -1, -3)
POLICIES = ("all-negative", "all-positive", "balanced")


@dataclass
class Request:
    """One CLI invocation; ``diagram`` names the input file it reads, if any."""

    argv: list[str]
    kind: str  # expand | invariants | classify | bennequin | selftest | chain
    diagram: Optional[str] = None  # key into Inputs.diagrams


@dataclass
class Inputs:
    files: dict[str, bytes] = field(default_factory=dict)  # name -> bytes
    diagrams: dict[str, dict] = field(default_factory=dict)  # name -> parsed model
    requests: list[Request] = field(default_factory=list)


def evaluate_digits(digits: list[int]) -> Fraction:
    value = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        value = a - 1 / value
    return value


def diagram_json(d: dict) -> bytes:
    obj = {
        "ambient": d["ambient"],
        "components": [
            {"id": c["id"], "tb": c["tb"], "rot": c["rot"], "euler_char": c["chi"],
             "contact_coefficient": None if c["r"] is None else str(c["r"])}
            for c in d["components"]
        ],
        "linking": d["linking"],
    }
    return (json.dumps(obj, indent=2) + "\n").encode()


def model_from_json(data: bytes) -> dict:
    """The generator's model of a diagram file (used for the bundled ones)."""
    obj = json.loads(data)
    return {
        "ambient": obj["ambient"],
        "components": [
            {"id": c["id"], "tb": c["tb"], "rot": c["rot"], "chi": c["euler_char"],
             "r": None if c["contact_coefficient"] is None
             else Fraction(str(c["contact_coefficient"]))}
            for c in obj["components"]
        ],
        "linking": obj["linking"],
    }


def _component(rng: random.Random, cid: str, r: Fraction, tb=None) -> dict:
    return {"id": cid, "tb": rng.randint(-5, 1) if tb is None else tb,
            "rot": rng.randint(-4, 4), "chi": rng.choice(CHI), "r": r}


def _diagram(rng, ambient, surgered: list[dict]) -> dict:
    dual = {"id": "L", "tb": rng.randint(-6, 2), "rot": rng.randint(-4, 4),
            "chi": rng.choice(CHI), "r": None}
    comps = [dual] + surgered
    n = len(comps)
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            linking[i][j] = linking[j][i] = rng.randint(-2, 2)
    return {"ambient": ambient, "components": comps, "linking": linking}


def _valid(d: dict) -> bool:
    """Nonsingular, and every multi-curve group has tb + r != 0."""
    for c in d["components"]:
        if c["r"] is not None and len(expand_component(c, "all-negative")) > 1:
            if c["tb"] + c["r"] == 0:
                return False
    return dual_invariants(d, "L") is not None


# --------------------------------------------------------------------------
# small-batch: many small diagrams, every coefficient shape, error paths


def _shape(r: Fraction) -> Optional[str]:
    if r in (1, -1):
        return "unit"
    if r > 0:
        if r.numerator == 1:
            return "inverse"
        return "positive" if r.numerator > r.denominator else None
    return "negative"


def _coefficient_classes() -> dict[tuple[str, int], list[Fraction]]:
    """Every coefficient with |p|, |q| <= 9, by (shape, curves it expands to)."""
    classes: dict[tuple[str, int], list[Fraction]] = {}
    for p in range(1, 10):
        for q in range(1, 10):
            for r in {Fraction(p, q), Fraction(-p, q)}:
                if gcd(p, q) == 1 and _shape(r):
                    comp = {"id": "K", "tb": 0, "rot": 0, "chi": 1, "r": r}
                    key = (_shape(r), len(expand_component(comp, "all-negative")))
                    classes.setdefault(key, []).append(r)
    return {key: sorted(values) for key, values in classes.items()}


CLASSES = _coefficient_classes()
SHAPES = ("unit", "inverse", "positive", "negative")


def _layout(layout_rng: random.Random, index: int) -> list[tuple[str, int]]:
    """(shape, curve count) of each surgered component of diagram ``index``."""
    layout = []
    for j in range(1 + index % 5):
        shape = SHAPES[(index + j) % 4]
        layout.append(layout_rng.choice(sorted(key for key in CLASSES if key[0] == shape)))
    return layout


def _small_diagram(rng: random.Random, index: int, layout) -> dict:
    while True:
        surgered = [_component(rng, f"K{j}", rng.choice(CLASSES[key]))
                    for j, key in enumerate(layout)]
        ambient = ("unknown", "tight", "unknown", "tight", "overtwisted")[index % 5]
        d = _diagram(rng, ambient, surgered)
        if _valid(d):
            return d


def _chain_knot(rng: random.Random, n_min: int) -> tuple[int, int, int, int]:
    """(tb, rot, chi, n) of a knot whose (+1/n)-surgery dual is defined."""
    while True:
        tb, rot, chi = rng.randint(-5, -1), rng.randint(-4, 4), rng.choice(CHI)
        n = rng.randint(n_min, 9)
        if chain_invariants(tb, rot, chi, n) is not None:
            return tb, rot, chi, n


def _chain_diagram(rng: random.Random) -> dict:
    """L is a push-off of K, which carries contact (+1/n)-surgery."""
    tb, rot, chi, n = _chain_knot(rng, 2)
    k = {"id": "K", "tb": tb, "rot": rot, "chi": chi, "r": Fraction(1, n)}
    dual = {"id": "L", "tb": tb, "rot": rot, "chi": chi, "r": None}
    return {"ambient": "unknown", "components": [dual, k], "linking": [[0, tb], [tb, 0]]}


def _singular_diagram(rng: random.Random, index: int, layout) -> dict:
    """A valid diagram plus an unlinked (+1)-surgered tb = -1 unknot: det M = 0."""
    d = _small_diagram(rng, index, layout)
    d["components"].append({"id": "Z", "tb": -1, "rot": 0, "chi": 1, "r": Fraction(1)})
    for row in d["linking"]:
        row.append(0)
    d["linking"].append([0] * len(d["components"]))
    return d


def _malformed(rng: random.Random, index: int, layout) -> bytes:
    text = diagram_json(_small_diagram(rng, index, layout)).decode()
    kind = index % 3
    if kind == 0:
        return text[: len(text) // 2].encode()  # truncated JSON
    obj = json.loads(text)
    if kind == 1:
        obj["linking"][0][1] += 1  # asymmetric linking
    else:
        obj["components"][1]["contact_coefficient"] = "1.5"  # not a p/q rational
    return (json.dumps(obj, indent=2) + "\n").encode()


def small_batch(rng: random.Random, workdir: str) -> Inputs:
    inputs = Inputs()
    # The layout (shapes and curve counts) is the same for every seed, so
    # that seeds differ in the details and not in how much work they ask.
    layout_rng = random.Random("small-batch layout")
    for index in range(48):
        name = f"s{index:02d}.json"
        layout = _layout(layout_rng, index)
        if index % 16 == 15:
            inputs.files[name] = _malformed(rng, index, layout)
            inputs.diagrams[name] = None
            continue
        if index % 16 == 7:
            d = _singular_diagram(rng, index, layout)
        elif index % 8 == 3:
            d = _chain_diagram(rng)
        else:
            d = _small_diagram(rng, index, layout)
        inputs.files[name] = diagram_json(d)
        inputs.diagrams[name] = d
    for name in sorted(inputs.files):
        path = f"{workdir}/{name}"
        for fmt in ("text", "json"):
            policy = rng.choice(POLICIES)
            inputs.requests += [
                Request(["expand", path, "--zigzag-policy", policy, "--format", fmt],
                        "expand", name),
                Request(["invariants", path, "--dual", "L", "--format", fmt],
                        "invariants", name),
                Request(["classify", path, "--n", "2", "--assume-plus-one-tight", "L",
                         "--format", fmt], "classify", name),
                Request(["bennequin", path, "--dual", "L", "--format", fmt],
                        "bennequin", name),
            ]
    rng.shuffle(inputs.requests)
    return inputs


# --------------------------------------------------------------------------
# long-chain / expand-large: coefficients that expand to many curves


def _digits(m: int, deepest: int) -> list[int]:
    """m continued-fraction digits cycling through -2, ..., deepest."""
    return [-2 - k % (-1 - deepest) for k in range(m)]


def _long_coefficient(kind: str, m: int) -> Fraction:
    """A coefficient whose group has exactly m curves."""
    if kind == "minus-n1-over-n":
        return Fraction(-(m + 1), m)
    if kind == "inverse":
        return Fraction(1, m)
    if kind == "stabilized":
        return evaluate_digits(_digits(m, -9))
    if kind == "positive":
        # a head curve, then a tail -P/Q of m - 1 curves: +P/(P - Q)
        tail = -evaluate_digits(_digits(m - 1, -4))
        return Fraction(tail.numerator, tail.numerator - tail.denominator)
    raise ValueError(kind)


# (kinds of the surgered components, total curves) per diagram. Kinds
# cover the shapes named by the workload: -(N+1)/N, +1/N, heavily
# stabilized negatives (entries grow) and linked rational components.
# An odd count puts the median request inside one diagram's cluster,
# not on the gap between two sizes.
LONG_SHAPES = (
    (("minus-n1-over-n",), 30),
    (("stabilized",), 34),
    (("inverse",), 38),
    (("minus-n1-over-n",), 42),
    (("stabilized", "minus-n1-over-n"), 46),
    (("positive", "stabilized", "inverse"), 50),
    (("minus-n1-over-n", "positive"), 54),
)
EXPAND_SHAPES = (
    (("minus-n1-over-n",), 300),
    (("stabilized",), 400),
    (("inverse",), 500),
    (("positive",), 600),
    (("stabilized", "minus-n1-over-n"), 700),
    (("minus-n1-over-n",), 800),
)


def _long_diagram(rng: random.Random, kinds, total: int) -> dict:
    sizes = [total // len(kinds)] * len(kinds)
    sizes[0] += total - sum(sizes)
    while True:
        # Coefficients, tb and the size of every linking number are fixed,
        # not drawn: they set the entries of the expanded and bordered
        # matrices, and with them the cost of a request (a zero linking
        # with L, say, makes det(M0) free).
        surgered = [
            _component(rng, f"K{j}", _long_coefficient(kind, m), tb=-2 - j)
            for j, (kind, m) in enumerate(zip(kinds, sizes))
        ]
        d = _diagram(rng, "unknown", surgered)
        for i in range(len(kinds) + 1):
            for j in range(i + 1, len(kinds) + 1):
                d["linking"][i][j] = d["linking"][j][i] = rng.choice((-2, 2))
        groups = [len(expand_component(c, "all-negative")) for c in surgered]
        if groups == sizes and _valid(d):
            return d


def _long_inputs(rng, workdir, shapes, prefix, commands) -> Inputs:
    inputs = Inputs()
    for index, (kinds, total) in enumerate(shapes):
        name = f"{prefix}{index:02d}.json"
        d = _long_diagram(rng, kinds, total)
        inputs.files[name] = diagram_json(d)
        inputs.diagrams[name] = d
        path = f"{workdir}/{name}"
        for kind, argv in commands(rng, path):
            inputs.requests.append(Request(argv, kind, name))
    rng.shuffle(inputs.requests)
    return inputs


def long_chain(rng: random.Random, workdir: str) -> Inputs:
    def commands(rng, path):
        fmt = rng.choice(("text", "json"))
        return [
            ("invariants", ["invariants", path, "--dual", "L", "--format", fmt]),
            ("classify", ["classify", path, "--n", "2", "--assume-plus-one-tight", "L",
                          "--format", fmt]),
            ("bennequin", ["bennequin", path, "--dual", "L", "--format", fmt]),
        ]
    return _long_inputs(rng, workdir, LONG_SHAPES, "c", commands)


def expand_large(rng: random.Random, workdir: str) -> Inputs:
    def commands(rng, path):
        return [
            ("expand", ["expand", path, "--zigzag-policy", rng.choice(POLICIES),
                        "--format", fmt])
            for fmt in ("text", "json")
        ]
    return _long_inputs(rng, workdir, EXPAND_SHAPES, "e", commands)


# --------------------------------------------------------------------------
# cli-process: one process per request, bundled diagrams


def cli_process(rng: random.Random, workdir: str, bundled: dict[str, bytes]) -> Inputs:
    inputs = Inputs()
    for name, data in bundled.items():
        inputs.files[name] = data
        inputs.diagrams[name] = model_from_json(data)
    fig, s1 = f"{workdir}/figure1.json", f"{workdir}/s1xs2.json"
    tb, rot, chi, n = _chain_knot(rng, 1)
    chain = ["--chain", "--tb", str(tb), "--rot", str(rot), "--chi", str(chi), "--n", str(n)]
    oneshots = [
        Request(["invariants", fig, "--dual", "L"], "invariants", "figure1.json"),
        Request(["classify", fig, "--assume-plus-one-tight", "L", "--n", "2",
                 "--format", "json"], "classify", "figure1.json"),
        Request(["invariants", s1, "--dual", "U"], "invariants", "s1xs2.json"),
        Request(["expand", fig, "--format", "json"], "expand", "figure1.json"),
        Request(["invariants"] + chain, "chain"),
        Request(["bennequin"] + chain + ["--format", "json"], "chain"),
    ]
    # A selftest before every two one-shots: a run then holds more than
    # ten selftests, so its tail percentile reads selftest wall time and
    # not the jitter of starting a process.
    selftest = Request(["selftest"], "selftest")
    inputs.requests = [req for k in range(0, 6, 2) for req in [selftest] + oneshots[k:k + 2]]
    return inputs
