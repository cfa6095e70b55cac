"""surgerycalc benchmark: seeded workloads through the public CLI surface.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is imported from
``src/``. A run starts WORKERS fresh worker processes one after the
other, each for an equal share of the time, and pools what they
measure: CPython's speed varies from process to process (memory
layout), and pooling several processes evens that out. Each worker
imports the package, generates the inputs from the seed, warms up
(that is its set-up), then drives a closed loop with one client: the
next request is sent only when the previous one has finished. Workers
keep each distinct output, and the parent checks every one against the
reference after the workers are done, so no check runs in a timed
loop.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same requests untraced for half the time and
then traced, and reports per-layer metrics. ``--workload all`` runs
every workload both ways and prints one row per workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report. The exit code is 0 only when
every request matched the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import gen
from check import Checker
from spans import ATTRS, END, NAME, PARENT, REQUEST, START, Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("small-batch", "long-chain", "expand-large", "cli-process")
WORKERS = 4
TAIL_SAMPLES = 10  # samples beyond the reported tail percentile
KEEP_TEXT = 1 << 16  # outputs up to this size are kept whole, larger ones as SHA-256


# --------------------------------------------------------------------------
# Worker: set-up and the timed loop


class Sink:
    """Stands in for stdout and stderr: keeps what is written, copies nothing."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class InProcess:
    """Requests as ``surgerycalc.cli.main(argv)`` calls in the worker."""

    def __init__(self) -> None:
        start = perf_counter()
        import surgerycalc.cli

        self.import_ms = (perf_counter() - start) * 1e3
        self.cli = surgerycalc.cli

    def call(self, argv: list[str], tracer: Tracer | None = None):
        out = Sink()
        with redirect_stdout(out), redirect_stderr(Sink()):
            root = tracer.open("request") if tracer else None
            start = perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except SystemExit as error:  # argparse rejects the options
                code = error.code if isinstance(error.code, int) else 2
            finally:
                elapsed = perf_counter_ns() - start
                if tracer:
                    tracer.close(root)
        return code, out.parts, elapsed


class Subprocess:
    """Requests as ``python -m surgerycalc ARGV`` processes, one at a time."""

    def __init__(self, workdir: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spans_file = workdir / "spans.json"
        self.import_ms = None

    def call(self, argv: list[str], tracer: Tracer | None = None):
        if tracer:
            cmd = [sys.executable, str(BENCH_DIR / "traced_child.py"), str(self.spans_file)]
        else:
            cmd = [sys.executable, "-m", "surgerycalc"]
        start = perf_counter_ns()
        proc = subprocess.run(cmd + argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=150)
        end = perf_counter_ns()
        if tracer:
            self._merge(tracer, start, end)
        return proc.returncode, [proc.stdout], end - start

    def _merge(self, tracer: Tracer, start: int, end: int) -> None:
        """Adopt the child's spans under one root span for the whole process."""
        child = json.loads(self.spans_file.read_text(encoding="utf-8"))
        root = len(tracer.spans)
        tracer.spans.append(["request", start, end, -1, tracer.request, None])
        for span in child:
            span[PARENT] = root if span[PARENT] < 0 else span[PARENT] + root + 1
            span[REQUEST] = tracer.request
            tracer.spans.append(span)


def generate(workload: str, seed: int, workdir: Path) -> gen.Inputs:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-process":
        data = SRC / "surgerycalc" / "data"
        bundled = {name: (data / name).read_bytes() for name in ("figure1.json", "s1xs2.json")}
        return gen.cli_process(rng, str(workdir), bundled)
    make = {"small-batch": gen.small_batch, "long-chain": gen.long_chain,
            "expand-large": gen.expand_large}[workload]
    return make(rng, str(workdir))


def inputs_digest(inputs: gen.Inputs) -> str:
    blob = json.dumps([sorted((k, v.hex()) for k, v in inputs.files.items()),
                       [r.argv for r in inputs.requests]])
    return hashlib.sha256(blob.encode()).hexdigest()


def warmup_requests(workload: str, inputs: gen.Inputs) -> list[gen.Request]:
    """Requests run untimed in set-up: every command once, on a small input."""
    if workload == "cli-process":
        return [r for r in inputs.requests if r.kind == "chain"][:1]
    smallest = min(inputs.files)  # s00 has one +-1 component; c00, e00 are the shortest
    return [r for r in inputs.requests if r.diagram == smallest]


class Recorder:
    """Timed requests with their outputs, each distinct output kept once."""

    def __init__(self) -> None:
        self.outputs: dict[tuple, int] = {}
        self.rows: list[list] = []  # [request index, ns, output id, output bytes]

    def add(self, index: int, ns: int, code, parts: list[str]) -> None:
        size = sum(len(part) for part in parts)
        if size > KEEP_TEXT:
            digest = hashlib.sha256()
            for part in parts:
                digest.update(part.encode())
            out = ("sha256", digest.hexdigest(), size)
        else:
            out = "".join(parts)
        output_id = self.outputs.setdefault((index, code, out), len(self.outputs))
        self.rows.append([index, ns, output_id, size])


def measure(runner, inputs: gen.Inputs, seconds: float, offset: int,
            tracer: Tracer | None = None, limit: int | None = None) -> Recorder:
    """Closed loop over the request list until time (or ``limit``) runs out."""
    recorder = Recorder()
    requests = inputs.requests
    deadline = perf_counter() + seconds
    while perf_counter() < deadline and (limit is None or len(recorder.rows) < limit):
        index = (offset + len(recorder.rows)) % len(requests)
        if tracer:
            tracer.request = len(recorder.rows)
        try:
            code, out, ns = runner.call(requests[index].argv, tracer)
        except Exception as error:  # a crash is a failed request, reported by the parent
            code, out, ns = f"{type(error).__name__}: {error}", [], 0
        recorder.add(index, ns, code, out)
    return recorder


def worker(args, workdir: Path) -> dict:
    start = perf_counter()
    runner = Subprocess(workdir) if args.workload == "cli-process" else InProcess()
    inputs = generate(args.workload, args.seed, workdir)
    for name, data in inputs.files.items():
        # A fresh file each time: rewriting one in place can make the
        # file system flush it on close, which costs far more than set-up.
        (workdir / name).unlink(missing_ok=True)
        (workdir / name).write_bytes(data)
    for req in warmup_requests(args.workload, inputs):
        runner.call(req.argv)
    setup_s = perf_counter() - start

    offset = args.worker * len(inputs.requests) // WORKERS
    result = {"setup_s": setup_s, "import_ms": runner.import_ms,
              "inputs": inputs_digest(inputs)}
    if args.trace:
        untraced = measure(runner, inputs, args.seconds / 2, offset)
        tracer = Tracer()
        if isinstance(runner, InProcess):
            tracer.install()
        traced = measure(runner, inputs, args.seconds * 0.75, offset, tracer,
                         len(untraced.rows))
        passes = {"untraced": untraced, "traced": traced}
        result["spans"] = tracer.spans
    else:
        passes = {"untraced": measure(runner, inputs, args.seconds, offset)}
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-process" else resource.RUSAGE_SELF
    result["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    for name, recorder in passes.items():
        result[name] = recorder.rows
        result[name + "_outputs"] = [[i, code, out, oid]
                                     for (i, code, out), oid in recorder.outputs.items()]
    return result


# --------------------------------------------------------------------------
# Parent: workers, checks, metrics


def run_workers(args, workdir: Path) -> list[dict]:
    results = []
    for index in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
               "--trace", str(args.trace), "--worker", str(index), "--workdir", str(workdir)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"error: worker {index} failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout))
    return results


def check_outputs(results: list[dict], inputs: gen.Inputs, checker: Checker) -> dict:
    """Every timed request as {req, ns, bytes, problem}, by pass, over all workers."""
    checked: dict[str, list[dict]] = {"untraced": [], "traced": []}
    for result in results:
        if result["inputs"] != inputs_digest(inputs):
            raise SystemExit("error: the same seed gave different inputs in a worker")
        for name, rows in checked.items():
            problems = {}
            for index, code, out, output_id in result.get(name + "_outputs", ()):
                req = inputs.requests[index]
                if isinstance(out, list):  # kept as ("sha256", hex, bytes)
                    text, digest = None, out[1]
                else:
                    text, digest = out, hashlib.sha256(out.encode()).hexdigest()
                if isinstance(code, str):
                    problems[output_id] = code  # the request raised
                    continue
                try:
                    problems[output_id] = checker.check(req, code, text, digest)
                except (ValueError, KeyError, IndexError, TypeError) as error:
                    problems[output_id] = f"unreadable output: {error!r}"
            for index, ns, output_id, size in result.get(name, ()):
                rows.append({"req": inputs.requests[index], "ns": ns, "bytes": size,
                             "problem": problems[output_id]})
    return checked


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_SAMPLES samples beyond it, and its rank."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_SAMPLES], 100.0 * (n - TAIL_SAMPLES) / n


def request_medians(records: list[dict]) -> list[float]:
    """Each distinct request's median wall time in ms, once per request.

    The pool-level figures below use these, so that a run's partial last
    pass over the pool and the jitter of single requests do not move them.
    """
    times: dict[tuple, list[int]] = {}
    for r in records:
        times.setdefault(tuple(r["req"].argv), []).append(r["ns"])
    return [statistics.median(ns) / 1e6 for ns in times.values()]


def end_to_end(results: list[dict], records: list[dict]) -> tuple[dict, dict]:
    ms = [r["ns"] / 1e6 for r in records]
    medians = request_medians(records)
    selftest = [r["ns"] / 1e9 for r in records if r["req"].kind == "selftest"]
    tail_ms, tail_pct = tail(ms)
    setups = [result["setup_s"] for result in results]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # The pool sent once: its requests over the sum of their medians.
        "ops_per_s": (len(medians) / (sum(medians) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(medians), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        # Each worker's own peak; the median over workers, as for set-up.
        "peak_rss_mb": (statistics.median(result["rss_mb"] for result in results), "MB"),
    }
    extra = {
        "failed_frac": sum(1 for r in records if r["problem"]) / len(records),
        "tail_percentile": tail_pct,
        "latency_samples": len(ms),
        "selftest_s": statistics.median(selftest) if selftest else None,
        "selftest_samples": len(selftest),
        "setup_runs": setups,
    }
    return metrics, extra


def pooled_spans(results: list[dict]) -> list[list]:
    """All workers' spans in one list, with parents and request ids made global."""
    spans = []
    for number, result in enumerate(results):
        offset = len(spans)
        for span in result["spans"]:
            if span[PARENT] >= 0:
                span[PARENT] += offset
            span[REQUEST] = (number, span[REQUEST])
            spans.append(span)
    return spans


def per_layer(results: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    spans = pooled_spans(results)
    own = self_times(spans)
    n = len(traced)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def self_ms(*names: str) -> float:
        return sum(own[i] for name in names for i in by_name.get(name, ())) / 1e6 / n

    def calls(name: str) -> float:
        return len(by_name.get(name, ())) / n

    def attr_values(key: str) -> list[int]:
        return [s[ATTRS][key] for s in spans if s[ATTRS] and key in s[ATTRS]]

    layer_self: dict[str, int] = {}
    for index, span in enumerate(spans):
        layer = "harness" if span[NAME] == "request" else span[NAME].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + own[index]
    request_ns = sum(spans[i][END] - spans[i][START] for i in by_name.get("request", ()))

    dual = by_name.get("invariants.dual_invariants_matrix", [])
    retried = sum(1 for i in dual
                  if (spans[i][ATTRS] or {}).get("error") == "UnexpandedCoefficient")
    under_classify = 0
    for i in dual:
        parent = spans[i][PARENT]
        while parent >= 0 and spans[parent][NAME] != "classify.classify_diagram":
            parent = spans[parent][PARENT]
        under_classify += parent >= 0
    imports = [(spans[i][END] - spans[i][START]) / 1e6 for i in by_name.get("cli.import", ())]
    imports = imports or [result["import_ms"] for result in results]
    # Overhead over the same requests: each worker's traced pass repeats its
    # untraced one, request for request, up to the shorter of the two.
    traced_ns = untraced_ns = 0
    for result in results:
        common = min(len(result["traced"]), len(result["untraced"]))
        traced_ns += sum(row[1] for row in result["traced"][:common])
        untraced_ns += sum(row[1] for row in result["untraced"][:common])

    metrics = {
        "exact.det_ms": (self_ms("exact.det"), "ms"),
        "exact.solve_ms": (self_ms("exact.solve"), "ms"),
        "exact.det_calls": (calls("exact.det"), "count"),
        "exact.solve_calls": (calls("exact.solve"), "count"),
        "exact.dim_max": (max(attr_values("dim"), default=0), "count"),
        "exact.det_bits_max": (max(attr_values("bits"), default=0), "bits"),
        "expansion.expand_ms": (layer_self.get("expansion", 0) / 1e6 / n, "ms"),
        "expansion.curves_out": (sum(attr_values("curves")) / n, "count"),
        "expansion.cf_digits": (sum(attr_values("digits")) / n, "count"),
        "diagram.parse_ms": (self_ms("diagram.parse_diagram"), "ms"),
        "diagram.build_matrices_ms": (self_ms("diagram.build_general_matrices"), "ms"),
        "diagram.components_in": (sum(attr_values("components")) / n, "count"),
        "invariants.dual_self_ms": (self_ms("invariants.dual_invariants_matrix"), "ms"),
        "invariants.dual_calls": (len(dual) / n, "count"),
        "invariants.retry_frac": (retried / len(dual) if dual else 0.0, "ratio"),
        "classify.self_ms": (layer_self.get("classify", 0) / 1e6 / n, "ms"),
        "classify.dense_calls": (under_classify / n, "count"),
        "cli.self_ms": (self_ms("cli.main"), "ms"),
        "cli.output_bytes": (sum(r["bytes"] for r in traced) / n, "bytes"),
        "cli.import_ms": (statistics.median(imports), "ms"),
        "selftest.run_checks_ms": (self_ms("selftest.run_checks"), "ms"),
        "trace.overhead_frac": (traced_ns / untraced_ns, "ratio"),
        "trace.coverage_frac": ((request_ns - layer_self["harness"]) / request_ns, "ratio"),
    }
    breakdown = {layer: ns / 1e6 / n for layer, ns in sorted(layer_self.items())}
    breakdown["sum"] = sum(breakdown.values())
    breakdown["request"] = request_ns / 1e6 / n
    return metrics, breakdown


# --------------------------------------------------------------------------
# Reporting


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"nproc={os.cpu_count()} cpu={cpu} python={platform.python_version()}"


def report(args, metrics: dict, extra: dict, records: list[dict], checker: Checker) -> int:
    failures = [r for r in records if r["problem"]]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} workers={WORKERS} {machine()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    for name, value in extra.items():
        if isinstance(value, dict):
            print(f"  {name}: " + "  ".join(f"{k}={v:.3f}" for k, v in value.items()))
        elif value is not None:
            print(f"  {name:28s} {value}")
    if checker.convention_diffs:
        print(f"  note: {len(checker.convention_diffs)} all-integer diagrams where rot_q "
              "of the unexpanded matrix path differs from the all-negative expansion: "
              + ", ".join(sorted(checker.convention_diffs)))
    seen = set()
    for r in failures:
        key = (tuple(r["req"].argv), r["problem"])
        if key not in seen:
            seen.add(key)
            print(f"  FAILED {' '.join(r['req'].argv)}: {r['problem']}")
    print("detail: " + json.dumps(extra))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


def run(args, workdir: Path) -> int:
    results = run_workers(args, workdir)
    inputs = generate(args.workload, args.seed, workdir)
    checker = Checker(inputs)
    checker.prepare()
    checked = check_outputs(results, inputs, checker)
    untraced, traced = checked["untraced"], checked["traced"]
    if not args.trace:
        metrics, extra = end_to_end(results, untraced)
    else:
        metrics, breakdown = per_layer(results, traced)
        extra = {"traced_requests": len(traced), "untraced_requests": len(untraced),
                 "self_ms_per_request": breakdown}
    return report(args, metrics, extra, untraced + traced, checker)


def run_all(args) -> int:
    """Every workload, untraced then traced, as child runs; one row per workload."""
    rows, metrics, worst = {}, {}, 0
    for workload in WORKLOADS:
        row = rows.setdefault(workload, {"attempted": 0, "failed": 0})
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-2]), flush=True)
            worst = max(worst, proc.returncode)
            if len(lines) < 2 or not lines[-1].startswith("{"):
                print(proc.stderr, file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            row.update(json.loads(lines[-2][len("detail: "):]))
            row["attempted"] += result["attempted"]
            row["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                row[name] = metric["value"]
                metrics[f"{workload}.{name}"] = metric
    print(f"\nsummary seed={args.seed} seconds={args.seconds} {machine()}")
    columns = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "tail_percentile",
               "latency_samples", "failed_frac", "peak_rss_mb", "selftest_s")
    print(f"{'workload':13s} " + " ".join(f"{c:>15s}" for c in columns))
    for workload, row in rows.items():
        cells = [row.get(c) for c in columns]
        print(f"{workload:13s} " + " ".join(
            f"{'-':>15s}" if v is None else f"{v:15.4f}" for v in cells))
    print(json.dumps({"correct": worst == 0,
                      "attempted": sum(row["attempted"] for row in rows.values()),
                      "failed": sum(row["failed"] for row in rows.values()),
                      "metrics": metrics}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "surgerycalc" / "__init__.py").is_file():
        print(f"error: no surgerycalc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.worker is not None:
        sys.path.insert(0, str(SRC))
        print(json.dumps(worker(args, args.workdir)))
        return 0
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
