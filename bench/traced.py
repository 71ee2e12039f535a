"""The traced run: per-layer numbers for one workload.

The workload's invocations are replayed in-process through solist's public
API, and the benchmark records one span around each call it makes into a
layer. Nothing inside the package is instrumented, so a layer's time is
the time of the public calls into it:

  seqgen       gen_t1 / gen_t2, parse_list_file + parse_sequence_file
  policies     serve
  list_core    rebuilding each returned ledger's ListState snapshots and
               CostLedger through their constructors: the validation that
               serve does inside
  closed_form  predict
  harness      verify_grid, crossover
  cli          main(argv), with stdout captured

verify_grid is called whole, then its cells are replayed one by one
(gen, serve, rebuild, predict) under a `replay.cells` span, so that
`harness.self_s` is verify_grid's time minus the replayed generation,
serve and predict spans for the same cells. `cli.self_s` is main's time
minus the library calls main makes, replayed directly under the
invocation's root span.

Spans (name, start, end, parent index, detail) are kept in memory and
written out as JSON lines when the run ends. tracemalloc runs in a separate
memory probe, never while spans are timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

from solist import (
    CostModel,
    ListState,
    crossover,
    gen_t1,
    gen_t2,
    make_policy,
    parse_list_file,
    parse_sequence_file,
    predict,
    serve,
    verify_grid,
)
from solist import cli

# Metric -> unit, in the order they are printed.
UNITS = {
    "seqgen.gen_s": "s",
    "seqgen.gen_peak_mb": "MB",
    "seqgen.parse_s": "s",
    "seqgen.tokens_per_s": "1/s",
    "list_core.validate_s": "s",
    "list_core.snapshots": "count",
    "policies.serve_s": "s",
    "policies.requests": "count",
    "policies.mtf.requests_per_s": "1/s",
    "policies.trans.requests_per_s": "1/s",
    "policies.fc.requests_per_s": "1/s",
    "policies.mean_position": "position",
    "policies.serve_peak_mb": "MB",
    "closed_form.predict_s": "s",
    "closed_form.predictions": "count",
    "closed_form.predictions_per_s": "1/s",
    "harness.verify_grid_s": "s",
    "harness.cells": "count",
    "harness.cells_per_s": "1/s",
    "harness.crossover_s": "s",
    "harness.self_s": "s",
    "harness.mismatches": "count",
    "cli.startup_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

_GENERATORS = {"t1": gen_t1, "t2": gen_t2}
# The library calls cli.main makes, when they sit directly under an invocation.
_DIRECT = {"seqgen.gen", "seqgen.parse", "policies.serve", "harness.verify_grid", "harness.crossover"}
_CELL_PARTS = {"seqgen.gen", "policies.serve", "closed_form.predict"}


class LayerMissing(Exception):
    """A layer the workload uses recorded no spans."""


class Tracer:
    """Spans in columns (name, start, end, parent index, detail), so that
    recording one adds no object for the garbage collector to traverse."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.details: list[str] = []
        self._open: list[int] = []

    def span(self, name: str, detail: str = "") -> "_Span":
        return _Span(self, name, detail)

    def spans(self):
        return zip(self.names, self.starts, self.ends, self.parents, self.details)


class _Span:
    __slots__ = ("tracer", "name", "detail", "index")

    def __init__(self, tracer: Tracer, name: str, detail: str) -> None:
        self.tracer, self.name, self.detail = tracer, name, detail

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.names)
        tracer.names.append(self.name)
        tracer.parents.append(tracer._open[-1] if tracer._open else None)
        tracer.details.append(self.detail)
        tracer.ends.append(0.0)
        tracer._open.append(self.index)
        tracer.starts.append(time.perf_counter())

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer.ends[self.index] = end
        self.tracer._open.pop()


class NoTracer:
    """The same replay with span recording off, to measure the tracing overhead."""

    _null = contextlib.nullcontext()

    def span(self, name: str, detail: str = "") -> contextlib.nullcontext:
        return self._null


def _serve(algo, initial, sequence, model, tracer, counts) -> None:
    with tracer.span("policies.serve", algo):
        ledger = serve(make_policy(algo), initial, sequence, model)
    requests = len(sequence)
    counts["policies.requests"] += requests
    counts[f"policies.{algo}.requests"] += requests
    counts["positions"] += ledger.grand_total + (requests if model is CostModel.PARTIAL else 0)
    with tracer.span("list_core.validate"):
        snapshots = [dataclasses.replace(state) for state in ledger.pass_end_configs or ()]
        snapshots.append(dataclasses.replace(ledger.final_state))
        dataclasses.replace(ledger)
    counts["list_core.snapshots"] += len(snapshots)


def _simulate(args, tracer, counts) -> None:
    model = CostModel(args.model)
    if args.seq is not None:
        with tracer.span("seqgen.gen"):
            sequence = _GENERATORS[args.seq](args.n, args.k)
        initial = ListState.initial(args.n)
    else:
        list_text = Path(args.list_file).read_text(encoding="utf-8")
        seq_text = Path(args.seq_file).read_text(encoding="utf-8")
        with tracer.span("seqgen.parse"):
            initial = parse_list_file(list_text)
            sequence = parse_sequence_file(seq_text)
        counts["seqgen.tokens"] += initial.n + len(sequence)
    _serve(args.algo, initial, sequence, model, tracer, counts)


def _verify(args, tracer, counts) -> None:
    algos = args.algo or ["mtf", "trans"]
    families = args.seq or ["t1", "t2"]
    model = CostModel(args.model)
    with tracer.span("harness.verify_grid"):
        report = verify_grid(algos, [f.upper() for f in families], args.n, args.k, model)
    counts["harness.cells"] += len(report.cells)
    counts["harness.mismatches"] += report.mismatch_count
    (n_lo, n_hi), (k_lo, k_hi) = args.n, args.k
    with tracer.span("replay.cells"):
        for algo in algos:
            for family in families:
                for n in range(n_lo, n_hi + 1):
                    for k in range(k_lo, k_hi + 1):
                        with tracer.span("seqgen.gen"):
                            sequence = _GENERATORS[family](n, k)
                        _serve(algo, ListState.initial(n), sequence, model, tracer, counts)
                        with tracer.span("closed_form.predict"):
                            predict(algo, family.upper(), n, k)
                        counts["closed_form.predictions"] += 1


def _crossover(args, tracer, counts) -> None:
    n_lo, n_hi = args.n
    for n in range(n_lo, n_hi + 1):
        with tracer.span("harness.crossover"):
            crossover(args.seq.upper(), n, args.kmax)


_REPLAYS = {"simulate": _simulate, "verify": _verify, "crossover": _crossover}


def replay(workload, tracer, counts) -> list[tuple[int, str]]:
    """Replay every invocation; return cli.main's (exit code, stdout) for each."""
    parser = cli.build_parser()
    results = []
    for invocation in workload.invocations:
        argv = list(invocation.argv)
        args = parser.parse_args(argv)
        with tracer.span("replay", " ".join(argv)):
            _REPLAYS[args.command](args, tracer, counts)
            out = io.StringIO()
            with tracer.span("cli.main"), contextlib.redirect_stdout(out):
                code = cli.main(argv)
        text = out.getvalue()
        counts["cli.output_bytes"] += len(text.encode("utf-8"))
        results.append((code, text))
    return results


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def layer_metrics(workload, tracer: Tracer, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced replay; raises LayerMissing on a silent layer."""
    seconds: defaultdict[str, float] = defaultdict(float)
    layer_spans: Counter = Counter()
    serve_by_algo: defaultdict[str, float] = defaultdict(float)
    direct = cell_parts = 0.0
    for name, start, end, parent, detail in tracer.spans():
        duration = end - start
        seconds[name] += duration
        layer_spans[name.split(".", 1)[0]] += 1
        if name == "policies.serve":
            serve_by_algo[detail] += duration
        parent_name = tracer.names[parent] if parent is not None else None
        if parent_name == "replay" and name in _DIRECT:
            direct += duration
        elif parent_name == "replay.cells" and name in _CELL_PARTS:
            cell_parts += duration
    silent = sorted(layer for layer in workload.layers if not layer_spans[layer])
    if silent:
        raise LayerMissing(f"{workload.name}: no spans recorded for layer(s) {', '.join(silent)}")

    requests = counts["policies.requests"]
    metrics = {
        "seqgen.gen_s": seconds["seqgen.gen"],
        "seqgen.parse_s": seconds["seqgen.parse"],
        "seqgen.tokens_per_s": _rate(counts["seqgen.tokens"], seconds["seqgen.parse"]),
        "list_core.validate_s": seconds["list_core.validate"],
        "list_core.snapshots": counts["list_core.snapshots"],
        "policies.serve_s": seconds["policies.serve"],
        "policies.requests": requests,
        "policies.mean_position": _rate(counts["positions"], requests),
        "closed_form.predict_s": seconds["closed_form.predict"],
        "closed_form.predictions": counts["closed_form.predictions"],
        "closed_form.predictions_per_s": _rate(
            counts["closed_form.predictions"], seconds["closed_form.predict"]),
        "harness.verify_grid_s": seconds["harness.verify_grid"],
        "harness.cells": counts["harness.cells"],
        "harness.cells_per_s": _rate(counts["harness.cells"], seconds["harness.verify_grid"]),
        "harness.crossover_s": seconds["harness.crossover"],
        "harness.self_s": seconds["harness.verify_grid"] - cell_parts,
        "harness.mismatches": counts["harness.mismatches"],
        "cli.main_s": seconds["cli.main"],
        "cli.self_s": seconds["cli.main"] - direct,
        "cli.output_bytes": counts["cli.output_bytes"],
    }
    for algo in ("mtf", "trans", "fc"):
        metrics[f"policies.{algo}.requests_per_s"] = _rate(
            counts[f"policies.{algo}.requests"], serve_by_algo[algo])
    return metrics


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def memory_peaks(workload) -> tuple[float, float]:
    """tracemalloc peaks of the largest gen and serve calls the workload makes."""
    parser = cli.build_parser()
    gen_peak = serve_peak = 0.0
    for invocation in workload.invocations:
        args = parser.parse_args(list(invocation.argv))
        if args.command == "verify":
            # The largest cell of each (rule, family) pair holds the peak.
            runs = [(algo, family, args.n[1], args.k[1])
                    for algo in args.algo or ["mtf", "trans"] for family in args.seq or ["t1", "t2"]]
        elif args.command == "simulate":
            runs = [(args.algo, args.seq, args.n, args.k)]
        else:
            continue
        for algo, family, n, k in runs:
            if family is None:
                initial = parse_list_file(Path(args.list_file).read_text(encoding="utf-8"))
                sequence = parse_sequence_file(Path(args.seq_file).read_text(encoding="utf-8"))
            else:
                initial = ListState.initial(n)
                sequence, peak = _peak_mb(_GENERATORS[family], n, k)
                gen_peak = max(gen_peak, peak)
            _, peak = _peak_mb(serve, make_policy(algo), initial, sequence)
            serve_peak = max(serve_peak, peak)
    return gen_peak, serve_peak


def run(workload, expected: list[str], seconds: float, startup_s: float, check, spans_path: Path, meta: dict):
    """Alternate untraced and traced replays for about `seconds` (at least one pair).

    Returns (metrics, attempted, failures). `check(code, stdout, expected)`
    returns a failure description or None.
    """
    start = time.perf_counter()
    gen_peak, serve_peak = memory_peaks(workload)
    untraced, traced, cycles, tracers = [], [], [], []
    attempted, failures = 0, []
    while True:
        cycle_start = time.perf_counter()
        for tracer in (NoTracer(), Tracer()):
            counts: Counter = Counter()
            began = time.perf_counter()
            results = replay(workload, tracer, counts)
            took = time.perf_counter() - began
            for invocation, (code, text), want in zip(workload.invocations, results, expected):
                attempted += 1
                problem = check(code, text, want)
                if problem:
                    failures.append(f"{' '.join(invocation.argv)}: {problem}")
            if isinstance(tracer, Tracer):
                traced.append(took)
                tracers.append(tracer)
                cycles.append(layer_metrics(workload, tracer, counts))
            else:
                untraced.append(took)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break

    metrics = {name: median(cycle[name] for cycle in cycles) for name in cycles[0]}
    metrics["seqgen.gen_peak_mb"] = gen_peak
    metrics["policies.serve_peak_mb"] = serve_peak
    metrics["cli.startup_s"] = startup_s
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    _write_spans(spans_path, meta, tracers)
    return {name: metrics[name] for name in UNITS}, attempted, failures


def _write_spans(path: Path, meta: dict, tracers: list[Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": meta}) + "\n")
        for cycle, tracer in enumerate(tracers):
            origin = tracer.starts[0] if tracer.starts else 0.0
            for name, start, end, parent, detail in tracer.spans():
                record = {"cycle": cycle, "name": name, "start": start - origin, "end": end - origin,
                          "parent": parent, "detail": detail}
                handle.write(json.dumps(record) + "\n")
