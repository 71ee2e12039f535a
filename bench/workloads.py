"""The four benchmark workloads.

A workload is a fixed list of CLI invocations. `build` makes its inputs
from the seed, writing any input files into a work directory; this is the
input-generation part of `setup_s`. Each invocation carries a thunk that
computes the exact stdout it must print, from `oracle`, so the expensive
expectations (the zipf_stream list walks) run once per run, outside every
timed region. Why each workload exists, and which layer each later change
should move on it, is in README.md.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

# Sizes the benchmark runs at; TINY is for the smoke test only.
FULL = {
    "verify_grid": {"n": 40, "k": 40, "cross_n": 100, "kmax": 200},
    "deep_scan": {"n": 2000, "k": 20},
    "long_run": {"n": 50, "k": 10_000},
    "zipf_stream": {"n": 1000, "m": 200_000},
}
TINY = {
    "verify_grid": {"n": 4, "k": 5, "cross_n": 6, "kmax": 10},
    "deep_scan": {"n": 30, "k": 3},
    "long_run": {"n": 6, "k": 40},
    "zipf_stream": {"n": 25, "m": 300},
}

# Layers whose spans the traced replay must record on every workload.
_SIMULATE_LAYERS = frozenset({"seqgen", "list_core", "policies", "cli"})


@dataclass(frozen=True)
class Invocation:
    """One `python -m solist <argv>` child process."""

    argv: tuple[str, ...]
    expect: Callable[[], str]  # the exact stdout it must print
    requests: int = 0  # requests it simulates
    cells: int = 0  # grid cells it verifies


@dataclass(frozen=True)
class Workload:
    name: str
    layers: frozenset[str]
    invocations: tuple[Invocation, ...]


def verify_grid(size: dict, seed: int, workdir: Path) -> Workload:
    n, k, cross_n, kmax = size["n"], size["k"], size["cross_n"], size["kmax"]
    # Cell (n', k') serves n' * k' requests.
    requests = (n * (n + 1) // 2) * (k * (k + 1) // 2)
    # The headline `verify --n 1..n --k 1..k`, run as its four (rule, family)
    # quarters so that no child runs for seconds between two calibrations (see run.Pace).
    invocations = [
        Invocation(
            ("verify", "--algo", algo, "--seq", family, "--n", f"1..{n}", "--k", f"1..{k}"),
            partial(oracle.verify_stdout, algo, family, 1, n, 1, k),
            requests=requests,
            cells=n * k,
        )
        for algo in ("mtf", "trans")
        for family in ("t1", "t2")
    ]
    for family in ("t1", "t2"):
        invocations.append(
            Invocation(
                ("crossover", "--seq", family, "--n", f"1..{cross_n}", "--kmax", str(kmax)),
                partial(oracle.crossover_stdout, family, 1, cross_n, kmax),
            )
        )
    return Workload("verify_grid", _SIMULATE_LAYERS | {"closed_form", "harness"}, tuple(invocations))


def _family_argv(algo: str, family: str, n: int, k: int) -> tuple[str, ...]:
    return ("simulate", "--algo", algo, "--seq", family, "--n", str(n), "--k", str(k))


def _family_run(algo: str, family: str, n: int, k: int) -> Invocation:
    total = oracle.family_total(algo, family, n, k)
    return Invocation(_family_argv(algo, family, n, k), partial(str, f"total {total}\n"), requests=n * k)


def deep_scan(size: dict, seed: int, workdir: Path) -> Workload:
    n, k = size["n"], size["k"]
    runs = tuple(_family_run(algo, "t1", n, k) for algo in ("mtf", "trans", "fc"))
    return Workload("deep_scan", _SIMULATE_LAYERS, runs)


def long_run(size: dict, seed: int, workdir: Path) -> Workload:
    n, k = size["n"], size["k"]
    runs = (
        Invocation(
            _family_argv("mtf", "t1", n, k) + ("--per-pass",),
            partial(oracle.mtf_t1_per_pass_stdout, n, k),
            requests=n * k,
        ),
        _family_run("trans", "t1", n, k),
        _family_run("fc", "t2", n, k),
    )
    return Workload("long_run", _SIMULATE_LAYERS, runs)


def zipf_requests(n: int, m: int, seed: int) -> list[int]:
    """m requests drawn Zipf(s=1) by rank, over item ids shuffled by the seed."""
    rng = random.Random(seed)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    cum_weights = list(itertools.accumulate(1 / rank for rank in range(1, n + 1)))
    return rng.choices(ids, cum_weights=cum_weights, k=m)


def _walk_stdout(algo: str, n: int, requests: list[int]) -> str:
    return f"total {oracle.walk_total(algo, list(range(1, n + 1)), requests)}\n"


def zipf_stream(size: dict, seed: int, workdir: Path) -> Workload:
    n, m = size["n"], size["m"]
    requests = zipf_requests(n, m, seed)
    list_file = workdir / "zipf_list.txt"
    seq_file = workdir / "zipf_seq.txt"
    list_file.write_text(" ".join(map(str, range(1, n + 1))) + "\n", encoding="utf-8")
    lines = (" ".join(map(str, requests[i:i + 20])) for i in range(0, m, 20))
    seq_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    runs = tuple(
        Invocation(
            ("simulate", "--algo", algo, "--list-file", str(list_file), "--seq-file", str(seq_file)),
            partial(_walk_stdout, algo, n, requests),
            requests=m,
        )
        for algo in ("mtf", "trans", "fc")
    )
    return Workload("zipf_stream", _SIMULATE_LAYERS, runs)


BY_NAME = {
    "verify_grid": verify_grid,
    "deep_scan": deep_scan,
    "long_run": long_run,
    "zipf_stream": zipf_stream,
}


def build(name: str, size: dict, seed: int, workdir: Path) -> Workload:
    return BY_NAME[name](size[name], seed, workdir)
