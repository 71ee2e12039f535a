"""solist benchmark: run the real CLI end to end, or replay it traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, untraced and traced

Run from anywhere; the package is taken from src/ next to this directory,
never from an installed copy. With --trace 0 each iteration of the
workload runs every invocation as a fresh `python -m solist` child, one
at a time, in a closed loop with a single client, until --seconds have
passed; the last iteration is finished. With --trace 1 the same invocations
are replayed in-process with spans around each call into a layer (see
traced.py). Every output is checked against the benchmark's own exact
arithmetic (oracle.py). Metrics are printed one per line, by name and
unit, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Setup (`setup_s`) is one `python -m solist --help` startup plus the
generation of the workload's inputs from the seed, repeated and reported
as the median. End-to-end times are scaled to a reference CPU speed (see
Pace). Run artefacts (input files, captured output, spans) go to
.bench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60.0
# Time of `calibrate()` at the reference CPU speed; see Pace.
CALIBRATION_REFERENCE_S = 0.16

# End-to-end metric -> unit, as BENCHMARK.json lists them.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "requests_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall: float
    code: int
    rss_kb: int
    stdout: bytes
    stderr: bytes
    scaled: float = 0.0  # wall at the reference CPU speed


def calibrate() -> float:
    """Time a fixed slice of work shaped like solist's inner loop: list scans and small allocations."""
    start = time.perf_counter()
    order = list(range(2000))
    for i in range(4000):
        order.index(1999 - i % 50)
        [j * 2 for j in range(60)]
    return time.perf_counter() - start


class Pace:
    """Rescales measured times to the reference CPU speed.

    The speed of a CPU on a shared 2-core VM swings by up to 1.8x within
    seconds as neighbours load it, and the same program reads 0.62 s or
    1.13 s. The benchmark pins itself and its children to one CPU and runs
    `calibrate()` between children on it; each interval is scaled by the
    reference time over the mean of the calibrations on either side.
    This cuts the quartile spread of single samples from about 25% to 6%.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.calibrations = [self.last]

    def factor(self) -> float:
        """Scale factor for the interval since the previous call (or since construction)."""
        now = calibrate()
        self.calibrations.append(now)
        factor = CALIBRATION_REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return factor


@dataclass
class Result:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failures: list[str]
    notes: dict[str, str]  # metric -> how it was measured, for the text report
    # Printed only: not gated, because they are 0 on correct code or apply to one workload.
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)


class Launcher:
    """Runs `python -m solist argv` children one at a time through launcher.py (see there for why)."""

    def __init__(self, env: dict, workdir: Path) -> None:
        self.workdir = workdir
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv) -> Child:
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        request = {"argv": list(argv), "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": CHILD_TIMEOUT_S}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise BenchError(f"the child launcher exited with code {self.process.wait()}")
        result = json.loads(reply)
        return Child(result["wall"], result["code"], result["rss_kb"],
                     out_path.read_bytes(), err_path.read_bytes())

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=CHILD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def check(code: int, stdout: str, expected: str, stderr: str = "") -> str | None:
    """Why an invocation failed, or None if it exited 0 with exactly the expected output."""
    if code != 0:
        return f"exit code {code}"
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    if stdout != expected:
        got, want = stdout.splitlines(), expected.splitlines()
        for index, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"line {index + 1} is {a!r}, expected {b!r}"
        return f"{len(got)} output lines, expected {len(want)}"
    return None


def closed_loop(workload, expected: list[str], seconds: float, launcher: Launcher, pace: Pace):
    """Run iterations of the workload until `seconds` have passed (at least one).

    Returns (iterations, failures); an iteration is one Child per invocation.
    """
    iterations, failures = [], []
    start = time.perf_counter()
    while True:
        children = []
        for invocation, want in zip(workload.invocations, expected):
            child = launcher.run(invocation.argv)
            child.scaled = child.wall * pace.factor()
            children.append(child)
            problem = check(child.code, child.stdout.decode("utf-8", "replace"), want,
                            child.stderr.decode("utf-8", "replace"))
            if problem:
                failures.append(f"{' '.join(invocation.argv)}: {problem}")
        iterations.append(children)
        if time.perf_counter() - start >= seconds:
            return iterations, failures


def e2e_result(workload, iterations, failures: list[str], setups: list[float], startups: list[float],
               pace: Pace) -> Result:
    simulating = [i for i, inv in enumerate(workload.invocations) if inv.requests]
    requests = sum(workload.invocations[i].requests for i in simulating)
    walls = [sum(child.scaled for child in children) for children in iterations]
    rates = [requests / sum(children[i].scaled for i in simulating) for children in iterations]
    raw = median(sum(child.wall for child in children) for children in iterations)
    rss = max(child.rss_kb for children in iterations for child in children)
    attempted = sum(map(len, iterations))
    metrics = {"setup_s": median(setups), "wall_s": median(walls), "requests_per_s": median(rates),
               "peak_rss_mb": rss / 1024}
    notes = {
        "setup_s": f"median of {len(setups)} setups, startup median {median(startups):.4f}",
        "wall_s": f"median of {len(walls)} iterations, min {min(walls):.4f} max {max(walls):.4f}, "
                  f"unscaled {raw:.4f}",
        "requests_per_s": f"{requests} requests per iteration, median of {len(rates)}",
        "peak_rss_mb": f"largest child of {attempted}",
    }
    extra = {"failed_ratio": (len(failures) / attempted, "ratio"),
             "calibration_s": (median(pace.calibrations), "s")}
    verify = [i for i, inv in enumerate(workload.invocations) if inv.cells]
    if verify:
        cells = sum(workload.invocations[i].cells for i in verify)
        cell_rates = [cells / sum(children[i].scaled for i in verify) for children in iterations]
        extra["cells_per_s"] = (median(cell_rates), "1/s")
    return Result(metrics, E2E_UNITS, attempted, failures, notes, extra)


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: dict = workloads.FULL, root: Path = ROOT) -> Result:
    """One benchmark run of one workload."""
    src = root / "src"
    if not (src / "solist" / "__init__.py").is_file():
        raise BenchError(f"no solist package under {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    out_dir = root / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # children inherit it; see Pace
    try:
        with Launcher(env, workdir) as launcher:
            pace = Pace()
            setups, startups = [], []
            for _ in range(SETUP_REPEATS):
                child = launcher.run(("--help",))
                if child.code != 0 or not child.stdout.startswith(b"usage: solist"):
                    raise BenchError(
                        f"`python -m solist --help` failed: exit {child.code}, {child.stderr[-500:]!r}")
                began = time.perf_counter()
                workload = workloads.build(name, size, seed, workdir)
                generation = time.perf_counter() - began
                factor = pace.factor()
                setups.append((child.wall + generation) * factor)
                startups.append(child.wall * factor)
            expected = [invocation.expect() for invocation in workload.invocations]
            meta = {"workload": name, "seed": seed, "trace": int(trace), "git_sha": _git_sha(root),
                    "python": platform.python_version(), "cpu_count": os.cpu_count()}
            print("# meta " + json.dumps(meta), flush=True)
            if trace:
                if str(src) not in sys.path:
                    sys.path.insert(0, str(src))
                import traced

                spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
                metrics, attempted, failures = traced.run(
                    workload, expected, seconds, median(startups), check, spans_path, meta)
                notes = {"cli.startup_s": f"median of {len(startups)} `--help` startups",
                         "trace.overhead_s": f"spans written to {spans_path.relative_to(root)}"}
                return Result(metrics, traced.UNITS, attempted, failures, notes)
            iterations, failures = closed_loop(workload, expected, seconds, launcher, pace)
            return e2e_result(workload, iterations, failures, setups, startups, pace)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)


def report(prefix: str, result: Result) -> None:
    for failure in result.failures[:10]:
        print(f"FAIL {prefix}{failure}", file=sys.stderr)
    for metric, unit in result.units.items():
        note = result.notes.get(metric)
        print(f"{prefix}{metric} {result.metrics[metric]!r} {unit}" + (f"  # {note}" if note else ""))
    for metric, (value, unit) in result.extra.items():
        print(f"{prefix}{metric} {value!r} {unit}  # printed only")


def _json_line(results: list[tuple[str, Result]]) -> str:
    metrics = {}
    for prefix, result in results:
        for metric, unit in result.units.items():
            metrics[prefix + metric] = {"value": result.metrics[metric], "unit": unit}
    failed = sum(len(result.failures) for _, result in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(result.attempted for _, result in results),
        "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.BY_NAME, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="0: end-to-end, 1: traced per-layer run (default with 'all': both)")
    args = parser.parse_args(argv)

    if args.workload == "all":
        runs = [(name, trace) for name in workloads.BY_NAME
                for trace in ([bool(args.trace)] if args.trace is not None else [False, True])]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    try:
        for name, trace in runs:
            prefix = f"{name}." if args.workload == "all" else ""
            result = measure(name, args.seed, args.seconds, trace)
            report(prefix, result)
            results.append((prefix, result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_json_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
