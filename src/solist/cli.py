"""Command-line surface.

Subcommands: simulate a policy on a sequence, evaluate a cost formula,
verify formulas against simulation on a grid, export mtf-vs-trans
comparison data as CSV, and scan for the crossover point.

Exit codes: 0 success (verify: all cells match), 1 verification
mismatches, 2 parameter error or not enough memory, 3 malformed or
unreadable input file, or an --output or --gnuplot file that cannot be
written.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

# Each subcommand imports the modules it runs: start-up loads only errors.
from .errors import Family, InvalidParameterError, ItemNotInListError, ParseError, SolistError, check_int, check_range

__all__ = ["main", "run", "build_parser"]

COMPARE_HEADER = "n,k,family,mtf_cost,trans_cost"
VERIFY_HEADER = "algo,family,n,k,simulated,predicted,match"
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)

_GNUPLOT_TEMPLATE = """\
# Plot total access cost against k from a compare CSV export.
set datafile separator ","
set xlabel "k (repetitions)"
set ylabel "total access cost"
set key left top
plot "{csv}" every ::1 using 2:4 with linespoints title "mtf", \\
     "{csv}" every ::1 using 2:5 with linespoints title "trans\""""


def _range_arg(text: str) -> tuple[int, int]:
    """'a..b' (inclusive) or a single integer 'a' meaning a..a."""
    try:
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            return int(lo_text), int(hi_text)
        return int(text), int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solist",
        description="Self-organizing list search: simulate reorganization "
        "policies and verify them against their exact cost formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="serve a request sequence and report its cost")
    sim.add_argument("--algo", required=True, choices=["mtf", "trans", "fc"])
    sim.add_argument("--seq", choices=["t1", "t2"], help="generated family (with --n/--k)")
    sim.add_argument("--n", type=int, help="list size for a generated family")
    sim.add_argument("--k", type=int, help="repetition count for a generated family")
    sim.add_argument("--list-file", help="file holding the initial list")
    sim.add_argument("--seq-file", help="file holding an explicit request stream")
    sim.add_argument("--model", choices=["full", "partial"], default="full")
    sim.add_argument("--per-pass", action="store_true", help="also print per-pass totals and configurations")
    sim.set_defaults(func=cmd_simulate)

    pre = sub.add_parser("predict", help="evaluate the closed-form cost for one configuration")
    pre.add_argument("--algo", required=True, choices=["mtf", "trans"])
    pre.add_argument("--seq", required=True, choices=["t1", "t2"])
    pre.add_argument("--n", type=int, required=True)
    pre.add_argument("--k", type=int, required=True)
    pre.set_defaults(func=cmd_predict)

    ver = sub.add_parser("verify", help="check formulas against simulation on a grid")
    ver.add_argument("--algo", choices=["mtf", "trans"], action="append",
                     help="restrict to one algorithm (repeatable; default both)")
    ver.add_argument("--seq", choices=["t1", "t2"], action="append",
                     help="restrict to one family (repeatable; default both)")
    ver.add_argument("--n", type=_range_arg, required=True, metavar="A..B")
    ver.add_argument("--k", type=_range_arg, required=True, metavar="A..B")
    ver.add_argument("--model", choices=["full", "partial"], default="full")
    ver.add_argument("--format", choices=["table", "csv"], default="table")
    ver.add_argument("--output", help="write the report here instead of stdout")
    ver.set_defaults(func=cmd_verify)

    cmp_ = sub.add_parser("compare", help="emit cost-vs-k CSV for mtf and trans at fixed n")
    cmp_.add_argument("--seq", required=True, choices=["t1", "t2"])
    cmp_.add_argument("--n", type=int, required=True)
    cmp_.add_argument("--k", type=_range_arg, required=True, metavar="A..B")
    cmp_.add_argument("--output", help="write the CSV here instead of stdout")
    cmp_.add_argument("--gnuplot", help="also write a gnuplot script plotting the CSV (needs --output)")
    cmp_.set_defaults(func=cmd_compare)

    cro = sub.add_parser("crossover", help="smallest k at which trans strictly beats mtf")
    cro.add_argument("--seq", required=True, choices=["t1", "t2"])
    cro.add_argument("--n", type=_range_arg, required=True, metavar="A..B")
    cro.add_argument("--kmax", type=int, required=True)
    cro.set_defaults(func=cmd_crossover)

    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    from .list_core import CostModel, ListState, PeriodicView
    from .policies import _passes, _serve_stream, make_policy, serve
    from .seqgen import GENERATORS, _read_list, _read_requests
    family_source = args.seq is not None
    file_source = args.list_file is not None or args.seq_file is not None
    sized = args.n is not None or args.k is not None
    if family_source == file_source or (file_source and sized):
        raise InvalidParameterError(
            "exactly one sequence source: either --seq with --n/--k, or --list-file with --seq-file"
        )
    if family_source:
        if args.n is None or args.k is None:
            raise InvalidParameterError("--seq needs both --n and --k")
        sequence = GENERATORS[Family(args.seq)](args.n, args.k)
        inputs = make_policy(args.algo), ListState.initial(args.n), sequence, CostModel(args.model)
        if not args.per_pass:  # only the grand total is printed: keep only the pass totals
            total = _passes(*inputs).total()
        else:
            ledger = serve(*inputs)
            configs = ledger.pass_end_configs  # format each stored configuration once: the view repeats the texts
            texts = PeriodicView(*([" ".join(map(str, config.order)) for config in part]
                                   for part in (configs.head, configs.cycle)), len(configs))
            _emit((f"pass {index} cost {cost} config {text}"
                   for index, (cost, text) in enumerate(zip(ledger.pass_totals, texts), 1)), None)
            total = ledger.grand_total
    else:
        if args.list_file is None or args.seq_file is None:
            raise InvalidParameterError("explicit input needs both --list-file and --seq-file")
        # Read files as argv is read, under the digit limit, so that a huge token is a ParseError found
        # in linear time. A run on files prints no number that long, so the limit stays.
        _set_digit_limit(args.digit_limit)
        try:
            with open(args.list_file, "rb") as handle:
                initial = _read_list(handle)
            # Serve one chunk of requests at a time, keeping only the total: the first error in the file ends the run.
            with open(args.seq_file, "rb") as handle:
                total = _serve_stream(make_policy(args.algo), initial, _read_requests(handle), CostModel(args.model))
        except OSError as exc:
            raise ParseError(f"cannot read input file: {exc}") from None
        if args.per_pass:
            print("no pass structure declared for this sequence")
    print(f"total {total}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from .closed_form import predict
    prediction = predict(args.algo, args.seq, args.n, args.k)
    print(
        f"algo {args.algo} family {args.seq.upper()} n {args.n} k {args.k} "
        f"case {prediction.case_id} total {prediction.total}"
    )
    return 0


def _emit(lines: Iterable[str], output: str | None) -> None:
    """Write ``lines`` to the file ``output``, or to stdout if it is None,
    one at a time, so that the report is never held whole as one string."""
    if output is None:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(f"{line}\n" for line in lines)


def cmd_verify(args: argparse.Namespace) -> int:
    from .harness import _grid
    from .list_core import CostModel
    algorithms, families = args.algo or ["mtf", "trans"], args.seq or ["t1", "t2"]
    report = _grid(algorithms, families, args.n, args.k, CostModel(args.model))
    mismatches = []

    def graded():  # each cell once, as it is graded, keeping only the mismatched ones
        for cell in report.cells:
            if not cell.match:
                mismatches.append(cell)
            yield cell

    if args.format == "csv":
        lines = chain([VERIFY_HEADER], (
            f"{cell.algorithm.value},{cell.family.value},{cell.n},{cell.k},"
            f"{cell.simulated},{cell.predicted},{'true' if cell.match else 'false'}"
            for cell in graded()
        ))
    else:
        cells = sum(1 for _ in graded())
        lines = []
        per_pair = cells // (len(report.algorithms) * len(report.families))
        bad = Counter((cell.algorithm, cell.family) for cell in mismatches)
        for algorithm in report.algorithms:
            for family in report.families:
                count = bad[algorithm, family]
                lines.append(f"{algorithm.value} {family.value}: {count} mismatches / {per_pair} cells")
        for cell in mismatches:
            where = "" if cell.first_divergence is None else f" first_divergence {cell.first_divergence}"
            lines.append(
                f"MISMATCH {cell.algorithm.value} {cell.family.value} n {cell.n} k {cell.k} "
                f"simulated {cell.simulated} predicted {cell.predicted}{where}"
            )
        verdict = "FAIL" if mismatches else "PASS"
        lines.append(f"verdict {verdict} ({cells} cells, {len(mismatches)} mismatches)")
    _emit(lines, args.output)
    return 1 if mismatches else 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .closed_form import Algorithm, _totals
    if args.gnuplot is not None and args.output is None:
        raise InvalidParameterError("--gnuplot needs --output so the script can reference the CSV")
    if args.gnuplot is not None and os.path.realpath(args.gnuplot) == os.path.realpath(args.output):
        raise InvalidParameterError("--gnuplot and --output name the same file")
    family = Family(args.seq)
    check_int(args.n, "n")
    k_lo, k_hi = check_range(args.k, "k")

    # A generator, so that no more than one row is held at a time.
    mtf = _totals(Algorithm.MTF, family, args.n, k_lo, k_hi)
    trans = _totals(Algorithm.TRANS, family, args.n, k_lo, k_hi)
    rows = (f"{args.n},{k},{family.value},{m.total},{t.total}" for k, m, t in zip(range(k_lo, k_hi + 1), mtf, trans))
    _emit(chain([COMPARE_HEADER], rows), args.output)

    if args.gnuplot is not None:
        csv = args.output.replace("\\", "\\\\").replace('"', '\\"')  # a gnuplot double-quoted string
        _emit([_GNUPLOT_TEMPLATE.format(csv=csv)], args.gnuplot)  # one line, no final newline
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    from .closed_form import crossover
    family = Family(args.seq)
    n_lo, n_hi = check_range(args.n, "n")
    check_int(args.kmax, "k_max")
    print("family n k_star")
    for n in range(n_lo, n_hi + 1):
        k_star = crossover(family, n, args.kmax)
        print(f"{family.value} {n} {'none' if k_star is None else k_star}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Lift the int-to-str digit limit (3.10.7 on) once argv is read, so totals print at any size.
    args.digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    _set_digit_limit(0)
    try:
        return args.func(args)
    except (ParseError, ItemNotInListError, OSError) as exc:
        code, message = 3, str(exc)
    except SolistError as exc:
        code, message = 2, str(exc)
    except MemoryError:
        code, message = 2, "not enough memory for these parameters"
    finally:
        _set_digit_limit(args.digit_limit)
    # Print only once the traceback and the frames it held (a half-built
    # simulation, say) are released: printing inside a handler can run out
    # of memory too.
    print(f"error: {message}", file=sys.stderr)
    return code


def run() -> None:
    # A closed stdout (`| head -1`) ends the command as it ends cat: by SIGPIPE, silently.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
