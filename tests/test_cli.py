"""End-to-end command-line tests: exact output text and exit codes."""

import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

import solist.cli
import solist.closed_form
import solist.harness
import solist.policies
from solist import CostLedger, CostModel, ListState, ParseError, Prediction, SolistError, gen_t1, gen_t2, make_policy
from solist import per_pass_profile, predict, serve
from solist.cli import main
from solist.closed_form import _totals

from helpers import child_env, linux_only, solist_child, zipf_files


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_generated_family(capsys):
    code, out, err = run_cli(capsys, "simulate", "--algo", "trans", "--seq", "t2", "--n", "4", "--k", "1")
    assert code == 0
    assert out == "total 12\n"
    assert err == ""


def test_simulate_bad_n_names_the_flag(capsys):
    code, out, err = run_cli(capsys, "simulate", "--algo", "trans", "--seq", "t2", "--n", "0", "--k", "2")
    assert code == 2
    assert out == ""
    assert err == "error: n must be a positive integer, got 0\n"


def test_simulate_per_pass(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--algo", "mtf", "--seq", "t1", "--n", "4", "--k", "2", "--per-pass"
    )
    assert code == 0
    assert out.splitlines() == [
        "pass 1 cost 10 config 4 3 2 1",
        "pass 2 cost 16 config 4 3 2 1",
        "total 26",
    ]


@pytest.mark.parametrize("model", ["full", "partial"])
@pytest.mark.parametrize("family", ["t1", "t2"])
@pytest.mark.parametrize("algo", ["mtf", "trans", "fc"])
def test_per_pass_prints_serves_views(capsys, monkeypatch, algo, family, model):
    # k runs past the cycle, so most lines repeat a stored pass. The printer
    # prints what serve's views hold, and reads each pass by its place in the
    # pass loop, not by which object the loop hands out: a loop that hands
    # its keep a new copy of each arrangement prints the same lines.
    n, k = 6, 15
    argv = ["simulate", "--algo", algo, "--seq", family, "--n", str(n), "--k", str(k), "--model", model, "--per-pass"]
    generator = {"t1": gen_t1, "t2": gen_t2}[family]
    ledger = serve(make_policy(algo), ListState.initial(n), generator(n, k), CostModel(model))
    assert len(ledger.pass_totals.head) + len(ledger.pass_totals.cycle) < k
    lines = [f"pass {index} cost {cost} config {' '.join(map(str, config.order))}"
             for index, (cost, config) in enumerate(zip(ledger.pass_totals, ledger.pass_end_configs), 1)]
    expected = "".join(f"{line}\n" for line in lines + [f"total {ledger.grand_total}"])
    assert run_cli(capsys, *argv) == (0, expected, "")

    real, copies = solist.policies._passes, []

    def copying_passes(policy, initial, sequence, model, keep=None):
        def keep_a_copy(costs, order):
            copies.append(order)
            keep(costs, tuple(list(order)))

        return real(policy, initial, sequence, model, keep and keep_a_copy)

    monkeypatch.setattr(solist.policies, "_passes", copying_passes)
    assert run_cli(capsys, *argv) == (0, expected, "")
    assert len(copies) == len(ledger.pass_totals.head) + len(ledger.pass_totals.cycle)


def test_simulate_partial_model(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--algo", "trans", "--seq", "t2", "--n", "3", "--k", "2", "--model", "partial"
    )
    assert code == 0
    assert out == "total 8\n"


def test_simulate_from_files(capsys, tmp_path):
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text("# initial order\n3, 1, 2\n")
    seq_file.write_text("1 2\n# a comment line\n2, 3\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--algo", "fc",
        "--list-file", str(list_file), "--seq-file", str(seq_file),
    )
    assert code == 0
    assert out == "total 10\n"


def test_simulate_from_files_with_byte_order_marks(capsys, tmp_path):
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text("\ufeff3, 1, 2\n", encoding="utf-8")
    seq_file.write_text("\ufeff1 2\n2, 3\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "simulate", "--algo", "fc",
        "--list-file", str(list_file), "--seq-file", str(seq_file),
    )
    assert (code, out, err) == (0, "total 10\n", "")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit")
@pytest.mark.parametrize("digits", [4300, 1_000_000])
def test_file_tokens_are_read_under_the_digit_limit(capsys, tmp_path, digits):
    # A token is read as argv is: one past the limit is a ParseError at once,
    # not a quadratic int() of a million digits.
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text("1 2 3\n")
    seq_file.write_text("7" * digits + "\n")
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--algo", "mtf",
                             "--list-file", str(list_file), "--seq-file", str(seq_file))
    assert time.perf_counter() - start < 5
    assert sys.get_int_max_str_digits() == limit
    assert (code, out) == (3, "")
    if digits <= limit:
        assert err == f"error: request 0: item {'7' * digits} is not in the list\n"
    else:
        assert err.startswith("error: expected an integer, got '777")


@pytest.mark.parametrize("bad_file", ["list", "sequence"])
def test_a_huge_bad_token_is_quoted_short(capsys, tmp_path, bad_file):
    token = "x" * 1_000_000
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text(token if bad_file == "list" else "1 2 3\n")
    seq_file.write_text("1 2 " + token if bad_file == "sequence" else "1 2\n")
    code, out, err = run_cli(capsys, "simulate", "--algo", "mtf",
                             "--list-file", str(list_file), "--seq-file", str(seq_file))
    assert (code, out) == (3, "")
    assert err == "error: expected an integer, got 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'... (1000000 characters)\n"
    assert len(err.encode()) < 200


def test_simulate_holds_one_int_per_distinct_request(capsys, tmp_path):
    # 200k Zipf-like requests over 1000 ids. simulate reads the sequence
    # file a chunk of lines at a time, repeated ids share one int through the
    # parser's token table, and only a running total of the costs is kept.
    # Parsing every token to its own int and copying the list of costs
    # peaked near 12 MB.
    list_file, seq_file, total = zipf_files(tmp_path, 200_000, seed=3)
    tracemalloc.start()
    try:
        code = main(["simulate", "--algo", "trans", "--list-file", str(list_file), "--seq-file", str(seq_file)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, f"total {total}\n")
    assert peak < 9_000_000


def test_simulate_per_pass_without_structure(capsys, tmp_path):
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text("1 2 3\n")
    seq_file.write_text("3 3\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--algo", "mtf",
        "--list-file", str(list_file), "--seq-file", str(seq_file), "--per-pass",
    )
    assert code == 0
    assert out.splitlines()[0] == "no pass structure declared for this sequence"
    assert out.splitlines()[1] == "total 4"


def test_simulate_requires_exactly_one_source(capsys, tmp_path):
    list_file = tmp_path / "list.txt"
    list_file.write_text("1 2\n")
    code, _, err = run_cli(
        capsys, "simulate", "--algo", "mtf", "--seq", "t1", "--n", "3", "--k", "1",
        "--list-file", str(list_file),
    )
    assert code == 2
    assert err.startswith("error:")

    code, _, err = run_cli(capsys, "simulate", "--algo", "mtf")
    assert code == 2

    code, _, err = run_cli(capsys, "simulate", "--algo", "mtf", "--seq", "t1", "--n", "3")
    assert code == 2
    assert "--k" in err


@pytest.mark.parametrize("flag", ["--list-file", "--seq-file"])
def test_simulate_needs_both_files(capsys, tmp_path, flag):
    only = tmp_path / "only.txt"
    only.write_text("1 2\n")
    code, out, err = run_cli(capsys, "simulate", "--algo", "mtf", flag, str(only))
    assert code == 2
    assert out == ""
    assert err == "error: explicit input needs both --list-file and --seq-file\n"


def test_simulate_missing_file_is_exit_3(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--algo", "mtf",
        "--list-file", str(tmp_path / "nope.txt"), "--seq-file", str(tmp_path / "nope2.txt"),
    )
    assert code == 3
    assert err.startswith("error:")


def test_a_repeated_list_id_is_a_short_error_line(capsys, tmp_path):
    # 200,000 ids plus one repeat: the error names the id and its two
    # positions instead of writing the whole list to stderr.
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text(" ".join(map(str, range(1, 200_001))) + " 123456\n")
    seq_file.write_text("1\n")
    code, out, err = run_cli(capsys, "simulate", "--algo", "mtf",
                             "--list-file", str(list_file), "--seq-file", str(seq_file))
    assert (code, out) == (3, "")
    assert err == "error: bad list file: item ids must be distinct, got item 123456 at positions 123456 and 200001\n"
    assert len(err.encode()) < 200


def test_simulate_malformed_file_is_exit_3(capsys, tmp_path):
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text("1 two 3\n")
    seq_file.write_text("1\n")
    code, _, err = run_cli(
        capsys, "simulate", "--algo", "mtf",
        "--list-file", str(list_file), "--seq-file", str(seq_file),
    )
    assert code == 3
    assert "two" in err


def test_simulate_non_utf8_file_is_exit_3(tmp_path):
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text("1 2 3\n")
    seq_file.write_bytes(b"1 2\xff 3\n")
    result = solist_child("simulate", "--algo", "mtf", "--list-file", str(list_file), "--seq-file", str(seq_file))
    assert result.returncode == 3
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("bad_file", ["list", "list on line 3", "sequence", "sequence past 64 KiB"])
def test_simulate_non_utf8_file_is_exit_3_in_process(capsys, tmp_path, bad_file):
    # A chunk that fails to decode is decoded again a line at a time, so the
    # error names the line; the byte's position is within that line.
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    before = {"list on line 3": b"# initial\n\n", "sequence past 64 KiB": b"1 2 3\n" * 20_000}.get(bad_file, b"")
    bad = before + b"1 2 \xff3\n"
    list_file.write_bytes(bad if bad_file.startswith("list") else b"1 2 3\n")
    seq_file.write_bytes(bad if bad_file.startswith("sequence") else b"1 2 3\n")
    code, out, err = run_cli(
        capsys, "simulate", "--algo", "mtf", "--list-file", str(list_file), "--seq-file", str(seq_file),
    )
    line = before.count(b"\n") + 1
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: input file is not valid UTF-8: line {line}: ")
    assert "0xff" in err


def test_simulate_list_file_of_only_commas_is_exit_3(capsys, tmp_path):
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text(",\n")
    seq_file.write_text("")
    code, out, err = run_cli(
        capsys, "simulate", "--algo", "fc",
        "--list-file", str(list_file), "--seq-file", str(seq_file),
    )
    assert code == 3
    assert out == ""
    assert err == "error: list file has no items\n"


def test_simulate_unknown_item_is_exit_3(capsys, tmp_path):
    list_file = tmp_path / "list.txt"
    seq_file = tmp_path / "seq.txt"
    list_file.write_text("1 2 3\n")
    seq_file.write_text("1 9\n")
    code, _, err = run_cli(
        capsys, "simulate", "--algo", "trans",
        "--list-file", str(list_file), "--seq-file", str(seq_file),
    )
    assert code == 3
    assert "item 9" in err


def test_predict_output_line(capsys):
    code, out, _ = run_cli(capsys, "predict", "--algo", "trans", "--seq", "t1", "--n", "4", "--k", "2")
    assert code == 0
    assert out == "algo trans family T1 n 4 k 2 case 3.1a total 21\n"


def test_predict_past_saturation(capsys):
    code, out, _ = run_cli(capsys, "predict", "--algo", "trans", "--seq", "t1", "--n", "5", "--k", "3")
    assert code == 0
    assert out == "algo trans family T1 n 5 k 3 case 3.1c total 48\n"


def test_predict_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "predict", "--algo", "mtf", "--seq", "t1", "--n", "0", "--k", "1")
    assert code == 2
    assert err.startswith("error:")


def test_verify_table_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2..3", "--k", "1..2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mtf T1: 0 mismatches / 4 cells"
    assert lines[1] == "mtf T2: 0 mismatches / 4 cells"
    assert lines[2] == "trans T1: 0 mismatches / 4 cells"
    assert lines[3] == "trans T2: 0 mismatches / 4 cells"
    assert lines[4] == "verdict PASS (16 cells, 0 mismatches)"


def test_verify_single_pair_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--algo", "mtf", "--seq", "t1", "--n", "2..2", "--k", "1..2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "algo,family,n,k,simulated,predicted,match",
        "mtf,T1,2,1,3,3,true",
        "mtf,T1,2,2,7,7,true",
    ]


def test_verify_partial_model(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1..6", "--k", "1..6", "--model", "partial")
    assert code == 0
    assert "verdict PASS" in out


def test_verify_output_file(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--algo", "trans", "--seq", "t2", "--n", "3..3", "--k", "1..1",
        "--format", "csv", "--output", str(out_file),
    )
    assert code == 0
    assert out == ""
    assert out_file.read_text() == "algo,family,n,k,simulated,predicted,match\ntrans,T2,3,1,7,7,true\n"


def test_verify_reports_mismatches(capsys, monkeypatch):
    def off_by_one(*row):
        for true in _totals(*row):
            yield Prediction(true.case_id, true.total + 1)

    monkeypatch.setattr(solist.harness, "_totals", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "--algo", "mtf", "--seq", "t1", "--n", "2..2", "--k", "1..1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "mtf T1: 1 mismatches / 1 cells"
    assert lines[1] == "MISMATCH mtf T1 n 2 k 1 simulated 3 predicted 4"
    assert lines[2] == "verdict FAIL (1 cells, 1 mismatches)"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_verify_checks_every_row_before_writing(capsys, tmp_path, to_file):
    # Row n = 1 builds, row n = 2 asks for more than sys.maxsize requests:
    # the error must come before row n = 1 is written.
    report = tmp_path / "report.csv"
    argv = ["verify", "--algo", "mtf", "--seq", "t1", "--n", "1..2", "--k", "9223372036854775807",
            "--format", "csv"]
    code, out, err = run_cli(capsys, *argv, *(["--output", str(report)] if to_file else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: sequence length ")
    assert not report.exists()


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_verify_holds_one_row_at_a_time(tmp_path, fmt):
    # The table keeps no passing cell and csv writes each as it is graded;
    # holding all 20000 cells of this row before writing a line peaked at
    # 4.7 MB (table) and 4.5 MB (csv).
    report = tmp_path / "report.txt"
    argv = ["verify", "--algo", "mtf", "--seq", "t1", "--n", "1", "--k", "1..20000", "--format", fmt]
    tracemalloc.start()
    try:
        code = main([*argv, "--output", str(report)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000
    total = predict("mtf", "T1", 1, 20_000).total
    expected = "verdict PASS (20000 cells, 0 mismatches)" if fmt == "table" else f"mtf,T1,1,20000,{total},{total},true"
    assert report.read_text().splitlines()[-1] == expected


def test_verify_bad_range_bounds(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "0..5", "--k", "1..2")
    assert code == 2
    assert err.startswith("error:")


def test_verify_unparseable_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--n", "two..5", "--k", "1..2"])
    assert exc_info.value.code == 2


def test_compare_ascending(capsys):
    code, out, _ = run_cli(capsys, "compare", "--seq", "t1", "--n", "5", "--k", "1..3")
    assert code == 0
    assert out == (
        "n,k,family,mtf_cost,trans_cost\n"
        "5,1,T1,15,15\n"
        "5,2,T1,40,31\n"
        "5,3,T1,65,48\n"
    )


def test_compare_descending(capsys):
    code, out, _ = run_cli(capsys, "compare", "--seq", "t2", "--n", "5", "--k", "1..2")
    assert code == 0
    assert out == (
        "n,k,family,mtf_cost,trans_cost\n"
        "5,1,T2,25,17\n"
        "5,2,T2,50,34\n"
    )


def test_compare_tie_on_two_items(capsys):
    code, out, _ = run_cli(capsys, "compare", "--seq", "t2", "--n", "2", "--k", "1")
    assert code == 0
    assert out.splitlines()[1] == "2,1,T2,4,4"


def test_compare_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "compare", "--seq", "t1", "--n", "7", "--k", "1..12")
    _, second, _ = run_cli(capsys, "compare", "--seq", "t1", "--n", "7", "--k", "1..12")
    assert first == second


def test_compare_output_and_gnuplot(capsys, tmp_path):
    csv_file = tmp_path / "out.csv"
    plot_file = tmp_path / "plot.gp"
    code, out, _ = run_cli(
        capsys, "compare", "--seq", "t1", "--n", "4", "--k", "1..2",
        "--output", str(csv_file), "--gnuplot", str(plot_file),
    )
    assert code == 0
    assert out == ""
    assert csv_file.read_text() == "n,k,family,mtf_cost,trans_cost\n4,1,T1,10,10\n4,2,T1,26,21\n"
    script = plot_file.read_text()
    assert str(csv_file) in script
    assert "using 2:4" in script
    assert "using 2:5" in script


def test_compare_gnuplot_escapes_quotes_and_backslashes(capsys, tmp_path, monkeypatch):
    # In a gnuplot double-quoted string \\ is one backslash and \" one quote.
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "compare", "--seq", "t1", "--n", "2", "--k", "1",
                         "--output", 'a"b\\c.csv', "--gnuplot", "plot.gp")
    assert code == 0
    assert (tmp_path / 'a"b\\c.csv').read_text() == "n,k,family,mtf_cost,trans_cost\n2,1,T1,3,3\n"
    lines = (tmp_path / "plot.gp").read_text().splitlines()
    assert lines[-2:] == [
        'plot "a\\"b\\\\c.csv" every ::1 using 2:4 with linespoints title "mtf", \\',
        '     "a\\"b\\\\c.csv" every ::1 using 2:5 with linespoints title "trans"',
    ]


def test_compare_streams_its_rows(tmp_path):
    # compare writes each row as it is made; holding these 30k rows in a
    # list first peaked at 3.7 MB.
    csv_file = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        code = main(["compare", "--seq", "t1", "--n", "5", "--k", "1..30000", "--output", str(csv_file)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000
    lines = csv_file.read_text().splitlines()
    assert len(lines) == 30_001
    mtf, trans = (predict(algo, "T1", 5, 30_000).total for algo in ("mtf", "trans"))
    assert lines[-1] == f"5,30000,T1,{mtf},{trans}"


class _WriteRecorder:
    """A stdout that keeps the text of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, texts):  # as io.TextIOWrapper does: one write each
        for text in texts:
            self.write(text)

    def flush(self):
        pass


def test_a_report_is_written_in_blocks_of_whole_lines(monkeypatch):
    # 10,001 lines of about 170 characters go out in a few dozen writes, not one per line.
    stdout = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["simulate", "--algo", "mtf", "--seq", "t1", "--n", "50", "--k", "10000", "--per-pass"]) == 0
    text = "".join(stdout.writes)
    assert len(stdout.writes) <= len(text) / solist.cli._BLOCK + 2
    assert all(write.endswith("\n") for write in stdout.writes)
    lines = text.splitlines()
    assert (len(lines), lines[-1]) == (10_001, f"total {predict('mtf', 'T1', 50, 10_000).total}")
    assert lines[0] == "pass 1 cost 1275 config " + " ".join(map(str, range(50, 0, -1)))


def test_a_block_is_bounded_in_characters_not_lines(capsys, monkeypatch):
    # A block is written once it reaches _BLOCK characters, so a line longer
    # than a block ends the block it starts, and no write holds two such lines.
    argv = ["simulate", "--algo", "trans", "--seq", "t1", "--n", "60", "--k", "5", "--per-pass"]
    expected = run_cli(capsys, *argv)
    stdout = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(solist.cli, "_BLOCK", 100)
    assert main(argv) == 0
    assert "".join(stdout.writes) == expected[1]
    assert [write.count("\n") for write in stdout.writes] == [1] * 6
    stdout.writes.clear()
    solist.cli._emit([letter * width for letter, width in zip("abcdef", [10, 150, 10, 80, 20, 5])], None)
    assert stdout.writes == ["a" * 10 + "\n" + "b" * 150 + "\n", "c" * 10 + "\n" + "d" * 80 + "\n" + "e" * 20 + "\n",
                             "f" * 5 + "\n"]


def test_crossover_writes_the_rows_before_an_error(capsys, monkeypatch):
    real = solist.closed_form.crossover

    def broken_at_3(family, n, k_max):
        if n == 3:
            raise SolistError("dominance broken at n 3")
        return real(family, n, k_max)

    monkeypatch.setattr(solist.closed_form, "crossover", broken_at_3)
    code, out, err = run_cli(capsys, "crossover", "--seq", "t1", "--n", "1..5", "--kmax", "5")
    assert (code, out, err) == (2, "family n k_star\nT1 1 none\nT1 2 none\n", "error: dominance broken at n 3\n")


def test_verify_writes_the_rows_before_an_error_to_its_output(capsys, monkeypatch, tmp_path):
    # Row n = 2 of the CSV stream raises after row n = 1 is graded: the file keeps row n = 1.
    real = solist.harness._passes

    def broken_at_2(policy, initial, *rest):
        if len(initial) == 2:
            raise SolistError("row n 2 failed")
        return real(policy, initial, *rest)

    monkeypatch.setattr(solist.harness, "_passes", broken_at_2)
    report = tmp_path / "report.csv"
    argv = ["verify", "--algo", "mtf", "--seq", "t1", "--n", "1..3", "--k", "1..2", "--format", "csv"]
    assert run_cli(capsys, *argv, "--output", str(report)) == (2, "", "error: row n 2 failed\n")
    assert report.read_text() == "algo,family,n,k,simulated,predicted,match\nmtf,T1,1,1,1,1,true\nmtf,T1,1,2,2,2,true\n"


def test_compare_gnuplot_needs_output(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "compare", "--seq", "t1", "--n", "4", "--k", "1..2",
        "--gnuplot", str(tmp_path / "plot.gp"),
    )
    assert code == 2
    assert "--output" in err


@pytest.mark.parametrize("spelling", ["same.txt", "sub/../same.txt", "link.txt"])
def test_compare_gnuplot_and_output_must_differ(capsys, tmp_path, monkeypatch, spelling):
    # The script would overwrite the CSV it plots: refused before either is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    Path("same.txt").write_text("kept\n")
    Path("link.txt").symlink_to("same.txt")
    code, out, err = run_cli(
        capsys, "compare", "--seq", "t1", "--n", "5", "--k", "1..3", "--output", "same.txt", "--gnuplot", spelling,
    )
    assert code == 2
    assert out == ""
    assert err == "error: --gnuplot and --output name the same file\n"
    assert Path("same.txt").read_text() == "kept\n"


def test_compare_bad_k_range(capsys):
    code, _, err = run_cli(capsys, "compare", "--seq", "t1", "--n", "4", "--k", "0..5")
    assert code == 2
    code, _, err = run_cli(capsys, "compare", "--seq", "t1", "--n", "4", "--k", "5..2")
    assert code == 2


def test_crossover_table(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--seq", "t2", "--n", "2..5", "--kmax", "10")
    assert code == 0
    assert out.splitlines() == [
        "family n k_star",
        "T2 2 none",
        "T2 3 1",
        "T2 4 1",
        "T2 5 1",
    ]


def test_crossover_ascending(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--seq", "t1", "--n", "5..5", "--kmax", "10")
    assert code == 0
    assert out.splitlines() == ["family n k_star", "T1 5 2"]


def test_crossover_single_value_range(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--seq", "t1", "--n", "2", "--kmax", "6")
    assert code == 0
    assert out.splitlines()[1] == "T1 2 none"


@pytest.mark.parametrize("seq", ["t1", "t2"])
def test_crossover_at_a_huge_kmax(capsys, seq):
    # The search costs a few evaluations per case piece, whatever --kmax is.
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "crossover", "--seq", seq, "--n", "1..3", "--kmax", "9" * 23)
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "")
    _, at_200, _ = run_cli(capsys, "crossover", "--seq", seq, "--n", "1..3", "--kmax", "200")
    assert [line.split()[2] for line in out.splitlines()] == [line.split()[2] for line in at_200.splitlines()]


@pytest.mark.parametrize("seq, k_star", [("t1", 2), ("t2", 1)])
def test_transpose_wins_from_one_k_for_every_n_up_to_2000(capsys, seq, k_star):
    # The paper's headline: transpose first beats move-to-front at k = 2 on
    # T1 and at k = 1 on T2 for every n in 3..2000, and never at n = 1 or 2.
    code, out, err = run_cli(capsys, "crossover", "--seq", seq, "--n", "1..2000", "--kmax", str(10**12))
    family = seq.upper()
    rows = [f"{family} 1 none", f"{family} 2 none", *(f"{family} {n} {k_star}" for n in range(3, 2001))]
    assert (code, out, err) == (0, "".join(f"{line}\n" for line in ["family n k_star", *rows]), "")


def test_crossover_bad_n_range(capsys):
    code, _, err = run_cli(capsys, "crossover", "--seq", "t1", "--n", "0..3", "--kmax", "5")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("crossover", "--seq", "t1", "--n", "1..3", "--kmax", "0"),
        ("crossover", "--seq", "t1", "--n", "1..3", "--kmax", "-4"),
        ("crossover", "--seq", "t2", "--n", "3..1", "--kmax", "5"),
        ("compare", "--seq", "t1", "--n", "0", "--k", "1..3"),
        ("compare", "--seq", "t1", "--n", "4", "--k", "0..3"),
        ("compare", "--seq", "t1", "--n", "4", "--k", "3..1"),
        ("verify", "--n", "1..3", "--k", "0..2"),
        ("verify", "--n", "3..1", "--k", "1..2"),
        ("simulate", "--algo", "mtf", "--list-file", "list.txt", "--seq-file", "seq.txt", "--n", "3"),
        ("simulate", "--algo", "fc", "--list-file", "list.txt", "--seq-file", "seq.txt", "--k", "2"),
    ],
    ids=" ".join,
)
def test_parameter_errors_print_nothing_to_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("algo", ["mtf", "trans", "fc"])
@pytest.mark.parametrize(
    "n, k",
    [(10**31, 0), (10**31, 1), (10, 10**31), (2, 2**62), (2**63, 1), (10**18, 0)],
    ids=["huge-n-k0", "huge-n", "huge-k", "length-past-maxsize", "n-past-maxsize", "n-past-memory"],
)
def test_simulate_huge_sizes_are_parameter_errors(capsys, algo, n, k):
    code, out, err = run_cli(capsys, "simulate", "--algo", algo, "--seq", "t1", "--n", str(n), "--k", str(k))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("algo", ["mtf", "trans", "fc"])
def test_simulate_a_trillion_passes(capsys, algo):
    k = 10**12
    code, out, _ = run_cli(capsys, "simulate", "--algo", algo, "--seq", "t1", "--n", "50", "--k", str(k))
    assert code == 0
    expected = k * 50 * 51 // 2 if algo == "fc" else predict(algo, "T1", 50, k).total
    assert out == f"total {expected}\n"


def test_module_entry_point_is_byte_deterministic(tmp_path):
    argv = ["compare", "--seq", "t1", "--n", "5", "--k", "1..10"]
    first = solist_child(*argv, text=False, check=True)
    second = solist_child(*argv, text=False, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"n,k,family,mtf_cost,trans_cost\n")
    assert len(first.stdout.splitlines()) == 11


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_command_silently():
    # As `solist compare ... | head -1`: the reader leaves after one line,
    # while the command still has megabytes of rows to write.
    argv = [sys.executable, "-m", "solist", "compare", "--seq", "t1", "--n", "5", "--k", "1..300000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        assert proc.stdout.readline() == b"n,k,family,mtf_cost,trans_cost\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == -signal.SIGPIPE
    assert err == b""


@contextmanager
def _digits_unlimited():
    """Let ints of any size convert to and from str (3.10.7 on limits them)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


HUGE_N = 10**2200
HUGE_K = 10**4299  # the most digits an argv int may have under the default limit


def _expected_predict():
    total = predict("mtf", "T1", HUGE_N, 1)
    return f"algo mtf family T1 n {HUGE_N} k 1 case {total.case_id} total {total.total}\n", ""


def _expected_compare():
    rows = (f"{HUGE_N},{k},T2,{predict('mtf', 'T2', HUGE_N, k).total},{predict('trans', 'T2', HUGE_N, k).total}"
            for k in (1, 2))
    return "".join(f"{line}\n" for line in (solist.cli.COMPARE_HEADER, *rows)), ""


def _expected_simulate():
    return "", f"error: sequence length {10 * HUGE_K} exceeds the maximum {sys.maxsize}\n"


# Totals and messages past the interpreter's 4300-digit str limit.
HUGE_INT_CASES = {
    "predict": (("predict", "--algo", "mtf", "--seq", "t1", "--n", str(HUGE_N), "--k", "1"), 0, _expected_predict),
    "compare": (("compare", "--seq", "t2", "--n", str(HUGE_N), "--k", "1..2"), 0, _expected_compare),
    "simulate": (("simulate", "--algo", "trans", "--seq", "t2", "--n", "10", "--k", str(HUGE_K)), 2,
                 _expected_simulate),
}


@pytest.mark.parametrize("case", sorted(HUGE_INT_CASES))
def test_huge_integers_print_in_full(capsys, case):
    argv, status, expected = HUGE_INT_CASES[case]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run_cli(capsys, *argv)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    with _digits_unlimited():
        assert (code, out, err) == (status, *expected())

    result = solist_child(*argv, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


class _HandlerWatchingWriter:
    """A stderr that records, for each write, the exception being handled then (None outside a handler)."""

    def __init__(self):
        self.text, self.handling = "", []

    def write(self, text):
        self.text += text
        self.handling.append(sys.exc_info()[1])
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "error, code, message",
    [
        (ParseError("bad input"), 3, "bad input"),
        (SolistError("bad parameter"), 2, "bad parameter"),
        (MemoryError(), 2, "not enough memory for these parameters"),
    ],
    ids=["parse", "solist", "memory"],
)
def test_error_line_is_written_outside_the_handler(monkeypatch, error, code, message):
    # A handler keeps the traceback and the frames it holds alive, and
    # printing can run out of memory too: main writes once they are gone.
    def fail(args):
        raise error

    writer = _HandlerWatchingWriter()
    monkeypatch.setattr(solist.cli, "cmd_predict", fail)
    monkeypatch.setattr(sys, "stderr", writer)
    assert main(["predict", "--algo", "mtf", "--seq", "t1", "--n", "2", "--k", "1"]) == code
    assert writer.text == f"error: {message}\n"
    assert writer.handling and all(exc is None for exc in writer.handling)


@linux_only
def test_verify_out_of_memory_is_exit_2():
    # The limit leaves room for the interpreter and the CLI's modules, but
    # not for a list of three million items.
    result = solist_child("verify", "--algo", "mtf", "--seq", "t1", "--n", "3000000", "--k", "1", limit_mb=175)
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: not enough memory for these parameters\n"
    assert result.stdout == ""


@linux_only
def test_cli_stores_a_thousand_passes_as_machine_ints():
    # Transpose on T1 at n = 2000 repeats no pass-end state within 1001
    # passes: 2M requests. With --per-pass, simulate keeps each pass's total
    # and each pass-end arrangement, which for transpose is the state it
    # detects a repeat by, and no per-request cost. Each head configuration's
    # text (8,892 characters) is formatted as its line is written. The run
    # peaks at about 30 MB of RSS and passes at 34 MB under CPython 3.11.7,
    # 3.12.1 and 3.13.0; --per-pass through serve's ledger, which stored the
    # 2M costs as 8-byte machine ints, needed 51 MB.
    argv = ["simulate", "--algo", "trans", "--seq", "t1", "--n", "2000", "--k", "1001", "--per-pass"]
    result = solist_child(*argv, limit_mb=44)
    prediction = predict("trans", "T1", 2000, 1001)
    assert (prediction.case_id, prediction.total) == ("3.1b", 2003501500)
    lines = result.stdout.splitlines()
    assert (result.returncode, result.stderr, len(lines), lines[-1]) == (0, "", 1002, "total 2003501500")
    assert lines[0] == "pass 1 cost 2001000 config " + " ".join(map(str, [*range(2, 2001), 1]))


@linux_only
def test_simulate_keeps_only_the_pass_totals():
    # Without --per-pass, simulate prints one total, so it keeps each pass's
    # total and the pass-end state it detects a repeat by, and no per-request
    # cost: the same run as above peaks at about 30 MB of RSS, and a ledger
    # of its 2M costs fails at 48 MB.
    result = solist_child("simulate", "--algo", "trans", "--seq", "t1", "--n", "2000", "--k", "1001", limit_mb=44)
    assert (result.returncode, result.stdout, result.stderr) == (0, "total 2003501500\n", "")


@pytest.mark.parametrize("argv", [
    ["simulate", "--algo", "mtf", "--seq", "t1", "--n", "7", "--k", "5"],
    ["simulate", "--algo", "trans", "--seq", "t1", "--n", "9", "--k", "10", "--model", "partial"],
    ["simulate", "--algo", "fc", "--seq", "t2", "--n", "6", "--k", "1000000000000"],
    ["simulate", "--algo", "trans", "--seq", "t1", "--n", "9", "--k", "30", "--model", "partial", "--per-pass"],
    ["simulate", "--algo", "fc", "--seq", "t2", "--n", "6", "--k", "20", "--per-pass"],
    ["verify", "--n", "1..8", "--k", "1..8"],
    ["verify", "--algo", "trans", "--n", "3..6", "--k", "2..9", "--model", "partial", "--format", "csv"],
], ids=["simulate-mtf", "simulate-trans-partial", "simulate-fc-huge-k", "per-pass-trans-partial", "per-pass-fc",
        "verify", "verify-csv"])
def test_totals_are_printed_without_a_ledger(capsys, monkeypatch, argv):
    # simulate, with or without --per-pass, and verify read only pass totals
    # and pass-end arrangements: they print the same bytes when no CostLedger
    # or ListState can be built.
    expected, state = run_cli(capsys, *argv), ListState.initial(3)

    def refuse(*args):
        raise AssertionError("a CostLedger or a ListState was built")

    monkeypatch.setattr(CostLedger, "__post_init__", refuse)
    monkeypatch.setattr(ListState, "__post_init__", refuse)
    monkeypatch.setattr(ListState, "_unchecked", refuse)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0 and expected[1]
    for build in (lambda: ListState((1, 2)), lambda: ListState.initial(2), lambda: per_pass_profile("mtf", "T1", 3, 2),
                  lambda: serve(make_policy("mtf"), state, gen_t1(3, 2))):
        with pytest.raises(AssertionError, match="a CostLedger or a ListState was built"):
            build()
