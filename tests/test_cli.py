"""End-to-end command-line tests: exact output text and exit codes."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

import solist.cli
import solist.harness
from solist import Prediction, predict
from solist.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_simulate_missing_file_is_exit_3(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--algo", "mtf",
        "--list-file", str(tmp_path / "nope.txt"), "--seq-file", str(tmp_path / "nope2.txt"),
    )
    assert code == 3
    assert err.startswith("error:")


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
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        sys.executable, "-m", "solist", "simulate", "--algo", "mtf",
        "--list-file", str(list_file), "--seq-file", str(seq_file),
    ]
    result = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert result.returncode == 3
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


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
    def off_by_one(algorithm, family, n, k):
        true = predict(algorithm, family, n, k)
        return Prediction(true.case_id, true.total + 1)

    monkeypatch.setattr(solist.harness, "predict", off_by_one)
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


def test_compare_gnuplot_needs_output(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "compare", "--seq", "t1", "--n", "4", "--k", "1..2",
        "--gnuplot", str(tmp_path / "plot.gp"),
    )
    assert code == 2
    assert "--output" in err


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
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "solist", "compare", "--seq", "t1", "--n", "5", "--k", "1..10"]
    first = subprocess.run(argv, capture_output=True, env=env, check=True)
    second = subprocess.run(argv, capture_output=True, env=env, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"n,k,family,mtf_cost,trans_cost\n")
    assert len(first.stdout.splitlines()) == 11


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_command_silently():
    # As `solist compare ... | head -1`: the reader leaves after one line,
    # while the command still has megabytes of rows to write.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "solist", "compare", "--seq", "t1", "--n", "5", "--k", "1..300000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
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

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-m", "solist", *argv], capture_output=True, text=True, env=env,
                            timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


def _limit_address_space():
    import resource

    # Room for the interpreter and the CLI's modules, but not for a list of
    # three million items.
    limit = 175 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_verify_out_of_memory_is_exit_2():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "solist", "verify", "--algo", "mtf", "--seq", "t1", "--n", "3000000", "--k", "1"]
    result = subprocess.run(argv, capture_output=True, text=True, env=env,
                            preexec_fn=_limit_address_space, timeout=120)
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: not enough memory for these parameters\n"
    assert result.stdout == ""
