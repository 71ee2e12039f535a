"""End-to-end command-line tests: exact output text and exit codes."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import solist.cli
from solist import Prediction, predict, verify_grid
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
        return Prediction(true.algorithm, true.family, true.n, true.k, true.case_id, true.total + 1)

    def broken_grid(algorithms, families, n_range, k_range, model):
        return verify_grid(algorithms, families, n_range, k_range, model, predictor=off_by_one)

    monkeypatch.setattr(solist.cli, "verify_grid", broken_grid)
    code, out, _ = run_cli(capsys, "verify", "--algo", "mtf", "--seq", "t1", "--n", "2..2", "--k", "1..1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "mtf T1: 1 mismatches / 1 cells"
    assert lines[1] == "MISMATCH mtf T1 n 2 k 1 simulated 3 predicted 4"
    assert lines[2] == "verdict FAIL (1 cells, 1 mismatches)"


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
