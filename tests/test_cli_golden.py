"""Golden CLI bytes: a fixed set of commands run in-process through
``main``, whose stdout (as a sha256), stderr text and exit code must not
change. Refactors of the library below the CLI are checked against it.

To re-record after a deliberate output change, run this file as a
script (``PYTHONPATH=src python tests/test_cli_golden.py``) and paste its
output over ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import pathlib

import pytest

from solist.cli import main

N_FILE_ITEMS = 200
N_FILE_REQUESTS = 5000


def _write_inputs(directory) -> tuple[str, str]:
    """A list and a request stream, both from fixed arithmetic rules."""
    list_file = directory / "list.txt"
    seq_file = directory / "seq.txt"
    # 7 is coprime to the list size, so this is a permutation of 1..n.
    order = [(7 * i) % N_FILE_ITEMS + 1 for i in range(N_FILE_ITEMS)]
    list_file.write_text("# permuted arrangement\n" + ", ".join(map(str, order)) + "\n")
    requests = [(i * i + 3 * i) % N_FILE_ITEMS + 1 for i in range(N_FILE_REQUESTS)]
    lines = (" ".join(map(str, requests[at:at + 25])) for at in range(0, len(requests), 25))
    seq_file.write_text("\n".join(lines) + "\n")
    return str(list_file), str(seq_file)


def _cases() -> dict[str, tuple[str, ...]]:
    cases = {
        "verify-table": ("verify", "--n", "1..40", "--k", "1..40"),
        "verify-csv": ("verify", "--n", "1..40", "--k", "1..40", "--format", "csv"),
        "verify-partial-csv": ("verify", "--n", "1..40", "--k", "1..40", "--model", "partial", "--format", "csv"),
    }
    for algo in ("mtf", "trans", "fc"):
        for seq in ("t1", "t2"):
            for model in ("full", "partial"):
                cases[f"simulate-{algo}-{seq}-{model}"] = (
                    "simulate", "--algo", algo, "--seq", seq, "--n", "9", "--k", "12",
                    "--model", model, "--per-pass",
                )
    cases["simulate-fc-t2-long"] = (
        "simulate", "--algo", "fc", "--seq", "t2", "--n", "50", "--k", "10000", "--per-pass",
    )
    cases["simulate-files"] = (
        "simulate", "--algo", "fc", "--list-file", "{list}", "--seq-file", "{seq}",
        "--model", "partial", "--per-pass",
    )
    cases["compare"] = ("compare", "--seq", "t1", "--n", "7", "--k", "1..30")
    for seq in ("t1", "t2"):
        cases[f"crossover-{seq}"] = ("crossover", "--seq", seq, "--n", "1..100", "--kmax", "200")
    for case_id, (algo, seq, n, k) in {
        "1": ("mtf", "t1", 6, 4),
        "2": ("mtf", "t2", 6, 4),
        "3.1a": ("trans", "t1", 8, 3),
        "3.1b": ("trans", "t1", 8, 9),
        "3.1c": ("trans", "t1", 7, 9),
        "3.2a": ("trans", "t2", 8, 5),
        "3.2b": ("trans", "t2", 7, 5),
    }.items():
        cases[f"predict-{case_id}"] = ("predict", "--algo", algo, "--seq", seq, "--n", str(n), "--k", str(k))
    cases["error-verify-range"] = ("verify", "--n", "3..1", "--k", "1..2")
    cases["error-compare-n"] = ("compare", "--seq", "t1", "--n", "0", "--k", "1..3")
    cases["error-simulate-k"] = ("simulate", "--algo", "mtf", "--seq", "t1", "--n", "3")
    return cases


CASES = _cases()

# (sha256 of stdout, stderr, exit code) per case.
GOLDEN = {
    'verify-table': ('43189652802dc2f457aab3003d89c47075653993cd140c7c4ea3ed04130c32d6', '', 0),
    'verify-csv': ('14d631cd48e755639e157d66c91a2d4dac6ce396087d008aa8040423d8048ee4', '', 0),
    'verify-partial-csv': ('833b5e0c5a36df20aed7c671c65e933295f0b280e2bfac6e76f6c3d2bcac3f7b', '', 0),
    'simulate-mtf-t1-full': ('40107801c3d7817a7d7951121d27105f240c9b86cb93b34b3a51cd0e603cc261', '', 0),
    'simulate-mtf-t1-partial': ('456d1cc7320b6bd8385264574af8012bc739a8cc805da19235a5336251acdeda', '', 0),
    'simulate-mtf-t2-full': ('8f94719d13f2ee3a75dd330b1f7500475919e2aa350b7a532a35d661ad4381b7', '', 0),
    'simulate-mtf-t2-partial': ('1979707a1e76464d00ccaf9fbf38ae4f4eda72b628cbc76497e4a23e3ea07fc3', '', 0),
    'simulate-trans-t1-full': ('4556e12b409bfa288473aed35ed38eb667c1622e93dc05477cb05219542f5094', '', 0),
    'simulate-trans-t1-partial': ('d89a9044cc08a191e4746434fb4ddd7d88408d3ab754f46834f96e9b093779f7', '', 0),
    'simulate-trans-t2-full': ('113c98127cffa5f10f44c19addc78035d4ab34ee87273170a76dc5223e1d2ff2', '', 0),
    'simulate-trans-t2-partial': ('695b8da931631e99f8722cd021e87eb0c882be8a5491a3912ca776a2849c9c20', '', 0),
    'simulate-fc-t1-full': ('cb7e46d7c70305561893875ab155f2760a862370a4ebc248a91bd17fed9421d7', '', 0),
    'simulate-fc-t1-partial': ('6021ec7cb496541910e3024a3c03accf831fb37cea69bbd96abacc2a53f82968', '', 0),
    'simulate-fc-t2-full': ('6bacaf1b05a4231a0c232f503a4aa38be2ab6f4c04acaeea78f368355f579594', '', 0),
    'simulate-fc-t2-partial': ('3428cc75e32f59681309f47cf9c5e41366e3303f6953b1b81cf251ac82be33a9', '', 0),
    'simulate-fc-t2-long': ('738cb003615bea836e4864e45b7e2d85ce86753da514351a52d74f68f8ba24a6', '', 0),
    'simulate-files': ('0cffc48838f45b717f723dbdd76cf78ec562f72a0bbbce652f5935c47782d3f6', '', 0),
    'compare': ('b9aff6158ba7a200250ecc5688663a724a6b565bd50c728ae31c300056b9a0a7', '', 0),
    'crossover-t1': ('52478b0bc6cf13664697547b653d9a9447b574f9b72c1214edfce1a1a59cfa72', '', 0),
    'crossover-t2': ('681906ef56a718a98cd5f24da34b32773f9a263f9dd15ded40d3fd97ab8baa8e', '', 0),
    'predict-1': ('2f67baddda5536f1a80596e16de89b82b1e1e69041945b08c7d77c773575b8c5', '', 0),
    'predict-2': ('45ab500a56c95345e540ac217256306b9cf3507918172ee951c49b5ff6f3b867', '', 0),
    'predict-3.1a': ('a53d8266a86f6c6ef278c10bff48a73827445cb95340b709d6bbf17c122806e4', '', 0),
    'predict-3.1b': ('0d9b50b5db4c93cc02f6aa8b88b8148393ef87d4d53fc3207bcf699c9aa2e2c1', '', 0),
    'predict-3.1c': ('3493cc4cf4193685d864a0d12c3a9720c121d973caf7650267edb1b0a33fdd19', '', 0),
    'predict-3.2a': ('c227c2b9c72c31befb482b1ff785281d91a473cb8b92188ec855dfe3773c7f75', '', 0),
    'predict-3.2b': ('bf80528100451476615fab27fd9927e1977117d51d0dffd2857464986cbee828', '', 0),
    'error-verify-range': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: n range is empty: 3..1\n', 2),
    'error-compare-n': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: n must be a positive integer, got 0\n', 2),
    'error-simulate-k': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: --seq needs both --n and --k\n', 2),
}


def _run(argv, directory) -> tuple[str, str, int]:
    list_file, seq_file = _write_inputs(directory)
    argv = [arg.format(list=list_file, seq=seq_file) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue(), code


def test_every_case_has_a_golden_value():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(tmp_path, name):
    assert _run(CASES[name], tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        for name in CASES:
            print(f"    {name!r}: {_run(CASES[name], pathlib.Path(directory))!r},")
