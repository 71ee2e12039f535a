"""Hostile command lines through ``main``: each ends in a documented exit
code (0, 1, 2 or 3), never a traceback.

Hypothesis builds argvs for all five subcommands from a small grammar:
integers from -10**40 to 10**40 and text that is not one, ``A..B``
ranges in every form (open-ended, single, reversed), flags dropped from
the pairs they belong to, and list and sequence files that are empty,
binary, a directory, missing, huge-int or duplicate-id. Range spans stay
small, and a list size is either small or beyond what any list can hold,
so that no case asks for unbounded work or output.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from solist.cli import main


def mostly(common, rare):
    """Draws from ``rare`` one time in sixteen, else from ``common``, so
    that an argv of several parts is often valid as a whole."""
    return st.integers(min_value=0, max_value=15).flatmap(lambda i: rare if i == 15 else common)


SMALL = st.integers(min_value=-1, max_value=12)
# No list can have one of these as its size, and asking for one fails
# before anything is allocated.
BEYOND = st.sampled_from([sys.maxsize, sys.maxsize + 1, 2**64, 10**40, -(10**40)])
SIZES = mostly(SMALL, BEYOND)
# Repetition counts and closed-form arguments may also be large but
# representable: fast-forward and the closed forms handle them in O(1).
COUNTS = st.one_of(SIZES, st.sampled_from([10**6, 10**12]))
NOT_INTS = st.sampled_from(["", "x", "1.5", "0x10", "1e3", "+4", "1_0", "٣", " 7"])

FILES = {
    "empty": b"",
    "binary": b"\xff\xfe\x00\x81\n",
    "huge-int": f"1 2 {10**40}\n".encode(),
    "duplicate-id": b"1 2 2\n",
    "zero": b"1 0 2\n",
    "list": b"# initial order\n3, 1, 2\n",
    "seq": b"1 2\n2, 3  # tail\n",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    paths = {"directory": str(root), "missing": str(root / "no-such-dir" / "file")}
    for name, data in FILES.items():
        (root / name).write_bytes(data)
        paths[name] = str(root / name)
    # Reports are written to a file of their own, never to an input.
    outputs = [paths["directory"], paths["missing"], str(root / "out")]
    return paths, outputs


def names(valid, invalid):
    """One of the space-separated ``valid`` names, or now and then ``invalid``."""
    return mostly(st.sampled_from(valid.split()), st.just(invalid))


def ints(values):
    return mostly(values.map(str), NOT_INTS)


@st.composite
def ranges(draw, values):
    a = draw(values)
    b = a + draw(st.integers(min_value=-2, max_value=3))  # below a: reversed
    valid, invalid = st.sampled_from(["{a}..{b}", "{a}"]), st.sampled_from(["{a}..", "..{b}", "..", "{a}..{x}"])
    form = draw(mostly(valid, invalid))
    return form.format(a=a, b=b, x=draw(NOT_INTS))


@st.composite
def flags(draw, options):
    """Each (flag, values) pair, in order, with its value drawn from
    ``values`` (None: a switch); any flag may be dropped."""
    argv = []
    for flag, values in options:
        if draw(mostly(st.just(True), st.just(False))):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@st.composite
def argvs(draw, paths, outputs):
    files = st.sampled_from(sorted(paths.values()))
    outputs = st.sampled_from(outputs)
    command = draw(names("simulate predict verify compare crossover --help", "bogus"))
    seq, model = names("t1 t2", "t3"), names("full partial", "half")
    if command == "simulate":
        # --per-pass prints a line per pass, so it only comes with small k.
        per_pass = draw(st.booleans())
        options = [("--algo", names("mtf trans fc", "lru"))]
        source = draw(names("family files", "both"))
        if source != "files":
            options += [("--seq", seq), ("--n", ints(SIZES)), ("--k", ints(SMALL if per_pass else COUNTS))]
        if source != "family":
            options += [("--list-file", files), ("--seq-file", files)]
        options += [("--model", model)]
        if per_pass:
            options += [("--per-pass", None)]
    elif command == "predict":
        options = [("--algo", names("mtf trans", "fc")), ("--seq", seq),
                   ("--n", ints(COUNTS)), ("--k", ints(COUNTS))]
    elif command == "verify":
        options = [("--algo", names("mtf trans", "fc")), ("--seq", seq), ("--algo", names("mtf trans", "fc")),
                   ("--n", ranges(SIZES)), ("--k", ranges(COUNTS)), ("--model", model),
                   ("--format", names("table csv", "xml"))]
        if draw(st.booleans()):
            options += [("--output", outputs)]
    elif command == "compare":
        options = [("--seq", seq), ("--n", ints(COUNTS)), ("--k", ranges(COUNTS))]
        if draw(st.booleans()):
            options += [("--output", outputs), ("--gnuplot", outputs)]
    elif command == "crossover":
        options = [("--seq", seq), ("--n", ranges(COUNTS)), ("--kmax", ints(COUNTS))]
    else:
        options = []
    return [command, *draw(flags(options))]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error, or --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_hostile_argv_ends_in_a_documented_exit_code(paths, data):
    argv = data.draw(argvs(*paths), label="argv")
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 1:
        # Only a verify report with a mismatch exits 1.
        assert argv[0] == "verify"
        if "--output" in argv:
            with open(argv[argv.index("--output") + 1], encoding="utf-8") as handle:
                out = handle.read()
        assert "verdict FAIL" in out or ",false\n" in out
    if code in (2, 3):
        assert out == ""
        assert err
