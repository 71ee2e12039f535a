"""``simulate --list-file/--seq-file`` serves the sequence file about 4 KB
of whole lines at a time: its totals equal the naive oracle on files of
every shape, the first error in file order ends the run before anything
is printed, at every chunk size, and its memory does not grow with the
number of requests."""

import io
import random
import tempfile
import tracemalloc
from itertools import product
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from solist import ItemNotInListError, ParseError, make_policy, parse_list_file, parse_sequence_file, predict, serve
from solist import seqgen
from solist.cli import main

import reference
from helpers import linux_only, solist_child, transpose_total, write_request_files, zipf_files

# Every line boundary of str.splitlines(), and the gaps that separate tokens within a line.
BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
GAPS = [" ", ",", ", ", " ,", "\t", "  "]
# Comment text: requests, unknown ids and non-integers that a comment hides.
JUNK = ["", " 999", " x 1", "#, 2 3", " \ufeff", " 0 -4"]


def _spelled(draw, item):
    return draw(st.sampled_from([str(item), f"+{item}", f"0{item}"]))


@st.composite
def request_files(draw):
    """(list file bytes, sequence file bytes, initial order, requests)."""
    order = draw(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=6, unique=True))
    requests = draw(st.lists(st.sampled_from(order), max_size=40))
    comment = st.builds(lambda junk, brk: f"#{junk}{brk}", st.sampled_from(JUNK), st.sampled_from(BREAKS))
    separator = st.one_of(st.sampled_from(GAPS), st.sampled_from(BREAKS), comment)

    # The list: lines without items, then the line that holds the list, then anything.
    list_text = "".join(draw(st.lists(st.one_of(comment, st.sampled_from(BREAKS)), max_size=3)))
    list_text += draw(st.sampled_from(GAPS)).join(_spelled(draw, item) for item in order)
    list_text += draw(st.sampled_from(["", "\n", "\r\n", " # tail\r", "\u20289 9 x\n"]))

    pieces = [draw(st.sampled_from(["", *BREAKS])), draw(st.one_of(st.just(""), comment))]
    for item in requests:
        pieces += [_spelled(draw, item), draw(separator)]
    seq_text = "".join(pieces)
    bom = b"\xef\xbb\xbf"
    return ((bom if draw(st.booleans()) else b"") + list_text.encode(),
            (bom if draw(st.booleans()) else b"") + seq_text.encode(), order, requests)


def _simulate(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["simulate", *argv])
    return code, out.getvalue()


@given(files=request_files())
@settings(max_examples=150, deadline=None)
def test_streamed_totals_equal_the_reference(files):
    list_bytes, seq_bytes, order, requests = files
    with tempfile.TemporaryDirectory() as directory:
        list_file, seq_file = Path(directory, "list.txt"), Path(directory, "seq.txt")
        list_file.write_bytes(list_bytes)
        seq_file.write_bytes(seq_bytes)
        for rule in ("mtf", "trans", "fc"):
            for model in ("full", "partial"):
                expected = sum(reference.run(rule, order, requests, model)[0])
                assert _simulate("--algo", rule, "--model", model, "--list-file", str(list_file),
                                 "--seq-file", str(seq_file)) == (0, f"total {expected}\n"), (rule, model)


@pytest.mark.parametrize("text, error", [
    ("9 1\nx\n", "request 0: item 9 is not in the list"),
    ("1 x\n9\n", "expected an integer, got 'x'"),
    ("1 2\n3 9\n0\n", "request 3: item 9 is not in the list"),
    ("1 2\n0 9\n", "bad sequence file: each request must be a positive integer, got 0"),
    ("3 1\r9\u2028x", "request 2: item 9 is not in the list"),
], ids=["unknown-then-bad-token", "bad-token-then-unknown", "unknown-then-zero", "zero-then-unknown",
        "odd-breaks"])
def test_the_first_error_in_file_order_ends_the_run(capsys, tmp_path, text, error):
    list_file, seq_file = tmp_path / "list.txt", tmp_path / "seq.txt"
    list_file.write_text("1 2 3\n")
    seq_file.write_text(text, encoding="utf-8", newline="")
    code = main(["simulate", "--algo", "fc", "--list-file", str(list_file), "--seq-file", str(seq_file),
                 "--per-pass"])
    assert (code, *capsys.readouterr()) == (3, "", f"error: {error}\n")


def test_the_list_file_is_read_up_to_its_list(capsys, tmp_path):
    # Lines after the list are never read, so what they hold is not an error.
    list_file, seq_file = tmp_path / "list.txt", tmp_path / "seq.txt"
    list_file.write_bytes(b"# initial\n3 1 2\n\xff x 0\n")
    seq_file.write_text("2 2\n")
    code = main(["simulate", "--algo", "mtf", "--list-file", str(list_file), "--seq-file", str(seq_file)])
    assert (code, *capsys.readouterr()) == (0, "total 4\n", "")


@pytest.mark.parametrize("chunk", [1, 6, seqgen._CHUNK])
@pytest.mark.parametrize("text, error", [
    ("9 1\nx\n", "request 0: item 9 is not in the list"),
    ("1 x\n9\n", "expected an integer, got 'x'"),
    ("1 2\n3 9\n0\n", "request 3: item 9 is not in the list"),
    ("1 2\n0 9\n", "bad sequence file: each request must be a positive integer, got 0"),
    ("3 1\r9\u2028x", "request 2: item 9 is not in the list"),
], ids=["unknown-then-bad-token", "bad-token-then-unknown", "unknown-then-zero", "zero-then-unknown", "odd-breaks"])
def test_the_first_error_in_file_order_ends_the_run_at_every_chunk_size(capsys, tmp_path, chunk, text, error):
    # The first error test's cases, served a line at a time (chunk 1) and
    # with the whole file in one chunk, where a bad token follows an
    # unknown id in the same chunk, or precedes it.
    list_file, seq_file = tmp_path / "list.txt", tmp_path / "seq.txt"
    list_file.write_text("1 2 3\n")
    seq_file.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(seqgen, "_CHUNK", chunk):
        code = main(["simulate", "--algo", "fc", "--list-file", str(list_file), "--seq-file", str(seq_file)])
    assert (code, *capsys.readouterr()) == (3, "", f"error: {error}\n")


# Faults for a request file: an id not in the list, tokens that are not
# requests, bytes that are not UTF-8, and a byte-order mark past the start
# of the file, at the start of a line among them.
FAULTS = [b"9", b"x", b"1.5", b"0", b"-3", b"\xff", b"\xe2\x82", b"\xef\xbb\xbf", b"\n\xef\xbb\xbf"]
# Tokens that int() reads, or nearly does: a signed id, a grouped one, a non-ASCII digit, two signs.
EDGE_TOKENS = [b"+7", b"1_000", "\u0663".encode(), b"--2"]


TEXT_FAULTS = [text for text in (fault.decode(errors="replace") for fault in FAULTS) if "\ufffd" not in text]
# A byte-order mark, and a lone surrogate in a token and in a comment, which a file holds as bytes that are not UTF-8.
MARK_TEXTS = ["\ufeff1 2", "1 2\n2\ud800 1\n", "1 2 # \udc80\n9\n"]
LIST_TEXTS = {"\ufeff1 2": "\ufeff3 1 2"}  # the list a text is served from, where it is not "1 2 9\n"


def _library_run(list_text, text):
    """What simulate prints for these files, as the library reaches it: both parsed whole, then served."""
    try:
        total = serve(make_policy("mtf"), parse_list_file(list_text), parse_sequence_file(text)).grand_total
    except (ParseError, ItemNotInListError) as exc:
        return 3, "", f"error: {exc}\n"
    return 0, f"total {total}\n", ""


@pytest.mark.parametrize("text", ["0\nx\n", "x\n0\n"] + [f"1 {a}\n{b} 2\n" for a, b in product(TEXT_FAULTS, repeat=2)]
                         + MARK_TEXTS)
def test_the_library_and_simulate_name_the_same_first_error(capsys, tmp_path, text):
    # The faults that are UTF-8, two by two on two lines: parse_sequence_file
    # and simulate both stop at the first error in file order. Item 9 is in
    # the list here, so it is no fault, and no id is unknown: reading the
    # sequence whole before serving it ends as serving it a chunk at a time.
    list_text = LIST_TEXTS.get(text, "1 2 9\n")
    list_file, seq_file = tmp_path / "list.txt", tmp_path / "seq.txt"
    list_file.write_text(list_text, encoding="utf-8", newline="")
    seq_file.write_text(text, encoding="utf-8", errors="surrogatepass", newline="")
    code = main(["simulate", "--algo", "mtf", "--list-file", str(list_file), "--seq-file", str(seq_file)])
    assert (code, *capsys.readouterr()) == _library_run(list_text, text)


@st.composite
def faulty_files(draw):
    """(initial order, sequence file bytes): lines of 0 to 30 requests for
    ids 1..6, joined by the gaps, comments and breaks simulate must read
    alike, with up to two faults or edge tokens put in among them: on their
    own, at the start of a line, or run into a request."""
    order = draw(st.permutations(range(1, 7)))
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        tokens = draw(st.lists(st.sampled_from(order), max_size=30))
        pieces += [draw(st.sampled_from(GAPS)).join(map(str, tokens)).encode(),
                   draw(st.sampled_from([b"", b"# 9 x", b"#1 0,"])),
                   draw(st.sampled_from(BREAKS)).encode()]
    for fault in draw(st.lists(st.sampled_from(FAULTS + EDGE_TOKENS), max_size=2)):
        pieces.insert(draw(st.integers(min_value=0, max_value=len(pieces))), fault)
    return order, (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + b"".join(pieces)


def read_line_by_line(data, order=None):
    """The one reference for list and request text: the requests of
    ``data`` before its first error in file order, and that error's message
    (None if it has none). Each \\n-ended line is decoded, a byte-order mark
    skipped on line 1 only; then each of the lines that str.splitlines()
    cuts it into is parsed, checked and, when ``order`` is given, looked up
    in it in turn."""
    requests = []
    for number, raw in enumerate(io.BytesIO(data).readlines(), 1):
        try:
            text = raw.decode("utf-8-sig" if number == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            return requests, f"input file is not valid UTF-8: line {number}: {exc}"
        for line in text.splitlines():
            values = []
            for token in line.split("#", 1)[0].replace(",", " ").split():
                try:
                    values.append(int(token))
                except ValueError:
                    return requests, f"expected an integer, got {token!r}"
            for value in values:
                if value < 1:
                    return requests, f"bad sequence file: each request must be a positive integer, got {value}"
            for value in values:
                if order is not None and value not in order:
                    return requests, f"request {len(requests)}: item {value} is not in the list"
                requests.append(value)
    return requests, None


def _simulated(order, data, rule, model):
    """simulate's (exit code, stdout, stderr) on a sequence file of ``data``, from the reference reading."""
    requests, error = read_line_by_line(data, order)
    if error is not None:
        return 3, "", f"error: {error}\n"
    return 0, f"total {sum(reference.run(rule, order, requests, model)[0])}\n", ""


def _parsed(text):
    """parse_sequence_file's requests, or the message of the ParseError it raises."""
    try:
        return parse_sequence_file(text).requests
    except ParseError as exc:
        return str(exc)


@given(files=faulty_files(), rule=st.sampled_from(["mtf", "trans", "fc"]),
       model=st.sampled_from(["full", "partial"]))
@example(files=((1, 2, 3), b"1 2\n\xef\xbb\xbf3\n"), rule="mtf", model="full")  # a BOM that starts a later chunk
@example(files=((1, 2, 3), b"3 9\n2 \xff 1\n"), rule="fc", model="full")  # an unknown id, then a bad byte
@example(files=((1, 2, 3), b"1,2\r\n3 \xe2\x82"), rule="trans", model="partial")  # a cut-off last character
@settings(max_examples=200, deadline=None)
def test_every_chunk_size_reads_the_file_as_line_by_line(files, rule, model):
    # A chunk is one line or the next few (1 byte), a few lines (a few
    # tens of bytes) or the whole file (the default): each reads the file
    # exactly as one line at a time does, in simulate and, on a file that
    # is UTF-8, in parse_sequence_file, with the token table at its size
    # and at two ids, where lines of three or more tokens are entered in
    # part and a line with a new token starts the table over.
    order, data = files
    expected = _simulated(order, data, rule, model)
    requests, error = read_line_by_line(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    with tempfile.TemporaryDirectory() as directory:
        list_file, seq_file = Path(directory, "list.txt"), Path(directory, "seq.txt")
        list_file.write_text(" ".join(map(str, order)) + "\n")
        seq_file.write_bytes(data)
        for chunk in (1, 24, 70, seqgen._CHUNK):
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(seqgen, "_CHUNK", chunk), redirect_stdout(out), redirect_stderr(err):
                code = main(["simulate", "--algo", rule, "--model", model, "--list-file", str(list_file),
                             "--seq-file", str(seq_file)])
            assert (code, out.getvalue(), err.getvalue()) == expected, chunk
            if text is not None:
                for table_ids in (seqgen._TABLE_IDS, 2):
                    with mock.patch.object(seqgen, "_CHUNK", chunk), mock.patch.object(seqgen, "_TABLE_IDS", table_ids):
                        assert _parsed(text) == (tuple(requests) if error is None else error), (chunk, table_ids)


@given(order=st.permutations(range(1, 7)), requests=st.lists(st.integers(min_value=1, max_value=6), max_size=40))
def test_the_fast_transpose_walk_equals_the_reference(order, requests):
    # The oracle that totals the large files below keeps a position dict.
    assert transpose_total(order, requests) == sum(reference.run("trans", order, requests)[0])


def test_simulate_on_files_holds_one_line_at_a_time(capsys, tmp_path):
    # Holding the file text, the parsed requests and a cost per request
    # peaked near 6 MB here; a chunk of lines at a time holds the list, its
    # kernel, the token table and one chunk's requests: about 0.4 MB.
    list_file, seq_file, total = zipf_files(tmp_path, 200_000, seed=5)
    tracemalloc.start()
    try:
        code = main(["simulate", "--algo", "trans", "--list-file", str(list_file), "--seq-file", str(seq_file)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, f"total {total}\n")
    assert peak < 1_000_000


@linux_only
def test_two_million_requests_are_served_in_bounded_address_space(tmp_path):
    # 2000 descending scans of 1000 items, 20 requests a line: transpose on
    # T2, whose total the paper's closed form gives. The limit leaves room
    # for the interpreter, the CLI's modules and one chunk of requests (the
    # child runs in 24 MB), but not for the file text, a parsed request and
    # a cost per request of two million: holding them fails even in 128 MB.
    # One case only: the child runs alone under its limit, never beside another.
    list_file, seq_file = tmp_path / "list.txt", tmp_path / "seq.txt"
    list_file.write_text(" ".join(map(str, range(1, 1001))) + "\n")
    scan = list(range(1000, 0, -1))
    seq_file.write_text("".join(" ".join(map(str, scan[i:i + 20])) + "\n" for i in range(0, 1000, 20)) * 2000)
    result = solist_child("simulate", "--algo", "trans", "--list-file", str(list_file), "--seq-file", str(seq_file),
                          limit_mb=64)
    expected = predict("trans", "T2", 1000, 2000).total
    assert (result.returncode, result.stdout, result.stderr) == (0, f"total {expected}\n", "")


@linux_only
def test_lines_of_new_ids_are_served_in_bounded_address_space(tmp_path):
    # 190,000 shuffled ids, then ~10,000 lines that each repeat the previous
    # line's last id and bring 19 new ones, so the sequence parser's token
    # table fills and starts over again and again. This run passes at 54 MB
    # and fails at 52 MB here; with a table that never starts over it fails
    # at 72 MB and passes at 80 MB.
    rng = random.Random(1)
    order = list(range(1, 190_001))
    rng.shuffle(order)
    new = rng.sample(order, len(order))
    lines = [new[:19]] + [new[i - 1:i + 19] for i in range(19, len(new), 19)]
    list_file, seq_file = write_request_files(tmp_path, order, lines)
    result = solist_child("simulate", "--algo", "trans", "--list-file", str(list_file), "--seq-file", str(seq_file),
                          limit_mb=64)
    expected = transpose_total(order, (item for line in lines for item in line))
    assert (result.returncode, result.stdout, result.stderr) == (0, f"total {expected}\n", "")
