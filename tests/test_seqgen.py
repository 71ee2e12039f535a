import io
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from solist import (
    Family,
    InvalidParameterError,
    ItemNotInListError,
    ListState,
    ParseError,
    RequestSequence,
    explicit_sequence,
    gen_t1,
    gen_t2,
    make_policy,
    parse_list_file,
    parse_sequence_file,
    serve,
)
from solist import seqgen
from solist.list_core import PeriodicView


def test_gen_t1_small():
    seq = gen_t1(3, 2)
    assert seq.requests == (1, 2, 3, 1, 2, 3)
    assert seq.block == (1, 2, 3)


def test_gen_t1_zero_passes():
    seq = gen_t1(5, 0)
    assert seq.requests == ()
    assert len(seq) == 0


def test_gen_t1_single_item():
    assert gen_t1(1, 4).requests == (1, 1, 1, 1)


def test_gen_t2_small():
    seq = gen_t2(3, 2)
    assert seq.requests == (3, 2, 1, 3, 2, 1)
    assert seq.block == (3, 2, 1)


def test_gen_t2_single_item():
    assert gen_t2(1, 3).requests == (1, 1, 1)


def test_one_pass_of_t2_is_reversed_t1():
    for n in range(1, 9):
        assert gen_t2(n, 1).requests == tuple(reversed(gen_t1(n, 1).requests))


def test_repeat_small():
    seq = RequestSequence.repeat((2, 1, 3), 2)
    assert seq.requests == (2, 1, 3, 2, 1, 3)
    assert seq.block == (2, 1, 3)


def test_repeat_identity_is_t1():
    assert RequestSequence.repeat((1, 2, 3, 4), 3) == gen_t1(4, 3)


def test_repeat_reversal_is_t2():
    assert RequestSequence.repeat((4, 3, 2, 1), 2) == gen_t2(4, 2)


@pytest.mark.parametrize("block, bad", [((1.0, 2.0), "1.0"), ((True,), "True"), ((1, "a"), "'a'")], ids=repr)
def test_repeat_rejects_items_that_are_not_ids(block, bad):
    with pytest.raises(InvalidParameterError, match=f"each request must be a positive integer, got {bad}"):
        RequestSequence.repeat(block, 2)


@given(n=st.integers(min_value=1, max_value=20), k=st.integers(min_value=0, max_value=10))
def test_each_t1_pass_is_a_permutation(n, k):
    seq = gen_t1(n, k)
    assert len(seq) == n * k
    for p in range(k):
        chunk = seq.requests[p * n : (p + 1) * n]
        assert sorted(chunk) == list(range(1, n + 1))


@given(n=st.integers(min_value=1, max_value=20), k=st.integers(min_value=0, max_value=10))
def test_each_t2_pass_is_a_permutation(n, k):
    seq = gen_t2(n, k)
    for p in range(k):
        chunk = seq.requests[p * n : (p + 1) * n]
        assert sorted(chunk) == list(range(1, n + 1))


def test_explicit_sequence_keeps_items():
    seq = explicit_sequence((5, 1, 5))
    assert seq.requests == (5, 1, 5)
    assert seq.block is None


def test_block_is_set_only_for_repetitions_of_one_block():
    assert gen_t1(3, 4).block == (1, 2, 3)
    assert gen_t2(3, 0).block == (3, 2, 1)
    assert RequestSequence.repeat((2, 1, 3), 5).block == (2, 1, 3)
    assert len(gen_t1(50, 10**12)) == 50 * 10**12
    assert RequestSequence(PeriodicView((), (2, 1), 6)).block == (2, 1)
    # An explicit stream is held as a head, even when it repeats.
    assert explicit_sequence((1, 2, 1, 2)).block is None
    assert explicit_sequence((1, 2)).block is None
    # A first pass that differs from the repeated ones.
    assert RequestSequence(PeriodicView((1, 2), (2, 1), 6)).block is None
    # A length that is not a whole number of cycles.
    assert RequestSequence(PeriodicView((), (1, 2), 5)).block is None
    with pytest.raises(InvalidParameterError):
        RequestSequence.repeat((), 3)


def test_parse_list_file_reads_first_contentful_line():
    text = "# layout\n\n3, 1, 2   # initial order\n9 9 9\n"
    state = parse_list_file(text)
    assert state.order == (3, 1, 2)


def test_parse_list_file_skips_lines_without_items():
    assert parse_list_file(",\n# c\n3 1 2\n").order == (3, 1, 2)
    with pytest.raises(ParseError, match="list file has no items"):
        parse_list_file(", ,\n")


def test_id_check_names_the_first_bad_request():
    with pytest.raises(InvalidParameterError, match="each request must be a positive integer, got 0$"):
        explicit_sequence((1,) * 1000 + (0, -1))


def test_parse_list_file_rejects_garbage():
    with pytest.raises(ParseError):
        parse_list_file("")
    with pytest.raises(ParseError):
        parse_list_file("# only comments\n")
    with pytest.raises(ParseError):
        parse_list_file("1 two 3\n")
    with pytest.raises(ParseError):
        parse_list_file("1 1 2\n")  # duplicates


def test_parse_sequence_file_reads_all_tokens():
    text = "1 2\n# pause\n2, 3\n"
    seq = parse_sequence_file(text)
    assert seq.requests == (1, 2, 2, 3)


def test_parse_sequence_file_rejects_garbage():
    with pytest.raises(ParseError):
        parse_sequence_file("1 x 3")
    with pytest.raises(ParseError):
        parse_sequence_file("1 0 3")


def test_parse_sequence_file_empty_is_legal():
    assert parse_sequence_file("# nothing yet\n").requests == ()


def test_equal_ids_from_different_lines_are_one_object():
    # Ids above 256, which CPython does not cache: each distinct token is
    # parsed once and its int shared by every request for it.
    requests = parse_sequence_file("1000 70000\n# pause\n5000, 70000\n70000 1000 5000\n").requests
    assert requests == (1000, 70000, 5000, 70000, 70000, 1000, 5000)
    assert requests[1] is requests[3] is requests[4]
    assert requests[0] is requests[5]
    assert requests[2] is requests[6]


def test_shared_ids_still_report_the_missing_request():
    sequence = parse_sequence_file("1000 2000\n2000 5000 1000\n")
    with pytest.raises(ItemNotInListError) as exc_info:
        serve(make_policy("trans"), ListState((2000, 1000)), sequence)
    assert (exc_info.value.item, exc_info.value.request_index) == (5000, 3)


def _parse_without_table(text):
    values = []
    for line in text.splitlines():
        values += map(int, line.split())
    return explicit_sequence(values)


def _parse_peak(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_stream_that_never_repeats_parses_in_no_more_memory():
    # 200k distinct ids, 20 to a line: the token table never holds more than
    # one line, so the parse peaks no higher than a parse that keeps no table
    # (about 9.2 MB). A table of every token peaks near 29 MB.
    ids = list(range(1, 200_001))
    random.Random(7).shuffle(ids)
    text = "\n".join(" ".join(map(str, ids[i:i + 20])) for i in range(0, len(ids), 20)) + "\n"

    assert parse_sequence_file(text).requests == tuple(ids)
    assert _parse_peak(parse_sequence_file, text) <= _parse_peak(_parse_without_table, text)


def test_a_stream_that_keeps_bringing_new_ids_parses_in_bounded_memory():
    # 10,000 lines, each repeating the last id of the line before and adding
    # 19 new ones: the table starts over once it holds more than 4096 ids, so
    # the parse peaks within 1 MB of a parse that keeps no table (about
    # 9.2 MB). A table emptied only on a line of new ids peaks near 29 MB.
    ids = list(range(1, 190_001))
    random.Random(7).shuffle(ids)
    lines, last = [], []
    for i in range(0, len(ids), 19):
        line = last + ids[i:i + 19]
        lines.append(" ".join(map(str, line)))
        last = line[-1:]
    text = "\n".join(lines) + "\n"

    assert len(lines) == 10_000
    assert parse_sequence_file(text).requests == tuple(map(int, text.split()))
    assert _parse_peak(parse_sequence_file, text) <= _parse_peak(_parse_without_table, text) + 1_000_000


def test_one_long_line_enters_a_bounded_number_of_ids():
    # One line of 200k distinct ids enters only its first 4096 into the table:
    # about 1.08 times the peak of a parse that keeps no table, against 1.69
    # times for a table of the whole line.
    ids = list(range(1, 200_001))
    random.Random(7).shuffle(ids)
    text = " ".join(map(str, ids)) + "\n"

    assert parse_sequence_file(text).requests == tuple(ids)
    assert _parse_peak(parse_sequence_file, text) <= 1.3 * _parse_peak(_parse_without_table, text)


def test_family_values_round_trip():
    assert Family("T1") is Family.T1
    assert Family("T2") is Family.T2
    assert list(Family) == [Family.T1, Family.T2]


def test_a_parser_checks_a_line_each_time_it_reads_it():
    # The table enters only checked ids: the line of a chunk that failed its
    # check fails it again when the chunk is read again line by line, rather
    # than being read from the table.
    with pytest.raises(ParseError, match="positive integer, got 0"):
        list(seqgen._read_requests(io.BytesIO(b"5 0\n")))


def test_a_parsed_sequence_is_not_checked_again(monkeypatch):
    # The reader checks each chunk's ids as it parses them, calling check_ids
    # only for a chunk that holds an id below 1; the sequence is built from
    # those checked ids, so a clean text calls it not at all.
    calls = []
    check_ids = seqgen.check_ids
    monkeypatch.setattr(seqgen, "check_ids", lambda values, name: calls.append(name) or check_ids(values, name))
    sequence = parse_sequence_file("3 1 2\n2, 3  # a comment\n\n1\n")
    assert calls == []
    assert sequence == explicit_sequence((3, 1, 2, 2, 3, 1))
    assert sequence.block is None
