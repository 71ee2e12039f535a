"""What several test modules share: Zipf-like request streams and the
list/sequence files that hold them, a fast transpose walk that totals
them, and a ``python -m solist`` child run under an address-space limit.

The walk is an oracle like ``reference.run``, but it keeps a position
dict, so it takes O(1) a request where ``reference.run`` rebuilds the
list: the request files here hold up to 200,000 requests and lists of
up to 190,000 ids.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# RLIMIT_AS bounds a child's address space on Linux; elsewhere it is not enforced.
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")


def zipf_requests(count, seed):
    """The ids 1..1000 in a seeded shuffle, and ``count`` requests over
    them that ask for the shuffle's r-th id with weight 1/r."""
    rng = random.Random(seed)
    order = list(range(1, 1001))
    rng.shuffle(order)
    return order, rng.choices(order, weights=[1 / rank for rank in range(1, 1001)], k=count)


def write_request_files(directory, order, lines):
    """Write ``order`` as ``directory``'s list file and each of ``lines`` as
    one line of its sequence file; return the two paths."""
    list_file, seq_file = directory / "list.txt", directory / "seq.txt"
    list_file.write_text(" ".join(map(str, order)) + "\n")
    seq_file.write_text("".join(" ".join(map(str, line)) + "\n" for line in lines))
    return list_file, seq_file


def zipf_files(directory, count, seed):
    """``zipf_requests(count, seed)`` written 20 requests a line; returns the
    two paths and the stream's transpose total."""
    order, requests = zipf_requests(count, seed)
    list_file, seq_file = write_request_files(directory, order, (requests[i:i + 20] for i in range(0, count, 20)))
    return list_file, seq_file, transpose_total(order, requests)


def transpose_total(order, requests):
    """The full-model cost of serving ``requests`` by transpose from ``order``."""
    order = list(order)
    where = {item: at for at, item in enumerate(order)}
    total = 0
    for item in requests:
        at = where[item]
        total += at + 1
        if at:
            ahead = order[at - 1]
            order[at - 1], order[at] = item, ahead
            where[item], where[ahead] = at - 1, at
    return total


def child_env():
    """The environment with this checkout's ``src`` first on the path."""
    return dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))


def solist_child(*argv, limit_mb=None, **options):
    """Run ``python -m solist *argv`` and return the completed process, its
    output captured as text unless ``options`` say otherwise. With
    ``limit_mb``, the child's address space is limited to that many MiB."""

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (limit_mb * 2**20, limit_mb * 2**20))

    options = {"capture_output": True, "text": True, "timeout": 120, **options}
    return subprocess.run([sys.executable, "-m", "solist", *argv], env=child_env(),
                          preexec_fn=limit if limit_mb else None, **options)
