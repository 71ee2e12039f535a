"""Starts the benchmark's `python -m solist` children from a small process.

On Linux a child's `ru_maxrss` includes the resident set of the process
that spawned it: the spawner's high-water mark is kept across the vfork
and the exec. Spawned from the benchmark itself, every child that uses
less memory than the benchmark would report the benchmark's size. This
launcher holds only the interpreter, less than any solist child, so the
peak RSS that `os.wait4` returns for a child is the child's own.

Protocol: one JSON request per input line,
{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds},
and one JSON reply per output line, {"wall": s, "code": n, "rss_kb": n}.
The launcher exits at the end of its input.
"""

import json
import os
import signal
import sys
import threading
import time


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    argv = [sys.executable, "-m", "solist", *request["argv"]]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    timer = threading.Timer(request["timeout"], _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return {"wall": wall, "code": os.waitstatus_to_exitcode(status), "rss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
