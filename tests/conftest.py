import faulthandler
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

# Allow running the suite without an installed package.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# A test, or the session check below, that runs longer than this ends the
# whole run with every thread's stack, so that a kernel that never returns
# fails the suite instead of hanging it. The slowest test takes about 3 s.
HANG_LIMIT_S = 60
_stderr = 2


def pytest_configure(config):
    # The stacks go to a copy of the real stderr: output captured from a
    # test is lost when the limit ends the process.
    global _stderr
    _stderr = os.dup(2)


@contextmanager
def hang_limit():
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=_stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(hookwrapper=True)
def _limited_phase(item):
    # Each phase of a test on its own: pytest's faulthandler plugin cancels
    # the limit once a phase fails, which would leave its teardown unbounded.
    with hang_limit():
        yield


pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = _limited_phase


def pytest_sessionstart(session):
    # Many tests serve 10**12 passes and finish only because serve stops at
    # the first repeated pass-end state. Check that it still does before
    # any of them runs, so that a broken fast-forward fails the suite in
    # seconds instead of hanging it. No rule on these sequences needs to
    # store more than n + 1 passes.
    from solist import ListState, gen_t1, gen_t2, make_policy, serve

    with hang_limit():
        for rule in ("mtf", "trans", "fc"):
            for generate in (gen_t1, gen_t2):
                for n in range(1, 9):
                    totals = serve(make_policy(rule), ListState.initial(n), generate(n, 10**4)).pass_totals
                    stored = len(totals.head) + len(totals.cycle)
                    if stored > n + 2:
                        pytest.exit(f"serve stored {stored} passes of {rule} on {generate.__name__}(n={n}), "
                                    "more than n + 2: fast-forward has stopped working", 1)
