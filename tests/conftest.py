import sys
from pathlib import Path

import pytest

# Allow running the suite without an installed package.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def pytest_sessionstart(session):
    # Many tests serve 10**12 passes and finish only because serve stops at
    # the first repeated pass-end state. Check that it still does before
    # any of them runs, so that a broken fast-forward fails the suite in
    # seconds instead of hanging it. No rule on these sequences needs to
    # store more than n + 1 passes.
    from solist import ListState, gen_t1, gen_t2, make_policy, serve

    for rule in ("mtf", "trans", "fc"):
        for generate in (gen_t1, gen_t2):
            for n in range(1, 9):
                totals = serve(make_policy(rule), ListState.initial(n), generate(n, 10**4)).pass_totals
                stored = len(totals.head) + len(totals.cycle)
                if stored > n + 2:
                    pytest.exit(f"serve stored {stored} passes of {rule} on {generate.__name__}(n={n}), "
                                "more than n + 2: fast-forward has stopped working", 1)
