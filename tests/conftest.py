"""Test-session set-up shared by every test module.

The test process imports `ancsim` from wherever its environment points:
an install, or a tree's `src` on PYTHONPATH. The CLI tests also start
`python -m ancsim.cli` in child processes, which see only the
environment; putting the directory that `ancsim` was imported from at the
head of their PYTHONPATH makes them import that same tree.

Every hypothesis test runs under one profile: example timing varies too
much on a shared machine for a per-example deadline, and a failure prints
the blob that replays it. Tests set only their own `max_examples`.

The report header names the directory `ancsim` was imported from, under
`-q` too, so a run shows which tree it tested: `PYTHONPATH=OTHER/src
python -m pytest` run from this checkout tests OTHER's code with this
checkout's tests.

`guard_spy` records where the loops that carry a running weight-norm
bound (`run_adaptive`'s body and `lms_fit`'s) leave it for the guard's
exact tiers.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import settings

import ancsim
from ancsim import adaptation, loops, mcanc

IMPORTED_FROM = os.path.dirname(os.path.dirname(os.path.abspath(ancsim.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (IMPORTED_FROM, os.environ.get("PYTHONPATH")) if p)


def pytest_report_header(config):
    return f"ancsim: {os.path.dirname(os.path.abspath(ancsim.__file__))}"


@pytest.hookimpl(trylast=True)
def pytest_sessionstart(session):
    # `-q` prints no header; the line naming the tree is printed anyway
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None and not reporter.showheader:
        reporter.write_line(pytest_report_header(session.config))


settings.register_profile("ancsim", deadline=None, print_blob=True)
settings.load_profile("ancsim")


class GuardSpy:
    """The steps at which the bounded loops, while `watching`, take the
    squared-norm screen (`resets`, one per `guard_reset` call) and the
    exact `check_weights` behind it (`checks`, one per filter checked, with
    that filter's coordinates in `checked`)."""

    def __init__(self):
        self.resets, self.checks, self.checked = [], [], []

    @contextmanager
    def watching(self):
        reset, check = mcanc.guard_reset, mcanc.check_weights

        def spy_reset(weights, step):
            self.resets.append(step)
            return reset(weights, step)

        def spy_check(weights, step, coords=None):
            self.checks.append(step)
            self.checked.append(coords)
            return check(weights, step, coords)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcanc, "check_weights", spy_check)
            for module in (loops, adaptation):
                patch.setattr(module, "guard_reset", spy_reset)
            yield self


@pytest.fixture
def guard_spy():
    return GuardSpy()
