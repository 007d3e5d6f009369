"""Test-session set-up shared by every test module.

`pyproject.toml` puts `src` on the test process's import path; the CLI
tests also start `python -m ancsim.cli` in child processes, which see only
the environment. Putting `src` on PYTHONPATH lets those children import
the checkout under test without an install.

Every hypothesis test runs under one profile: example timing varies too
much on a shared machine for a per-example deadline, and a failure prints
the blob that replays it. Tests set only their own `max_examples`.

The report header names the directory `ancsim` was imported from, so a
run shows which tree it tested: `pyproject.toml`'s `pythonpath` puts
this checkout's `src` ahead of PYTHONPATH.

`guard_spy` records where the loops that carry a running weight-norm
bound (the one-filter bodies and the stacked grid body) leave it for the
guard's exact tiers.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import settings

import ancsim
from ancsim import adaptation, loops, mcanc

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def pytest_report_header(config):
    return f"ancsim: {os.path.dirname(os.path.abspath(ancsim.__file__))}"


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

        def spy_reset(weights, step, coords=None):
            self.resets.append(step)
            return reset(weights, step, coords)

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
