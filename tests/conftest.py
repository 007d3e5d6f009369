"""Test-session set-up shared by every test module.

`pyproject.toml` puts `src` on the test process's import path; the CLI
tests also start `python -m ancsim.cli` in child processes, which see only
the environment. Putting `src` on PYTHONPATH lets those children import
the checkout under test without an install.

Every hypothesis test runs under one profile: example timing varies too
much on a shared machine for a per-example deadline, and a failure prints
the blob that replays it. Tests set only their own `max_examples`.
"""

import os

from hypothesis import settings

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("ancsim", deadline=None, print_blob=True)
settings.load_profile("ancsim")
