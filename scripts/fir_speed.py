"""Per-sample cost and output bits of `filters.fir`, for the tree whose
`src/` is given.

    python scripts/fir_speed.py SRC_DIR [n_samples] [reps]

Filters one white-noise block (with some +0.0 and -0.0 samples mixed in)
through random taps at N = 1, 16, 65 and 128, once from silence and once
after a history of 200 samples, and prints for each case the minimum over
`reps` repetitions of the microseconds per sample (the minimum discounts
slowdowns from other tenants of a shared machine), then one short sha256
of every output. Two trees that print the same hash produce the same
bits.

Then it filters the same block through a (2, 2, 65) stack of paths, from
silence and after the history: as one call where `fir` takes a stack,
and a call a row where it does not, so the script runs on older trees
too. It prints the microseconds per sample of the stack (`stack_us`,
`stackh_us`) and a short sha256 of its rows (`stack_sha256`), and exits
with status 1 if a stacked row differs in any bit from that row's own
call.

Run it on two trees in alternation to compare them on one machine.
"""

import hashlib
import sys
import time

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from ancsim.filters import fir  # noqa: E402

T = int(sys.argv[2]) if len(sys.argv) > 2 else 160_000
REPS = int(sys.argv[3]) if len(sys.argv) > 3 else 5
TAPS = [1, 16, 65, 128]

rng = np.random.default_rng(0)
x = rng.standard_normal(T)
x[rng.random(T) < 0.05] = 0.0
x[rng.random(T) < 0.05] = -0.0
past = rng.standard_normal(200)
digest = hashlib.sha256()
figures = []
for n in TAPS:
    w = rng.standard_normal(n)
    for label, history in (("", None), ("h", past)):
        best = None
        for _ in range(REPS):
            t0 = time.perf_counter()
            y = fir(w, x, history)
            us = (time.perf_counter() - t0) / T * 1e6
            best = us if best is None else min(best, us)
        digest.update(y.tobytes())
        figures.append(f"N{n}{label}_us={best:.3f}")


def stacked(w, history):
    """The stack's outputs from one `fir` call, or from a call a row where
    `fir` takes one path only."""
    try:
        return fir(w, x, history)
    except ValueError:
        rows = [fir(r, x, history) for r in w.reshape(-1, w.shape[-1])]
        return np.stack(rows).reshape(w.shape[:-1] + (T,))


stack = rng.standard_normal((2, 2, 65))
stack_digest = hashlib.sha256()
mismatch = False
for label, history in (("", None), ("h", past)):
    best = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        y = stacked(stack, history)
        us = (time.perf_counter() - t0) / T * 1e6
        best = us if best is None else min(best, us)
    rows = np.stack([fir(r, x, history) for r in stack.reshape(-1, 65)])
    mismatch |= y.tobytes() != rows.reshape(y.shape).tobytes()
    stack_digest.update(y.tobytes())
    figures.append(f"stack{label}_us={best:.3f}")
print(" ".join(figures), f"sha256={digest.hexdigest()[:16]}",
      f"stack_sha256={stack_digest.hexdigest()[:16]}")
if mismatch:
    sys.exit("a stacked row differs from its own fir call")
