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
print(" ".join(figures), f"sha256={digest.hexdigest()[:16]}")
