"""Per-sample cost and output bits of LMS identification, for the tree whose
`src/` is given.

    python scripts/identification_speed.py SRC_DIR [n_samples] [reps]

Prints four figures in microseconds, each the minimum over `reps`
repetitions (the minimum discounts slowdowns from other tenants of a
shared machine):

- `run_us`: `LmsFilter.run`, 64 taps, per sample;
- `fit1_us`: `lms_fit` over 1 path, per sample (absent from trees
  without `lms_fit`, as is `fit4_us`);
- `fit4_us`: `lms_fit` over 4 paths, per path-sample;
- `grid_us`: `identify_all_paths` on a 2x2 plant, 64 taps, per
  path-sample, excitation and response synthesis included.

Then one short sha256 of the y, e and final weights of both `lms_fit`
calls and of the 2x2 grid's estimates. Two trees that print the same hash
produce the same bits.

Run it on two trees in alternation to compare them on one machine.
"""

import hashlib
import sys
import time

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from ancsim.acoustics import synthetic_plant  # noqa: E402
from ancsim.adaptation import LmsFilter  # noqa: E402
from ancsim.sysid import identify_all_paths  # noqa: E402

try:
    from ancsim.adaptation import lms_fit  # noqa: E402
except ImportError:
    lms_fit = None

T = int(sys.argv[2]) if len(sys.argv) > 2 else 10_000
REPS = int(sys.argv[3]) if len(sys.argv) > 3 else 5
N, MU = 64, 0.01

rng = np.random.default_rng(0)
x = rng.standard_normal((4, T))
d = rng.standard_normal((4, T)) * 0.1
x_hist = np.concatenate([np.zeros((4, N - 1)), x], axis=1)
plant = synthetic_plant(n_sources=2, n_mics=2, seed=77, measurement_noise_std=0.01)

best, outputs = {}, {}


def timed(name, fn, per):
    t0 = time.perf_counter()
    outputs[name] = fn()
    us = (time.perf_counter() - t0) / per * 1e6
    best[name] = min(best.get(name, us), us)


def fit(rows):
    v = np.zeros((rows, N))
    y, e, _ = lms_fit(v, x_hist[:rows], d[:rows], MU)
    return y, e, v


for _ in range(REPS):
    timed("run_us", lambda: LmsFilter(N, MU).run(x[0], d[0]), T)
    if lms_fit is not None:
        timed("fit1_us", lambda: fit(1), T)
        timed("fit4_us", lambda: fit(4), 4 * T)
    timed("grid_us", lambda: identify_all_paths(plant, N, mu=MU, n_samples=T, seed=31), 4 * T)

digest = hashlib.sha256()
arrays = [res.estimate.weights for row in outputs["grid_us"] for res in row]
if lms_fit is not None:
    arrays += [*outputs["fit1_us"], *outputs["fit4_us"]]
for a in arrays:
    digest.update(np.ascontiguousarray(a).tobytes())
print(" ".join(f"{k}={v:.2f}" for k, v in best.items()), f"sha256={digest.hexdigest()[:16]}")
