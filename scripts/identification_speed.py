"""Per-sample cost of LMS identification, for the tree whose `src/` is given.

    python scripts/identification_speed.py SRC_DIR [n_samples] [reps]

Prints three figures in microseconds, each the minimum over `reps`
repetitions (the minimum discounts slowdowns from other tenants of a
shared machine):

- `run_us`: `LmsFilter.run`, 64 taps, per sample;
- `fit4_us`: `lms_fit` over 4 paths, per path-sample (absent from trees
  without `lms_fit`);
- `grid_us`: `identify_all_paths` on a 2x2 plant, 64 taps, per
  path-sample, excitation and response synthesis included.

Run it on two trees in alternation to compare them on one machine.
"""

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

best = {}


def timed(name, fn, per):
    t0 = time.perf_counter()
    fn()
    us = (time.perf_counter() - t0) / per * 1e6
    best[name] = min(best.get(name, us), us)


for _ in range(REPS):
    timed("run_us", lambda: LmsFilter(N, MU).run(x[0], d[0]), T)
    if lms_fit is not None:
        timed("fit4_us", lambda: lms_fit(np.zeros((4, N)), x_hist, d, MU), 4 * T)
    timed("grid_us", lambda: identify_all_paths(plant, N, mu=MU, n_samples=T, seed=31), 4 * T)
print(" ".join(f"{k}={v:.2f}" for k, v in best.items()))
