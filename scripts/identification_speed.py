"""Per-sample cost and output bits of LMS identification, for the tree whose
`src/` is given.

    python scripts/identification_speed.py SRC_DIR [n_samples] [reps]

Prints four figures in microseconds, each the minimum over `reps`
repetitions (the minimum discounts slowdowns from other tenants of a
shared machine):

- `run_us`: `LmsFilter.run`, 64 taps, per sample;
- `fit1_us`: `lms_fit` over 1 path, per sample;
- `fit4_us`: `lms_fit` over 4 paths, per path-sample;
- `grid_us`: `identify_all_paths` on a 2x2 plant, 64 taps, per
  path-sample, excitation and response synthesis included;
- `fit1p_us`: `lms_fit` over 1 path, per sample, from weights parked past
  the guard's squared-norm screen (a norm of 0.9 of the weight guard,
  spread over every tap) at a thousandth of the step size, so that at the
  default length they stay past it: every sample leaves the running norm
  bound for the squared norm and the exact check.

Then one short sha256 of the y, e and final weights of the first two
`lms_fit` calls and of the 2x2 grid's estimates, and one, `parked_sha256`,
of the parked fit's. Two trees that print the same hashes produce the
same bits.

Run it on two trees in alternation to compare them on one machine.
"""

import hashlib
import sys
import time

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from ancsim.acoustics import synthetic_plant  # noqa: E402
from ancsim.adaptation import LmsFilter, lms_fit  # noqa: E402
from ancsim.mcanc import WEIGHT_GUARD  # noqa: E402
from ancsim.sysid import identify_all_paths  # noqa: E402

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


def fit(rows, w0=0.0, mu=MU):
    v = np.full((rows, N), w0)
    y, e, _ = lms_fit(v, x_hist[:rows], d[:rows], mu)
    return y, e, v


for _ in range(REPS):
    timed("run_us", lambda: LmsFilter(N, MU).run(x[0], d[0]), T)
    timed("fit1_us", lambda: fit(1), T)
    timed("fit4_us", lambda: fit(4), 4 * T)
    timed("grid_us", lambda: identify_all_paths(plant, N, mu=MU, n_samples=T, seed=31), 4 * T)
    timed("fit1p_us", lambda: fit(1, 0.9 * WEIGHT_GUARD / np.sqrt(N), MU / 1000), T)


def short_sha256(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:16]


grid = [res.estimate.weights for row in outputs["grid_us"] for res in row]
print(" ".join(f"{k}={v:.2f}" for k, v in best.items()),
      f"sha256={short_sha256(grid + [*outputs['fit1_us'], *outputs['fit4_us']])}",
      f"parked_sha256={short_sha256(outputs['fit1p_us'])}")
