"""Per-sample cost and output bits of the adaptive FxLMS loop, for the tree
whose `src/` is given.

    python scripts/adaptive_speed.py SRC_DIR [n_samples] [reps]

Runs `loops.run_adaptive` with a 128-tap `McAncController` on synthetic
1x1x1, 1x2x2, 1x3x2 and 1x4x4 plants with measurement noise, and a
one-tap controller on the 1x2x2 plant (`1x2x2L1`), over white noise,
and prints for each case the minimum over `reps` repetitions of the
microseconds per sample (the minimum discounts slowdowns from other
tenants of a shared machine), then one short sha256 of the errors,
outputs and final weights of every case. Two trees that print the
same hash produce the same bits.

Run it on two trees in alternation to compare them on one machine.
"""

import hashlib
import sys
import time

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from ancsim.acoustics import synthetic_plant  # noqa: E402
from ancsim.loops import loop_aligned_path, run_adaptive  # noqa: E402
from ancsim.mcanc import ChannelConfig, McAncController  # noqa: E402

T = int(sys.argv[2]) if len(sys.argv) > 2 else 16_000
REPS = int(sys.argv[3]) if len(sys.argv) > 3 else 5
MU = 1e-4
# (J, K, L, label suffix)
CASES = [(1, 1, 128, ""), (2, 2, 128, ""), (3, 2, 128, ""), (4, 4, 128, ""), (2, 2, 1, "L1")]

x = np.random.default_rng(0).standard_normal(T)
digest = hashlib.sha256()
figures = []
for J, K, L, suffix in CASES:
    plant = synthetic_plant(n_sources=J, n_mics=K, seed=77, measurement_noise_std=0.01)
    est = loop_aligned_path(np.array([[plant.true_secondary(j, k) for k in range(K)]
                                      for j in range(J)]))
    chan = ChannelConfig(1, J, K, L, est.shape[2])
    best = None
    for _ in range(REPS):
        ctl = McAncController(chan, MU, est)
        t0 = time.perf_counter()
        res = run_adaptive(plant, ctl, x)
        us = (time.perf_counter() - t0) / T * 1e6
        best = us if best is None else min(best, us)
    if res.diverged_at is not None:
        raise SystemExit(f"1x{J}x{K}{suffix} diverged at sample {res.diverged_at}")
    for a in (res.error, res.output, res.final_weights):
        digest.update(np.ascontiguousarray(a).tobytes())
    figures.append(f"1x{J}x{K}{suffix}_us={best:.2f}")
print(" ".join(figures), f"sha256={digest.hexdigest()[:16]}")
