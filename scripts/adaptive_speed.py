"""Per-sample cost and output bits of the adaptive FxLMS loop, for the tree
whose `src/` is given.

    python scripts/adaptive_speed.py SRC_DIR [n_samples] [reps]

Runs `loops.run_adaptive` with a 128-tap `McAncController` on synthetic
1x1x1, 1x2x2, 1x3x2 and 1x4x4 plants with measurement noise, and a
one-tap controller on the 1x2x2 plant (`1x2x2L1`), over white noise,
and prints for each case the minimum over `reps` repetitions of the
microseconds per sample (the minimum discounts slowdowns from other
tenants of a shared machine), then one short sha256 of the errors,
outputs and final weights of those cases. Two trees that print the
same hash produce the same bits.

A case `1x1x1P` starts the 1x1x1 controller with weights parked past
the guard's squared-norm screen (a norm of 0.9 of the weight guard,
spread over every tap) and adapts at a hundredth of the step size, so
that at the default length they stay past it: every sample leaves the
running norm bound for the squared norm and the exact check. It prints
that fallback's cost beside the common path's, and its own hash,
`parked_sha256`. A last case, `1x2x2P`, parks the 1x2x2 controller the
same way, the norm of 0.9 of the guard spread over every tap of both
filters, so that every sample of the stacked body takes the squared norm
and the exact check, filter by filter; its hash is `grid_parked_sha256`,
which trees without that case do not print.

Run it on two trees in alternation to compare them on one machine.
"""

import hashlib
import sys
import time

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from ancsim.acoustics import synthetic_plant  # noqa: E402
from ancsim.loops import loop_aligned_path, run_adaptive  # noqa: E402
from ancsim.mcanc import WEIGHT_GUARD, ChannelConfig, McAncController  # noqa: E402

T = int(sys.argv[2]) if len(sys.argv) > 2 else 16_000
REPS = int(sys.argv[3]) if len(sys.argv) > 3 else 5
MU = 1e-4
# (J, K, L, label suffix)
CASES = [(1, 1, 128, ""), (2, 2, 128, ""), (3, 2, 128, ""), (4, 4, 128, ""), (2, 2, 1, "L1"),
         (1, 1, 128, "P"), (2, 2, 128, "P")]

x = np.random.default_rng(0).standard_normal(T)
# the common cases, the parked one-filter case and the parked grid
digests = {key: hashlib.sha256() for key in ("", "P", "GP")}
figures = []
for J, K, L, suffix in CASES:
    plant = synthetic_plant(n_sources=J, n_mics=K, seed=77, measurement_noise_std=0.01)
    est = loop_aligned_path(np.array([[plant.true_secondary(j, k) for k in range(K)]
                                      for j in range(J)]))
    chan = ChannelConfig(1, J, K, L, est.shape[2])
    best = None
    for _ in range(REPS):
        if suffix == "P":
            ctl = McAncController(chan, MU / 100, est)
            ctl.weights = np.full((1, J, L), 0.9 * WEIGHT_GUARD / np.sqrt(J * L))
        else:
            ctl = McAncController(chan, MU, est)
        t0 = time.perf_counter()
        res = run_adaptive(plant, ctl, x)
        us = (time.perf_counter() - t0) / T * 1e6
        best = us if best is None else min(best, us)
    if res.diverged_at is not None:
        raise SystemExit(f"1x{J}x{K}{suffix} diverged at sample {res.diverged_at}")
    if suffix == "P":
        digest = digests["P" if J == 1 else "GP"]
    else:
        digest = digests[""]
    for a in (res.error, res.output, res.final_weights):
        digest.update(np.ascontiguousarray(a).tobytes())
    figures.append(f"1x{J}x{K}{suffix}_us={best:.2f}")
print(" ".join(figures), f"sha256={digests[''].hexdigest()[:16]}",
      f"parked_sha256={digests['P'].hexdigest()[:16]}",
      f"grid_parked_sha256={digests['GP'].hexdigest()[:16]}")
