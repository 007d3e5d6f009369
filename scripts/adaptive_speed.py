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
`parked_sha256`. A case `1x2x2P` parks the 1x2x2 controller the
same way, the norm of 0.9 of the guard spread over every tap of both
filters, so that every sample of the grid takes the squared norm and the
exact check, filter by filter; its hash is `grid_parked_sha256`.

Each case's plant has the default secondary paths, which start with 4
zero taps, so `run_adaptive` runs 5 samples a pass. A case `1x1x1D0`
gives the 1x1x1 plant paths without that delay (`secondary.delay: 0`),
which run a sample a pass; its hash is `undelayed_sha256`. A case
`1x2x2R` gives the 1x2x2 plant's paths at 16, 6, 9 and 5 taps, which the
plant pads to 16; its estimates are those paths padded to the longest,
and its hash is `ragged_sha256`. `widths=` names each case's samples a
pass.

A lanes case runs the 1x1x1 and 1x2x2 cases' 128-tap controllers as
two lanes of one `loops.run_lanes` call, over this reference and a second
one, against the same two runs made one `run_adaptive` call at a time.
`lanes_us=` gives each geometry's microseconds per lane and sample,
lanes then alone, the minimum over `reps`, and `lanes_sha256` the hash
of the lanes' errors, outputs and final weights. The script exits 1 if
any lane differs in a bit from its own call.

Run it on two trees in alternation to compare them on one machine.
"""

import hashlib
import sys
import time

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from ancsim import loops  # noqa: E402
from ancsim.acoustics import DEFAULT_SECONDARY, PathSpec, Plant, synthetic_plant  # noqa: E402
from ancsim.loops import Lane, PlantSplit, loop_aligned_path, run_adaptive, run_lanes  # noqa: E402
from ancsim.mcanc import WEIGHT_GUARD, ChannelConfig, McAncController  # noqa: E402

T = int(sys.argv[2]) if len(sys.argv) > 2 else 16_000
REPS = int(sys.argv[3]) if len(sys.argv) > 3 else 5
MU = 1e-4
# (J, K, L, label suffix)
CASES = [(1, 1, 128, ""), (2, 2, 128, ""), (3, 2, 128, ""), (4, 4, 128, ""), (2, 2, 1, "L1"),
         (1, 1, 128, "P"), (2, 2, 128, "P"), (1, 1, 128, "D0"), (2, 2, 128, "R")]
# the 1x2x2R case's path lengths
RAGGED = [[16, 6], [9, 5]]
UNDELAYED = PathSpec(delay=0, decay=DEFAULT_SECONDARY.decay, taps=DEFAULT_SECONDARY.taps,
                     gain=DEFAULT_SECONDARY.gain)

x = np.random.default_rng(0).standard_normal(T)
# the common cases, the parked one-filter case, the parked grid, the
# undelayed paths and the ragged ones
digests = {key: hashlib.sha256() for key in ("", "P", "GP", "D0", "R")}
figures, widths = [], []
for J, K, L, suffix in CASES:
    secondary = UNDELAYED if suffix == "D0" else DEFAULT_SECONDARY
    plant = synthetic_plant(n_sources=J, n_mics=K, seed=77, measurement_noise_std=0.01,
                            secondary=secondary)
    if suffix == "R":
        ragged = [[plant.true_secondary(j, k)[:n] for k, n in enumerate(row)]
                  for j, row in enumerate(RAGGED)]
        plant = Plant(plant.primaries, ragged, measurement_noise_std=0.01, seed=77)
    paths = [plant.true_secondary(j, k) for j in range(J) for k in range(K)]
    M = max(s.size for s in paths)
    est = loop_aligned_path(np.reshape([np.pad(s, (0, M - s.size)) for s in paths], (J, K, M)))
    chan = ChannelConfig(1, J, K, L, est.shape[2])
    best = None
    for _ in range(REPS):
        if suffix == "P":
            ctl = McAncController(chan, MU / 100, est)
            ctl.weights = np.full((1, J, L), 0.9 * WEIGHT_GUARD / np.sqrt(J * L))
        else:
            ctl = McAncController(chan, MU, est)
        width = loops._block_width(PlantSplit(plant), ctl, np.concatenate([ctl.state.x[0], x]))
        t0 = time.perf_counter()
        res = run_adaptive(plant, ctl, x)
        us = (time.perf_counter() - t0) / T * 1e6
        best = us if best is None else min(best, us)
    if res.diverged_at is not None:
        raise SystemExit(f"1x{J}x{K}{suffix} diverged at sample {res.diverged_at}")
    if suffix == "P":
        digest = digests["P" if J == 1 else "GP"]
    else:
        digest = digests[suffix if suffix in ("D0", "R") else ""]
    for a in (res.error, res.output, res.final_weights):
        digest.update(np.ascontiguousarray(a).tobytes())
    figures.append(f"1x{J}x{K}{suffix}_us={best:.2f}")
    widths.append(f"1x{J}x{K}{suffix}:{width}")
# two lanes of one geometry, against the same runs one call at a time
lane_refs = [x, np.random.default_rng(1).standard_normal(T)]
lanes_digest, lane_figures, lanes_differ = hashlib.sha256(), [], []
for J, K in ((1, 1), (2, 2)):
    plant = synthetic_plant(n_sources=J, n_mics=K, seed=77, measurement_noise_std=0.01)
    est = loop_aligned_path(plant.secondaries)
    chan = ChannelConfig(1, J, K, 128, est.shape[2])
    best = {"lanes": None, "alone": None}
    for _ in range(REPS):
        for how in best:
            ctls = [McAncController(chan, MU, est) for _ in lane_refs]
            t0 = time.perf_counter()
            if how == "lanes":
                got = run_lanes([Lane(plant, ctl, ref) for ctl, ref in zip(ctls, lane_refs)])
            else:
                want = [run_adaptive(plant, ctl, ref) for ctl, ref in zip(ctls, lane_refs)]
            us = (time.perf_counter() - t0) / (2 * T) * 1e6
            best[how] = us if best[how] is None else min(best[how], us)
    for a, b in zip(got, want):
        pairs = [(a.error, b.error), (a.output, b.output), (a.final_weights, b.final_weights)]
        if a.diverged_at is not None or any(
                p.shape != q.shape or not np.array_equal(
                    np.ascontiguousarray(p).view(np.uint64), np.ascontiguousarray(q).view(np.uint64))
                for p, q in pairs):
            lanes_differ.append(f"1x{J}x{K}")
        for p, _ in pairs:
            lanes_digest.update(np.ascontiguousarray(p).tobytes())
    lane_figures.append(f"1x{J}x{K}:{best['lanes']:.2f}/{best['alone']:.2f}")
print(" ".join(figures), f"sha256={digests[''].hexdigest()[:16]}",
      f"parked_sha256={digests['P'].hexdigest()[:16]}",
      f"grid_parked_sha256={digests['GP'].hexdigest()[:16]}",
      f"undelayed_sha256={digests['D0'].hexdigest()[:16]}",
      f"ragged_sha256={digests['R'].hexdigest()[:16]}", "widths=" + ",".join(widths),
      "lanes_us=" + ",".join(lane_figures), f"lanes_sha256={lanes_digest.hexdigest()[:16]}")
if lanes_differ:
    raise SystemExit(f"a lane differs from its own run_adaptive call: {', '.join(lanes_differ)}")
