"""Command-line harness.

Subcommands: synth, identify, pretrain, run, report, mac. Exit codes:
0 success, 2 configuration error (a config whose arrays cannot be
allocated included), 3 adaptive divergence, 4 file I/O error.
`report` re-executes the scenario deterministically from the config (the
runs are seed-reproducible), applying any metric overrides before export.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._version import __version__
from .config import default_config, load_config, save_config
from .errors import AncError, ConfigError, DivergenceError, WavError
from .mcanc import ChannelConfig, mac_count, mac_measure
from .reporting import export_report, summary_dict, sysid_entries, weight_snapshot
from .scenario import (
    build_reference,
    identify_estimates,
    installed_estimate_taps,
    pretrain_fixed_filter,
    run_scenario,
    scenario_stages,
)
from .serialization import (
    FilterSnapshot,
    atomic_write,
    save_weights_binary,
    save_weights_json,
)
from .wavio import write_wav

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _load(args):
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = default_config()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg.validate()


def cmd_synth(args) -> int:
    cfg = _load(args)
    sig = build_reference(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "reference.wav")
    write_wav(path, sig)
    print(f"wrote {path}: {len(sig)} samples at {sig.sample_rate_hz:.0f} Hz")
    return EXIT_OK


def cmd_identify(args) -> int:
    cfg = _load(args)
    est, summaries = identify_estimates(cfg)
    os.makedirs(args.out, exist_ok=True)
    for s in summaries:
        stem = os.path.join(args.out, f"estimate_j{s.j}_k{s.k}")
        snap = FilterSnapshot(est[s.j, s.k], np.zeros(0))
        save_weights_binary(stem + ".anw", snap)
        save_weights_json(stem + ".json", snap)
        print(f"path ({s.j},{s.k}): misalignment {s.misalignment_db:.1f} dB")
    # the entries of summary.json's `sysid`, strict JSON as there
    doc = json.dumps({"paths": sysid_entries(summaries)}, indent=1, sort_keys=True) + "\n"
    atomic_write(os.path.join(args.out, "identification.json"), (doc.encode(),))
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load(args)
    # the scenario's stages up to the training signal, then pre-training
    # alone: these are the weights `run` exports, with no adaptive arm
    for stage, product in scenario_stages(cfg):
        if stage == "identification":
            aligned, _ = product
        elif stage == "mu":
            mu = product
        elif stage == "training":
            break
    weights, info = pretrain_fixed_filter(cfg, aligned, mu, product)
    os.makedirs(args.out, exist_ok=True)
    snap = weight_snapshot(cfg.controller.kind, weights, aligned)
    save_weights_binary(os.path.join(args.out, "fixed_weights.anw"), snap)
    save_weights_json(os.path.join(args.out, "fixed_weights.json"), snap)
    if info.diverged_at is not None:
        print(f"pre-training diverged at sample {info.diverged_at}; "
              "wrote silent weights", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"pre-trained for {info.seconds_trained} s "
          f"(plateau {'reached' if info.plateau_reached else 'not reached'}), "
          f"last-second NR {info.nr_per_second_db[-1]:.2f} dB")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load(args)
    result = run_scenario(cfg)
    export_report(result, args.out)
    for name, arm in result.arms.items():
        snr = arm.reports[0].snr_db
        print(f"{name}: SNR {snr:.2f} dB"
              + (f" DIVERGED at sample {arm.diverged_at}" if arm.diverged else ""))
    if result.any_diverged:
        print("one or more arms diverged; partial results exported", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _load(args)
    if args.interval is not None:
        cfg.metrics.interval_s = args.interval
    if args.segment_len is not None:
        cfg.metrics.segment_len = args.segment_len
    cfg.validate()
    result = run_scenario(cfg)
    export_report(result, args.out)
    print(json.dumps(summary_dict(result)["arms"], indent=1, sort_keys=True))
    return EXIT_DIVERGED if result.any_diverged else EXIT_OK


def cmd_mac(args) -> int:
    cfg = _load(args)
    taps = cfg.controller.taps
    rows = []
    # the geometry of the controller a run installs
    geo = ChannelConfig(cfg.controller.n_refs, cfg.plant.n_sources,
                        cfg.plant.n_mics, taps, installed_estimate_taps(cfg))
    rows.append(("configured", geo))
    for n in (1, 2, 4):
        rows.append((f"standard N={n}", ChannelConfig(n, n, n, taps, taps)))
    print(f"{'geometry':>14} {'I':>3} {'J':>3} {'K':>3} {'L':>5} {'M':>5} "
          f"{'output':>9} {'filt-x':>9} {'update':>9} {'total':>10}")
    table = []
    for label, g in rows:
        m = mac_count(g)
        print(f"{label:>14} {g.n_refs:>3} {g.n_sources:>3} {g.n_mics:>3} "
              f"{g.control_taps:>5} {g.estimate_taps:>5} "
              f"{m.output:>9} {m.filtered_x:>9} {m.update:>9} {m.total:>10}")
        table.append({"label": label, "I": g.n_refs, "J": g.n_sources,
                      "K": g.n_mics, "L": g.control_taps, "M": g.estimate_taps,
                      "output": m.output, "filtered_x": m.filtered_x,
                      "update": m.update, "total": m.total})
    if args.measure is not None:
        measured = mac_measure(rows[0][1], n_samples=args.measure)
        print(f"instrumented: {measured} MACs/sample over {args.measure} samples")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        doc = json.dumps({"rows": table}, indent=1, sort_keys=True) + "\n"
        atomic_write(os.path.join(args.out, "mac_table.json"), (doc.encode(),))
    return EXIT_OK


def cmd_init_config(args) -> int:
    cfg = default_config(scenario=args.scenario)
    if args.seed is not None:
        cfg.seed = args.seed
    save_config(args.out, cfg.validate())
    print(f"wrote {args.out}")
    return EXIT_OK


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ancsim",
        description="Active-noise-control simulation: adaptive vs pre-trained filters")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None, out_required=False):
        p.add_argument("--config", help="experiment config file (YAML/JSON)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")
        else:
            p.add_argument("--out", default=out_default, help="output directory")

    p = sub.add_parser("synth", help="render the composed reference to WAV")
    common(p, out_required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("identify", help="offline secondary-path identification")
    common(p, out_required=True)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("pretrain", help="train and freeze the fixed control filter")
    common(p, out_required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("run", help="run the full scenario and export reports")
    common(p, out_required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="re-run deterministically with metric overrides")
    common(p, out_required=True)
    p.add_argument("--interval", type=float, help="override metrics.interval_s")
    p.add_argument("--segment-len", type=int, help="override metrics.segment_len")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("mac", help="multiply-accumulate complexity table")
    common(p)
    p.add_argument("--measure", type=positive_int, metavar="SAMPLES",
                   help="also run the instrumented counter")
    p.set_defaults(func=cmd_mac)

    p = sub.add_parser("init-config", help="write a default config file")
    p.add_argument("--scenario", choices=("combined", "mixed"), default="combined")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="config file to write")
    p.set_defaults(func=cmd_init_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a config whose arrays cannot be allocated: numpy's message gives the size
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (WavError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
