"""Report emission: per-arm CSVs, a JSON summary, and weight snapshots.

Every float in a CSV is the text of Python's `repr`, the shortest decimal
that reads back as the same double, so a given (config, seed) pair gives
byte-identical exports on every run. `floatfmt` computes that text in
numpy (Schubfach's digits, Python's layout rules) with integer operations
only, byte for byte `repr`'s and with no fallback to it. The JSON summary
replaces non-finite dB values with the strings "unbounded" (+inf),
"silent" (-inf), and "undefined" (NaN); CSVs render them as inf, -inf,
and nan. Every file goes to a fresh temporary name beside its target,
created as `open` would (0o666 less the umask), and is renamed into place
(`serialization.atomic_write`).

CSV schemas (one header row each):
    {arm}_error.csv        sample_index,time_s,reference,error
    {arm}_nr.csv           interval_index,start_s,nr_db
    {arm}_psd.csv          freq_hz,power_db
    {arm}_spectrogram.csv  frame_index,time_s,freq_hz,power_db
    mse_trace.csv          sample_index,mse
Multichannel arms append a _mic{k} suffix before the extension.

A CSV goes out in blocks of at most `_CSV_BLOCK_ROWS` rows. A block is
one uint8 matrix, a row per CSV row: the text matrices of its cells side
by side with the separators, each cell padded with NUL bytes. One
`bytes.translate` deletes the NULs of the whole block, and the bytes are
written in binary mode. No file's full text and no Python string per
value is ever made. Every arm's error CSV shares its first three columns
(the row's sample index, its time and the uncontrolled error it is
referenced to); their text is made once per block, and a diverged arm's
shorter record takes a leading slice of it. A spectrogram row is its
frame's index and time, its bin's frequency and its power: the frames'
and the bins' text is made once per file, and each block gathers its
rows' share of it.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .floatfmt import format_floats, format_ints
from .serialization import (
    FilterSnapshot,
    GridSnapshot,
    atomic_write,
    save_weights_binary,
    save_weights_json,
)

_CSV_BLOCK_ROWS = 8192


def _cells(*parts) -> np.ndarray:
    """The text matrices side by side, one row per CSV row; a bytes part
    (a separator) is repeated on every row."""
    rows = next(len(p) for p in parts if not isinstance(p, bytes))
    return np.concatenate(
        [np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p)))
         if isinstance(p, bytes) else p for p in parts], axis=1)


def _rows(*parts) -> bytes:
    """The CSV text of `_cells(*parts)`, its NUL padding deleted."""
    return _cells(*parts).tobytes().translate(None, b"\0")


def _csv(header: str, n_rows: int, block):
    """Yield the header line, then `block(rows)` for each slice of at most
    `_CSV_BLOCK_ROWS` of the n_rows rows."""
    yield header.encode() + b"\n"
    for start in range(0, n_rows, _CSV_BLOCK_ROWS):
        yield block(slice(start, min(start + _CSV_BLOCK_ROWS, n_rows)))


def _json_safe(value):
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "undefined"
        if math.isinf(v):
            return "unbounded" if v > 0 else "silent"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _arm_files(arm, decimation: int, prefixes):
    """Yield (file name, byte chunks) for each of the arm's CSVs; `prefixes`
    holds each mic's shared error-row prefix blocks (`_error_prefixes`)."""
    err = np.atleast_2d(arm.error.T).T          # (T, K)
    n_mics = err.shape[1]
    for k in range(n_mics):
        suffix = f"_mic{k}" if n_mics > 1 else ""
        e = err[::decimation, k]
        yield f"{arm.name}_error{suffix}.csv", _csv(
            "sample_index,time_s,reference,error", len(e),
            lambda r, e=e, pre=prefixes[k]: _rows(
                pre[r.start // _CSV_BLOCK_ROWS][:r.stop - r.start],
                format_floats(e[r]), b"\n"))

        report = arm.reports[k]
        nr = report.nr_per_interval_db
        starts = np.arange(len(nr)) * report.interval_s
        yield f"{arm.name}_nr{suffix}.csv", _csv(
            "interval_index,start_s,nr_db", len(nr),
            lambda r, nr=nr, starts=starts: _rows(
                format_ints(np.arange(r.start, r.stop)), b",", format_floats(starts[r]),
                b",", format_floats(nr[r]), b"\n"))

        psd = report.psd
        yield f"{arm.name}_psd{suffix}.csv", _csv(
            "freq_hz,power_db", 0 if psd is None else len(psd.freq_hz),
            lambda r, psd=psd: _rows(format_floats(psd.freq_hz[r]), b",",
                                     format_floats(psd.power_db[r]), b"\n"))

        yield f"{arm.name}_spectrogram{suffix}.csv", _spectrogram_csv(report.spectro)


def _error_prefixes(reference: np.ndarray, rate: float, decimation: int):
    """One list per mic of the "sample_index,time_s,reference," text
    matrices of each block of exported rows, made once for every arm's
    error CSV."""
    idx = np.arange(0, reference.shape[0], decimation)
    times = idx / rate
    blocks = [slice(s, s + _CSV_BLOCK_ROWS) for s in range(0, len(idx), _CSV_BLOCK_ROWS)]
    return [[_cells(format_ints(idx[r]), b",", format_floats(times[r]), b",",
                    format_floats(ref[r]), b",") for r in blocks]
            for ref in reference[::decimation].T]


def _spectrogram_csv(spectro):
    """The spectrogram CSV, frame after frame, a bin per row. Each row is
    its frame's "frame_index,time_s," text, its bin's "freq_hz," text and
    its power; those texts are made once per file."""
    if spectro is None:
        return _csv("frame_index,time_s,freq_hz,power_db", 0, None)
    n_frames, n_bins = spectro.power_db.shape
    frames = _cells(format_ints(np.arange(n_frames)), b",",
                    format_floats(spectro.times_s), b",")
    bins = _cells(format_floats(spectro.freq_hz), b",")
    power = spectro.power_db.reshape(-1)

    def block(r):
        row = np.arange(r.start, r.stop)
        return _rows(frames[row // n_bins], bins[row % n_bins], format_floats(power[r]), b"\n")
    return _csv("frame_index,time_s,freq_hz,power_db", n_frames * n_bins, block)


def _text_files(result):
    """Yield (file name, byte chunks) for every CSV and the JSON summary."""
    rate = result.config.sample_rate_hz
    decimation = result.config.export.error_decimation
    d = np.atleast_2d(result.arms["uncontrolled"].error.T).T
    # a shorter (diverged) arm's rows are a leading slice of these
    prefixes = _error_prefixes(d, rate, decimation)
    for arm in result.arms.values():
        yield from _arm_files(arm, decimation, prefixes)

    trace, stride = result.mse_trace, result.mse_stride
    yield "mse_trace.csv", _csv(
        "sample_index,mse", len(trace),
        lambda r: _rows(format_ints(np.arange(r.start, r.stop) * stride), b",",
                        format_floats(trace[r]), b"\n"))
    summary = json.dumps(summary_dict(result), indent=1, sort_keys=True) + "\n"
    yield "summary.json", (summary.encode(),)


def summary_dict(result) -> dict:
    """The JSON summary as a plain dict (what summary.json will contain)."""
    arms = {}
    for name, arm in result.arms.items():
        arms[name] = {
            "snr_db": [_json_safe(r.snr_db) for r in arm.reports],
            "final_nr_db": [_json_safe(r.final_nr_db) for r in arm.reports],
            "nr_per_interval_db": [_json_safe(r.nr_per_interval_db) for r in arm.reports],
            "diverged": arm.diverged,
            "diverged_at": arm.diverged_at,
            "diverged_coords": list(arm.diverged_coords) if arm.diverged_coords else None,
        }
    return {
        "schema_version": 1,
        "provenance": _json_safe(result.provenance),
        "mu": result.mu,
        "interval_s": result.config.metrics.interval_s,
        "sample_rate_hz": result.config.sample_rate_hz,
        "arms": arms,
        "pretrain": {
            "seconds_trained": result.pretrain.seconds_trained,
            "nr_per_second_db": _json_safe(result.pretrain.nr_per_second_db),
            "plateau_reached": result.pretrain.plateau_reached,
            "mu": result.pretrain.mu,
            "diverged_at": result.pretrain.diverged_at,
        },
        "sysid": [
            {"j": s.j, "k": s.k, "misalignment_db": _json_safe(s.misalignment_db),
             "residual_power": _json_safe(s.residual_power),
             "undermodeled": s.undermodeled}
            for s in result.sysid_summaries
        ],
    }


def export_report(result, out_dir) -> list:
    """Write all artifacts into out_dir; returns the created file names."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, chunks in _text_files(result):
        atomic_write(os.path.join(out_dir, name), chunks)
        written.append(name)

    est = result.installed_estimates
    if result.config.controller.kind == "single":
        adaptive_snap = FilterSnapshot(result.adaptive_weights, est[0, 0])
        fixed_snap = FilterSnapshot(result.fixed_weights, est[0, 0])
    else:
        adaptive_snap = GridSnapshot(result.adaptive_weights, est)
        fixed_snap = GridSnapshot(result.fixed_weights, est)
    for stem, snap in (("adaptive_weights", adaptive_snap), ("fixed_weights", fixed_snap)):
        for ext, saver in ((".anw", save_weights_binary), (".json", save_weights_json)):
            saver(os.path.join(out_dir, stem + ext), snap)
            written.append(stem + ext)
    return sorted(written)
