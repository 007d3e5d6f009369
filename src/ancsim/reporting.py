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
A `single` run is the 1x1x1 grid of any other run; only its export
differs: a `FilterSnapshot` and null divergence coordinates.

A CSV goes out in blocks of at most `_CSV_BLOCK_ROWS` rows. A block is
one uint8 matrix, allocated once, a row per CSV row: each cell's text
matrix (NUL-padded, from `floatfmt`) is copied into its column range and
each separator is written down its columns. One `bytes.translate` deletes
the NULs of the whole block, and the bytes are written in binary mode.
That deletion reads every padded byte, so the cells are kept narrow. No
file's full text and no Python string per value is ever made. Every
arm's error CSV shares its first three columns (the row's sample index,
its time and the uncontrolled error it is referenced to); their text is
made once per block, and a diverged arm's shorter record takes a leading
slice of it. A spectrogram row is its frame's index and time, its bin's
frequency and its power: the frames' and the bins' text is made with its
NULs moved to the end and cut to the longest text, and each block copies
it into its rows frame by frame. The arms share their spectra's
frequencies, frame times and interval starts, so an export makes the text
of each distinct such array once (a diverged arm's fewer frames are
another array).
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
    """The parts side by side in one matrix, a row per CSV row: a text
    matrix fills its columns, a bytes part (a separator) is written down
    its columns on every row, and an int part leaves that many columns for
    the caller to fill."""
    rows = next(len(p) for p in parts if isinstance(p, np.ndarray))
    widths = [p if isinstance(p, int) else len(p) if isinstance(p, bytes) else p.shape[1]
              for p in parts]
    cells = np.empty((rows, sum(widths)), np.uint8)
    start = 0
    for p, w in zip(parts, widths):
        if not isinstance(p, int):
            cells[:, start:start + w] = np.frombuffer(p, np.uint8) if isinstance(p, bytes) else p
        start += w
    return cells


def _compact(text: np.ndarray) -> np.ndarray:
    """The rows of a text matrix with their NULs moved to the end, cut to
    the longest row's text."""
    nul = text == 0
    width = int((~nul).sum(axis=1).max(initial=0))
    return np.take_along_axis(text, np.argsort(nul, axis=1, kind="stable")[:, :width], axis=1)


def _rows(*parts) -> bytes:
    """The CSV text of `_cells(*parts)`, its NUL padding deleted."""
    return _cells(*parts).tobytes().translate(None, b"\0")


def _shared(memo: dict, make, values: np.ndarray):
    """`make(values)`, made once per `memo` for arrays of equal bytes."""
    key = (make, values.tobytes())
    if key not in memo:
        memo[key] = make(values)
    return memo[key]


def _frame_text(times: np.ndarray) -> np.ndarray:
    return _compact(_cells(format_ints(np.arange(len(times))), b",", format_floats(times), b","))


def _bin_text(freqs: np.ndarray) -> np.ndarray:
    return _compact(_cells(format_floats(freqs), b","))


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


def _arm_files(arm, decimation: int, prefixes, memo: dict):
    """Yield (file name, byte chunks) for each of the arm's CSVs; `prefixes`
    holds each mic's shared error-row prefix blocks (`_error_prefixes`) and
    `memo` the export's shared text (`_shared`)."""
    n_mics = arm.error.shape[1]
    for k in range(n_mics):
        suffix = f"_mic{k}" if n_mics > 1 else ""
        e = arm.error[::decimation, k]
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
                format_ints(np.arange(r.start, r.stop)), b",",
                _shared(memo, format_floats, starts[r]), b",", format_floats(nr[r]), b"\n"))

        psd = report.psd
        yield f"{arm.name}_psd{suffix}.csv", _csv(
            "freq_hz,power_db", 0 if psd is None else len(psd.freq_hz),
            lambda r, psd=psd: _rows(_shared(memo, format_floats, psd.freq_hz[r]), b",",
                                     format_floats(psd.power_db[r]), b"\n"))

        yield f"{arm.name}_spectrogram{suffix}.csv", _spectrogram_csv(report.spectro, memo)


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


def _spectrogram_csv(spectro, memo: dict):
    """The spectrogram CSV, frame after frame, a bin per row. Each row is
    its frame's "frame_index,time_s," text, its bin's "freq_hz," text and
    its power; those texts are made once per `memo`, without their NULs.
    A block copies the bins' text from a tiling of it and each frame's text
    down its rows: the first frame's, then whole frames, then the last's."""
    if spectro is None:
        return _csv("frame_index,time_s,freq_hz,power_db", 0, None)
    n_frames, n_bins = spectro.power_db.shape
    frames = _shared(memo, _frame_text, spectro.times_s)
    bins = _shared(memo, _bin_text, spectro.freq_hz)
    wf, wb = frames.shape[1], bins.shape[1]
    bins = np.tile(bins, (-(-_CSV_BLOCK_ROWS // n_bins) + 1, 1))   # a block's from any bin
    power = spectro.power_db.reshape(-1)

    def block(r):
        cells = _cells(wf + wb, format_floats(power[r]), b"\n")
        f, b = divmod(r.start, n_bins)
        cells[:, wf:wf + wb] = bins[b:b + len(cells)]
        head = min(-b % n_bins, len(cells))
        whole = (len(cells) - head) // n_bins
        cells[:head, :wf] = frames[f]
        f += head > 0
        middle = cells[head:head + whole * n_bins, :wf].reshape(whole, n_bins, wf)   # a view
        middle[:] = frames[f:f + whole, None]
        cells[head + whole * n_bins:, :wf] = frames[min(f + whole, n_frames - 1)]
        return cells.tobytes().translate(None, b"\0")
    return _csv("frame_index,time_s,freq_hz,power_db", n_frames * n_bins, block)


def _text_files(result):
    """Yield (file name, byte chunks) for every CSV and the JSON summary."""
    rate = result.config.sample_rate_hz
    decimation = result.config.export.error_decimation
    # a shorter (diverged) arm's rows are a leading slice of these
    prefixes = _error_prefixes(result.arms["uncontrolled"].error, rate, decimation)
    memo = {}
    for arm in result.arms.values():
        yield from _arm_files(arm, decimation, prefixes, memo)

    trace, stride = result.mse_trace, result.mse_stride
    yield "mse_trace.csv", _csv(
        "sample_index,mse", len(trace),
        lambda r: _rows(format_ints(np.arange(r.start, r.stop) * stride), b",",
                        format_floats(trace[r]), b"\n"))
    summary = json.dumps(summary_dict(result), indent=1, sort_keys=True) + "\n"
    yield "summary.json", (summary.encode(),)


def weight_snapshot(kind: str, weights: np.ndarray, estimates: np.ndarray):
    """The snapshot a run of this controller kind exports for its (1, J, L)
    weights and (J, K, M) estimates: the one filter of a `single` run as a
    `FilterSnapshot`, any other grid as a `GridSnapshot`."""
    if kind == "single":
        return FilterSnapshot(weights[0, 0], estimates[0, 0])
    return GridSnapshot(weights, estimates)


def summary_dict(result) -> dict:
    """The JSON summary as a plain dict (what summary.json will contain).
    A `single` run's one filter has no grid coordinates to report."""
    single = result.config.controller.kind == "single"
    arms = {}
    for name, arm in result.arms.items():
        arms[name] = {
            "snr_db": [_json_safe(r.snr_db) for r in arm.reports],
            "final_nr_db": [_json_safe(r.final_nr_db) for r in arm.reports],
            "nr_per_interval_db": [_json_safe(r.nr_per_interval_db) for r in arm.reports],
            "diverged": arm.diverged,
            "diverged_at": arm.diverged_at,
            "diverged_coords": (list(arm.diverged_coords)
                                if arm.diverged_coords and not single else None),
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
        "sysid": sysid_entries(result.sysid_summaries),
    }


def sysid_entries(summaries) -> list:
    """One JSON entry a `SysidSummary`, as summary.json's `sysid` and
    identification.json's `paths` hold them; a perfect estimate's -inf dB
    is "silent"."""
    return [{"j": s.j, "k": s.k, "misalignment_db": _json_safe(s.misalignment_db),
             "residual_power": _json_safe(s.residual_power), "undermodeled": s.undermodeled}
            for s in summaries]


def export_report(result, out_dir) -> list:
    """Write all artifacts into out_dir; returns the created file names."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, chunks in _text_files(result):
        atomic_write(os.path.join(out_dir, name), chunks)
        written.append(name)

    kind, est = result.config.controller.kind, result.installed_estimates
    for stem, w in (("adaptive_weights", result.adaptive_weights),
                    ("fixed_weights", result.fixed_weights)):
        snap = weight_snapshot(kind, w, est)
        for ext, saver in ((".anw", save_weights_binary), (".json", save_weights_json)):
            saver(os.path.join(out_dir, stem + ext), snap)
            written.append(stem + ext)
    return sorted(written)
