"""Report emission: per-arm CSVs, a JSON summary, and weight snapshots.

All floats render through Python's shortest round-trip repr, and every
file is written to a temporary name and renamed into place, so a given
(config, seed) pair produces byte-identical exports on every run. The
JSON summary replaces non-finite dB values with the strings "unbounded"
(+inf), "silent" (-inf), and "undefined" (NaN); CSVs render them as inf,
-inf, and nan.

CSV schemas (one header row each):
    {arm}_error.csv        sample_index,time_s,reference,error
    {arm}_nr.csv           interval_index,start_s,nr_db
    {arm}_psd.csv          freq_hz,power_db
    {arm}_spectrogram.csv  frame_index,time_s,freq_hz,power_db
    mse_trace.csv          sample_index,mse
Multichannel arms append a _mic{k} suffix before the extension.

Every arm's error CSV shares its first three columns: the row's sample
index, its time and the uncontrolled error it is referenced to. Those are
formatted once, as one list per mic of "sample_index,time_s,reference,"
row prefixes; each arm's row is its prefix plus its own error, and a
diverged arm's shorter record takes a leading slice of the list.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import chain, islice, repeat

import numpy as np

from .serialization import (
    FilterSnapshot,
    GridSnapshot,
    save_weights_binary,
    save_weights_json,
)

_CSV_BLOCK_ROWS = 8192


def _fmts(values):
    """`repr(float(v))` of every element, lazily, after one conversion to
    Python floats."""
    return map(repr, np.asarray(values, dtype=np.float64).ravel().tolist())


def _atomic_write(path, chunks) -> None:
    """Write the text chunks to a temporary name and rename it into place."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, *columns):
    """`_lines` of the rows of the string columns."""
    return _lines(header, map(",".join, zip(*columns)))


def _lines(header: str, rows):
    """Yield the header line, then the row lines, a block of rows per
    chunk so that no file's full text is held at once."""
    yield header + "\n"
    while block := list(islice(rows, _CSV_BLOCK_ROWS)):
        yield "\n".join(block) + "\n"


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
    """Yield (file name, text chunks) for each of the arm's CSVs; `prefixes`
    holds each mic's shared error-row prefixes (`_error_prefixes`)."""
    err = np.atleast_2d(arm.error.T).T          # (T, K)
    n_mics = err.shape[1]
    for k in range(n_mics):
        suffix = f"_mic{k}" if n_mics > 1 else ""
        yield f"{arm.name}_error{suffix}.csv", _lines(
            "sample_index,time_s,reference,error",
            map(str.__add__, prefixes[k], _fmts(err[::decimation, k])))

        report = arm.reports[k]
        nr = report.nr_per_interval_db
        yield f"{arm.name}_nr{suffix}.csv", _csv(
            "interval_index,start_s,nr_db", map(str, range(len(nr))),
            _fmts(np.arange(len(nr)) * report.interval_s), _fmts(nr))

        psd_cols = () if report.psd is None else (
            _fmts(report.psd.freq_hz), _fmts(report.psd.power_db))
        yield f"{arm.name}_psd{suffix}.csv", _csv("freq_hz,power_db", *psd_cols)

        spec_cols = () if report.spectro is None else _spectrogram_columns(report.spectro)
        yield f"{arm.name}_spectrogram{suffix}.csv", _csv(
            "frame_index,time_s,freq_hz,power_db", *spec_cols)


def _error_prefixes(reference: np.ndarray, rate: float, decimation: int):
    """One list per mic of each exported row's "sample_index,time_s,
    reference," text, formatted once for every arm's error CSV."""
    idx = np.arange(0, reference.shape[0], decimation)
    indices, times = idx.tolist(), (idx / rate).tolist()
    return [[f"{n},{t!r},{r!r}," for n, t, r in zip(indices, times, ref.tolist())]
            for ref in reference[::decimation].T]


def _spectrogram_columns(spectro):
    """Frame-major columns; each frame's time and each bin's frequency is
    formatted once and repeated."""
    n_bins = len(spectro.freq_hz)
    times = list(_fmts(spectro.times_s))
    freqs = list(_fmts(spectro.freq_hz))
    return (chain.from_iterable(repeat(str(fi), n_bins) for fi in range(len(times))),
            chain.from_iterable(repeat(t, n_bins) for t in times),
            chain.from_iterable(repeat(freqs, len(times))),
            _fmts(spectro.power_db))


def _text_files(result):
    """Yield (file name, text chunks) for every CSV and the JSON summary."""
    rate = result.config.sample_rate_hz
    decimation = result.config.export.error_decimation
    d = np.atleast_2d(result.arms["uncontrolled"].error.T).T
    # a shorter (diverged) arm's rows are a leading slice of these
    prefixes = _error_prefixes(d, rate, decimation)
    for arm in result.arms.values():
        yield from _arm_files(arm, decimation, prefixes)

    stride = result.mse_stride
    yield "mse_trace.csv", _csv("sample_index,mse",
                                map(str, range(0, len(result.mse_trace) * stride, stride)),
                                _fmts(result.mse_trace))
    yield "summary.json", (json.dumps(summary_dict(result), indent=1, sort_keys=True) + "\n",)


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
        _atomic_write(os.path.join(out_dir, name), chunks)
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
            path = os.path.join(out_dir, stem + ext)
            saver(path + ".tmp", snap)
            os.replace(path + ".tmp", path)
            written.append(stem + ext)
    return sorted(written)
