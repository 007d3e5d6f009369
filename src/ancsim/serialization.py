"""Weight-snapshot persistence: a little-endian binary format plus JSON.

Binary layout, all little-endian:

    magic   4 bytes  b"ANCW"
    version u16      currently 1
    kind    u8       1 = single channel, 2 = multichannel
    dims    u32 each single: N, M        (control taps, estimate taps)
                     multi:  I, J, K, L, M
    payload f64      single: N weights, then M estimate taps (M may be 0)
                     multi:  I*J*L weights C-order, then J*K*M estimates

JSON carries the same fields with floats rendered by Python's shortest
round-trip repr, so both formats round-trip losslessly.

Every file the package exports goes through `atomic_write`.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

MAGIC = b"ANCW"
VERSION = 1
KIND_SINGLE = 1
KIND_MULTI = 2


@dataclass
class FilterSnapshot:
    """Single-channel controller weights plus its secondary-path estimate
    (empty estimate for a plain fixed filter)."""

    weights: np.ndarray
    sec_path_estimate: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.sec_path_estimate = np.asarray(self.sec_path_estimate, dtype=np.float64)
        if self.weights.ndim != 1 or self.sec_path_estimate.ndim != 1:
            raise DataError("snapshot vectors must be 1-D")


@dataclass
class GridSnapshot:
    """Multichannel weights (I, J, L) and estimates (J, K, M)."""

    weights: np.ndarray
    sec_path_estimates: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.sec_path_estimates = np.asarray(self.sec_path_estimates, dtype=np.float64)
        if self.weights.ndim != 3 or self.sec_path_estimates.ndim != 3:
            raise DataError("grid snapshot needs (I,J,L) weights and (J,K,M) estimates")
        if self.weights.shape[1] != self.sec_path_estimates.shape[0]:
            raise DataError("weight grid J differs from estimate grid J")


def atomic_write(path, chunks) -> None:
    """Write the byte chunks to a fresh temporary name beside `path`, then
    rename it into place, so a reader sees the old file or the whole new
    one. The temporary is created as `open` creates a file (0o666 less
    the umask) and is removed if anything raises before the rename."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_weights_binary(path, snapshot) -> None:
    atomic_write(path, (_pack(snapshot),))


def load_weights_binary(path):
    with open(path, "rb") as fh:
        return _unpack(fh.read(), str(path))


def _pack(snapshot) -> bytes:
    if isinstance(snapshot, FilterSnapshot):
        head = struct.pack("<4sHBII", MAGIC, VERSION, KIND_SINGLE,
                           snapshot.weights.size, snapshot.sec_path_estimate.size)
        return (head + snapshot.weights.astype("<f8").tobytes()
                + snapshot.sec_path_estimate.astype("<f8").tobytes())
    if isinstance(snapshot, GridSnapshot):
        i, j, l = snapshot.weights.shape
        j2, k, m = snapshot.sec_path_estimates.shape
        head = struct.pack("<4sHBIIIII", MAGIC, VERSION, KIND_MULTI, i, j, k, l, m)
        return (head + snapshot.weights.astype("<f8").tobytes()
                + snapshot.sec_path_estimates.astype("<f8").tobytes())
    raise DataError(f"cannot serialize {type(snapshot).__name__}")


def _unpack(blob: bytes, origin: str):
    if len(blob) < 7 or blob[:4] != MAGIC:
        raise DataError(f"{origin}: not a weight snapshot")
    version, kind = struct.unpack_from("<HB", blob, 4)
    if version != VERSION:
        raise DataError(f"{origin}: unsupported snapshot version {version}")
    if kind == KIND_SINGLE:
        n, m = struct.unpack_from("<II", blob, 7)
        need = 15 + 8 * (n + m)
        if len(blob) != need:
            raise DataError(f"{origin}: expected {need} bytes, got {len(blob)}")
        w = np.frombuffer(blob, dtype="<f8", count=n, offset=15).copy()
        s = np.frombuffer(blob, dtype="<f8", count=m, offset=15 + 8 * n).copy()
        return FilterSnapshot(w, s)
    if kind == KIND_MULTI:
        i, j, k, l, m = struct.unpack_from("<IIIII", blob, 7)
        nw, ns = i * j * l, j * k * m
        need = 27 + 8 * (nw + ns)
        if len(blob) != need:
            raise DataError(f"{origin}: expected {need} bytes, got {len(blob)}")
        w = np.frombuffer(blob, dtype="<f8", count=nw, offset=27).reshape(i, j, l).copy()
        s = np.frombuffer(blob, dtype="<f8", count=ns, offset=27 + 8 * nw).reshape(j, k, m).copy()
        return GridSnapshot(w, s)
    raise DataError(f"{origin}: unknown snapshot kind {kind}")


def snapshot_to_json_dict(snapshot) -> dict:
    if isinstance(snapshot, FilterSnapshot):
        return {
            "format": "anc-weights",
            "version": VERSION,
            "kind": "single",
            "n_taps": snapshot.weights.size,
            "estimate_taps": snapshot.sec_path_estimate.size,
            "weights": snapshot.weights.tolist(),
            "sec_path_estimate": snapshot.sec_path_estimate.tolist(),
        }
    if isinstance(snapshot, GridSnapshot):
        i, j, l = snapshot.weights.shape
        _, k, m = snapshot.sec_path_estimates.shape
        return {
            "format": "anc-weights",
            "version": VERSION,
            "kind": "multichannel",
            "n_refs": i, "n_sources": j, "n_mics": k,
            "control_taps": l, "estimate_taps": m,
            "weights": snapshot.weights.tolist(),
            "sec_path_estimates": snapshot.sec_path_estimates.tolist(),
        }
    raise DataError(f"cannot serialize {type(snapshot).__name__}")


def save_weights_json(path, snapshot) -> None:
    text = json.dumps(snapshot_to_json_dict(snapshot), indent=1, sort_keys=True) + "\n"
    atomic_write(path, (text.encode(),))


def load_weights_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "anc-weights" or doc.get("version") != VERSION:
        raise DataError(f"{path}: not a version-{VERSION} weight snapshot")
    if doc["kind"] == "single":
        return FilterSnapshot(np.array(doc["weights"], dtype=np.float64),
                              np.array(doc["sec_path_estimate"], dtype=np.float64))
    if doc["kind"] == "multichannel":
        return GridSnapshot(np.array(doc["weights"], dtype=np.float64),
                            np.array(doc["sec_path_estimates"], dtype=np.float64))
    raise DataError(f"{path}: unknown snapshot kind {doc['kind']!r}")
