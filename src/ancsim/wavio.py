"""Mono WAV input and output.

Reading takes 16-bit PCM and 32-bit IEEE float. 16-bit samples map to
[-1, 1) by division by 32768; float32 samples are read exactly. A file
that would not make a valid `Signal` (a NaN or infinite float sample, a
zero sample rate) is malformed, so reading raises only `WavError`s.
Writing makes 32-bit float files only, each sample rounded from float64
to float32, through `serialization.atomic_write`, so a failed write
leaves no partial file.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import EmptyWavError, MalformedWavError, UnsupportedWavError
from .serialization import atomic_write
from .signals import Signal

FORMAT_PCM = 0x0001
FORMAT_IEEE_FLOAT = 0x0003


def read_wav(path) -> Signal:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise MalformedWavError(f"{path}: too short for a RIFF header")
    if data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset:offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body_start = offset + 8
        if body_start + chunk_size > len(data):
            raise MalformedWavError(f"{path}: chunk {chunk_id!r} overruns the file")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise MalformedWavError(f"{path}: fmt chunk of {chunk_size} bytes")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            payload = data[body_start:body_start + chunk_size]
        offset = body_start + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedWavError(f"{path}: missing fmt chunk")
    if payload is None:
        raise MalformedWavError(f"{path}: missing data chunk")
    format_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if sample_rate == 0:
        raise MalformedWavError(f"{path}: sample rate 0 in the fmt chunk")

    if channels != 1:
        raise UnsupportedWavError(
            f"{path}: {channels} channels; only mono is supported. Downmix or "
            f"extract one channel before loading.")
    if format_tag == FORMAT_PCM and bits == 16:
        if len(payload) % 2:
            raise MalformedWavError(f"{path}: odd PCM16 data size {len(payload)}")
        raw = np.frombuffer(payload, dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif format_tag == FORMAT_IEEE_FLOAT and bits == 32:
        if len(payload) % 4:
            raise MalformedWavError(f"{path}: float32 data size {len(payload)} not a multiple of 4")
        raw = np.frombuffer(payload, dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(raw))
        if bad.size:
            raise MalformedWavError(f"{path}: non-finite sample at index {bad[0]}")
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedWavError(
            f"{path}: format tag {format_tag} at {bits} bits; supported: PCM 16-bit, "
            f"IEEE float 32-bit")
    if samples.size == 0:
        raise EmptyWavError(f"{path}: zero-length data chunk")
    return Signal(samples, float(sample_rate))


def write_wav(path, sig: Signal) -> None:
    """Write a mono 32-bit IEEE float WAV: the fmt, fact and data chunks.
    Float32 samples fill whole words, so the data chunk needs no pad."""
    rate = int(round(sig.sample_rate_hz))
    payload = sig.samples.astype("<f4").tobytes()
    chunks = (struct.pack("<4sIHHIIHH", b"fmt ", 16, FORMAT_IEEE_FLOAT, 1, rate, 4 * rate, 4, 32)
              + struct.pack("<4sII", b"fact", 4, len(sig))
              + struct.pack("<4sI", b"data", len(payload)))
    riff = struct.pack("<4sI4s", b"RIFF", 4 + len(chunks) + len(payload), b"WAVE")
    atomic_write(path, (riff, chunks, payload))
