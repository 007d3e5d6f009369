"""WAV round trips, the hand-built fixture, and malformed files."""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ancsim.errors import EmptyWavError, MalformedWavError, UnsupportedWavError, WavError
from ancsim.signals import Signal
from ancsim.wavio import read_wav, write_wav


def pcm16_bytes(values, rate=8000, channels=1):
    payload = struct.pack(f"<{len(values)}h", *values)
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, channels, rate,
                      rate * 2 * channels, 2 * channels, 16)
    data = struct.pack("<4sI", b"data", len(payload)) + payload
    body = fmt + data
    return struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body


class TestRead:
    def test_hand_built_fixture(self, tmp_path):
        # eight samples chosen on the PCM grid, including both rails
        values = [0, 16384, -16384, 32767, -32768, 1, -1, 12345]
        path = tmp_path / "fixture.wav"
        path.write_bytes(pcm16_bytes(values))
        sig = read_wav(path)
        assert sig.sample_rate_hz == 8000.0
        expected = [v / 32768.0 for v in values]
        assert sig.samples.tolist() == expected

    def test_extra_chunks_are_skipped(self, tmp_path):
        values = [100, -100]
        payload = struct.pack("<2h", *values)
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 8000, 16000, 2, 16)
        junk = struct.pack("<4sI", b"LIST", 5) + b"junk\x00" + b"\x00"  # padded
        data = struct.pack("<4sI", b"data", len(payload)) + payload
        body = fmt + junk + data
        blob = struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body
        path = tmp_path / "chunks.wav"
        path.write_bytes(blob)
        assert read_wav(path).samples.tolist() == [100 / 32768.0, -100 / 32768.0]

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 40)
        with pytest.raises(MalformedWavError):
            read_wav(path)

    def test_truncated_chunk(self, tmp_path):
        blob = pcm16_bytes([1, 2, 3, 4])
        path = tmp_path / "trunc.wav"
        path.write_bytes(blob[:-3])
        with pytest.raises(MalformedWavError):
            read_wav(path)

    def test_stereo_rejected_with_guidance(self, tmp_path):
        payload = struct.pack("<4h", 1, 2, 3, 4)
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 2, 8000, 32000, 4, 16)
        data = struct.pack("<4sI", b"data", len(payload)) + payload
        body = fmt + data
        path = tmp_path / "stereo.wav"
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(UnsupportedWavError, match="mono"):
            read_wav(path)

    def test_unsupported_codec(self, tmp_path):
        payload = b"\x00" * 8
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 6, 1, 8000, 8000, 1, 8)  # a-law
        data = struct.pack("<4sI", b"data", len(payload)) + payload
        body = fmt + data
        path = tmp_path / "alaw.wav"
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_zero_length_data(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(pcm16_bytes([]))
        with pytest.raises(EmptyWavError):
            read_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample_is_malformed(self, tmp_path, bad):
        path = tmp_path / "nan.wav"
        write_wav(path, Signal(np.zeros(6), 8000.0))
        blob = bytearray(path.read_bytes())
        blob[-12:-8] = struct.pack("<f", bad)  # sample 3 of 6
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedWavError, match=r"nan\.wav.*index 3"):
            read_wav(path)

    def test_zero_sample_rate_is_malformed(self, tmp_path):
        path = tmp_path / "rate.wav"
        path.write_bytes(pcm16_bytes([1, 2], rate=0))
        with pytest.raises(MalformedWavError, match="sample rate 0"):
            read_wav(path)


def _valid_file(fmt):
    """Bytes of a valid 16-sample file in `fmt`. Every sample lies in
    [0.25, 0.5) in magnitude, so one edit of a float32 sample's top byte
    to 0x7f or 0xff makes it NaN or infinite."""
    rng = np.random.default_rng(5)
    ints = np.round(rng.uniform(0.25, 0.5, 16) * 32768) * rng.choice([-1.0, 1.0], 16)
    if fmt == "pcm16":
        return pcm16_bytes([int(v) for v in ints])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.wav")
        write_wav(path, Signal(ints / 32768, 8000.0))
        with open(path, "rb") as fh:
            return fh.read()


_VALID = {fmt: _valid_file(fmt) for fmt in ("pcm16", "float32")}
# header bytes from the front, samples from the back (negative offsets)
_POSITIONS = st.integers(0, 127) | st.integers(-64, -1)
# byte values that often make a header field or a sample's exponent extreme
_BYTES = st.sampled_from([0x00, 0x7F, 0x80, 0xFF]) | st.integers(0, 255)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fmt=st.sampled_from(sorted(_VALID)),
       edits=st.lists(st.tuples(_POSITIONS, _BYTES), min_size=1, max_size=6),
       keep=st.none() | st.integers(0, 127))
def test_mutated_file_loads_or_raises_wav_error(tmp_path, fmt, edits, keep):
    """Overwrite a few bytes, then maybe truncate."""
    blob = bytearray(_VALID[fmt])
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    path = tmp_path / "mutated.wav"
    path.write_bytes(bytes(blob[:keep]))
    try:
        sig = read_wav(path)
    except WavError:
        return
    assert len(sig) > 0 and sig.sample_rate_hz > 0


class TestRoundTrip:
    def test_pcm16_grid_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=500)
        path = tmp_path / "grid.wav"
        path.write_bytes(pcm16_bytes(ints.tolist()))
        back = read_wav(path)
        assert np.array_equal(back.samples, ints / 32768.0)
        assert back.sample_rate_hz == 8000.0

    def test_float32_lossless_for_float32_data(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(300).astype(np.float32).astype(np.float64)
        sig = Signal(data, 44100.0)
        path = tmp_path / "f32.wav"
        write_wav(path, sig)
        back = read_wav(path)
        assert np.array_equal(back.samples, data)
        assert back.sample_rate_hz == 44100.0

    def test_a_write_that_fails_leaves_the_old_file_and_no_temporary(self, tmp_path,
                                                                      monkeypatch):
        path = tmp_path / "reference.wav"
        write_wav(path, Signal(np.zeros(4), 8000.0))
        before = path.read_bytes()

        def broken(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(OSError):
            write_wav(path, Signal(np.ones(8), 8000.0))
        assert os.listdir(tmp_path) == ["reference.wav"]
        assert path.read_bytes() == before
