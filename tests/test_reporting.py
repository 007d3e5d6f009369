"""Export formatting: the column writer against a per-element oracle.

The oracle below is the writer that formats one `repr(float(v))` per CSV
cell. The column writer must reproduce its bytes on every value repr can
print: signed zeros, nan, infinities, subnormals, and both sides of the
switch to scientific notation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancsim import reporting
from ancsim.config import default_config
from ancsim.floatfmt import format_floats, format_ints
from ancsim.metrics import PowerSpectrum, RunReport, Spectrogram
from ancsim.reporting import _CSV_BLOCK_ROWS, export_report
from ancsim.scenario import ArmResult, PretrainInfo, ScenarioResult

SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
            2.2250738585072014e-308, 1e-05, 9.999999999999999e-06, 1.0000000000000002e-05,
            0.0001, 1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,
            0.1, 0.30000000000000004, 1 / 3, -2.5, 123456789.0, 1.7976931348623157e308]


def oracle_fmt(v) -> str:
    return repr(float(v))


def oracle_csv(header, rows) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def oracle_arm_files(arm, rate, decimation, reference):
    files = {}
    err, ref = arm.error, reference
    n_mics = err.shape[1]
    for k in range(n_mics):
        suffix = f"_mic{k}" if n_mics > 1 else ""
        idx = np.arange(0, err.shape[0], decimation)
        rows = ((str(int(n)), oracle_fmt(n / rate), oracle_fmt(ref[n, k]),
                 oracle_fmt(err[n, k])) for n in idx)
        files[f"{arm.name}_error{suffix}.csv"] = oracle_csv(
            "sample_index,time_s,reference,error", rows)
        report = arm.reports[k]
        nr_rows = ((str(i), oracle_fmt(i * report.interval_s), oracle_fmt(v))
                   for i, v in enumerate(report.nr_per_interval_db))
        files[f"{arm.name}_nr{suffix}.csv"] = oracle_csv("interval_index,start_s,nr_db",
                                                         nr_rows)
        psd_rows = () if report.psd is None else (
            (oracle_fmt(f), oracle_fmt(p))
            for f, p in zip(report.psd.freq_hz, report.psd.power_db))
        files[f"{arm.name}_psd{suffix}.csv"] = oracle_csv("freq_hz,power_db", psd_rows)
        spec_rows = []
        if report.spectro is not None:
            for fi, t in enumerate(report.spectro.times_s):
                for bi, f in enumerate(report.spectro.freq_hz):
                    spec_rows.append((str(fi), oracle_fmt(t), oracle_fmt(f),
                                      oracle_fmt(report.spectro.power_db[fi, bi])))
        files[f"{arm.name}_spectrogram{suffix}.csv"] = oracle_csv(
            "frame_index,time_s,freq_hz,power_db", spec_rows)
    return files


def oracle_mse_csv(trace, stride) -> str:
    return oracle_csv("sample_index,mse", ((str(int(i * stride)), oracle_fmt(v))
                                           for i, v in enumerate(trace)))


def awkward(rng, shape):
    """Values over the whole float64 exponent range, a third of them special."""
    with np.errstate(over="ignore"):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    pick = rng.random(shape) < 1 / 3
    values[pick] = rng.choice(SPECIALS, size=int(pick.sum()))
    return values


def report(rng, n, frames, bins, with_spectra=True):
    psd = spectro = None
    if with_spectra:
        psd = PowerSpectrum(freq_hz=awkward(rng, bins), power_db=awkward(rng, bins),
                            power_linear=np.zeros(bins))
        spectro = Spectrogram(times_s=awkward(rng, frames), freq_hz=awkward(rng, bins),
                              power_db=awkward(rng, (frames, bins)))
    return RunReport(interval_s=0.1, nr_per_interval_db=awkward(rng, 7),
                     snr_db=1.0, psd=psd, spectro=spectro)


def hand_built_result(n_mics, decimation, n=50, frames=4, bins=5):
    rng = np.random.default_rng(100 * n_mics + decimation)
    cut = n - 13
    shape = (n, n_mics)
    d = awkward(rng, shape)
    arms = {
        "uncontrolled": ArmResult("uncontrolled",
                                  [report(rng, n, frames, bins) for _ in range(n_mics)], d),
        # a diverged arm: shorter record, spectra skipped on its first mic
        "adaptive": ArmResult("adaptive",
                              [report(rng, cut, frames, bins, with_spectra=k > 0)
                               for k in range(n_mics)],
                              awkward(rng, (cut, n_mics)), diverged_at=cut - 1),
        "fixed": ArmResult("fixed", [report(rng, n, frames, bins) for _ in range(n_mics)],
                           awkward(rng, shape)),
    }
    cfg = default_config("combined")
    cfg.sample_rate_hz = 7.0 if n_mics == 1 else 8000.0   # 7 makes long time_s reprs
    cfg.export.error_decimation = decimation
    pretrain = PretrainInfo(seconds_trained=1, nr_per_second_db=[0.5],
                            plateau_reached=False, mu=0.01)
    return ScenarioResult(
        config=cfg, arms=arms,
        adaptive_weights=np.zeros((1, 1, 4)), fixed_weights=np.zeros((1, 1, 4)),
        installed_estimates=np.zeros((1, 1, 3)), sysid_summaries=[], pretrain=pretrain,
        mu=0.01, mse_trace=awkward(rng, -(-cut // decimation)), mse_stride=decimation)


def assert_matches_oracle(result, tmp_path):
    decimation = result.mse_stride
    d = result.arms["uncontrolled"].error
    expected = {"mse_trace.csv": oracle_mse_csv(result.mse_trace, decimation)}
    for arm in result.arms.values():
        expected.update(oracle_arm_files(arm, result.config.sample_rate_hz, decimation,
                                         d[:arm.error.shape[0]]))
    written = export_report(result, tmp_path)
    assert sorted(n for n in written if n.endswith(".csv")) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name
    return written


@pytest.mark.parametrize("decimation", [1, 3, 8])
@pytest.mark.parametrize("n_mics", [1, 3])
def test_csvs_match_per_element_oracle(n_mics, decimation, tmp_path):
    written = assert_matches_oracle(hand_built_result(n_mics, decimation), tmp_path)
    assert ("fixed_spectrogram_mic2.csv" in written) == (n_mics == 3)


def test_files_longer_than_a_row_block_match_oracle(tmp_path):
    # error and spectrogram files that end past the second block boundary
    result = hand_built_result(1, 1, n=2 * _CSV_BLOCK_ROWS + 20, frames=21, bins=1000)
    assert_matches_oracle(result, tmp_path)


def concatenated_cells(*parts) -> np.ndarray:
    """The block writer before blocks were assembled in one preallocated
    matrix: the text matrices and broadcast separators concatenated. Kept
    as the assembly's oracle."""
    rows = next(len(p) for p in parts if not isinstance(p, bytes))
    return np.concatenate([np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p)))
                           if isinstance(p, bytes) else p for p in parts], axis=1)


def concatenated(*parts) -> bytes:
    return concatenated_cells(*parts).tobytes().translate(None, b"\0")


FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIALS),
                   st.integers(-10 ** 17, 10 ** 17).map(float))
ROW_COUNTS = st.sampled_from([0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])


@settings(max_examples=40, deadline=None)
@given(rows=ROW_COUNTS, columns=st.lists(st.lists(FLOATS, min_size=1, max_size=12),
                                         min_size=1, max_size=3),
       index=st.booleans(), sep=st.sampled_from([b",", b", ", b""]))
def test_blocks_assemble_as_the_concatenated_cells(rows, columns, index, sep):
    # each column cycles its drawn values over the rows: cells of every
    # width, sign and special, side by side with separators of 0-2 bytes
    parts = [format_ints(np.arange(rows) * 7919), sep] if index else []
    for values in columns:
        parts += [format_floats(np.resize(np.array(values), rows)), sep]
    parts[-1] = b"\n"
    assert reporting._rows(*parts) == concatenated(*parts)


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from([(1, 1), (1, _CSV_BLOCK_ROWS - 1), (_CSV_BLOCK_ROWS - 1, 1),
                              (16, 512), (512, 16), (3, 2731), (2731, 3)]),
       times=st.lists(FLOATS, min_size=1, max_size=8),
       freqs=st.lists(FLOATS, min_size=1, max_size=8),
       powers=st.lists(FLOATS, min_size=1, max_size=12))
def test_spectrogram_blocks_assemble_as_gathered_rows(shape, times, freqs, powers):
    # 1, 8191, 8192 and 8193 rows: the frames' and bins' text compacted
    # once and copied frame by frame equals gathering their padded rows
    n_frames, n_bins = shape
    spectro = Spectrogram(times_s=np.resize(np.array(times), n_frames),
                          freq_hz=np.resize(np.array(freqs), n_bins),
                          power_db=np.resize(np.array(powers), shape))
    frames = concatenated_cells(format_ints(np.arange(n_frames)), b",",
                                format_floats(spectro.times_s), b",")
    bins = concatenated_cells(format_floats(spectro.freq_hz), b",")
    row = np.arange(n_frames * n_bins)
    want = b"frame_index,time_s,freq_hz,power_db\n" + concatenated(
        frames[row // n_bins], bins[row % n_bins], format_floats(spectro.power_db), b"\n")
    assert b"".join(reporting._spectrogram_csv(spectro)) == want


def test_an_empty_spectrogram_is_its_header():
    assert b"".join(reporting._spectrogram_csv(None)) == b"frame_index,time_s,freq_hz,power_db\n"


def test_an_export_formats_each_shared_array_once(tmp_path, monkeypatch):
    # every arm's spectra have the same frequencies and frame times and
    # every NR file the same interval starts, each in its own equal array;
    # the diverged arm has fewer frames, another array. Each distinct one
    # is formatted once per export, and the bytes are the oracle's
    result = hand_built_result(2, 1, frames=6, bins=9)
    rng = np.random.default_rng(5)
    freqs, times = awkward(rng, 9), awkward(rng, 6)
    for arm in result.arms.values():
        n_frames = 4 if arm.diverged else 6
        for rep in arm.reports:
            if rep.psd is not None:
                rep.psd.freq_hz = freqs.copy()
                rep.spectro = Spectrogram(times_s=times[:n_frames].copy(), freq_hz=freqs.copy(),
                                          power_db=awkward(rng, (n_frames, 9)))
    seen = []

    def spy(values):
        seen.append(np.array(values))
        return format_floats(values)

    monkeypatch.setattr(reporting, "format_floats", spy)
    assert_matches_oracle(result, tmp_path)

    def calls(values):
        return sum(a.shape == values.shape and a.tobytes() == values.tobytes() for a in seen)

    starts = np.arange(7) * 0.1
    assert calls(freqs) == 2          # the bins' text and the PSD's frequencies
    assert calls(times) == calls(times[:4]) == calls(starts) == 1
