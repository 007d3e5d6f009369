"""Export plumbing: the memory an export holds, file modes, and the
atomic writer's clean-up."""

import os
import stat
import tracemalloc

import numpy as np
import pytest
from test_cli import write_small_config

from ancsim import reporting, serialization
from ancsim.cli import main
from ancsim.config import default_config
from ancsim.metrics import PowerSpectrum, RunReport, Spectrogram
from ancsim.reporting import export_report
from ancsim.scenario import ArmResult, PretrainInfo, ScenarioResult
from ancsim.serialization import FilterSnapshot, atomic_write, save_weights_json

# Peak traced allocation of one export of `combined_sized_result`, measured
# at 2.39 MB (3.38 MB before float text kept about 20 lanes a value alive
# instead of 30 and blocks were assembled in one matrix; 4.25 MB for the
# per-value `repr` writer). The bound leaves about 30% for allocator and
# numpy variation. Holding one spectrogram CSV's whole text (160k rows,
# about 8 MB) or formatting one arm's 160k powers in a single pass would
# cross it.
EXPORT_PEAK_BOUND_MB = 3.2


def combined_sized_result(n=160_000, frames=312, bins=513):
    """A hand-built result shaped like `combined`'s: 20 s at 8 kHz, error
    rows decimated by 8, and a 312 x 513 (160k-row) spectrogram per arm."""
    rng = np.random.default_rng(12)
    freq = np.arange(bins) * 7.8125

    def report():
        psd = PowerSpectrum(freq_hz=freq, power_db=rng.normal(-40, 20, bins),
                            power_linear=np.zeros(bins))
        spectro = Spectrogram(times_s=np.arange(frames) * 0.064, freq_hz=freq,
                              power_db=rng.normal(-40, 20, (frames, bins)))
        return RunReport(interval_s=1.0, nr_per_interval_db=rng.normal(10, 5, 20), snr_db=1.0,
                         psd=psd, spectro=spectro)

    arms = {name: ArmResult(name, [report()], rng.standard_normal((n, 1)))
            for name in ("uncontrolled", "adaptive", "fixed")}
    pretrain = PretrainInfo(seconds_trained=1, nr_per_second_db=[0.5], plateau_reached=False,
                            mu=0.01)
    return ScenarioResult(
        config=default_config("combined"), arms=arms,
        adaptive_weights=np.zeros((1, 1, 128)), fixed_weights=np.zeros((1, 1, 128)),
        installed_estimates=np.zeros((1, 1, 65)), sysid_summaries=[], pretrain=pretrain,
        mu=0.01, mse_trace=rng.random(n // 8), mse_stride=8)


def test_export_peak_memory_is_bounded(tmp_path):
    result = combined_sized_result()
    export_report(result, tmp_path)           # first-use tables out of the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        export_report(result, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (tmp_path / "fixed_spectrogram.csv").stat().st_size > 160_000 * 30
    assert peak < EXPORT_PEAK_BOUND_MB * 1e6, peak


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    yield 0o666 & ~0o027
    os.umask(old)


def file_modes(directory):
    return {name: stat.S_IMODE(os.stat(os.path.join(directory, name)).st_mode)
            for name in os.listdir(directory)}


def test_every_exported_file_honours_the_umask(tmp_path, umask_027):
    cfg_path = tmp_path / "c.yaml"
    write_small_config(cfg_path)
    for argv in (["run"], ["identify"], ["pretrain"], ["mac"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 0
        modes = file_modes(out)
        assert modes and set(modes.values()) == {umask_027}, (argv, modes)
    assert "summary.json" in file_modes(tmp_path / "run")


def test_a_saver_that_raises_leaves_no_temporary(tmp_path, monkeypatch):
    result = combined_sized_result(n=800, frames=3, bins=5)

    def broken(snapshot):
        raise RuntimeError("cannot serialize")

    monkeypatch.setattr(serialization, "snapshot_to_json_dict", broken)
    with pytest.raises(RuntimeError):
        export_report(result, tmp_path)
    names = os.listdir(tmp_path)
    assert "adaptive_weights.anw" in names
    assert not [n for n in names if n.endswith(".tmp")], names


def test_atomic_write_removes_its_temporary_and_keeps_the_old_file(tmp_path):
    path = tmp_path / "w.json"
    save_weights_json(path, FilterSnapshot(np.ones(3), np.zeros(0)))
    before = path.read_bytes()

    def chunks():
        yield b"partial"
        raise OSError("disk full")

    with pytest.raises(OSError):
        atomic_write(path, chunks())
    assert os.listdir(tmp_path) == ["w.json"]
    assert path.read_bytes() == before


def test_csv_blocks_hold_at_most_the_block_rows():
    result = combined_sized_result(n=800, frames=40, bins=513)
    for name, chunks in reporting._text_files(result):
        if name.endswith("spectrogram.csv"):
            blocks = list(chunks)[1:]
            assert [b.count(b"\n") for b in blocks] == [reporting._CSV_BLOCK_ROWS,
                                                        reporting._CSV_BLOCK_ROWS,
                                                        40 * 513 - 2 * reporting._CSV_BLOCK_ROWS]
