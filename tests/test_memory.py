"""Traced memory of a scenario run, in units of its T-sample arrays.

numpy reports its buffers to `tracemalloc`, so the traced peak of a run is
what its arrays (and Python objects) take at the worst moment. Memory here
is counted in units U of one float64 array of the run's T samples, 8 T
bytes, as `test_call_counts.py` counts time in calls: a change that keeps
one more full-length array, or makes one more full-length temporary,
fails here instead of hiding in the process's resident size.

The run is `combined` at 4 s whose training signal and identification
excitation are as long as its reference, so no stage's arrays outgrow
U; it runs once untraced first, so that modules the run imports lazily
are not counted. The budgets:

- What the `ScenarioResult` holds, `held_budget`: the three arms' errors
  (3), each arm's spectra: its spectrogram in dB (frames x bins / T,
  about 1) with its frame times and bins, and its PSD's bins, dB and
  linear powers; the decimated mse trace (1 / stride); and `SMALL_U` for
  the rest (interval figures, weights, estimates, objects). Neither the
  reference nor any arm's loudspeaker outputs: no export reads them, so
  `run_scenario` lets them go before the reports.
- The whole run, `run_scenario` then `export_report`: that, plus the
  largest stage's transients, the export's: the text of the error rows'
  shared "sample_index,time_s,reference," prefixes, at most `PREFIX_ROW`
  bytes a row for T / stride rows, and one CSV block being formatted, at
  most `BLOCK_ROW` bytes for each of `reporting._CSV_BLOCK_ROWS` rows: the
  formatter's integer lanes, about 30 of 8 bytes a value, and the block's
  text (a fixed size, whatever T is).
- Each `loops.run_lanes` call (every adaptive recursion runs through
  them: one a pre-training second, the adaptive arm's matching second
  packed in while the arm has one left, then one for what is left of the
  arm, if anything is), above what is traced when it is
  called, per lane: the error and the loudspeaker buffer that holds its
  outputs, which it returns, and the reference and filtered-reference
  histories its windows read, 4 arrays of the call's samples at one
  filter and one mic, with `SMALL_U` (of the run's U, as ever) for the
  controller's windows and the pass's stacks, which do not grow with the
  call.
"""

import tracemalloc

import pytest

from ancsim import loops, reporting, scenario
from ancsim.config import default_config
from ancsim.reporting import export_report

SECONDS = 4.0
SMALL_U = 0.2
PREFIX_ROW = 64
BLOCK_ROW = 320


def memory_config(seconds):
    cfg = default_config("combined", duration_s=seconds, seed=7)
    cfg.fixed_filter.max_train_s = seconds
    cfg.sysid.n_samples = round(seconds * cfg.sample_rate_hz)
    return cfg


class Traced:
    """One traced run: what the result holds, the peak over the run and,
    for each `run_lanes` call, its peak above its entry in bytes, its
    lanes and its samples."""

    def __init__(self, cfg, out_dir, patch):
        self.run_peak, self.lane_calls = 0, []
        patch.setattr(loops, "run_lanes", self.watch(loops.run_lanes))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = scenario.run_scenario(cfg)
            self.held = tracemalloc.get_traced_memory()[0] - start
            export_report(result, out_dir)
            self.fold()
            self.run_peak -= start
        finally:
            tracemalloc.stop()
        self.result = result

    def fold(self):
        """Fold the peak since the last reset into the run's."""
        self.run_peak = max(self.run_peak, tracemalloc.get_traced_memory()[1])

    def watch(self, run_lanes):
        def watched(lanes):
            self.fold()
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            try:
                return run_lanes(lanes)
            finally:
                self.lane_calls.append((tracemalloc.get_traced_memory()[1] - entry,
                                        len(lanes), len(lanes[0].x)))
                self.fold()
        return watched


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    export_report(scenario.run_scenario(memory_config(1.0)), tmp_path_factory.mktemp("warm"))
    with pytest.MonkeyPatch.context() as patch:
        return Traced(memory_config(SECONDS), tmp_path_factory.mktemp("out"), patch)


def unit(cfg):
    return 8 * round(cfg.duration_s * cfg.sample_rate_hz)


def held_budget(cfg):
    """The arrays a 1x1 `ScenarioResult` holds, in U."""
    T, m = round(cfg.duration_s * cfg.sample_rate_hz), cfg.metrics
    frames, bins = (T - m.segment_len) // m.hop + 1, m.segment_len // 2 + 1
    spectra = 3 * (frames * bins + frames + 4 * bins) / T
    return 3 + spectra + 1 / cfg.export.error_decimation + SMALL_U


def test_result_holds_its_arrays_and_nothing_more(traced):
    cfg = traced.result.config
    assert traced.held / unit(cfg) <= held_budget(cfg)


def test_run_peak_is_the_result_plus_the_export_transients(traced):
    cfg = traced.result.config
    T = round(cfg.duration_s * cfg.sample_rate_hz)
    export = (PREFIX_ROW * T / cfg.export.error_decimation
              + BLOCK_ROW * reporting._CSV_BLOCK_ROWS)
    assert traced.run_peak / unit(cfg) <= held_budget(cfg) + export / unit(cfg)


def test_run_adaptive_holds_its_buffers_only(traced):
    # every call, the pre-training blocks' beside the adaptive arm's
    # seconds and alone; each lane's own 4 arrays of the call's samples
    assert 2 in {lanes for _, lanes, _ in traced.lane_calls}
    small = SMALL_U * unit(traced.result.config)
    for peak, lanes, samples in traced.lane_calls:
        assert peak <= lanes * (4 * 8 * samples + small)
