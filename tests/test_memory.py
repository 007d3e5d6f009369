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

- What the `ScenarioResult` holds, `held_budget`: the reference (1), the
  three arms' errors (3), the adaptive and fixed arms' loudspeaker outputs
  (2), each arm's spectra: its spectrogram in dB (frames x bins / T,
  about 1) with its frame times and bins, and its PSD's bins, dB and
  linear powers; the decimated mse trace (1 / stride); and `SMALL_U` for
  the rest (interval figures, weights, estimates, objects).
- The whole run, `run_scenario` then `export_report`: that, plus the
  largest stage's transients, the export's: the text of the error rows'
  shared "sample_index,time_s,reference," prefixes, at most `PREFIX_ROW`
  bytes a row for T / stride rows, and one CSV block being formatted, at
  most `BLOCK_ROW` bytes for each of `reporting._CSV_BLOCK_ROWS` rows: the
  formatter's integer lanes, about 30 of 8 bytes a value, and the block's
  text (a fixed size, whatever T is).
- `run_adaptive`, above what is traced when it is called: the error and
  the loudspeaker buffer that holds its outputs, which it returns, and the
  reference and filtered-reference histories its windows read: 4 U at
  one filter and one mic, with `SMALL_U` for the controller's windows.
"""

import tracemalloc

import pytest

from ancsim import reporting, scenario
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
    """One traced run: what the result holds, the peak over the run and
    each `run_adaptive` call's peak above its entry, in bytes."""

    def __init__(self, cfg, out_dir, patch):
        self.run_peak, self.adaptive = 0, []
        patch.setattr(scenario, "run_adaptive", self.watch(scenario.run_adaptive))
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

    def watch(self, run_adaptive):
        def watched(*args, **kwargs):
            self.fold()
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            try:
                return run_adaptive(*args, **kwargs)
            finally:
                self.adaptive.append(tracemalloc.get_traced_memory()[1] - entry)
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
    return 1 + 3 + 2 + spectra + 1 / cfg.export.error_decimation + SMALL_U


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
    # every call, the pre-training blocks' and the adaptive arm's
    assert len(traced.adaptive) > 1
    assert max(traced.adaptive) / unit(traced.result.config) <= 4 + SMALL_U
