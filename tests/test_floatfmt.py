"""The numpy float formatter against `repr`, value by value.

`format_floats` must give `repr(float(v))` for every float64 bit pattern:
random patterns, subnormals, powers of two, the switches between fixed
and exponent notation, the extremes, and every value the paper's three
workloads export at a short duration.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_reporting import SPECIALS, assert_matches_oracle

from ancsim.config import load_config
from ancsim.floatfmt import CHUNK, format_floats, format_ints
from ancsim.scenario import run_scenario

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads"


def texts(values):
    return [bytes(row).replace(b"\0", b"").decode() for row in format_floats(values)]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    expected = [repr(v) for v in values.tolist()]
    got = texts(values)
    bad = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not bad, bad[:10]


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(patterns):
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_many_random_bit_patterns_and_subnormals():
    rng = np.random.default_rng(21)
    assert_repr(rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64).view(np.float64))
    subnormals = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64)
    assert_repr(subnormals.view(np.float64))
    assert_repr(-subnormals.view(np.float64))


def test_specials_and_extremes():
    assert_repr(SPECIALS)
    assert_repr([5e-324, -5e-324, 1e-323, 1.5e-323, 2.5e-323, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1e308, 2.2250738585072014e-308])
    assert texts([5e-324, 1e308, 0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]) == [
        "5e-324", "1e+308", "0.0", "-0.0", "nan", "nan", "inf", "-inf"]


@pytest.mark.parametrize("edge", [1e-4, 1e16])
def test_both_sides_of_the_notation_switches(edge):
    steps = [edge]
    for direction in (np.inf, -np.inf):
        v = edge
        for _ in range(20):
            v = np.nextafter(v, direction)
            steps.append(v)
    assert_repr(steps)
    assert_repr(np.negative(steps))


def test_every_power_of_two_and_ten():
    twos = 2.0 ** np.arange(-1074, 1024)
    assert_repr(twos)
    assert_repr(-twos)
    with np.errstate(over="ignore"):
        tens = 10.0 ** np.arange(-323, 309)
    for direction in (0, np.inf, -np.inf):
        assert_repr(tens if direction == 0 else np.nextafter(tens, direction))


def test_integral_values_get_a_point_zero():
    assert_repr(np.arange(-3000, 3000, dtype=np.float64))
    assert_repr([9007199254740992.0, 9007199254740993.0, 123456789012345678.0, 1e15, 1e17])


def test_blocks_longer_than_a_chunk_and_empty():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(CHUNK * 2 + 17) * 10.0 ** rng.integers(-8, 8, CHUNK * 2 + 17)
    assert_repr(values)
    assert format_floats(np.zeros(0)).shape[0] == 0


def test_ints_match_str():
    values = np.array([0, 1, 9, 10, 99, 100, 101, 65535, 10 ** 15, 10 ** 16 - 1], np.int64)
    rows = [bytes(r).replace(b"\0", b"").decode() for r in format_ints(values)]
    assert rows == [str(v) for v in values.tolist()]


@pytest.mark.parametrize("workload", ["combined", "mixed", "mc-2x2"])
def test_short_workload_exports_match_repr(workload, tmp_path):
    """Every CSV a 2 s run of the workload exports equals the per-value
    `repr` oracle byte for byte."""
    cfg = load_config(WORKLOADS / f"{workload}.json")
    cfg.duration_s = 2.0
    cfg.composition.switch_times_s = [1.0]
    cfg.sysid.n_samples = 8000
    cfg.fixed_filter.max_train_s = 2.0
    result = run_scenario(cfg)
    assert_matches_oracle(result, tmp_path)
