"""The summary of ``tools/perfbench_pairs.py``: pair wins and spreads."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "perfbench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_pairs", _TOOL)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def _runs(name, values):
    return [{name: v} for v in values]


def test_lower_is_better_counts_wins_losses_and_ties():
    parent = [0.046, 0.047, 0.045, 0.048, 0.046, 0.050, 0.044, 0.047,
              0.046, 0.030]
    change = [0.030, 0.031, 0.029, 0.032, 0.046, 0.030, 0.031, 0.030,
              0.029, 0.031]
    (row,) = pairs.summarize(_runs("setup_s", parent),
                             _runs("setup_s", change), {"setup_s": "lower"})
    assert (row["wins"], row["losses"], row["ties"]) == (8, 1, 1)
    assert row["parent"] == tuple(statistics.quantiles(parent, n=4))
    assert row["change"] == tuple(statistics.quantiles(change, n=4))
    assert row["separated"]


def test_higher_is_better_and_overlapping_medians():
    parent = [100.0, 110.0, 90.0, 105.0]
    change = [101.0, 109.0, 95.0, 104.0]
    (row,) = pairs.summarize(_runs("throughput_per_s", parent),
                             _runs("throughput_per_s", change),
                             {"throughput_per_s": "higher"})
    assert (row["wins"], row["losses"], row["ties"]) == (2, 2, 0)
    # The medians differ by less than the parent's quartile spread.
    assert not row["separated"]


def test_one_run_per_side_and_skipped_metrics():
    rows = pairs.summarize([{"a": 2.0}], [{"a": 1.0, "b": 3.0}],
                           {"a": "lower", "b": "lower", "c": "higher"})
    assert [row["metric"] for row in rows] == ["a"]
    assert rows[0]["parent"] == (2.0, 2.0, 2.0)
    assert rows[0]["separated"]  # a zero spread separates any change


def test_rejects_bad_input():
    with pytest.raises(ValueError, match="same number"):
        pairs.summarize([{"a": 1.0}], [], {"a": "lower"})
    with pytest.raises(ValueError, match="direction"):
        pairs.summarize([{"a": 1.0}], [{"a": 1.0}], {"a": "sideways"})
