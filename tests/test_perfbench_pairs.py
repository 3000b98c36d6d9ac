"""The summary of ``tools/perfbench_pairs.py``: pair wins and spreads."""

import importlib.util
import json
import re
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


#: Keys of the JSON summary ``main`` prints last, which every entry of a
#: ``BENCH_<workload>.json`` record keeps.
SUMMARY_KEYS = {"workload", "seed", "seconds", "pairs", "trace", "metrics",
                "operations", "env"}
METRIC_KEYS = {"better", "parent", "change", "wins", "losses", "ties",
               "separated"}
OPERATION_KEYS = {"failed", "attempted", "wrong_runs"}
ENV_KEYS = {"cpu", "cpus", "python", "numpy", "blas_vendor", "blas_version",
            "blas_threads"}
_ROOT = Path(__file__).resolve().parents[1]


def _check_summary(summary):
    assert SUMMARY_KEYS <= summary.keys()
    assert summary["metrics"]
    for row in summary["metrics"].values():
        assert METRIC_KEYS <= row.keys()
        assert len(row["parent"]) == len(row["change"]) == 3
    assert summary["operations"].keys() == {"parent", "change"}
    for ops in summary["operations"].values():
        assert OPERATION_KEYS <= ops.keys()
    assert ENV_KEYS <= summary["env"].keys()


@pytest.mark.parametrize("n_pairs", [1, 2])
def test_json_summary_is_the_last_line(monkeypatch, capsys, n_pairs):
    runs = iter([0.046, 0.030, 0.031, 0.047])  # parent, change, change, ...
    env = {"cpu": "test cpu", "cpus": 2, "python": "3.x", "numpy": "2.x",
           "blas_vendor": "openblas", "blas_version": "0.3",
           "blas_threads": 1}

    def run_once(checkout, args):
        return {"correct": True, "attempted": 10, "failed": 1,
                "metrics": {"setup_s": {"value": next(runs)}}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "probe_environment", lambda: env)
    assert pairs.main(["--parent", str(_ROOT), "--change", str(_ROOT),
                       "--workload", "knn", "--pairs", str(n_pairs),
                       "--seconds", "3"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    _check_summary(summary)
    assert (summary["workload"], summary["pairs"], summary["seconds"]) == (
        "knn", n_pairs, 3.0)
    assert summary["env"] == env
    assert summary["operations"]["change"] == {
        "failed": n_pairs, "attempted": 10 * n_pairs, "wrong_runs": 0}
    row = summary["metrics"]["setup_s"]
    assert (row["wins"], row["losses"], row["ties"]) == (n_pairs, 0, 0)
    assert row["parent"] == list(pairs.quartiles([0.046, 0.047][:n_pairs]))
    # One pair gives the parent no spread to separate a change from.
    assert row["separated"] is (None if n_pairs == 1 else True)


def test_bench_records_carry_the_summary():
    """Every ``BENCH_<workload>.json`` is a list of entries, each naming
    its parent commit by hash and keeping whole pair summaries of that
    workload.  The commit that adds an entry is its change commit."""
    records = sorted(_ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        workload = path.stem[len("BENCH_"):]
        entries = json.loads(path.read_text())
        assert isinstance(entries, list) and entries, path.name
        for entry in entries:
            assert re.fullmatch(r"[0-9a-f]{40}", entry["parent_commit"])
            assert entry["summaries"], path.name
            for summary in entry["summaries"]:
                _check_summary(summary)
                assert summary["workload"] == workload
                for row in summary["metrics"].values():
                    if summary["pairs"] < 2:
                        assert row["separated"] is None
                    else:
                        assert isinstance(row["separated"], bool)
