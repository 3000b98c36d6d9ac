"""Traffic-driven autotuner: trace construction, search ranking, and
the plan round-trip guarantee.

The load-bearing contract: :func:`repro.runtime.autotune.autotune`
ranks candidates feasible-first then by predicted cost, and the plan it
emits rebuilds through :meth:`Cluster.from_plan` into a cluster whose
placement and query results are bitwise identical to direct
construction.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime import Cluster
from repro.runtime.autotune import TrafficTrace, autotune
from repro.runtime.costmodel import TrafficHint

SPEC = replace(paper_spec(32, 32), banks=2)
DIMS = 64


def bipolar(rng, rows):
    return rng.choice([-1.0, 1.0], (rows, DIMS)).astype(np.float32)


@pytest.fixture
def tenants(dot_kernel, rng):
    """Three dot-product tenants with distinct stores, autotune-shaped."""
    stores = {
        "t0": bipolar(rng, 8),
        "t1": bipolar(rng, 12),
        "t2": bipolar(rng, 10),
    }
    models = {tid: dot_kernel(stored, k=1) for tid, stored in stores.items()}
    inputs = {tid: [placeholder((1, DIMS))] for tid in stores}
    return models, inputs, stores


# --------------------------------------------------------------------------
# TrafficTrace
# --------------------------------------------------------------------------
class TestTrafficTrace:
    def test_zipf_rates(self):
        trace = TrafficTrace.zipf(["a", "b", "c"], total_qps=700.0, skew=1.0)
        rates = [hint.rate_qps for hint in trace.hints]
        assert sum(rates) == pytest.approx(700.0)
        # Hottest first, harmonic 1 : 1/2 : 1/3 at skew=1.
        assert rates[0] == pytest.approx(2 * rates[1])
        assert rates[0] == pytest.approx(3 * rates[2])
        assert trace.tenant_ids == ["a", "b", "c"]

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrafficTrace(hints=(TrafficHint("a"), TrafficHint("a")))
        with pytest.raises(ValueError, match="at least one"):
            TrafficTrace(hints=())

    def test_arrivals_deterministic_and_sorted(self):
        trace = TrafficTrace.zipf(["a", "b"], total_qps=100.0)
        first = trace.arrivals(0.5)
        second = trace.arrivals(0.5)
        assert first == second
        assert first == sorted(first)
        assert all(0.0 <= t < 0.5 for t, _tid in first)
        # Per-tenant counts track the hinted rates.
        hot = sum(1 for _t, tid in first if tid == "a")
        cold = sum(1 for _t, tid in first if tid == "b")
        assert hot > cold > 0

    def test_arrivals_respects_batch_rows(self):
        trace = TrafficTrace(hints=(
            TrafficHint("a", rate_qps=100.0, batch_rows=10),
        ))
        # 100 q/s in 10-row requests -> 10 requests/s.
        assert len(trace.arrivals(1.0)) == 10


# --------------------------------------------------------------------------
# Search
# --------------------------------------------------------------------------
class TestAutotune:
    def test_ranking_and_winner(self, tenants):
        models, inputs, _stores = tenants
        trace = TrafficTrace.zipf(list(models), total_qps=5000.0)
        result = autotune(
            models, inputs, trace,
            presets={"32x32": SPEC, "64x32": replace(SPEC, rows=64)},
            emit_plan=False,
        )
        # Both policies on both presets scored.
        assert len(result.candidates) == 4
        keys = [c.sort_key for c in result.candidates]
        assert keys == sorted(keys)
        assert result.winner is result.candidates[0]
        assert result.winner.predicted.total <= min(
            c.predicted.total for c in result.candidates if c.feasible
        )
        assert set(result.kernels) == set(models)
        assert set(result.profiles) == set(models)
        # Profiles are calibrated from measured probes, not guesses.
        assert all(
            p.queries_observed > 0 for p in result.profiles.values()
        )

    def test_infeasible_preset_skipped(self, tenants):
        models, inputs, _stores = tenants
        trace = TrafficTrace.zipf(list(models), total_qps=100.0)
        tiny = replace(
            paper_spec(4, 4), banks=1,
            subarrays_per_array=1, arrays_per_mat=1, mats_per_bank=1,
        )
        result = autotune(
            models, inputs, trace,
            presets={"good": SPEC, "tiny": tiny},
            emit_plan=False,
        )
        assert any(name.startswith("tiny") for name, _why in result.skipped)
        assert all(c.preset == "good" for c in result.candidates)

    def test_missing_model_rejected(self, tenants):
        models, inputs, _stores = tenants
        trace = TrafficTrace.zipf(["t0", "ghost"])
        with pytest.raises(ValueError, match="ghost"):
            autotune(models, inputs, trace, presets={"s": SPEC})

    def test_plan_round_trips_bitwise(self, tenants, rng):
        """The emitted plan rebuilds into a cluster that is placement-
        and result-identical to the one the autotuner realized."""
        models, inputs, stores = tenants
        trace = TrafficTrace.zipf(list(models), total_qps=5000.0)
        result = autotune(
            models, inputs, trace, presets={"32x32": SPEC},
            policies=("cost", "ffd"),
        )
        assert result.plan is not None
        queries = {tid: bipolar(rng, 3) for tid in models}

        rebuilt = Cluster.from_plan(result.plan, result.kernels)
        try:
            # Same placement the plan pinned, byte for byte.
            assert rebuilt.plan() == result.plan
            spans = rebuilt.bank_spans()
            for entry in result.plan["placement"]:
                assert spans[entry["tenant_id"]] == (
                    entry["machine_index"],
                    entry["bank_offset"],
                    entry["banks"],
                )
            rebuilt_out = {
                tid: rebuilt.run_batch(queries[tid], tenant=tid)
                for tid in models
            }
        finally:
            rebuilt.shutdown()

        # Direct construction: fresh compiles, same config and layout.
        compiler = C4CAMCompiler(SPEC)
        direct = Cluster(
            SPEC,
            placement_policy=result.plan["cluster"]["placement_policy"],
            traffic_hints=trace.as_dict(),
        )
        try:
            for tid in trace.tenant_ids:
                direct.admit(
                    compiler.compile(models[tid], inputs[tid]),
                    tenant_id=tid,
                    lanes=result.winner.lanes,
                )
            direct.apply_placement(result.plan["placement"])
            assert direct.bank_spans() == spans
            for tid in models:
                value, index = direct.run_batch(queries[tid], tenant=tid)
                np.testing.assert_array_equal(value, rebuilt_out[tid][0])
                np.testing.assert_array_equal(index, rebuilt_out[tid][1])
        finally:
            direct.shutdown()

    def test_compiler_entry_point(self, tenants):
        models, inputs, _stores = tenants
        order = list(models)
        trace = TrafficTrace.zipf(order, total_qps=1000.0)
        result = C4CAMCompiler(SPEC).autotune_cluster(
            [models[tid] for tid in order],
            [inputs[tid] for tid in order],
            trace,
            emit_plan=False,
        )
        assert result.winner.preset == "compiler-spec"
        assert set(result.kernels) == set(order)
