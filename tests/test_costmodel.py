"""Cost-model calibration: predictions pinned to measured sim reports.

Covers :mod:`repro.runtime.costmodel` — the
:class:`~repro.runtime.costmodel.PlacementCost` composition rules must
reproduce the simulator's own accounting within tolerance: solo batch
latency composes linearly per query, co-resident tenants pay the
:func:`~repro.simulator.metrics.combine_serial_reports` serialization
penalty, sharded tenants pay the host merge hop — across tcam and acam
presets.  Plus the scoring surface the cost packer ranks on: hot
co-residents cost more than spread ones, deadline misses are penalized,
hints validate, and a traffic trace unrolls into a deterministic
arrival timeline.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.arch import paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime.costmodel import (
    PlacementCost,
    TenantProfile,
    TrafficHint,
    TrafficTrace,
)

#: Relative tolerance for calibration asserts.  The sim is
#: deterministic and the model mirrors its combiners exactly, so the
#: only slack needed is floating-point accumulation order.
TOL = 1e-9

PRESETS = {
    "tcam": replace(paper_spec(32, 32, cam_type="tcam"), banks=2),
    "acam": replace(paper_spec(32, 32, cam_type="acam"), banks=2),
}


def compile_dot(dot_kernel, stored, spec, k=1, **kw):
    return C4CAMCompiler(spec).compile(
        dot_kernel(stored, k=k), [placeholder((1, stored.shape[1]))], **kw
    )


def bipolar(rng, rows, dims=64):
    return rng.choice([-1.0, 1.0], (rows, dims)).astype(np.float32)


# --------------------------------------------------------------------------
# Hints, traces and profiles
# --------------------------------------------------------------------------
class TestTrafficHint:
    def test_validates(self):
        for rate in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="rate"):
                TrafficHint("t", rate_qps=rate)
        with pytest.raises(ValueError, match="batch"):
            TrafficHint("t", batch_rows=0)
        for deadline in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="deadline"):
                TrafficHint("t", deadline_s=deadline)

    def test_defaults_neutral(self):
        hint = TrafficHint("t")
        assert hint.rate_qps == 1.0
        assert hint.batch_rows == 1
        assert hint.priority == 0
        assert hint.deadline_s is None


class TestTrafficTrace:
    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrafficTrace(hints=(TrafficHint("a"), TrafficHint("a")))
        with pytest.raises(ValueError, match="at least one"):
            TrafficTrace(hints=())

    def test_arrivals_deterministic_and_sorted(self):
        trace = TrafficTrace(hints=(
            TrafficHint("a", rate_qps=70.0),
            TrafficHint("b", rate_qps=30.0),
        ))
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


class TestTenantProfile:
    def test_from_report(self, dot_kernel, rng):
        kernel = compile_dot(dot_kernel, bipolar(rng, 8), PRESETS["tcam"])
        kernel.run_batch(bipolar(rng, 4))
        report = kernel.last_report
        profile = TenantProfile.from_report("t", report)
        assert profile.tenant_id == "t"
        assert profile.per_query_latency_ns == pytest.approx(
            report.per_query_latency_ns, rel=TOL
        )
        assert profile.per_query_energy_pj == pytest.approx(
            report.per_query_energy_pj, rel=TOL
        )
        assert profile.setup_latency_ns == report.setup_latency_ns
        assert profile.banks == report.banks_used
        assert profile.queries_observed == report.queries

    def test_hints_must_be_profiled(self):
        profile = TenantProfile(tenant_id="a", per_query_latency_ns=10.0)
        with pytest.raises(ValueError, match="unprofiled"):
            PlacementCost([profile], hints=[TrafficHint("b")])


# --------------------------------------------------------------------------
# Calibration: solo, co-resident, sharded — tcam and acam
# --------------------------------------------------------------------------
@pytest.mark.parametrize("preset", sorted(PRESETS))
class TestCalibration:
    def test_solo_latency_and_energy(self, dot_kernel, rng, preset):
        """A profile from one measured batch predicts another batch
        size exactly (sim latency is linear in queries)."""
        spec = PRESETS[preset]
        kernel = compile_dot(dot_kernel, bipolar(rng, 8), spec, k=2)
        kernel.run_batch(bipolar(rng, 3))
        model = PlacementCost(
            [TenantProfile.from_report("t", kernel.last_report)]
        )
        kernel.reset(reprogram=True)
        queries = bipolar(rng, 7)
        kernel.run_batch(queries)
        measured = kernel.last_report
        assert model.predict_query_latency_ns("t", 7) == pytest.approx(
            measured.query_latency_ns, rel=TOL
        )
        assert model.predict_energy_pj("t", 7) == pytest.approx(
            measured.energy.query_total, rel=TOL
        )
        assert model.calibration_error("t", measured) < 1e-6

    def test_co_resident_serialization(self, dot_kernel, rng, preset):
        """Two tenants on one machine: the machine's busy time is the
        *sum* of their batch latencies (combine_serial_reports)."""
        spec = PRESETS[preset]
        kernels = {
            tid: compile_dot(dot_kernel, bipolar(rng, rows), spec)
            for tid, rows in (("a", 8), ("b", 12))
        }
        batches = {"a": bipolar(rng, 3), "b": bipolar(rng, 5)}
        profiles = {}
        for tid, kernel in kernels.items():
            kernel.run_batch(batches[tid])
            profiles[tid] = TenantProfile.from_report(
                tid, kernel.last_report
            )
        model = PlacementCost(profiles)
        from repro.simulator.metrics import combine_serial_reports

        machine = combine_serial_reports(
            [kernels["a"].last_report, kernels["b"].last_report]
        )
        assert model.predict_serial_latency_ns(
            {"a": 3, "b": 5}
        ) == pytest.approx(machine.query_latency_ns, rel=TOL)

    def test_sharded_merge_hop(self, dot_kernel, rng, preset):
        """A sharded batch: max over shards plus the host top-k hop —
        exactly the ShardedSession aggregation."""
        spec = PRESETS[preset]
        kernel = compile_dot(
            dot_kernel, bipolar(rng, 24), spec, k=2, num_shards=2
        )
        assert kernel.num_shards == 2
        queries = bipolar(rng, 4)
        kernel.run_batch(queries)
        measured = kernel.last_report
        session = kernel.session()
        shard_latencies = [
            shard_session.last_report.query_latency_ns
            for shard_session in session.sessions
        ]
        model = PlacementCost(
            [TenantProfile.from_report("t", measured)],
            tech=kernel.tech,
        )
        # The host hop re-ranks the *concatenated* shard candidates:
        # each shard contributes min(k, shard_rows) columns.
        candidates = 2 * len(session.sessions)
        predicted = model.predict_sharded_latency_ns(
            shard_latencies, queries=4, candidates=candidates
        )
        assert predicted == pytest.approx(
            measured.query_latency_ns, rel=TOL
        )


# --------------------------------------------------------------------------
# Scoring
# --------------------------------------------------------------------------
def _hot_cold_model():
    profiles = [
        TenantProfile(tenant_id="hot1", per_query_latency_ns=100.0),
        TenantProfile(tenant_id="hot2", per_query_latency_ns=100.0),
        TenantProfile(tenant_id="cold1", per_query_latency_ns=100.0),
        TenantProfile(tenant_id="cold2", per_query_latency_ns=100.0),
    ]
    hints = [
        TrafficHint("hot1", rate_qps=40_000.0, batch_rows=4),
        TrafficHint("hot2", rate_qps=40_000.0, batch_rows=4),
        TrafficHint("cold1", rate_qps=10.0),
        TrafficHint("cold2", rate_qps=10.0),
    ]
    return PlacementCost(profiles, hints=hints)


class TestScoring:
    def test_spreading_hot_tenants_is_cheaper(self):
        model = _hot_cold_model()
        co_packed = model.score_groups(
            [["hot1", "hot2"], ["cold1", "cold2"]]
        )
        spread = model.score_groups(
            [["hot1", "cold1"], ["hot2", "cold2"]]
        )
        assert spread.total < co_packed.total
        # The hot tenants' interference is what the co-pack pays for.
        assert (
            co_packed.interference_ns["hot1"]
            > spread.interference_ns["hot1"]
        )

    def test_interference_zero_when_alone(self):
        model = _hot_cold_model()
        solo = model.score_groups(
            [["hot1"], ["hot2"], ["cold1"], ["cold2"]]
        )
        for tid in ("hot1", "hot2", "cold1", "cold2"):
            assert solo.interference_ns[tid] == pytest.approx(0.0)

    def test_slo_violation_penalized_and_reported(self):
        profiles = [
            TenantProfile(tenant_id="a", per_query_latency_ns=1000.0)
        ]
        strict = PlacementCost(
            profiles,
            hints=[TrafficHint("a", rate_qps=100.0, deadline_s=1e-7)],
        )
        loose = PlacementCost(
            profiles,
            hints=[TrafficHint("a", rate_qps=100.0, deadline_s=1.0)],
        )
        missed = strict.score_groups([["a"]])
        met = loose.score_groups([["a"]])
        assert missed.slo_violations == ("a",)
        assert met.slo_violations == ()
        assert missed.total > met.total * 100

    def test_has_traffic(self):
        profiles = [
            TenantProfile(tenant_id="a", per_query_latency_ns=10.0)
        ]
        silent = PlacementCost(
            profiles, hints=[TrafficHint("a", rate_qps=0.0)]
        )
        assert not silent.has_traffic
        loud = PlacementCost(
            profiles, hints=[TrafficHint("a", rate_qps=5.0)]
        )
        assert loud.has_traffic

    def test_amortized_setup_decays_with_rate(self):
        profiles = [
            TenantProfile(
                tenant_id="a",
                per_query_latency_ns=10.0,
                setup_latency_ns=1e6,
            )
        ]
        rare = PlacementCost(
            profiles, hints=[TrafficHint("a", rate_qps=1.0)]
        )
        busy = PlacementCost(
            profiles, hints=[TrafficHint("a", rate_qps=1000.0)]
        )
        assert busy.amortized_setup_ns("a") < rare.amortized_setup_ns("a")

    def test_score_matches_score_groups_on_plan(self, dot_kernel, rng):
        from repro.runtime.placement import plan_placement, tenant_demand

        spec = PRESETS["tcam"]
        kernels = {
            tid: compile_dot(dot_kernel, bipolar(rng, rows), spec)
            for tid, rows in (("a", 8), ("b", 12))
        }
        profiles = {}
        for tid, kernel in kernels.items():
            kernel.run_batch(bipolar(rng, 2))
            profiles[tid] = TenantProfile.from_report(
                tid, kernel.last_report
            )
        model = PlacementCost(
            profiles, hints=[TrafficHint("a", 10.0), TrafficHint("b", 5.0)]
        )
        demands = [
            tenant_demand(tid, kernels[tid].query_programs[0].plan, spec)
            for tid in sorted(kernels)
        ]
        plan = plan_placement(demands, spec)
        by_plan = model.score(plan)
        by_groups = model.score_groups([
            [a.tenant_id for a in plan.machine_tenants(m)]
            for m in range(plan.num_machines)
        ])
        assert by_plan.total == pytest.approx(by_groups.total, rel=TOL)

    def test_describe_readable(self):
        model = _hot_cold_model()
        text = model.score_groups([["hot1", "cold1"]]).describe()
        assert "hot1" in text


#: Prints one digest of ``response_ns`` and ``score_groups`` outputs,
#: bit for bit (``float.hex``), over random 8-tenant two-machine fleets.
_COST_DIGEST = """
import hashlib
import numpy as np
from repro.runtime.costmodel import PlacementCost, TenantProfile, TrafficHint

rng = np.random.default_rng(5)
digest = hashlib.sha256()
tids = [f"tenant{i}" for i in range(8)]
for _fleet in range(100):
    model = PlacementCost(
        [TenantProfile(tid, float(rng.uniform(1.0, 500.0))) for tid in tids],
        hints=[TrafficHint(tid, rate_qps=float(rng.uniform(1.0, 5e4)),
                           batch_rows=int(rng.integers(1, 9)))
               for tid in tids],
    )
    groups = [list(g) for g in np.split(rng.permutation(tids), 2)]
    for group in groups:
        for tid in group:
            digest.update(model.response_ns(tid, group).hex().encode())
    score = model.score_groups(groups)
    for value in (score.total, *score.machine_load_ns,
                  *score.latency_ns.values()):
        digest.update(value.hex().encode())
print(digest.hexdigest())
"""


def test_costs_do_not_depend_on_the_hash_seed():
    """Predicted costs are bitwise the same in every process: Python
    seeds string hashing per process, so a sum over a set of tenant ids
    must not follow the set's iteration order."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", _COST_DIGEST], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(out.stdout)
    assert len(digests) == 1, digests
