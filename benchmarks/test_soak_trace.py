"""Zipf-skewed multi-tenant soak: cost-model placement vs. FFD.

Four equal-footprint tenants share a two-machine fleet (two 1-bank
tenants per 2-bank machine).  Traffic is Zipf-skewed — one dominant
tenant, a second warm one, a cold tail — so *where* tenants land
decides tail latency: FFD packs by bank demand alone and (equal
demands, submission order) co-locates the two busiest tenants, driving
their shared machine past saturation; the cost-guided packer
(``policy="cost"``) sees the predicted interference and spreads them at
the **same fleet size**.

The soak replays the same deterministic arrival timeline (sim clock,
measured per-batch service latencies, serialized per machine) against
both layouts.  Floors asserted:

* the hot tenant's p99 request latency under FFD is >= 1.3x its p99
  under cost placement, at equal machine count;
* the fleet's worst-tenant p99 improves by the same floor, so the win
  is interference removal, not a shuffle of who waits.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import dse_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime.costmodel import (
    PlacementCost,
    TenantProfile,
    TrafficHint,
    TrafficTrace,
)
from repro.runtime.placement import plan_placement, tenant_demand

from harness import print_series

# Wall-clock-free (the replay runs on the sim clock), but it compiles
# and probes a small fleet — keep it in the benchmark tier with the
# other multi-machine runs.
pytestmark = [pytest.mark.benchmark, pytest.mark.slow]

SPEC = replace(dse_spec(16), banks=2)   # 1 bank per tenant, 2 per machine
TENANTS = ("t0", "t1", "t2", "t3")
#: Zipf(~2) rate weights, hottest first: the classic skewed mix.
WEIGHTS = (1.0, 0.25, 0.1, 0.0625)
#: The hot tenant's target utilization of one machine.  Spread, every
#: machine stays below 1.0; co-packed, t0+t1 exceed it and queue.
HOT_UTILIZATION = 0.9
BATCH_ROWS = 4
HOT_REQUESTS = 2000                     # replay horizon, in t0 requests
P99_FLOOR = 1.3


def _dot_model(stored, k=1):
    import repro.frontend.torch_api as torch

    class DotSimilarity(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, input):
            others = self.weight.transpose(-2, -1)
            matmul = torch.matmul(input, others)
            return torch.ops.aten.topk(matmul, k, largest=True)

    return DotSimilarity()


def _p99(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(0.99 * (len(ordered) - 1))))]


def _replay(machine_of, trace, service_s, horizon_s):
    """Deterministic discrete-event replay on the sim clock: each
    machine serves its tenants' requests in arrival order,
    back-to-back; a request's latency is finish minus arrival."""
    busy = {}
    latencies = {tid: [] for tid in machine_of}
    for arrival, tid in trace.arrivals(horizon_s):
        machine = machine_of[tid]
        start = max(arrival, busy.get(machine, 0.0))
        finish = start + service_s[tid]
        busy[machine] = finish
        latencies[tid].append(finish - arrival)
    return latencies


@pytest.fixture(scope="module")
def fleet():
    """Compiled tenants, measured per-batch service, calibrated model
    and the Zipf trace scaled to the measured service rate."""
    rng = np.random.default_rng(20240808)
    stores = {
        tid: rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)
        for tid in TENANTS
    }
    kernels, profiles, service_s = {}, {}, {}
    for tid in TENANTS:
        kernel = C4CAMCompiler(SPEC).compile(
            _dot_model(stores[tid]), [placeholder((1, 64))]
        )
        probe = rng.choice([-1.0, 1.0], (BATCH_ROWS, 64))
        kernel.run_batch(probe)
        kernels[tid] = kernel
        profiles[tid] = TenantProfile.from_report(tid, kernel.last_report)
        service_s[tid] = kernel.last_report.query_latency_ns * 1e-9
    # Rates in requests/s scaled so the hot tenant alone loads one
    # machine to HOT_UTILIZATION; qps = requests/s * rows per request.
    hot_rps = HOT_UTILIZATION / service_s["t0"]
    trace = TrafficTrace(hints=tuple(
        TrafficHint(
            tid,
            rate_qps=weight * hot_rps * BATCH_ROWS,
            batch_rows=BATCH_ROWS,
        )
        for tid, weight in zip(TENANTS, WEIGHTS)
    ))
    model = PlacementCost(profiles, hints=trace.as_dict())
    return {
        "kernels": kernels,
        "model": model,
        "trace": trace,
        "service_s": service_s,
    }


def _layouts(fleet):
    demands = [
        tenant_demand(tid, fleet["kernels"][tid].query_programs[0].plan, SPEC)
        for tid in TENANTS
    ]
    plans = {
        "ffd": plan_placement(demands, SPEC, policy="ffd"),
        "cost": plan_placement(
            demands, SPEC, policy="cost", cost_model=fleet["model"]
        ),
    }
    machine_of = {
        policy: {a.tenant_id: a.machine_index for a in plan.assignments}
        for policy, plan in plans.items()
    }
    return plans, machine_of


def test_cost_placement_beats_ffd_hot_p99(fleet):
    plans, machine_of = _layouts(fleet)
    # Equal fleet, different layout: FFD co-packs the hot pair.
    assert plans["ffd"].num_machines == plans["cost"].num_machines == 2
    assert machine_of["ffd"]["t0"] == machine_of["ffd"]["t1"]
    assert machine_of["cost"]["t0"] != machine_of["cost"]["t1"]

    horizon_s = HOT_REQUESTS * BATCH_ROWS / fleet["trace"].hint("t0").rate_qps
    results = {
        policy: _replay(
            machine_of[policy], fleet["trace"], fleet["service_s"], horizon_s
        )
        for policy in ("ffd", "cost")
    }
    p99_us = {
        policy: [1e6 * _p99(latencies[tid]) for tid in TENANTS]
        for policy, latencies in results.items()
    }
    print_series(
        "Soak trace: per-tenant p99 request latency (sim us)",
        list(TENANTS), sorted(p99_us.items()),
    )
    ratio = p99_us["ffd"][0] / p99_us["cost"][0]
    assert ratio >= P99_FLOOR, (
        f"cost placement only improved the hot tenant's p99 by "
        f"{ratio:.2f}x (floor {P99_FLOOR}x)"
    )
    # The win is interference removal, not a shuffle: the fleet's
    # worst-tenant p99 improves by the same floor.
    assert max(p99_us["ffd"]) >= P99_FLOOR * max(p99_us["cost"])
