"""Runtime: the IR interpreter, batched query sessions, sharded
multi-machine sessions, the replicated async serving layer, multi-tenant
bank placement and host reference semantics.

Every execution path keeps one contract, **bitwise identity**: with
noise disabled, a batch returns the same bits for the same queries no
matter which path serves it — batched vs. sequential, sharded vs. one
oversized machine, replicated vs. direct, served through the engine vs.
``run_batch``, colocated vs. private, before vs. after a cluster
re-placement, and fused vs. the per-stage session walk.  Every session
serves through a traced :class:`~repro.runtime.fused.FusedPlan` by
default (``fused=True``), and the identity extends to accounting: a
fused batch charges the identical energy/latency the unfused walk would.
The differential suites under ``tests/`` assert all of it.
"""

from . import values
from .backend import ClusterShutdown
from .cluster import Cluster
from .executor import ExecutionError, Interpreter
from .placement import (
    PlacementError,
    TenantDemand,
    TenantProgram,
    plan_placement,
    tenant_demand,
)
from .serving import ReplicatedSession, ServingEngine
from .session import QueryProgram, QuerySession, SessionError
from .sharding import (
    Shard,
    ShardedSession,
    ShardSet,
    aggregate_reports,
    build_shard_set,
    plan_shard_count,
    shard_sizes,
)

__all__ = [
    "Cluster",
    "ClusterShutdown",
    "ExecutionError",
    "Interpreter",
    "PlacementError",
    "QueryProgram",
    "QuerySession",
    "ReplicatedSession",
    "ServingEngine",
    "SessionError",
    "Shard",
    "ShardedSession",
    "ShardSet",
    "TenantDemand",
    "TenantProgram",
    "aggregate_reports",
    "build_shard_set",
    "plan_shard_count",
    "plan_placement",
    "shard_sizes",
    "tenant_demand",
    "values",
]
