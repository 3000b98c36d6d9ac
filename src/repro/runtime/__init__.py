"""Runtime: the IR interpreter, batched query sessions, sharded
multi-machine sessions, the replicated async serving layer, multi-tenant
bank placement and host reference semantics."""

from . import values
from .backend import ClusterShutdown, ExecutionBackend, LaneStats
from .cluster import Cluster
from .costmodel import (
    CostBreakdown,
    PlacementCost,
    TenantProfile,
    TrafficHint,
    TrafficTrace,
)
from .executor import ExecutionError, Interpreter
from .placement import (
    PlacementError,
    PlacementPlan,
    TenantAssignment,
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
    "CostBreakdown",
    "ExecutionBackend",
    "ExecutionError",
    "Interpreter",
    "LaneStats",
    "PlacementCost",
    "PlacementError",
    "PlacementPlan",
    "QueryProgram",
    "QuerySession",
    "ReplicatedSession",
    "ServingEngine",
    "SessionError",
    "Shard",
    "ShardedSession",
    "ShardSet",
    "TenantAssignment",
    "TenantDemand",
    "TenantProfile",
    "TenantProgram",
    "TrafficHint",
    "TrafficTrace",
    "aggregate_reports",
    "build_shard_set",
    "plan_shard_count",
    "plan_placement",
    "shard_sizes",
    "tenant_demand",
    "values",
]
