"""C4CAM transformation passes (the compiler's middle end)."""

from .cim_fusion import CimFuseOpsPass
from .cim_to_cam import CimToCamPass, LoweringError
from .optimizations import (
    MappingConfig,
    cam_search_metric,
    resolve_optimization,
    subarrays_required,
)
from .partitioning import (
    CapacityError,
    CimPartitionPass,
    PartitionPlan,
    check_plan_capacity,
    compute_partition_plan,
    machine_row_capacity,
    plan_of,
)
from .similarity_matching import SimilarityMatchingPass, match_similarity
from .torch_to_cim import TorchToCimPass

__all__ = [
    "CapacityError",
    "CimFuseOpsPass",
    "CimPartitionPass",
    "CimToCamPass",
    "LoweringError",
    "MappingConfig",
    "PartitionPlan",
    "SimilarityMatchingPass",
    "TorchToCimPass",
    "cam_search_metric",
    "check_plan_capacity",
    "compute_partition_plan",
    "machine_row_capacity",
    "match_similarity",
    "plan_of",
    "resolve_optimization",
    "subarrays_required",
]
