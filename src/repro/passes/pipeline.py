"""Textual pass-pipeline specifications (à la ``mlir-opt``).

``build_pipeline_from_spec("torch-to-cim,cim-fuse-ops,...", arch)`` turns a
comma-separated pass list into a :class:`PassManager`.  Pass names match
each pass's ``NAME``; passes that need the architecture receive it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.arch.spec import ArchSpec

from .pass_manager import PassManager


class PipelineError(ValueError):
    """Unknown pass name or missing architecture."""


def _registry() -> Dict[str, Callable]:
    # Imported lazily to avoid import cycles (transforms import passes).
    from repro.transforms.canonicalize import CanonicalizePass, CSEPass
    from repro.transforms.cim_fusion import CimFuseOpsPass
    from repro.transforms.cim_to_cam import CimToCamPass
    from repro.transforms.cim_to_loops import CimToLoopsPass
    from repro.transforms.optimizations import resolve_optimization
    from repro.transforms.partitioning import CimPartitionPass
    from repro.transforms.similarity_matching import SimilarityMatchingPass
    from repro.transforms.torch_to_cim import TorchToCimPass

    def needs_arch(factory):
        factory.needs_arch = True
        return factory

    return {
        "torch-to-cim": lambda arch: TorchToCimPass(),
        "cim-fuse-ops": lambda arch: CimFuseOpsPass(),
        "cim-similarity-match": lambda arch: SimilarityMatchingPass(),
        "canonicalize": lambda arch: CanonicalizePass(),
        "cse": lambda arch: CSEPass(),
        "cim-to-loops": lambda arch: CimToLoopsPass(),
        "cim-partition": needs_arch(
            lambda arch: CimPartitionPass(
                arch, resolve_optimization(arch).use_density
            )
        ),
        "cim-to-cam": needs_arch(lambda arch: CimToCamPass(arch)),
    }


def available_passes() -> list:
    """Names accepted by :func:`build_pipeline_from_spec`."""
    return sorted(_registry())


def build_pipeline_from_spec(
    spec: str, arch: Optional[ArchSpec] = None, verify_each: bool = True
) -> PassManager:
    """Parse ``"pass1,pass2,..."`` into a ready-to-run PassManager."""
    registry = _registry()
    pm = PassManager(verify_each=verify_each)
    for raw in spec.split(","):
        name = raw.strip()
        if not name:
            continue
        factory = registry.get(name)
        if factory is None:
            raise PipelineError(
                f"unknown pass {name!r}; available: {available_passes()}"
            )
        if getattr(factory, "needs_arch", False) and arch is None:
            raise PipelineError(f"pass {name!r} requires an ArchSpec")
        pm.add(factory(arch))
    return pm
