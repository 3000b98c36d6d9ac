"""TenantPool: named similarity stores co-resident on one CAM fleet.

The runtime-library face of multi-tenant bank placement
(:mod:`repro.runtime.placement`): register named stored-pattern
matrices, open the pool once, and query any tenant — all stores share
one machine fleet instead of each monopolizing its own.  Under the hood
every tenant becomes the paper's Fig. 4a dot-similarity kernel, compiled
through :meth:`repro.compiler.C4CAMCompiler.compile_many` into one
:class:`~repro.runtime.cluster.Cluster`, so results are bitwise
identical to compiling each store alone and accounting is per-tenant
(each store charged for only its banks).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.arch.spec import ArchSpec
from repro.arch.technology import FEFET_45NM, TechnologyModel
from repro.simulator.metrics import ExecutionReport


def _dot_similarity_model(stored: np.ndarray, k: int, largest: bool):
    """The standard traced dot-similarity module over ``stored``."""
    import repro.frontend.torch_api as torch

    class DotSimilarity(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, input):
            others = self.weight.transpose(-2, -1)
            matmul = torch.matmul(input, others)
            return torch.ops.aten.topk(matmul, k, largest=largest)

    return DotSimilarity()


class TenantPool:
    """Several named pattern stores packed onto one shared machine fleet.

    Usage::

        pool = TenantPool(spec)
        pool.add("faces", face_prototypes, k=1)
        pool.add("spam", spam_signatures, k=3)
        cluster = pool.open()             # place + program everything
        values, indices = pool.run("faces", queries)
        print(pool.report("faces").summary())   # that tenant's banks only
        print(pool.report().summary())          # the whole fleet, once
        future = cluster.submit(query, tenant="spam")   # async path

    ``max_machines`` caps the fleet (over-packing raises
    :class:`~repro.runtime.placement.PlacementError` naming the tenant)
    and ``num_replicas`` gives every tenant that many serving lanes.
    :meth:`open` returns the :class:`~repro.runtime.cluster.Cluster`:
    its ``describe()`` maps the placement and its
    ``submit(query, tenant=name)`` is the tenant-aware async path.
    """

    def __init__(
        self,
        spec: ArchSpec,
        tech: TechnologyModel = FEFET_45NM,
        max_machines: Optional[int] = None,
        num_replicas: int = 1,
        noise_sigma: float = 0.0,
        noise_seed: int = 0,
    ):
        self.spec = spec
        self.tech = tech
        self.max_machines = max_machines
        self.num_replicas = num_replicas
        self.noise_sigma = noise_sigma
        self.noise_seed = noise_seed
        self._stores: Dict[str, tuple] = {}
        self._cluster = None

    # ------------------------------------------------------------- tenants
    @property
    def tenant_ids(self) -> List[str]:
        return list(self._stores)

    @property
    def num_tenants(self) -> int:
        return len(self._stores)

    @property
    def is_open(self) -> bool:
        return self._cluster is not None

    def add(
        self,
        tenant_id: str,
        stored: np.ndarray,
        k: int = 1,
        largest: bool = True,
    ) -> "TenantPool":
        """Register one tenant: a ``P×D`` store answering top-``k``
        dot-similarity queries.  Returns ``self`` for chaining."""
        if self._cluster is not None:
            raise RuntimeError(
                "the pool is already open; reset() before adding tenants"
            )
        if tenant_id in self._stores:
            raise ValueError(f"duplicate tenant id {tenant_id!r}")
        stored = np.atleast_2d(np.asarray(stored, dtype=np.float32))
        if not 1 <= k <= stored.shape[0]:
            raise ValueError(
                f"tenant {tenant_id!r}: k={k} out of range for "
                f"{stored.shape[0]} stored rows"
            )
        self._stores[tenant_id] = (stored, int(k), bool(largest))
        return self

    # ------------------------------------------------------------ lifecycle
    def open(self, **cluster_kwargs):
        """Compile, place and program every tenant; idempotent.

        Returns the underlying :class:`~repro.runtime.cluster.Cluster`.
        Keyword arguments (``max_batch``, ``max_wait``, ``time_scale``,
        …) configure it on the opening call; reconfiguring an open pool
        raises — :meth:`reset` first.
        """
        if self._cluster is not None:
            if cluster_kwargs:
                raise RuntimeError(
                    "the pool is already open; reset() before "
                    "reconfiguring it"
                )
            return self._cluster
        if not self._stores:
            raise RuntimeError("the pool has no tenants; add() some")
        from repro.compiler import C4CAMCompiler
        from repro.frontend import placeholder

        compiler = C4CAMCompiler(self.spec, self.tech)
        self._cluster = compiler.compile_many(
            [
                _dot_similarity_model(stored, k, largest)
                for stored, k, largest in self._stores.values()
            ],
            [
                [placeholder((1, stored.shape[1]))]
                for stored, _k, _largest in self._stores.values()
            ],
            tenant_ids=list(self._stores),
            max_machines=self.max_machines,
            num_replicas=self.num_replicas,
            noise_sigma=self.noise_sigma,
            noise_seed=self.noise_seed,
            **cluster_kwargs,
        )
        return self._cluster

    def reset(self) -> None:
        """Close the pool: shut its cluster down (pending requests fail
        with :class:`~repro.runtime.backend.ClusterShutdown`); the next
        :meth:`open` re-places and re-programs (tenants may be added
        again before that)."""
        cluster, self._cluster = self._cluster, None
        if cluster is not None:
            cluster.shutdown(abort=True)

    # ------------------------------------------------------------- queries
    def run(self, tenant_id: str, queries: np.ndarray) -> List[np.ndarray]:
        """Answer a ``B×D`` batch for ``tenant_id``; returns
        ``[values, indices]`` — bitwise identical to the store compiled
        alone on a private machine."""
        return self.open().run_batch(queries, tenant=tenant_id)

    def report(self, tenant_id: Optional[str] = None) -> ExecutionReport:
        """One tenant's accumulated lane, or the whole fleet's report."""
        cluster = self.open()
        if tenant_id is not None:
            return cluster.tenant_report(tenant_id)
        return cluster.report()
