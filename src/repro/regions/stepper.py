"""Parallel columnar stepping over disjoint dirty regions.

:class:`RegionStepper` replaces one
:meth:`~repro.columnar.compiler.CompiledSpecKernel.execute_selection`
call with: partition the selection into independent regions
(:func:`~repro.regions.partition.partition_selection`), run each
region's execute + mask repair concurrently on a shared
``ThreadPoolExecutor``, then merge the per-region results on the main
thread in ascending-region-min-node-id order.

Why this is sound (the full argument is DESIGN.md §14): a region's
statement phase reads ≤ 1 hop from its selected nodes, its mask repair
reads ≤ 2 hops, and it writes columns only at its selected nodes —
while any other region's writes are ≥ 3 hops away, so no worker ever
reads another worker's writes and the per-region results equal the
serial kernel's restricted to that region.  Threads suffice because the
numpy kernels release the GIL for the heavy gather/reduce work.

Why it is deterministic: the partition is a pure function of the
selection and topology; workers return pure results (dirty set,
affected nodes, mask values) without touching shared kernel state; and
the main thread merges and records telemetry in region order.  Thread
count is therefore a pure throughput knob — traces and deterministic
telemetry are bit-identical across ``REPRO_REGION_THREADS`` ∈ {1, 2,
4, …} and against the serial columnar path.

Pool lifecycle: one module-level pool per thread count, shared by every
stepper (simulators are created by the thousands in test sweeps;
per-instance pools would leak threads).  ``os.register_at_fork`` clears
the cache in forked children — a forked campaign worker would otherwise
inherit a pool object whose threads do not exist in the child.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping

from repro import telemetry as _telemetry
from repro.regions.partition import partition_selection
from repro.runtime.protocol import Action

__all__ = ["RegionStepper"]

_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _pool(threads: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-region"
            )
            _POOLS[threads] = pool
        return pool


def _clear_pools() -> None:
    # After fork the parent's pool threads do not exist in the child;
    # drop the objects so the child lazily builds fresh pools.
    _POOLS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_clear_pools)


class RegionStepper:
    """Partition–execute–merge driver over one compiled kernel.

    Only built for :class:`~repro.columnar.compiler.CompiledSpecKernel`
    instances whose statements are all compiled IR (specs with host
    hooks and the object bridge keep the serial path — their statements
    are not confined to array slices).
    """

    def __init__(self, kernel, threads: int) -> None:
        self.kernel = kernel
        self.threads = max(1, int(threads))
        if kernel.backend == "numpy":
            # Pre-warm the CSR ndarray cache: its lazy build is the one
            # shared mutation workers would otherwise race on.
            kernel.csr.as_numpy()
        if _telemetry.enabled:
            _telemetry.registry.set(
                "worker.region_pool.threads", self.threads
            )

    # ------------------------------------------------------------------
    def _execute_region(self, items) -> tuple[set[int], list[int], list[int]]:
        """Execute one region; pure apart from this region's own rows.

        Returns ``(dirty, affected, mask_values)``.  Reads stay within
        two hops of the region's selected nodes and writes within the
        region itself, so concurrent invocations on distinct regions
        never observe each other (DESIGN.md §14).
        """
        kernel = self.kernel
        dirty = kernel.write_pending(kernel.pending_updates(items))
        if not dirty:
            return (set(), [], [])
        affected = kernel.affected_of(dirty)
        return (dirty, affected, kernel.mask_values(affected))

    def execute_selection(self, selection: Mapping[int, Action]) -> set[int]:
        """One computation step, region-partitioned (kernel interface)."""
        kernel = self.kernel
        csr = kernel.csr
        part = partition_selection(
            sorted(selection), csr.indptr, csr.indices
        )
        regions = part.regions
        tele = _telemetry.enabled
        if tele:
            reg = _telemetry.registry
            reg.inc("regions.steps")
            reg.observe("regions.per_step", len(regions))
            for region in regions:  # region order: deterministic
                reg.observe("regions.size", region.footprint)
        jobs = [
            [(p, selection[p]) for p in region.nodes] for region in regions
        ]
        if self.threads == 1 or len(jobs) == 1:
            results = [self._execute_region(items) for items in jobs]
            if tele:
                _telemetry.registry.inc(
                    "worker.region_pool.inline", len(jobs)
                )
        else:
            results = list(_pool(self.threads).map(self._execute_region, jobs))
            if tele:
                _telemetry.registry.inc(
                    "worker.region_pool.dispatched", len(jobs)
                )
        # Merge in ascending-region-min-node-id order (the order the
        # partitioner emits).  Footprints are disjoint, so the merge
        # order cannot change the result — fixing it anyway keeps the
        # contract checkable and the telemetry deterministic.
        dirty_all: set[int] = set()
        affected_total = 0
        for dirty, affected, masks in results:
            if not dirty:
                continue
            kernel.apply_masks(affected, masks)
            dirty_all |= dirty
            affected_total += len(affected)
        if tele and dirty_all:
            # Disjoint per-region affected sets sum to exactly the
            # serial path's |dirty ∪ N(dirty)| — the histogram matches
            # the serial engine's bit for bit.
            _telemetry.registry.observe(
                "columnar.mask_eval_nodes", affected_total
            )
        return dirty_all
