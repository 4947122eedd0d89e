"""The threaded backend: per-PE products on a thread pool.

scipy's sparse matvec releases the GIL for the heavy loop, so on a
multi-core host the per-PE products genuinely overlap — this is the
intra-node (OpenMP) half of the hybrid MPI+OpenMP SMVP decomposition.
Each product is the same code on the same data as the serial backend,
and results are collected by PE index, so the output is bit-identical
to ``serial`` regardless of scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.smvp.backends.base import ExecutionBackend, run_per_pe
from repro.smvp.kernels import Kernel
from repro.telemetry.registry import count


def default_workers(num_parts: int) -> int:
    """Worker count: one per PE, capped by host cores (min 2 so the
    concurrent path is exercised even on one-core hosts)."""
    return max(2, min(num_parts, os.cpu_count() or 1))


class ThreadedBackend(ExecutionBackend):
    """Per-PE products on a :class:`ThreadPoolExecutor`."""

    name = "threaded"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__()
        self._requested_workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def setup(self, kernel: Kernel, matrices: Sequence[sp.spmatrix]) -> None:
        super().setup(kernel, matrices)
        self.workers = self._requested_workers or default_workers(
            len(matrices)
        )

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-smvp",
            )
        return self._pool

    def compute(
        self, x_locals: Sequence[np.ndarray], recorder=None
    ) -> List[np.ndarray]:
        """The per-PE products on the pool, collected in PE order.

        Each product is :meth:`compute_one` — the same kernel code on
        the same prepared state as the serial loop — so the results
        are bit-identical whatever the scheduling.  Span clocks are
        read inside the workers, so recorded spans genuinely overlap
        when the products do (what the profiler's imbalance
        attribution measures).
        """
        count("repro_backend_compute_phases_total", backend=self.name)
        pool = self._ensure_pool()
        return run_per_pe(self.compute_one, x_locals, recorder, mapper=pool.map)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
