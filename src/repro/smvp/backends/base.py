"""The execution-backend interface."""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np
import scipy.sparse as sp

from repro.smvp.kernels import Kernel
from repro.telemetry.registry import count


class UnsupportedCombinationError(ValueError):
    """A backend / kernel / feature combination the superstep pipeline
    refuses when the executor is built.

    Raised instead of silently running a different path than the one
    requested (see the combination table in DESIGN.md §8).  Subclasses
    ``ValueError``, so the CLI entry points report it as a usage error.
    """


def run_per_pe(
    fn: Callable[[int, np.ndarray], np.ndarray],
    xs: Sequence[np.ndarray],
    recorder=None,
    kind: str = "compute",
    mapper=map,
) -> List[np.ndarray]:
    """``[fn(pe, x) for pe, x in enumerate(xs)]`` through ``mapper`` (a
    pool's ``map``, to run the calls concurrently); with a span
    ``recorder``, each call is also timed — where it runs — as one
    ``kind`` span."""
    if recorder is not None:

        def fn(pe, x, _fn=fn):
            return recorder.timed(kind, pe, _fn, pe, x)

    return list(mapper(fn, range(len(xs)), xs))


class ExecutionBackend:
    """Runs the compute phase: per-PE local products, one strategy.

    Lifecycle: ``setup`` once with the kernel and the per-PE local
    matrices (this is where ``Kernel.prepare`` runs — exactly once per
    PE, outside any timed region), then ``compute`` per superstep,
    then ``close``.  The pipeline calls two entry points:

    ``compute(x_locals, recorder=None)``
        One compute phase: the per-PE products in PE order.  With a
        span recorder, each PE's product is recorded as a ``compute``
        span (read where the product runs, so pooled spans genuinely
        overlap).
    ``compute_one(pe, x)``
        One PE's product again (ABFT inline recovery); bit-identical
        to the ``pe``-th entry of ``compute``.

    Both take per-PE vectors ``(n_i,)`` or blocks ``(n_i, r)``; column
    j of a block product is bit-identical to the vector product of
    column j.  Backends change *where* the products run, never their
    values.  This base class runs them one after another in the
    calling thread.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.kernel: Kernel = None  # type: ignore[assignment]
        self.states: list = []

    def setup(self, kernel: Kernel, matrices: Sequence[sp.spmatrix]) -> None:
        """Prepare per-PE kernel states (format conversion happens here)."""
        self.kernel = kernel
        self.states = [kernel.prepare(m) for m in matrices]

    def compute_one(self, pe: int, x: np.ndarray) -> np.ndarray:
        """One PE's local product, vector or block."""
        if x.ndim == 2:
            return self.kernel.apply_block(self.states[pe], x)
        return self.kernel.apply(self.states[pe], x)

    def compute(
        self, x_locals: Sequence[np.ndarray], recorder=None
    ) -> List[np.ndarray]:
        """One compute phase: the per-PE products, in PE order."""
        count("repro_backend_compute_phases_total", backend=self.name)
        return run_per_pe(self.compute_one, x_locals, recorder)

    def close(self) -> None:
        """Release any pools; the backend may not be used afterwards."""
