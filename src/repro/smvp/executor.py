"""The distributed SMVP executor.

This is a faithful in-process execution of the paper's parallel SMVP
(Section 2.3): each PE holds a local stiffness matrix assembled from
its own elements over its own (replicated-shared) node set, computes a
local product, and then exchanges-and-sums partial y values with every
PE it shares nodes with.  The result is directly comparable to the
global product — tests assert the distributed product equals the
global sparse product to floating-point tolerance.

Every ``multiply`` runs one superstep pipeline — scatter, compute,
exchange, gather — built from four swappable layers:

* **kernel** (:mod:`repro.smvp.kernels`) — the local storage format;
  prepared once at setup, applied per product.
* **backend** (:mod:`repro.smvp.backends`) — where the per-PE products
  run: ``serial`` (historical semantics, bit-identical), ``threaded``
  (thread pool; scipy matvec releases the GIL), or ``overlap``, which
  splits the compute phase around the exchange (boundary rows, wire
  thread, interior rows — the paper's footnote 1) without changing a
  bit of the result.
* **exchange** (:mod:`repro.smvp.exchange`) — the pairwise
  exchange-and-sum; the fault protocol from :mod:`repro.faults` is
  middleware on the transport, not a forked loop.
* **trace** (:mod:`repro.smvp.trace`) — attach a ``trace_sink`` and
  every ``multiply`` emits exactly one
  :class:`~repro.smvp.trace.SuperstepTrace`, timed by one
  :class:`~repro.profile.spans.SpanRecorder` (which also records the
  per-PE spans when ``profile=True``).  Without a sink the superstep
  reads no clock.

ABFT with SDC injection (:class:`~repro.smvp.abft.AbftObserver`) and
the race sanitizer (:class:`~repro.analysis.sanitizer.
SuperstepSanitizer`) are *phase observers*: the pipeline notifies each
after scatter, compute, exchange and gather (their work is timed as
``verify`` windows), so they compose with each other, with profiling
and with transport faults instead of forking the superstep.  A
combination the pipeline cannot run faithfully is refused when the
executor is built (:class:`~repro.smvp.backends.
UnsupportedCombinationError`): the observers need whole per-PE products
before the exchange, which the overlap backend never materializes.

The executor doubles as the ground truth for the performance model:
its per-PE flop counts and the communication schedule's word/block
counts are exactly the F, C_i, and B_i the model consumes.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.analysis.contracts import (
    check_csr_contract,
    check_schedule_contract,
)
from repro.analysis.ownership import owns, reads_ghosts
from repro.analysis.sanitizer import SuperstepSanitizer, sanitizer_enabled
from repro.faults.detection import FaultStats
from repro.faults.injector import FaultInjector
from repro.fem.assembly import assemble_subdomain_stiffness
from repro.fem.material import ElementMaterials
from repro.mesh.core import TetMesh
from repro.partition.base import Partition
from repro.profile.spans import ProfiledTransport, SpanRecorder
from repro.smvp.abft import AbftObserver
from repro.smvp.backends import make_backend
from repro.smvp.backends.base import UnsupportedCombinationError, run_per_pe
from repro.smvp.distribution import DataDistribution
from repro.smvp.exchange import (
    BlockSend,
    ExchangeRecord,
    apply_sends,
    build_sends,
    deliver,
    make_transport,
    record_exchange_metrics,
    run_exchange,
)
from repro.smvp.kernels import get_kernel
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import SuperstepTrace, TraceSink
from repro.telemetry.registry import count, get_registry
from repro.util.clock import now

__all__ = [
    "DistributedSMVP",
    "ExchangeRecord",
    "Superstep",
    "UnsupportedCombinationError",
    "check_combination",
]


def check_combination(
    overlap: bool, abft: bool, sdc: bool, sanitizer: bool
) -> None:
    """The pipeline's refusal policy (DESIGN.md §8).

    ABFT, SDC injection and the race sanitizer each check or corrupt
    whole per-PE products between compute and exchange; the overlap
    backend's split compute never materializes them, so the
    combination raises :class:`UnsupportedCombinationError` instead of
    silently running some other path.  Everything else is supported.
    """
    wanted = {
        "ABFT": abft, "SDC injection": sdc, "the race sanitizer": sanitizer
    }
    refused = [name for name, on in wanted.items() if on]
    if overlap and refused:
        raise UnsupportedCombinationError(
            f"the overlap backend cannot run {' or '.join(refused)}: "
            "it needs whole per-PE products before the exchange, which "
            "the split boundary/interior compute never materializes; use "
            "backend 'serial' or 'threaded'"
        )


class Superstep:
    """One in-flight superstep, as the phase observers see it.

    Observers read ``step`` / ``x_global`` / ``delivered`` and may heal
    entries of ``x_locals`` / ``y_locals`` or rebind the lists (e.g. to
    tracked views); the pipeline reads them back after every hook.
    ``sdc`` is the superstep's SDC tally (``None`` without ABFT).
    """

    def __init__(self, smvp, step, x_global, recorder) -> None:
        self.smvp = smvp
        self.step = step
        self.x_global = x_global
        self.x_locals: List[np.ndarray] = []
        self.y_locals: List[np.ndarray] = []
        self.delivered: List[Tuple[BlockSend, np.ndarray]] = []
        self.sdc: Optional[FaultStats] = None
        self.recorder = recorder

    @owns("x_locals", pe="pe")
    def rescatter(self, pe: int) -> None:
        """Re-scatter PE ``pe``'s local input in place from the global
        vector (ABFT input healing)."""
        x_locals = self.x_locals
        np.take(
            self.x_global,
            self.smvp._dof_rows[pe],
            axis=0,
            out=x_locals[pe],
            mode="clip",
        )

    def recompute(self, pe: int, x: np.ndarray) -> np.ndarray:
        """PE ``pe``'s product again (ABFT recovery); recorded as a
        ``recovery`` span when profiling, so healing time lands in its
        own blame bucket instead of the surrounding verify window."""
        one = self.smvp.backend.compute_one
        if self.recorder is None:
            return one(pe, x)
        return self.recorder.timed("recovery", pe, one, pe, x)


#: Stand-in for the span recorder of an untraced superstep: no clock.
_UNTIMED = SimpleNamespace(start=lambda: None, lap=lambda kind: None)


class DistributedSMVP:
    """A p-PE distributed ``y = K x`` over a partitioned mesh.

    Parameters
    ----------
    mesh, partition, materials:
        The global problem.
    kernel:
        Local kernel name from the registry in
        :mod:`repro.smvp.kernels` (``get_kernel``).
    injector:
        Optional :class:`~repro.faults.FaultInjector`.  When enabled,
        the exchange phase runs through the checksummed, retransmitting
        :class:`~repro.smvp.exchange.FaultMiddleware`: injected
        drops/corruptions are detected (timeout / CRC mismatch) and
        recovered by resending from the sender's partial, duplicates
        are delivered once, and the per-exchange ``FaultStats`` are
        attached to the :class:`ExchangeRecord`.  With no injector (or
        a disabled one) the exchange takes the clean transport, bit for
        bit the original fault-free path.  SDC fault modes attach the
        ABFT observer (injection happens whether or not ``abft`` is on).
    backend:
        Execution-backend name (``serial`` / ``threaded`` /
        ``overlap``) or an
        :class:`~repro.smvp.backends.ExecutionBackend` instance.  The
        backend decides where the compute phase's per-PE products run;
        results are bit-identical across backends.
    trace_sink:
        Optional callable receiving exactly one
        :class:`~repro.smvp.trace.SuperstepTrace` per ``multiply``
        (per-phase wall times, per-PE traffic, fault stats), whatever
        observers are attached.  ``None`` (default) keeps the hot path
        clock-free.
    abft:
        Enable algorithm-based fault tolerance (see
        :mod:`repro.smvp.abft`): every ``multiply`` verifies each PE's
        input vector (exact CRC against the scatter snapshot), local
        product (checksum row ``w_i = 1ᵀK_i``), and post-exchange
        partial (incoming-payload sum) in O(n_i) per PE, heals inline
        by recomputation, and raises
        :class:`~repro.faults.SdcFaultError` blaming a specific PE and
        phase when inline recovery is exhausted (a sticky fault).
    pe_ids:
        Physical identity of each PE slot (default ``0..P-1``).  The
        SDC injector keys its draws on *physical* ids, so a sticky
        "bad core" follows the same hardware through post-eviction
        renumbering instead of silently migrating to an innocent
        survivor.
    sanitizer:
        Attach the superstep race sanitizer (default: ``REPRO_SAN=1``).
    profile:
        Record per-PE / per-message spans (see :mod:`repro.profile`)
        on every *traced* multiply and attach them to the emitted
        trace as ``pe_spans``.  Spans are only recorded when a trace
        sink is attached at call time, so ``profile=True`` with no sink
        keeps the hot path clock-free and bit-identical.

    ABFT, SDC injection and the sanitizer on the ``overlap`` backend
    are refused with :class:`UnsupportedCombinationError` (see
    :func:`check_combination`).
    """

    def __init__(
        self,
        mesh: TetMesh,
        partition: Partition,
        materials: ElementMaterials,
        kernel: str = "csr",
        injector: Optional[FaultInjector] = None,
        backend: str = "serial",
        trace_sink: Optional[TraceSink] = None,
        abft: bool = False,
        pe_ids: Optional[Sequence[int]] = None,
        sanitizer: Optional[bool] = None,
        profile: bool = False,
    ) -> None:
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        self.kernel_name = self.kernel.name
        self.injector = injector
        self.trace_sink = trace_sink
        self.profile = bool(profile)
        self.abft_enabled = bool(abft)
        self._superstep = 0  # exchange counter; keys the fault streams
        self._quarantined: frozenset = frozenset()
        self.backend = make_backend(backend)
        self.backend_name = self.backend.name
        self._overlap = bool(getattr(self.backend, "supports_overlap", False))
        sdc = injector is not None and injector.sdc_enabled
        use_sanitizer = (
            sanitizer_enabled() if sanitizer is None else bool(sanitizer)
        )
        check_combination(self._overlap, self.abft_enabled, sdc, use_sanitizer)

        self.mesh = mesh
        self.partition = partition
        self.materials = materials
        self.distribution = DataDistribution(mesh, partition)
        self.schedule = CommSchedule(self.distribution)

        self.local_nodes: List[np.ndarray] = []
        self.local_matrices: List[sp.spmatrix] = []
        for part in range(partition.num_parts):
            nodes = self.distribution.local_nodes(part)
            self.local_nodes.append(nodes)
            local_k = assemble_subdomain_stiffness(
                mesh,
                materials,
                self.distribution.local_elements(part),
                nodes,
                fmt=self.kernel.preferred_format,
            )
            check_csr_contract(local_k, context=f"PE {part} local stiffness")
            self.local_matrices.append(local_k)
        check_schedule_contract(self.schedule, self.distribution)
        self.backend.setup(self.kernel, self.local_matrices)

        if pe_ids is None:
            self.pe_ids = np.arange(partition.num_parts, dtype=np.int64)
        else:
            self.pe_ids = np.asarray(list(pe_ids), dtype=np.int64)
            if self.pe_ids.shape != (partition.num_parts,):
                raise ValueError(
                    f"pe_ids must have one entry per PE "
                    f"({partition.num_parts}), got {self.pe_ids.shape}"
                )
        # Cumulative across the executor's life and shared (not copied)
        # with the successors reconfigure_without/_with build, so a
        # run's fault history survives evictions and growth.
        self.sdc_stats = FaultStats()
        self.sdc_events: list = []
        self.transport_stats = FaultStats()

        reg = get_registry()
        if reg is not None:
            reg.counter(
                "repro_smvp_setups_total", "executor constructions"
            ).inc(kernel=self.kernel_name, backend=self.backend_name)
            reg.gauge("repro_smvp_num_pes", "PE count").set(
                partition.num_parts
            )
            reg.gauge("repro_smvp_c_max_words", "schedule C_max").set(
                self.schedule.c_max
            )
            reg.gauge("repro_smvp_b_max_blocks", "schedule B_max").set(
                self.schedule.b_max
            )

        # Per-PE flat global dof rows (3 per local node, node order):
        # scatter gathers rows through these with np.take, which beats
        # the reshape-and-fancy-index route ~3x on large blocks while
        # selecting exactly the same rows.
        dof3 = np.arange(3)

        def dofs(nodes: np.ndarray) -> np.ndarray:
            return (3 * nodes[:, None] + dof3).ravel()

        self._dof_rows: List[np.ndarray] = [dofs(n) for n in self.local_nodes]

        # Per unordered pair: (part_a, part_b, shared dof rows on a, on b).
        self._pairs: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
        for (a, b), shared in self.distribution.pair_shared_nodes.items():
            ia = self.distribution.global_to_local(a, shared)
            ib = self.distribution.global_to_local(b, shared)
            self._pairs.append((a, b, dofs(ia), dofs(ib)))

        # Owner of each global node for the gather step: lowest PE.
        csr = self.distribution.node_parts.tocsr()
        if np.any(np.diff(csr.indptr) == 0):
            raise ValueError(
                "mesh has nodes unused by any element; compact it first"
            )
        self._owner = csr.indices[csr.indptr[:-1]].astype(np.int64)

        # Per-PE owned-dof index arrays: gather writes straight through
        # these (no dense scratch allocation, no per-call masking).
        # Ownership partitions the nodes, so the destinations cover
        # every global dof exactly once.
        self._gather_src: List[np.ndarray] = []
        self._gather_dst: List[np.ndarray] = []
        for part in range(partition.num_parts):
            nodes = self.local_nodes[part]
            mine = np.flatnonzero(self._owner[nodes] == part)
            self._gather_src.append(dofs(mine))
            self._gather_dst.append(dofs(nodes[mine]))

        # Persistent scatter buffers (lazily shaped to the rhs width):
        # fresh per-call local arrays pay first-touch page faults that
        # show up as scatter time on the large instances.
        self._xbufs: List[np.ndarray] = []
        self._xtail: Optional[Tuple[int, ...]] = None

        if self._overlap:
            self.backend.set_row_split(
                [dofs(n) for n in self.distribution.boundary_local_nodes],
                [dofs(n) for n in self.distribution.interior_local_nodes],
            )
            self._build_overlap_maps()

        # Phase observers, in notification order: ABFT injects and heals
        # before the sanitizer wraps the per-PE vectors in tracked views.
        # With neither attached the pipeline notifies nobody and stays
        # bit for bit the plain superstep.
        self._sdc = AbftObserver(self, abft) if abft or sdc else None
        self.sanitizer: Optional[SuperstepSanitizer] = None
        if use_sanitizer:
            # Bound to this executor's ownership + schedule maps.
            expected: Dict[Tuple[int, int], np.ndarray] = {}
            for a, b, dof_a, dof_b in self._pairs:
                expected[(a, b)] = dof_b
                expected[(b, a)] = dof_a
            self.sanitizer = SuperstepSanitizer(
                num_parts=self.num_parts,
                local_sizes=[3 * len(n) for n in self.local_nodes],
                owned_dofs=self._gather_src,
                expected_sends=expected,
                ownership_hash=self.distribution.ownership_hash,
            )
        self._observers = tuple(
            o for o in (self._sdc, self.sanitizer) if o is not None
        )

    @property
    def num_parts(self) -> int:
        return self.partition.num_parts

    def close(self) -> None:
        """Release backend resources (thread pools)."""
        self.backend.close()

    def __enter__(self) -> "DistributedSMVP":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def reset_superstep(self, step: int = 0) -> None:
        """Rewind the exchange counter (reproducible fault histories)."""
        self._superstep = step

    # -- resilience hooks --------------------------------------------------

    @property
    def quarantined(self) -> frozenset:
        """PEs whose links are currently circuit-broken."""
        return self._quarantined

    def quarantine(self, pe: int) -> None:
        """Circuit-break one PE's links: its exchange blocks take the
        verified slow path (no fault draws) from the next superstep on.

        Numerically a no-op — the same clean payloads are summed in the
        same order — so quarantine never perturbs the bit-level result.
        """
        if not 0 <= pe < self.num_parts:
            raise ValueError(f"PE {pe} out of range")
        self._quarantined = self._quarantined | {pe}

    def unquarantine(self, pe: int) -> None:
        """Restore a quarantined PE's links to the normal wire."""
        self._quarantined = self._quarantined - {pe}

    def reconfigure_without(self, dead_pe: int):
        """Build the P-1 executor that continues after ``dead_pe`` dies.

        Redistributes the dead PE's elements onto the survivors
        (:func:`~repro.smvp.distribution.redistribute_after_eviction`),
        reassembles local matrices, and rebuilds the schedule, exchange
        pairs, and gather maps for the compacted ``0 .. P-2`` numbering.
        The quarantine set is remapped through the survivor map; the
        rest of the hand-off is :meth:`_successor`'s.

        Returns ``(new_executor, redistribution)``; the caller owns
        closing both executors.
        """
        from repro.smvp.distribution import redistribute_after_eviction

        new_partition, redistribution = redistribute_after_eviction(
            self.mesh, self.partition, dead_pe
        )
        survivor_ids = np.empty(new_partition.num_parts, dtype=np.int64)
        for old_slot, new_slot in redistribution.survivor_map.items():
            survivor_ids[new_slot] = self.pe_ids[old_slot]
        new = self._successor(
            new_partition,
            survivor_ids,
            frozenset(
                redistribution.survivor_map[pe]
                for pe in self._quarantined
                if pe in redistribution.survivor_map
            ),
        )
        count("repro_smvp_reconfigurations_total", dead_pe=dead_pe)
        return new, redistribution

    def reconfigure_with(
        self, physical_id: Optional[int] = None, target_size=None
    ):
        """Build the P+1 executor that continues after adding one PE.

        The mirror of :meth:`reconfigure_without`: a fresh region is
        peeled off the heaviest donors in BFS-affinity waves
        (:func:`~repro.smvp.distribution.redistribute_after_addition`),
        local matrices are reassembled, and the schedule, exchange
        pairs, and gather maps are rebuilt for ``0 .. P`` — existing
        PE ids are stable, so the quarantine set carries over
        unchanged and the new PE joins unquarantined.  The new slot's
        *physical* id defaults to one past the largest live id (fault
        streams key on physical ids, so fresh hardware gets a fresh
        fault history); pass an evicted PE's physical id to re-admit
        that hardware, history and all.  The state vectors need no
        splicing: growth loses no rows, every dof the new layout
        scatters is already present in the global ``(u, u_prev)``.

        Returns ``(new_executor, redistribution)``; the caller owns
        closing both executors.
        """
        from repro.smvp.distribution import redistribute_after_addition

        new_partition, redistribution = redistribute_after_addition(
            self.mesh, self.partition, target_size=target_size
        )
        if physical_id is None:
            physical_id = int(self.pe_ids.max()) + 1
        new = self._successor(
            new_partition,
            np.append(self.pe_ids, np.int64(physical_id)),
            self._quarantined,
        )
        count("repro_smvp_reconfigurations_total", new_pe=redistribution.new_pe)
        return new, redistribution

    def _successor(
        self, partition: Partition, pe_ids: np.ndarray, quarantined: frozenset
    ) -> "DistributedSMVP":
        """The executor that continues this run on ``partition``.

        It keeps this one's kernel, backend kind, injector, trace sink
        and features, inherits the superstep counter (the fault history
        keeps evolving, not restarting), and shares the run-level fault
        tallies and sanitizer report.  Live virtual matrix corruption
        does *not* carry over: the successor reassembles every local
        matrix from the authoritative element data, which scrubs it —
        the scrub is recorded so each fault's lifecycle closes even
        when redistribution, not detection, annihilated it.
        """
        new = DistributedSMVP(
            self.mesh,
            partition,
            self.materials,
            kernel=self.kernel,
            injector=self.injector,
            backend=self.backend_name,
            trace_sink=self.trace_sink,
            abft=self.abft_enabled,
            pe_ids=pe_ids,
            sanitizer=self.sanitizer is not None,
            profile=self.profile,
        )
        new._superstep = self._superstep
        new._quarantined = quarantined
        if self.sanitizer is not None:
            # Freshly bound to the *new* ownership map, appending to the
            # same run-level report.
            new.sanitizer.adopt(self.sanitizer)
        if self._sdc is not None:
            self._sdc.retire()
        new.sdc_stats = self.sdc_stats
        new.sdc_events = self.sdc_events
        new.transport_stats = self.transport_stats
        return new

    def flops_per_pe(self) -> np.ndarray:
        """Actual F_i = 2 * nnz of each PE's local matrix."""
        return np.array([2 * k.nnz for k in self.local_matrices], dtype=np.int64)

    # -- phases -----------------------------------------------------------

    def _as_global(self, x_global: np.ndarray) -> np.ndarray:
        x_global = np.asarray(x_global, dtype=np.float64)
        rows = 3 * self.mesh.num_nodes
        if x_global.ndim == 2:
            if x_global.shape[0] != rows:
                raise ValueError("X must have 3 * num_nodes rows")
        elif x_global.shape != (rows,):
            raise ValueError("x must have length 3 * num_nodes")
        return x_global

    def scatter(
        self,
        x_global: np.ndarray,
        out: Optional[List[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Distribute a global vector (3n,) — or an n x r block of
        right-hand sides (3n, r) — to per-PE local arrays, written into
        the per-PE buffers ``out`` when given."""
        x_global = self._as_global(x_global)
        # mode="clip" skips the per-element bounds check (the row maps
        # are in-bounds by construction) — measurably faster at r=16.
        if out is None:
            return [
                np.take(x_global, rows, axis=0, mode="clip")
                for rows in self._dof_rows
            ]
        for rows, buf in zip(self._dof_rows, out):
            np.take(x_global, rows, axis=0, out=buf, mode="clip")
        return list(out)

    def compute_phase(self, x_locals: List[np.ndarray]) -> List[np.ndarray]:
        """Local SMVPs on every PE (the computation phase)."""
        return self.backend.compute(x_locals)

    def _transport(self, recorder: Optional[SpanRecorder]):
        transport = make_transport(self.injector, self._quarantined)
        if recorder is None:
            return transport
        return ProfiledTransport(transport, recorder)

    def communication_phase(
        self,
        y_locals: List[np.ndarray],
        step: Optional[int] = None,
        collector: Optional[List[Tuple[BlockSend, np.ndarray]]] = None,
        recorder: Optional[SpanRecorder] = None,
    ) -> Tuple[List[np.ndarray], ExchangeRecord]:
        """Pairwise exchange-and-sum of shared partial y values.

        Send buffers are built from the pre-exchange partials (as real
        message passing would), then all contributions are summed —
        nodes shared by three or more PEs receive every other owner's
        partial exactly once.  The fault protocol, when an injector is
        enabled, rides along as transport middleware (see
        :mod:`repro.smvp.exchange`).

        ``step`` keys the fault injector's per-superstep streams; it
        defaults to an internal counter so repeated SMVPs (time
        stepping) see an evolving fault history.  ``collector``
        receives every delivered ``(send, payload)``; ``recorder``
        wraps the transport so every transmitted block leaves a
        ``wire`` span (bit-identical to the bare transmit).
        """
        if step is None:
            step = self._superstep
        self._superstep = step + 1
        y_locals, record = run_exchange(
            y_locals,
            self._pairs,
            self._transport(recorder),
            step,
            self.num_parts,
            collector=collector,
        )
        if record.faults is not None:
            self.transport_stats.accumulate(record.faults)
        return y_locals, record

    def gather(
        self,
        y_locals: List[np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Collect the (now globally summed) y into one global array.

        ``out``, when given, receives the result in place (its previous
        contents are fully overwritten — ownership covers every global
        dof exactly once).  Passing a warm buffer across repeated
        multiplies avoids re-faulting the output pages each call, which
        dominates gather time for wide blocks on large instances.
        """
        return self._gather(
            zip(self._gather_dst, y_locals, self._gather_src),
            y_locals[0].shape[1:],
            out,
        )

    def _gather(self, pieces, tail: Tuple[int, ...], out) -> np.ndarray:
        """Write each ``(dst, buf, src)`` piece as ``out[dst] =
        buf[src]`` (``src=None``: the whole buffer)."""
        shape = (3 * self.mesh.num_nodes,) + tuple(tail)
        if out is None:
            out = np.empty(shape, dtype=np.float64)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape {shape}")
        for dst, buf, src in pieces:
            out[dst] = buf if src is None else buf[src]
        return out

    # -- the superstep pipeline --------------------------------------------

    def multiply(
        self, x_global: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """One superstep: scatter, compute, exchange, gather.

        The phase observers (ABFT, the sanitizer) are notified after
        each phase; on the overlap backend the compute phase is split
        around the exchange (:meth:`_overlapped`).  With a
        ``trace_sink`` attached, emits exactly one
        :class:`~repro.smvp.trace.SuperstepTrace`; without one, the
        path reads no clock at all.

        ``out``, when given, receives the result in place and is
        returned (see :meth:`gather`); reusing a warm buffer across
        time steps keeps the output pages resident.
        """
        count(
            "repro_smvp_supersteps_total",
            kernel=self.kernel_name,
            backend=self.backend_name,
        )
        sink = self.trace_sink
        clock = SpanRecorder(now) if sink is not None else _UNTIMED
        prof = clock if sink is not None and self.profile else None
        x_global = self._as_global(x_global)
        tail = x_global.shape[1:]
        if self._xtail != tail:
            self._xbufs = [np.empty((r.size,) + tail) for r in self._dof_rows]
            self._xtail = tail
        ss = Superstep(self, self._superstep, x_global, prof)
        clock.start()
        try:
            ss.x_locals = self.scatter(x_global, out=self._xbufs)
            clock.lap("scatter")
            self._notify("after_scatter", ss, clock)
            if self._overlap:
                pieces, record = self._overlapped(ss.x_locals, clock, prof)
            else:
                ss.y_locals = self.backend.compute(ss.x_locals, prof)
                clock.lap("compute")
                self._notify("after_compute", ss, clock)
                ss.y_locals, record = self.communication_phase(
                    ss.y_locals, collector=ss.delivered, recorder=prof
                )
                clock.lap("exchange")
                self._notify("after_exchange", ss, clock)
                pieces = zip(self._gather_dst, ss.y_locals, self._gather_src)
            y_global = self._gather(pieces, tail, out)
            clock.lap("gather")
            self._notify("after_gather", ss, clock)
        finally:
            for observer in self._observers:
                observer.close_step(ss)
        if sink is not None:
            faults = record.faults
            if ss.sdc is not None and ss.sdc != FaultStats():
                faults = ss.sdc if faults is None else faults.merge(ss.sdc)
            sink(
                SuperstepTrace(
                    t_comp=clock.host_total("compute", "boundary", "interior"),
                    t_comm=clock.host_total("exchange", "wait", "sum"),
                    t_smvp=clock.elapsed,
                    step=ss.step,
                    kernel=self.kernel_name,
                    backend=self.backend_name,
                    t_scatter=clock.host_total("scatter"),
                    t_gather=clock.host_total("gather"),
                    words_sent=record.words_sent,
                    blocks_sent=record.blocks_sent,
                    faults=faults,
                    t_verify=clock.host_total("verify"),
                    rhs=tail[0] if tail else 1,
                    pe_spans=clock.finish() if prof is not None else None,
                )
            )
        return y_global

    __call__ = multiply

    def _notify(self, hook: str, ss: Superstep, clock) -> None:
        """Run one hook on every observer, timed as a ``verify`` window."""
        if self._observers:
            for observer in self._observers:
                getattr(observer, hook)(ss)
            clock.lap("verify")

    @reads_ghosts("bbufs")  # boundary partials feed the wire pre-exchange
    def _overlapped(self, x_locals: List[np.ndarray], clock, prof):
        """The compute phase split around the exchange (footnote 1).

        Boundary rows — the rows of shared nodes, the only inputs the
        exchange reads — compute first, into the backend's persistent
        boundary buffers; their partial sums enter the wire on a
        background thread while the interior rows compute in the
        foreground (scipy's sparse products release the GIL, so the
        wire genuinely runs during interior flops).  No per-PE
        ``y_locals`` array is ever assembled: the exchange sums
        deliveries straight into the boundary buffers after the join
        (``_ov_pair_pos`` addresses them), and gather reads each owned
        dof from whichever buffer holds it.  Every payload value,
        summation order, and committed bit equals the unsplit
        superstep, per column.  Host windows ``boundary`` /
        ``interior`` form the compute time, ``wait`` / ``sum`` the
        *exposed* communication — which is how the overlap credits
        hidden interior flops.

        Returns the gather pieces and the exchange record.
        """
        backend = self.backend
        step = self._superstep
        self._superstep = step + 1
        bbufs = run_per_pe(
            backend.compute_boundary_one, x_locals, prof, "boundary"
        )
        sends = build_sends(bbufs, self._ov_pair_pos)
        transport = self._transport(prof)
        result: list = []

        def wire() -> None:
            try:
                result.append(deliver(sends, transport, step, self.num_parts))
            except BaseException as exc:  # re-raised after join
                result.append(exc)

        thread = threading.Thread(target=wire, name="repro-overlap-wire")
        thread.start()
        clock.lap("boundary")
        ibufs = run_per_pe(
            backend.compute_interior_one, x_locals, prof, "interior"
        )
        clock.lap("interior")
        thread.join()
        clock.lap("wait")
        if isinstance(result[0], BaseException):
            raise result[0]
        delivered, record = result[0]
        apply_sends(bbufs, delivered)
        record_exchange_metrics(record)
        if record.faults is not None:
            self.transport_stats.accumulate(record.faults)
        clock.lap("sum")
        pieces = []
        for part, (dst_b, src_b, dst_i, src_i) in enumerate(self._ov_gather):
            pieces.append((dst_b, bbufs[part], src_b))
            pieces.append((dst_i, ibufs[part], src_i))
        return pieces, record

    def _build_overlap_maps(self) -> None:
        """Precompute the index maps the overlapped superstep runs on.

        The overlap backend computes boundary and interior rows into
        two dense per-PE buffers; nothing ever assembles a full per-PE
        ``y_locals`` array.  That requires translating every local dof
        index the exchange and gather use into a *position* inside the
        right buffer (the backend's dof splits are sorted):

        - ``_ov_pair_pos``: per shared pair, the positions of the
          shared dofs inside each side's boundary buffer (in the same
          order as ``_pairs``, so payload values and summation order
          are unchanged).
        - ``_ov_gather``: per PE, the owned-dof destinations split by
          which buffer holds the source row.
        """
        bdofs = self.backend.boundary_dofs
        idofs = self.backend.interior_dofs
        self._ov_pair_pos: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
        for a, b, dof_a, dof_b in self._pairs:
            if not (
                np.isin(dof_a, bdofs[a]).all()
                and np.isin(dof_b, bdofs[b]).all()
            ):
                raise AssertionError(
                    "shared dof outside the boundary row split"
                )
            pa = np.searchsorted(bdofs[a], dof_a)
            pb = np.searchsorted(bdofs[b], dof_b)
            self._ov_pair_pos.append((a, b, pa, pb))
        self._ov_gather: list = []
        for part in range(self.num_parts):
            src = self._gather_src[part]
            dst = self._gather_dst[part]
            on_b = np.isin(src, bdofs[part])
            src_i = np.searchsorted(idofs[part], src[~on_b])
            # Interior nodes have residency 1, so every interior row is
            # owned by its PE: the interior source map is the identity
            # and gather can copy the whole buffer without a source
            # gather pass (None marks the shortcut).
            if src_i.size and np.array_equal(src_i, np.arange(src_i.size)):
                src_i = None
            src_b = np.searchsorted(bdofs[part], src[on_b])
            self._ov_gather.append((dst[on_b], src_b, dst[~on_b], src_i))

    def verify_against_global(
        self, global_stiffness: sp.spmatrix, rng_seed: int = 0
    ) -> float:
        """Max relative error of the distributed product vs the global one.

        Used by tests and by ``examples/quickstart.py`` to demonstrate
        correctness end to end.
        """
        rng = np.random.default_rng(rng_seed)
        x = rng.standard_normal(3 * self.mesh.num_nodes)
        y_dist = self.multiply(x)
        y_ref = global_stiffness @ x
        scale = float(np.abs(y_ref).max()) or 1.0
        return float(np.abs(y_dist - y_ref).max() / scale)
