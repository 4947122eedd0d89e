"""The pairwise exchange-and-sum, as composable steps.

The paper's communication phase (Section 2.3) is one fixed data flow:
for every PE pair sharing nodes, each side sends its partial y values
for the shared nodes and adds what it receives.  This module breaks
that flow into three explicit steps so the fault protocol composes as
*middleware* instead of forking the loop:

1. :func:`build_sends` — snapshot the pre-exchange partials into
   directed send buffers (as real message passing would);
2. :func:`deliver` pushes each directed block through a *transport*:
   :class:`CleanTransport` is a lossless wire, :class:`FaultMiddleware`
   wraps the same delivery in the checksum + retransmit protocol driven
   by a :class:`~repro.faults.FaultInjector`;
3. :func:`apply_sends` — sum every delivered payload into the
   receiver's partial, in deterministic (pair, direction) order.

:func:`run_exchange` composes the three; the executor's overlapped
superstep runs the same three with step 2 on a background thread.
With the clean transport the resulting bits are identical to the
historical in-executor loop — the send construction order, payload
copies, and summation order are all preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.ownership import exchange_phase, reads_ghosts
from repro.faults.detection import FaultStats, block_checksum, verify_block
from repro.faults.errors import ExchangeFaultError
from repro.faults.injector import BlockFault, FaultInjector
from repro.telemetry.registry import get_registry, record_fault_stats


@dataclass(frozen=True)
class ExchangeRecord:
    """Observed traffic for one executed SMVP (sanity-checkable against
    the static schedule).

    With fault injection active, ``words_sent``/``blocks_sent`` count
    every transmission that actually happened — retransmits and
    duplicates included — so they can exceed the static schedule; the
    ``faults`` tally explains exactly by how much and why.
    """

    words_sent: np.ndarray  # per PE
    blocks_sent: np.ndarray  # per PE
    faults: Optional[FaultStats] = None  # None on the fault-free path


@dataclass(frozen=True)
class BlockSend:
    """One directed block: PE ``src`` owes PE ``dst`` these partials.

    ``dof_dst`` are the destination-local dof indices the payload sums
    into; ``payload`` is a snapshot of the sender's partials (its own
    copy — later mutation of the sender's vector cannot leak in).
    """

    src: int
    dst: int
    dof_dst: np.ndarray
    payload: np.ndarray


#: One shared-node pair: (part_a, part_b, shared dof rows on a, on b),
#: the two dof arrays in matching order.  On the overlapped path the
#: "rows" are positions inside the per-PE boundary buffers instead.
PairTable = Sequence[Tuple[int, int, np.ndarray, np.ndarray]]


@reads_ghosts("y_locals")
def build_sends(y_locals: List[np.ndarray], pairs: PairTable) -> List[BlockSend]:
    """Snapshot the directed send buffers for every sharing pair.

    Order is deterministic and load-bearing: for each pair ``(a, b)``
    the a→b block precedes the b→a block, and pairs appear in table
    order — the summation order downstream reproduces the historical
    executor loop bit for bit.
    """
    sends: List[BlockSend] = []
    for a, b, dof_a, dof_b in pairs:
        # Integer-array indexing copies, so each payload is already the
        # sender's own snapshot.
        sends.append(BlockSend(a, b, dof_b, y_locals[a][dof_a]))
        sends.append(BlockSend(b, a, dof_a, y_locals[b][dof_b]))
    return sends


@exchange_phase("y_locals")
def apply_sends(
    y_locals: List[np.ndarray], delivered: Sequence[Tuple[BlockSend, np.ndarray]]
) -> List[np.ndarray]:
    """Sum every delivered payload into its receiver, in order."""
    for send, payload in delivered:
        y_locals[send.dst][send.dof_dst] += payload
    return y_locals


class CleanTransport:
    """Lossless delivery: every block arrives intact on the first try."""

    def transmit(
        self,
        send: BlockSend,
        step: int,
        stats: Optional[FaultStats],
        words_sent: np.ndarray,
        blocks_sent: np.ndarray,
    ) -> np.ndarray:
        words_sent[send.src] += send.payload.size
        blocks_sent[send.src] += 1
        return send.payload

    def make_stats(self) -> Optional[FaultStats]:
        """Per-exchange stats object (clean wire keeps none)."""
        return None


class FaultMiddleware:
    """Checksum + retransmit protocol around an injected-fault wire.

    Every directed block runs a small reliability protocol: the sender
    computes a CRC-32 over the payload; the injector may drop the block
    (detected by the receiver's timeout against the static schedule —
    it knows what it is owed), flip a bit in flight (detected by the
    checksum), or deliver it twice (deduplicated by sequence id, i.e.
    applied once).  Failed deliveries are retransmitted from the
    sender's still-intact partial, so the summed result is bit-identical
    to the clean transport whenever recovery succeeds.

    ``quarantined`` PEs have their links circuit-broken: blocks
    touching one are routed over the verified control channel instead
    of the flaky wire (no fault draws, one clean transmission), the
    resilience supervisor's intermediate escalation between
    retry-with-backoff and eviction.
    """

    def __init__(
        self,
        injector: FaultInjector,
        quarantined: Optional[frozenset] = None,
    ) -> None:
        self.injector = injector
        self.quarantined = frozenset(quarantined or ())

    def make_stats(self) -> FaultStats:
        return FaultStats()

    def transmit(
        self,
        send: BlockSend,
        step: int,
        stats: FaultStats,
        words_sent: np.ndarray,
        blocks_sent: np.ndarray,
    ) -> np.ndarray:
        injector = self.injector
        src, dst, clean = send.src, send.dst, send.payload
        if src in self.quarantined or dst in self.quarantined:
            stats.quarantined_blocks += 1
            words_sent[src] += clean.size
            blocks_sent[src] += 1
            return clean.copy()
        checksum = block_checksum(clean)
        max_attempts = injector.config.max_retries + 1
        for attempt in range(max_attempts):
            if attempt > 0:
                stats.retransmits += 1
                stats.words_retransmitted += clean.size
            payload = clean.copy()
            words_sent[src] += payload.size
            blocks_sent[src] += 1
            fault = injector.block_fault(src, dst, step, attempt)
            if fault is BlockFault.DROP:
                stats.injected_drops += 1
                stats.detected_missing += 1  # receiver's timeout fires
                continue
            if fault is BlockFault.BITFLIP:
                stats.injected_corruptions += 1
                injector.corrupt(payload, src, dst, step, attempt)
            elif fault is BlockFault.DUPLICATE:
                stats.injected_duplicates += 1
                stats.duplicates_ignored += 1
                # The redundant copy is real traffic, applied zero times.
                words_sent[src] += payload.size
                blocks_sent[src] += 1
            if not verify_block(payload, checksum):
                stats.detected_corrupt += 1
                continue
            return payload
        raise ExchangeFaultError(
            f"block {src}->{dst} (superstep {step}) failed "
            f"{max_attempts} transmission attempts; raise max_retries or "
            "lower the fault rates",
            src=src,
            dst=dst,
            step=step,
        )


def make_transport(
    injector: Optional[FaultInjector],
    quarantined: Optional[frozenset] = None,
):
    """The transport an executor should use for its current injector.

    ``quarantined`` PEs (if any) get the circuit-broken verified path
    through the :class:`FaultMiddleware`; with no enabled injector the
    clean transport already never faults, so quarantine is moot.  Only
    *communication* faults (drops / in-flight bit-flips / duplicates)
    route through the middleware — an injector that only corrupts
    memory or compute (SDC) keeps the clean wire: those faults happen
    before or after the exchange, and the executor's ABFT checks, not
    the transport CRC, are the defense.
    """
    if injector is not None and injector.comm_enabled:
        return FaultMiddleware(injector, quarantined)
    return CleanTransport()


def run_exchange(
    y_locals: List[np.ndarray],
    pairs: PairTable,
    transport,
    step: int,
    num_parts: int,
    collector: Optional[List[Tuple[BlockSend, np.ndarray]]] = None,
) -> Tuple[List[np.ndarray], ExchangeRecord]:
    """Build buffers, deliver each block through the transport, sum.

    Buffers are snapshotted *before* any summation (as real message
    passing would), so nodes shared by three or more PEs receive every
    other owner's pre-exchange partial exactly once.

    ``collector``, if given, receives every delivered ``(send,
    payload)`` in application order — the executor's ABFT exchange
    check needs the incoming payloads per receiver (for checksums and
    for replaying one PE's summation during inline recovery).
    """
    delivered, record = deliver(
        build_sends(y_locals, pairs), transport, step, num_parts
    )
    if collector is not None:
        collector.extend(delivered)
    y_locals = apply_sends(y_locals, delivered)
    record_exchange_metrics(record)
    return y_locals, record


def deliver(
    sends: Sequence[BlockSend], transport, step: int, num_parts: int
) -> Tuple[List[Tuple[BlockSend, np.ndarray]], ExchangeRecord]:
    """Transmit every send in order; returns ``(delivered, record)``.

    ``delivered`` pairs each send with the payload that arrived (the
    transport's verified copy); ``record`` counts every transmission,
    retransmits and duplicates included.
    """
    words_sent = np.zeros(num_parts, dtype=np.int64)
    blocks_sent = np.zeros(num_parts, dtype=np.int64)
    stats = transport.make_stats()
    delivered = [
        (send, transport.transmit(send, step, stats, words_sent, blocks_sent))
        for send in sends
    ]
    return delivered, ExchangeRecord(words_sent, blocks_sent, faults=stats)


def record_exchange_metrics(record: ExchangeRecord) -> None:
    """Fold one exchange's observed traffic into the installed registry
    (a no-op when none is installed)."""
    reg = get_registry()
    if reg is None:
        return
    reg.counter(
        "repro_exchange_rounds_total", "completed exchange phases"
    ).inc()
    words = reg.counter(
        "repro_exchange_words_total",
        "words sent per PE (retransmits and duplicates included)",
    )
    blocks = reg.counter(
        "repro_exchange_blocks_total",
        "blocks sent per PE (retransmits and duplicates included)",
    )
    for pe in range(len(record.words_sent)):
        words.inc(int(record.words_sent[pe]), pe=pe)
        blocks.inc(int(record.blocks_sent[pe]), pe=pe)
    if record.faults is not None:
        record_fault_stats(record.faults, "exchange")
