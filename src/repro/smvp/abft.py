"""Algorithm-based fault tolerance (ABFT) for the superstep engine.

The exchange middleware's CRC-32 protects blocks *in flight*; a bit
that flips in a PE's local memory or arithmetic — the input vector x,
the kernel product y, or the assembled stiffness block K — is invisible
to it.  This module adds the classic Huang-Abraham checksum defense,
adapted to the paper's replicated-shared-node SMVP:

* At setup, for each PE precompute the **checksum row**
  ``w_i = c^T K_i`` with ``c = 1`` (the column sums of the local block)
  and its absolute companion ``w_abs_i = c^T |K_i|``.  Both are
  O(nnz_i), once.
* Every superstep, the invariant ``c^T y_i = w_i . x_i`` is checked in
  O(n_i): two dot products against work that cost O(nnz_i).  A
  mismatch localizes the corruption to *that PE's compute phase*.
* After the exchange, ``sum(y_i^post) = sum(y_i^pre) + sum(incoming
  payloads to i)`` re-checks each PE in O(n_i + words_i), localizing
  post-exchange memory corruption to *that PE's exchange phase*.

**Tolerance derivation.**  Both sides of the compute invariant are
n_i-term float64 sums, so their difference is bounded by the standard
worst-case rounding envelope ``gamma_n * S`` with ``gamma_n ≈ n *
eps`` and ``S = w_abs_i . |x_i|`` (which also bounds ``sum |y_i|``,
since ``|y_j| <= sum_k |K_jk| |x_k|``).  The checker uses

``tol_i = tol_factor * eps * (n_i + nnz_i/n_i) * (w_abs_i . |x_i|)``

— the extra ``nnz_i/n_i`` term covers the rounding already baked into
``w_i`` itself.  The injector (:meth:`repro.faults.FaultInjector.
sdc_site`) flips only exponent/sign bits of words within three decades
of the array's peak magnitude, so an injected flip perturbs the
checksum by at least ``peak / 2048`` — orders of magnitude above
``tol_i`` for any mesh this repo builds (the margin is ~75x even in
the degenerate flat-magnitude worst case; see DESIGN.md §11).  Flips
*below* the rounding envelope are numerically indistinguishable from
legitimate rounding and are excluded from the fault model by
construction.

Input (x) corruption cannot be caught by the product invariant — a
correct product of a wrong input is self-consistent — so local inputs
are guarded by an exact CRC-32 snapshot taken at scatter time and
re-verified immediately before compute; recovery is a re-scatter from
the authoritative global vector.

Matrix (K) corruption is modeled *virtually*: the observer records the
flipped word and applies the rank-1 update ``y[row] += (new - old) *
x[col]`` after every compute until the record is scrubbed.  The
authoritative assembled block is never mutated — backend-prepared
states (which may alias it) stay clean, so every backend observes the
identical poisoned product and the identical healed bits.

All of it — SDC injection, the three checks, inline healing and the
corruption bookkeeping — runs as one phase observer of the executor's
superstep pipeline, :class:`AbftObserver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.analysis.ownership import owns
from repro.faults.detection import FaultStats, block_checksum, verify_block
from repro.faults.errors import SdcFaultError
from repro.faults.injector import SdcTarget
from repro.telemetry.registry import record_sdc_event, record_sdc_latency

#: Default multiplier on the worst-case rounding envelope.
DEFAULT_TOL_FACTOR = 4.0

#: float64 machine epsilon.
_EPS = float(np.finfo(np.float64).eps)

# Site-stream salts keep the x / matrix / y / sticky flip draws disjoint.
_SALT_INPUT = 1
_SALT_MATRIX = 2
_SALT_OUTPUT = 3
_SALT_STICKY = 4

#: Inline recompute attempts before a compute-phase SDC escalates to
#: the supervisor (attempt 1 heals a transient output flip, attempt 2
#: scrubs a corrupted matrix block first; a sticky PE survives both).
_MAX_SDC_ATTEMPTS = 2


@dataclass(frozen=True)
class SdcEvent:
    """One observed step of an SDC's lifecycle, for blame reporting.

    ``action`` is one of ``"injected"``, ``"detected"``,
    ``"recomputed"``, ``"repaired"``, ``"escalated"``, ``"escaped"``.
    ``phase`` is ``"input"``, ``"compute"``, or ``"exchange"``.
    ``pe`` is the current slot id; ``physical_pe`` survives eviction
    renumbering and is what chaos reports blame.
    """

    step: int
    pe: int
    physical_pe: int
    phase: str
    kind: str  # "flip-x" | "flip-y" | "flip-k" | "sticky"
    action: str
    detail: str = ""


class AbftCheck(NamedTuple):
    """Outcome of one checksum comparison.

    For a block product (n x r), ``checksum`` is the per-column
    observed sum array (r,), and ``error``/``tol`` report the column
    with the worst tolerance margin — the check fails if *any* column
    fails, so a single flipped bit in an arbitrary column is caught.
    """

    ok: bool
    error: float  # |observed - expected| (worst column for blocks)
    tol: float
    checksum: float  # sum(y) observed, reused by the exchange check


def _column_sums(matrix: sp.spmatrix) -> np.ndarray:
    return np.asarray(matrix.sum(axis=0)).ravel().astype(np.float64)


def _abs_matrix(matrix: sp.spmatrix) -> sp.spmatrix:
    out = matrix.copy()
    out.data = np.abs(out.data)
    return out


class AbftChecker:
    """Per-PE checksum rows and tolerance state for one distribution.

    Built once from the executor's authoritative local matrices
    (``prepare()`` time); costs one O(nnz) pass per PE.  The checker is
    backend-agnostic: it verifies whatever products the backend
    returns against the assembled blocks the backend was prepared
    from, so detection parity across backends is structural, not
    incidental.
    """

    def __init__(
        self,
        local_matrices: Sequence[sp.spmatrix],
        tol_factor: float = DEFAULT_TOL_FACTOR,
    ) -> None:
        if tol_factor <= 0:
            raise ValueError("tol_factor must be positive")
        self.tol_factor = float(tol_factor)
        self.w: List[np.ndarray] = []
        self.w_abs: List[np.ndarray] = []
        self._terms: List[float] = []
        for matrix in local_matrices:
            self.w.append(_column_sums(matrix))
            self.w_abs.append(_column_sums(_abs_matrix(matrix)))
            n = max(1, matrix.shape[0])
            self._terms.append(float(n + matrix.nnz / n))

    def _verdict(self, observed, expected, tol) -> AbftCheck:
        """Compare checksums — scalars for vectors, per-column (r,)
        arrays for blocks, where every column must pass."""
        err = np.abs(observed - expected)
        ok = bool(np.all(np.isfinite(observed)) and np.all(err <= tol))
        margin = np.atleast_1d(err - tol)
        worst = int(np.argmax(margin))
        return AbftCheck(
            ok=ok,
            error=float(np.atleast_1d(err)[worst]),
            tol=float(np.atleast_1d(tol)[worst]),
            checksum=observed,
        )

    def check_compute(
        self, pe: int, x: np.ndarray, y: np.ndarray
    ) -> AbftCheck:
        """Verify ``c^T y = w . x`` for one PE's local product.

        For an n x r block the invariant holds per column — expected
        ``w . X`` and observed ``Y.sum(axis=0)`` are (r,) vectors with
        per-column tolerances, and every column must pass.
        """
        scale = self.w_abs[pe] @ np.abs(x)
        return self._verdict(
            y.sum(axis=0),
            self.w[pe] @ x,
            self.tol_factor * _EPS * self._terms[pe] * scale,
        )

    def check_exchange(
        self,
        pe: int,
        y_post: np.ndarray,
        pre_checksum: float,
        incoming_sum: float,
        incoming_abs: float,
        incoming_terms: int,
        x: np.ndarray,
    ) -> AbftCheck:
        """Verify one PE's post-exchange partials against the incoming
        payload checksums collected by the transport.

        For blocks, ``pre_checksum``/``incoming_sum``/``incoming_abs``
        are per-column (r,) arrays and every column must pass.
        """
        scale = self.w_abs[pe] @ np.abs(x) + np.abs(incoming_abs)
        terms = self._terms[pe] + float(incoming_terms)
        return self._verdict(
            y_post.sum(axis=0),
            pre_checksum + incoming_sum,
            self.tol_factor * _EPS * terms * scale,
        )


def nnz_coords(matrix: sp.spmatrix, word: int) -> "tuple[int, int]":
    """(row, col) dof coordinates of flat data word ``word``.

    Supports the two assembled formats the kernels prefer: CSR (one
    data word per nonzero) and BSR with 3x3 blocks (nine data words
    per stored block, row-major within the block).
    """
    if sp.isspmatrix_csr(matrix):
        row = int(np.searchsorted(matrix.indptr, word, side="right") - 1)
        col = int(matrix.indices[word])
        return row, col
    if sp.isspmatrix_bsr(matrix):
        br, bc = matrix.blocksize
        block, offset = divmod(word, br * bc)
        r, c = divmod(offset, bc)
        brow = int(
            np.searchsorted(matrix.indptr, block, side="right") - 1
        )
        return brow * br + r, int(matrix.indices[block]) * bc + c
    raise TypeError(
        f"unsupported sparse format {type(matrix).__name__} for "
        "ABFT matrix-corruption bookkeeping"
    )


def flat_cols(matrix: sp.spmatrix) -> np.ndarray:
    """Column dof of every flat data word of a CSR or 3x3-BSR block
    (drives the importance weighting of matrix flip sites)."""
    if sp.isspmatrix_csr(matrix):
        return matrix.indices.astype(np.int64)
    if sp.isspmatrix_bsr(matrix):
        br, bc = matrix.blocksize
        offsets = np.tile(np.arange(bc, dtype=np.int64), br)
        return (
            bc * matrix.indices[:, None].astype(np.int64) + offsets[None, :]
        ).ravel()
    raise TypeError(
        f"unsupported format {type(matrix).__name__} for "
        "ABFT matrix bookkeeping"
    )


@dataclass
class MatrixCorruption:
    """One live (unscrubbed) bit-flip in a PE's assembled block.

    The ABFT observer applies ``y[row] += (new - old) * x[col]`` after every
    compute while the record is live, so the poisoned product is
    bit-identical across backends without mutating any prepared state.
    """

    word: int
    bit: int
    old: float
    new: float
    row: int
    col: int
    step: int  # superstep the flip was injected


def verify_flops_per_pe(
    distribution, schedule=None
) -> np.ndarray:
    """Modeled per-PE flop cost of the ABFT checks, for ``T_verify``.

    Per superstep each PE pays two O(n_i) dot products plus one
    O(n_i) magnitude pass for the compute check, one O(n_i) re-sum for
    the exchange check (~ 4 flops per local dof with 3 dofs per node),
    and ~2 flops per incoming exchange word for the payload checksums.
    """
    nodes = distribution.local_counts["nodes"].astype(np.float64)
    flops = 4.0 * 3.0 * nodes
    if schedule is not None:
        flops = flops + 2.0 * np.asarray(
            schedule.words_per_pe, dtype=np.float64
        )
    return flops


class AbftObserver:
    """SDC injection and ABFT checks as a superstep phase observer.

    The executor attaches one when built with ``abft=True`` or with an
    injector that has SDC fault modes.  It adds a verification point
    after each data hand-off of the pipeline:

    ``after_scatter``
        Snapshot-CRC the local inputs, inject x flips, verify, heal by
        re-scattering from the authoritative global vector.
    ``after_compute``
        Inject matrix / output corruption, verify every PE's product
        against its checksum row, heal inline by recomputation.
    ``after_exchange``
        Verify every post-exchange partial against the incoming payload
        sums; heal by replaying that PE's product and summation.

    Inline recovery heals transient corruption on the spot (the
    committed bits equal a fault-free superstep's); a PE that cannot be
    healed raises :class:`~repro.faults.SdcFaultError` *before* any
    executor or caller state changes hands, so the superstep is
    retryable by the resilience supervisor.  With ``abft=False`` the
    injections still happen and are tallied as escaped.

    The run-level tallies (``sdc_stats`` / ``sdc_events``) live on the
    executor and are shared with its successors; each superstep's
    tally is folded into them by :meth:`close_step`, even when the
    superstep escalates.
    """

    def __init__(self, smvp, abft: bool) -> None:
        self.smvp = smvp
        self.checker = AbftChecker(smvp.local_matrices) if abft else None
        injector = smvp.injector
        self.injector = (
            injector if injector is not None and injector.sdc_enabled else None
        )
        #: Live virtual matrix corruption, one record per afflicted PE.
        self.k_corruption: Dict[int, MatrixCorruption] = {}
        self._flat_cols: Dict[int, np.ndarray] = {}
        self._pre: Optional[List[Any]] = None

    # -- hooks -------------------------------------------------------------

    def after_scatter(self, ss) -> None:
        """Snapshot-CRC the scattered inputs, inject x flips, verify,
        and heal by re-scatter from the authoritative global vector."""
        ss.sdc = stats = FaultStats()
        step, x_locals = ss.step, ss.x_locals
        crcs = (
            [block_checksum(x) for x in x_locals]
            if self.checker is not None
            else None
        )
        injector = self.injector
        if injector is not None:
            for pe in range(len(x_locals)):
                phys = self._phys(pe)
                if injector.sdc_target(phys, step) is not SdcTarget.INPUT:
                    continue
                word, bit, _old, _new = injector.flip_sdc(
                    x_locals[pe], phys, step, salt=_SALT_INPUT
                )
                stats.injected_sdc += 1
                self._note(
                    step, pe, "input", "flip-x", "injected",
                    f"word {word} bit {bit}",
                )
        if crcs is None:
            return
        for pe in range(len(x_locals)):
            if verify_block(x_locals[pe], crcs[pe]):
                continue
            stats.detected_sdc += 1
            record_sdc_latency(0.0)
            self._note(step, pe, "input", "flip-x", "detected")
            ss.rescatter(pe)
            stats.recomputed_sdc += 1
            self._note(
                step, pe, "input", "flip-x", "recomputed", "re-scatter"
            )
            if not verify_block(x_locals[pe], crcs[pe]):
                self._note(step, pe, "input", "flip-x", "escalated")
                raise SdcFaultError(
                    f"PE {self._phys(pe)} input vector corrupt "
                    f"after re-scatter (superstep {step})",
                    pe=pe,
                    step=step,
                    phase="input",
                )

    def after_compute(self, ss) -> None:
        """Inject matrix/output corruption, verify every PE's product,
        heal inline; keeps the per-PE pre-exchange checksums (floats for
        vectors, per-column arrays for blocks) for the exchange check."""
        step, stats = ss.step, ss.sdc
        x_locals, y_locals = ss.x_locals, ss.y_locals
        parts = len(x_locals)
        injector = self.injector
        self._pre = None
        if injector is not None:
            for pe in range(parts):
                phys = self._phys(pe)
                if injector.sdc_target(phys, step) is not SdcTarget.MATRIX:
                    continue
                if pe in self.k_corruption:
                    continue  # one live corruption per PE block
                self._inject_matrix_flip(pe, phys, x_locals[pe], step, stats)
        # Re-apply every live matrix corruption to this superstep's
        # products — the persistent fault poisons each compute until
        # detection scrubs it.
        for pe in sorted(self.k_corruption):
            self._poison(pe, x_locals[pe], y_locals[pe])
        if injector is not None:
            for pe in range(parts):
                phys = self._phys(pe)
                if injector.sdc_target(phys, step) is SdcTarget.OUTPUT:
                    word, bit, _o, _n = injector.flip_sdc(
                        y_locals[pe], phys, step, salt=_SALT_OUTPUT
                    )
                    stats.injected_sdc += 1
                    self._note(
                        step, pe, "compute", "flip-y", "injected",
                        f"word {word} bit {bit}",
                    )
                if injector.sticky(phys, step):
                    injector.flip_sdc(
                        y_locals[pe], phys, step, salt=_SALT_STICKY
                    )
                    stats.injected_sdc += 1
                    self._note(
                        step, pe, "compute", "sticky", "injected",
                        "bad core corrupts every compute",
                    )
        if self.checker is None:
            # Injected, nothing watching: whatever was injected this
            # superstep escapes into committed state.
            escaped = stats.injected_sdc - stats.detected_sdc
            if escaped > 0:
                stats.escaped_sdc += escaped
            return
        pre: List[Any] = [0.0] * parts
        for pe in range(parts):
            check = self.checker.check_compute(pe, x_locals[pe], y_locals[pe])
            if check.ok:
                pre[pe] = check.checksum
                continue
            stats.detected_sdc += 1
            # Latency counts from a live K flip's injection superstep;
            # the blamed kind is a best effort from what is live.
            corruption = self.k_corruption.get(pe)
            if corruption is None:
                record_sdc_latency(0.0)
                kind = "flip-y"
            else:
                record_sdc_latency(float(step - corruption.step))
                kind = "flip-k"
            if injector is not None and injector.sticky(self._phys(pe), step):
                kind = "sticky"
            self._note(
                step, pe, "compute", kind, "detected",
                f"|err| {check.error:.3e} > tol {check.tol:.3e}",
            )
            pre[pe] = self._recover_compute(ss, pe, y_locals, kind)
        self._pre = pre

    def after_exchange(self, ss) -> None:
        """Verify each PE's post-exchange partial against the incoming
        payload sums; heal by replaying that PE's compute + summation."""
        pre = self._pre
        if pre is None:
            return
        step, stats = ss.step, ss.sdc
        x_locals, y_locals = ss.x_locals, ss.y_locals
        delivered = ss.delivered
        parts = len(y_locals)
        incoming_sum: List[Any] = [0.0] * parts
        incoming_abs: List[Any] = [0.0] * parts
        incoming_terms = [0] * parts
        for send, payload in delivered:
            # axis-0 sums: scalars for vector payloads, per-column sums
            # for (ndofs, r) block payloads.
            incoming_sum[send.dst] = incoming_sum[send.dst] + payload.sum(
                axis=0
            )
            incoming_abs[send.dst] = incoming_abs[send.dst] + np.abs(
                payload
            ).sum(axis=0)
            incoming_terms[send.dst] += payload.shape[0]

        def check(pe: int, y: np.ndarray) -> AbftCheck:
            return self.checker.check_exchange(
                pe,
                y,
                pre[pe],
                incoming_sum[pe],
                incoming_abs[pe],
                incoming_terms[pe],
                x_locals[pe],
            )

        for pe in range(parts):
            result = check(pe, y_locals[pe])
            if result.ok:
                continue
            stats.detected_sdc += 1
            record_sdc_latency(0.0)
            self._note(
                step, pe, "exchange", "flip-y", "detected",
                f"|err| {result.error:.3e} > tol {result.tol:.3e}",
            )
            # Replay this PE alone: recompute the local product (plus
            # any live virtual matrix delta, for bit-parity with the
            # main path) and re-sum its delivered payloads in original
            # application order.
            y = ss.recompute(pe, x_locals[pe])
            self._poison(pe, x_locals[pe], y)
            for send, payload in delivered:
                if send.dst == pe:
                    y[send.dof_dst] += payload
            stats.recomputed_sdc += 1
            self._note(
                step, pe, "exchange", "flip-y", "recomputed",
                "local replay from delivered payloads",
            )
            if not check(pe, y).ok:
                self._note(
                    step, pe, "exchange", "flip-y", "escalated",
                    "replay still fails the payload-sum check",
                )
                raise SdcFaultError(
                    f"PE {self._phys(pe)} post-exchange partial "
                    f"corrupt after local replay (superstep {step})",
                    pe=pe,
                    step=step,
                    phase="exchange",
                )
            y_locals[pe] = y

    def after_gather(self, ss) -> None:
        """Nothing left to check: gather copies verified partials."""

    def close_step(self, ss) -> None:
        """Fold this superstep's tally into the run totals (in place:
        ``sdc_stats`` is shared with post-eviction successors)."""
        self._pre = None
        if ss.sdc is not None:
            self.smvp.sdc_stats.accumulate(ss.sdc)

    def retire(self) -> None:
        """Close the lifecycle of every live matrix corruption when a
        successor executor takes over: redistribution reassembles every
        local matrix from the authoritative element data, which scrubs
        it by construction."""
        for pe, corruption in sorted(self.k_corruption.items()):
            self.smvp.sdc_stats.repaired_blocks += 1
            self._note(
                corruption.step, pe, "compute", "flip-k", "repaired",
                "scrubbed by redistribution",
            )

    # -- helpers -----------------------------------------------------------

    def _phys(self, pe: int) -> int:
        return int(self.smvp.pe_ids[pe])

    def _note(
        self,
        step: int,
        pe: int,
        phase: str,
        kind: str,
        action: str,
        detail: str = "",
    ) -> None:
        event = SdcEvent(
            step=step,
            pe=pe,
            physical_pe=self._phys(pe),
            phase=phase,
            kind=kind,
            action=action,
            detail=detail,
        )
        self.smvp.sdc_events.append(event)
        record_sdc_event(event)

    def _poison(self, pe: int, x: np.ndarray, y: np.ndarray) -> None:
        """Apply PE ``pe``'s live matrix corruption (if any) to ``y``."""
        corruption = self.k_corruption.get(pe)
        if corruption is not None:
            y[corruption.row] += (
                corruption.new - corruption.old
            ) * x[corruption.col]

    def _inject_matrix_flip(
        self,
        pe: int,
        phys: int,
        x: np.ndarray,
        step: int,
        stats: FaultStats,
    ) -> None:
        """Record a persistent bit-flip in PE ``pe``'s assembled block.

        The flipped word is drawn importance-weighted by
        ``|K[word]| * |x[col(word)]|`` (the largest column's magnitude
        for a block x) so the flip's rank-1 effect on
        the product is within three decades of the largest achievable —
        i.e. guaranteed detectable this superstep.  When every
        importance is zero (an all-zero local input, e.g. the first
        steps of a cold-started wave), a flip would be a bitwise no-op
        on the product, so injection is skipped — there is no
        observable fault to detect.
        """
        matrix = self.smvp.local_matrices[pe]
        cols = self._flat_cols.get(pe)
        if cols is None:
            cols = self._flat_cols[pe] = flat_cols(matrix)
        data = np.asarray(matrix.data).reshape(-1)
        magnitude = np.abs(x[cols])
        if magnitude.ndim == 2:
            # Block input: weight by the column the flip hurts most
            # (the compute check is per column).
            magnitude = magnitude.max(axis=1)
        importance = np.abs(data) * magnitude
        if float(importance.max()) <= 0.0:
            return
        word, bit = self.injector.sdc_site(
            importance, phys, step, salt=_SALT_MATRIX
        )
        old = float(data[word])
        flipped = np.array([old], dtype=np.float64)
        flipped.view(np.uint64)[0] ^= np.uint64(1) << np.uint64(bit)
        new = float(flipped[0])
        row, col = nnz_coords(matrix, word)
        self.k_corruption[pe] = MatrixCorruption(
            word=word, bit=bit, old=old, new=new, row=row, col=col,
            step=step,
        )
        stats.injected_sdc += 1
        self._note(
            step, pe, "compute", "flip-k", "injected",
            f"word {word} bit {bit} (dof {row},{col})",
        )

    @owns("y_locals", pe="pe")
    def _recover_compute(
        self, ss, pe: int, y_locals: List[np.ndarray], kind: str
    ) -> Any:
        """Heal one PE's corrupt product inline; returns the healed
        pre-exchange checksum or raises :class:`SdcFaultError`.

        Attempt 1 recomputes from the (CRC-verified) input — that
        alone heals a transient output flip.  Attempt 2 first scrubs
        any live matrix corruption (the authoritative assembled block
        is clean by construction; only the virtual record poisons
        products).  A sticky PE re-corrupts every recompute, exhausts
        both attempts, and escalates with exact blame attached.
        """
        step, stats = ss.step, ss.sdc
        x = ss.x_locals[pe]
        injector = self.injector
        phys = self._phys(pe)
        for attempt in range(1, _MAX_SDC_ATTEMPTS + 1):
            if attempt > 1 and self.k_corruption.pop(pe, None) is not None:
                stats.repaired_blocks += 1
                self._note(
                    step, pe, "compute", "flip-k", "repaired",
                    "virtual corruption scrubbed",
                )
            y = ss.recompute(pe, x)
            stats.recomputed_sdc += 1
            self._note(
                step, pe, "compute", kind,
                "recomputed", f"attempt {attempt}",
            )
            self._poison(pe, x, y)
            if injector is not None and injector.sticky(phys, step):
                injector.flip_sdc(
                    y, phys, step, salt=_SALT_STICKY, attempt=attempt
                )
                stats.injected_sdc += 1
                self._note(
                    step, pe, "compute", "sticky", "injected",
                    f"re-corrupted recovery attempt {attempt}",
                )
            check = self.checker.check_compute(pe, x, y)
            if check.ok:
                y_locals[pe] = y
                return check.checksum
            stats.detected_sdc += 1
            record_sdc_latency(0.0)
            self._note(
                step, pe, "compute", kind,
                "detected", f"recovery attempt {attempt} still corrupt",
            )
        self._note(
            step, pe, "compute", kind, "escalated",
            f"{_MAX_SDC_ATTEMPTS} recomputes exhausted",
        )
        raise SdcFaultError(
            f"PE {phys} product corrupt after {_MAX_SDC_ATTEMPTS} "
            f"recomputes (superstep {step}) — persistent hardware fault",
            pe=pe,
            step=step,
            phase="compute",
        )
