"""The superstep supervisor: retry, quarantine, evict, continue.

:class:`SuperstepSupervisor` wraps an
:class:`~repro.fem.timestepper.ExplicitTimeStepper` driving a
:class:`~repro.smvp.executor.DistributedSMVP` and turns fault signals
into the escalation ladder of :mod:`repro.resilience.policy`:

* an :class:`~repro.faults.ExchangeFaultError` (a link that exhausted
  its retransmit budget) blames one endpoint, bumps its health record,
  and the superstep is **retried** — the central-difference step calls
  the SMVP before mutating state, so a failed superstep is free to
  replay;
* repeated failures **quarantine** the flaky PE's links (circuit-break
  onto the verified path — numerically a no-op);
* a failure streak, or a scheduled permanent kill, **evicts** the PE
  online: its elements are regrown onto the survivors
  (:func:`~repro.smvp.distribution.redistribute_after_eviction`), the
  schedule and exchange rounds are rebuilt, its exclusive rows are
  spliced from the buddy shadow (zero recompute) or from the last
  CRC-valid checkpoint (rollback + deterministic recompute), and the
  run continues on P-1 PEs bit-consistently — the final vector equals
  a fresh P-1 run launched from the spliced state.

Every eviction emits an :class:`EvictionEvent` (telemetry counters via
:func:`repro.telemetry.registry.record_eviction`) and a
:class:`ResumePoint` that the chaos harness replays to *prove*
survivor equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.faults.errors import (
    ExchangeFaultError,
    PermanentFailureError,
    RecoveryDeadlineError,
    SdcFaultError,
)
from repro.resilience.elastic import (
    ScaleEvent,
    ScalePolicy,
    efficiency_after_growth,
    growth_migration_plan,
    predicted_efficiency,
)
from repro.resilience.eviction import migration_plan, splice_state
from repro.resilience.policy import (
    Escalation,
    HealthTracker,
    RecoveryPolicy,
)
from repro.resilience.shadow import ShadowStore
from repro.simulate.bsp import ReconfigurationCost, model_reconfiguration
from repro.smvp.schedule import ScheduleDelta, schedule_delta
from repro.telemetry.registry import (
    count,
    record_eviction,
    record_scale_event,
    record_sdc_latency,
    stage_span,
)


@dataclass(frozen=True)
class EvictionEvent:
    """One completed online eviction."""

    dead_pe: int  # original numbering
    dead_pe_current: int  # id in the pre-eviction numbering
    superstep: int  # completed steps when the PE died
    num_pes_before: int
    num_pes_after: int
    recovery_source: str  # "shadow" | "checkpoint"
    recomputed_supersteps: int
    migrated_words: int
    migrated_blocks: int
    shadow_words: int
    repartition_flops: int
    redistribution_waves: int
    delta: ScheduleDelta
    cost: Optional[ReconfigurationCost] = None


@dataclass(frozen=True)
class ResumePoint:
    """Everything needed to relaunch the run fresh from an eviction.

    The chaos harness builds a brand-new P-1 executor from this and
    steps it to the end: exact equality with the supervised run is the
    survivor-equivalence guarantee.
    """

    partition_parts: np.ndarray
    num_parts: int
    u: np.ndarray
    u_prev: np.ndarray
    step_index: int
    superstep: int  # executor exchange counter (fault-stream key)
    quarantined: frozenset
    # Physical PE ids of the survivors (SDC fault streams key on
    # these); None on resume points from pre-ABFT runs.
    pe_ids: Optional[np.ndarray] = None


@dataclass
class SupervisorReport:
    """Outcome of one supervised run."""

    records: List = field(default_factory=list)
    evictions: List[EvictionEvent] = field(default_factory=list)
    resume_points: List[ResumePoint] = field(default_factory=list)
    retried_supersteps: int = 0
    quarantined: List[int] = field(default_factory=list)
    evicted: List[int] = field(default_factory=list)
    final_num_pes: int = 0
    scale_events: List[ScaleEvent] = field(default_factory=list)

    @property
    def grows(self) -> List[ScaleEvent]:
        return [e for e in self.scale_events if e.kind == "grow"]

    @property
    def readmissions(self) -> List[ScaleEvent]:
        """Readmitted hardware: quarantine releases plus rejoins of
        previously evicted physical PEs."""
        return [e for e in self.scale_events if e.readmitted]

    @property
    def total_migrated_words(self) -> int:
        return sum(e.migrated_words for e in self.evictions)

    @property
    def total_reconfiguration_seconds(self) -> Optional[float]:
        costs = [e.cost for e in self.evictions]
        if not costs or any(c is None for c in costs):
            return None
        return sum(c.t_total for c in costs)


class SuperstepSupervisor:
    """Self-healing driver for a distributed time-stepped run.

    Parameters
    ----------
    stepper:
        An :class:`~repro.fem.timestepper.ExplicitTimeStepper` whose
        SMVP is a :class:`~repro.smvp.executor.DistributedSMVP` (the
        supervisor needs ``reconfigure_without`` / ``quarantine``).
    policy:
        Escalation thresholds (:class:`RecoveryPolicy`).
    checkpoints:
        Optional :class:`~repro.faults.CheckpointManager`; enables the
        rollback-and-recompute fallback and is fed ``maybe_save`` with
        the *active* distribution every step.
    kill_schedule:
        Mapping ``superstep -> PE id(s)`` (original numbering) of
        scheduled permanent failures, applied just before that
        superstep executes.
    grow_schedule:
        Mapping ``superstep -> count`` of scheduled online PE
        additions, applied just before that superstep executes (after
        any kills scheduled for the same step).  Orthogonal to the
        autoscaler: scheduled grows fire regardless of ``scale_policy``.
    scale_policy:
        Optional :class:`~repro.resilience.elastic.ScalePolicy`.  With
        ``autoscale=True`` the supervisor consults the contention-aware
        efficiency oracle after every completed step (requires
        ``machine``); probation/readmission of quarantined PEs is
        governed by the policy regardless of ``autoscale``.
    machine:
        Optional :class:`~repro.model.machine.Machine` with comm
        constants; prices each eviction via
        :func:`~repro.simulate.bsp.model_reconfiguration` and feeds
        the autoscaler's :func:`~repro.resilience.elastic.predicted_efficiency`.
    max_retries_per_step:
        Hard cap on supervised retries of a single superstep (a
        backstop against a policy that never escalates).
    """

    def __init__(
        self,
        stepper,
        policy: Optional[RecoveryPolicy] = None,
        checkpoints=None,
        kill_schedule: Optional[Mapping[int, object]] = None,
        grow_schedule: Optional[Mapping[int, int]] = None,
        scale_policy: Optional[ScalePolicy] = None,
        machine=None,
        max_retries_per_step: int = 16,
    ) -> None:
        smvp = stepper.smvp
        if not hasattr(smvp, "reconfigure_without"):
            raise ValueError(
                "supervision needs a DistributedSMVP-backed stepper; "
                "a sequential matvec has no PEs to heal"
            )
        if machine is not None:
            machine.require_comm("the reconfiguration cost model")
        if (
            scale_policy is not None
            and scale_policy.autoscale
            and machine is None
        ):
            raise ValueError(
                "autoscaling needs a machine model: the grow/shrink "
                "decisions come from predicted efficiency under Eq. (2)"
            )
        self.stepper = stepper
        self.policy = policy or RecoveryPolicy()
        self.checkpoints = checkpoints
        self.machine = machine
        self.scale_policy = scale_policy
        self.max_retries_per_step = int(max_retries_per_step)
        self.health = HealthTracker(smvp.num_parts, self.policy)
        self.shadow = ShadowStore(smvp.distribution)
        self.shadow.capture_from(stepper)
        self._current_to_orig: List[int] = list(range(smvp.num_parts))
        self._kills = _normalize_kills(kill_schedule)
        self._grows = _normalize_grows(grow_schedule)
        self._initial_num_pes = smvp.num_parts
        self._evicted_physical: List[tuple] = []  # (superstep, physical id)
        self._quarantined_at: Dict[int, int] = {}
        self._grow_count = 0
        self._under_utilized_streak = 0
        self._last_scale_step: Optional[int] = None
        self.events: List[EvictionEvent] = []
        self.scale_events: List[ScaleEvent] = []
        self.resume_points: List[ResumePoint] = []
        self.retried_supersteps = 0
        self._force_at = None

    # -- id plumbing -------------------------------------------------------

    @property
    def smvp(self):
        return self.stepper.smvp

    def current_id(self, original_pe: int) -> Optional[int]:
        """The PE's id in the live numbering, or ``None`` if evicted."""
        try:
            return self._current_to_orig.index(original_pe)
        except ValueError:
            return None

    def original_id(self, current_pe: int) -> int:
        return self._current_to_orig[current_pe]

    # -- the supervised loop ----------------------------------------------

    def run(
        self,
        num_steps: int,
        force_at=None,
        record_nodes: Optional[np.ndarray] = None,
    ) -> SupervisorReport:
        """Run ``num_steps`` supervised steps; never loses the run to a
        recoverable fault."""
        self._force_at = force_at
        records: List = []
        seis = None
        if record_nodes is not None:
            record_nodes = np.asarray(record_nodes, dtype=np.int64)
        target = self.stepper.step_index + num_steps
        try:
            while self.stepper.step_index < target:
                k = self.stepper.step_index
                for orig_pe in self._kills.get(k, ()):
                    if self.current_id(orig_pe) is not None:
                        with stage_span("eviction", track="resilience"):
                            self._evict(orig_pe)
                for _ in range(self._grows.get(k, 0)):
                    with stage_span("growth", track="resilience"):
                        self._grow(reason="scheduled")
                records.append(self._supervised_step(force_at))
                self.shadow.capture_from(self.stepper)
                if self.checkpoints is not None:
                    self.checkpoints.maybe_save(
                        self.stepper, self.smvp.distribution
                    )
                if self.scale_policy is not None:
                    self._maybe_readmit()
                    if self.scale_policy.autoscale:
                        self._maybe_autoscale()
        finally:
            self._force_at = None
        return SupervisorReport(
            records=records,
            evictions=list(self.events),
            resume_points=list(self.resume_points),
            retried_supersteps=self.retried_supersteps,
            quarantined=self.health.quarantined(),
            evicted=self.health.evicted(),
            final_num_pes=self.smvp.num_parts,
            scale_events=list(self.scale_events),
        )

    def _supervised_step(self, force_at):
        """One step under the escalation ladder; returns its record."""
        stepper = self.stepper
        for attempt in range(self.max_retries_per_step + 1):
            force = (
                force_at(stepper.time) if force_at is not None else None
            )
            try:
                record = stepper.step(force)
            except ExchangeFaultError as exc:
                self.retried_supersteps += 1
                count("repro_supervised_retries_total")
                self._check_recovery_budget(exc.step)
                if attempt >= self.max_retries_per_step:
                    raise
                self._escalate(exc)
                continue
            except SdcFaultError as exc:
                self.retried_supersteps += 1
                count("repro_supervised_retries_total", kind="sdc")
                self._check_recovery_budget(exc.step)
                if attempt >= self.max_retries_per_step:
                    raise
                self._escalate_sdc(exc)
                continue
            for orig_pe in self._current_to_orig:
                self.health.record_success(orig_pe)
            return record
        raise AssertionError("unreachable")  # pragma: no cover

    def _escalate(self, exc: ExchangeFaultError) -> None:
        """Blame an endpoint of the failed link and apply the policy."""
        if exc.src is None or exc.dst is None:
            # No link attribution — plain retry is all we can do.
            return
        blamed_orig = self.health.blame(
            self.original_id(exc.src), self.original_id(exc.dst)
        )
        escalation = self.health.record_failure(blamed_orig)
        if escalation is Escalation.QUARANTINE:
            self.smvp.quarantine(self.current_id(blamed_orig))
            self._quarantined_at[blamed_orig] = self.stepper.step_index
            count("repro_pe_quarantines_total", pe=blamed_orig)
        elif escalation is Escalation.EVICT:
            self._evict(blamed_orig)

    def _escalate_sdc(self, exc: SdcFaultError) -> None:
        """Apply the policy against the PE an ABFT check blamed.

        Unlike a failed exchange, SDC detection names a single PE
        directly — no link-endpoint ambiguity — so the failure lands
        on exactly that PE's health record.  Quarantine circuit-breaks
        its links (the numeric no-op rung of the ladder; it cannot fix
        a bad core, but it is the policy's mandated intermediate step);
        a continued streak evicts the PE and its corrupted influence
        with it.
        """
        if exc.pe is None:
            return
        blamed_orig = self.original_id(exc.pe)
        escalation = self.health.record_failure(blamed_orig)
        if escalation is Escalation.QUARANTINE:
            self.smvp.quarantine(self.current_id(blamed_orig))
            self._quarantined_at[blamed_orig] = self.stepper.step_index
            count("repro_pe_quarantines_total", pe=blamed_orig)
        elif escalation is Escalation.EVICT:
            # Detection-to-eviction latency, in retried supersteps.
            record_sdc_latency(
                float(self.health.consecutive_failures[blamed_orig])
            )
            self._evict(blamed_orig)

    def _check_recovery_budget(self, step: Optional[int]) -> None:
        """Enforce the per-run escalation deadline, if one is set."""
        budget = self.policy.recovery_budget
        if budget is not None and self.retried_supersteps > budget:
            raise RecoveryDeadlineError(
                f"recovery budget exhausted: {self.retried_supersteps} "
                f"retried supersteps exceed the per-run budget of "
                f"{budget}",
                budget=budget,
                retried=self.retried_supersteps,
                step=step,
            )

    # -- eviction ----------------------------------------------------------

    def _evict(self, orig_pe: int) -> EvictionEvent:
        """Evict one PE online and splice the run back together."""
        if len(self._current_to_orig) < 2:
            raise PermanentFailureError(
                "cannot evict the last surviving PE", pe=orig_pe
            )
        if (
            self.policy.max_evictions is not None
            and len(self.events) >= self.policy.max_evictions
        ):
            raise PermanentFailureError(
                f"eviction budget ({self.policy.max_evictions}) "
                "exhausted",
                pe=orig_pe,
            )
        stepper = self.stepper
        old_smvp = self.smvp
        cur = self._current_to_orig.index(orig_pe)
        old_distribution = old_smvp.distribution
        old_schedule = old_smvp.schedule
        step_index = stepper.step_index
        dead_physical = int(old_smvp.pe_ids[cur])

        new_smvp, redistribution = old_smvp.reconfigure_without(cur)
        migration = migration_plan(
            old_distribution,
            new_smvp.distribution,
            cur,
            redistribution.survivor_map,
        )
        segment = (
            self.shadow.segment(cur, step_index)
            if self.policy.prefer_shadow
            else None
        )
        recomputed = 0
        if segment is not None:
            u, u_prev = splice_state(
                old_distribution, cur, stepper.u, stepper.u_prev, segment
            )
            stepper.rebind_smvp(new_smvp)
            stepper.set_state(u, u_prev, step_index)
            source = "shadow"
        else:
            recomputed = self._rollback_and_recompute(
                new_smvp, old_distribution, orig_pe, step_index
            )
            source = "checkpoint"
        old_smvp.close()

        self._current_to_orig.pop(cur)
        self.health.mark_evicted(orig_pe)
        self._evicted_physical.append((step_index, dead_physical))
        self._quarantined_at.pop(orig_pe, None)
        self._continue_on(new_smvp)

        delta = schedule_delta(
            old_schedule,
            new_smvp.schedule,
            id_map=redistribution.survivor_map,
        )
        cost = None
        if self.machine is not None:
            cost = model_reconfiguration(
                redistribution.affinity_flops,
                migration.migrated_words,
                migration.migrated_blocks,
                self.machine,
                recomputed_supersteps=recomputed,
            )
        event = EvictionEvent(
            dead_pe=orig_pe,
            dead_pe_current=cur,
            superstep=step_index,
            num_pes_before=old_distribution.num_parts,
            num_pes_after=new_smvp.num_parts,
            recovery_source=source,
            recomputed_supersteps=recomputed,
            migrated_words=migration.migrated_words,
            migrated_blocks=migration.migrated_blocks,
            shadow_words=migration.shadow_words,
            repartition_flops=redistribution.affinity_flops,
            redistribution_waves=redistribution.waves,
            delta=delta,
            cost=cost,
        )
        self.events.append(event)
        record_eviction(event)
        return event

    def _continue_on(self, new_smvp) -> None:
        """Shadow the successor executor's layout and record where a
        fresh run on it would resume (the survivor-equivalence proof)."""
        stepper = self.stepper
        self.shadow = ShadowStore(new_smvp.distribution)
        self.shadow.capture_from(stepper)
        self.resume_points.append(
            ResumePoint(
                partition_parts=new_smvp.partition.parts.copy(),
                num_parts=new_smvp.num_parts,
                u=stepper.u.copy(),
                u_prev=stepper.u_prev.copy(),
                step_index=stepper.step_index,
                superstep=new_smvp._superstep,
                quarantined=new_smvp.quarantined,
                pe_ids=new_smvp.pe_ids.copy(),
            )
        )

    def _rollback_and_recompute(
        self, new_smvp, old_distribution, orig_pe: int, step_index: int
    ) -> int:
        """Checkpoint fallback: load, validate, recompute forward.

        Returns the number of recomputed supersteps.  The checkpoint
        must match the distribution the run was on when it was written
        (its header is validated against ``old_distribution``) — the
        whole state rolls back, so no cross-layout splicing happens.
        """
        stepper = self.stepper
        ck = (
            self.checkpoints.latest()
            if self.checkpoints is not None
            else None
        )
        if ck is None:
            raise PermanentFailureError(
                f"PE {orig_pe} died with no current shadow and no "
                "checkpoint to roll back to — the run is lost",
                pe=orig_pe,
                step=step_index,
            )
        if not ck.matches(old_distribution):
            raise PermanentFailureError(
                f"latest checkpoint (step {ck.step_index}) was written "
                "under a different distribution than the failing run — "
                "refusing to splice across layouts",
                pe=orig_pe,
                step=step_index,
            )
        stepper.rebind_smvp(new_smvp)
        stepper.set_state(ck.u, ck.u_prev, ck.step_index)
        recomputed = step_index - ck.step_index
        for _ in range(recomputed):
            force = (
                self._force_at(stepper.time)
                if self._force_at is not None
                else None
            )
            stepper.step(force)
        count(
            "repro_recomputed_supersteps_total",
            recomputed,
            pe=orig_pe,
        )
        return recomputed

    # -- elastic growth ----------------------------------------------------

    def _grow(
        self,
        reason: str = "scheduled",
        eff_before: Optional[float] = None,
        eff_after: Optional[float] = None,
    ) -> ScaleEvent:
        """Bring one PE online mid-run.

        Replicated shared-node storage means growth loses no rows: the
        global ``(u, u_prev)`` arrays stay valid verbatim, so unlike
        eviction there is no splice — the stepper is rebound to the
        new executor and the run continues, bit-identical to a fresh
        run launched at the p+1 layout from the same state.
        """
        policy = self.scale_policy
        if (
            policy is not None
            and policy.max_grows is not None
            and self._grow_count >= policy.max_grows
        ):
            raise ValueError(
                f"growth budget ({policy.max_grows}) exhausted"
            )
        stepper = self.stepper
        old_smvp = self.smvp
        old_distribution = old_smvp.distribution
        old_schedule = old_smvp.schedule
        step_index = stepper.step_index
        physical, readmitted = self._pick_physical_id(step_index)

        new_smvp, redistribution = old_smvp.reconfigure_with(
            physical_id=physical
        )
        migration = growth_migration_plan(
            old_distribution, new_smvp.distribution
        )
        stepper.rebind_smvp(new_smvp)
        old_smvp.close()

        self._current_to_orig.append(self.health.add_pe())
        self._grow_count += 1
        self._continue_on(new_smvp)

        # Survivor ids are stable under growth (the new PE takes the
        # fresh highest slot), so the delta maps pairs identically.
        delta = schedule_delta(old_schedule, new_smvp.schedule)
        event = ScaleEvent(
            kind="grow",
            superstep=step_index,
            pe=int(new_smvp.pe_ids[-1]),
            num_pes_before=old_distribution.num_parts,
            num_pes_after=new_smvp.num_parts,
            migrated_words=migration.migrated_words,
            migrated_blocks=migration.migrated_blocks,
            predicted_efficiency_before=eff_before,
            predicted_efficiency_after=eff_after,
            readmitted=readmitted,
            delta=delta,
            reason=reason,
        )
        self.scale_events.append(event)
        record_scale_event(event)
        self._last_scale_step = step_index
        return event

    def _pick_physical_id(self, step_index: int):
        """Choose the hardware for a grow: rejoin or fresh.

        When the scale policy allows readmission and an evicted
        physical PE has sat out its probation window, the oldest such
        PE rejoins under its original physical id — its fault streams
        (keyed by physical id) resume where its history left off.
        Otherwise ``None`` lets the executor provision fresh hardware
        at ``max(pe_ids) + 1``.
        """
        policy = self.scale_policy
        if policy is not None and policy.readmit_evicted:
            for i, (evicted_at, physical) in enumerate(
                self._evicted_physical
            ):
                if step_index - evicted_at >= policy.probation_steps:
                    self._evicted_physical.pop(i)
                    return physical, True
        return None, False

    def _maybe_readmit(self) -> None:
        """Release quarantined PEs whose probation has elapsed."""
        policy = self.scale_policy
        k = self.stepper.step_index
        for orig in self.health.quarantined():
            since = self._quarantined_at.setdefault(orig, k)
            if k - since < policy.probation_steps:
                continue
            cur = self.current_id(orig)
            if cur is None:
                continue
            self.smvp.unquarantine(cur)
            self.health.readmit(orig)
            del self._quarantined_at[orig]
            event = ScaleEvent(
                kind="readmit",
                superstep=k,
                pe=int(self.smvp.pe_ids[cur]),
                num_pes_before=self.smvp.num_parts,
                num_pes_after=self.smvp.num_parts,
                readmitted=True,
                reason=(
                    f"probation served "
                    f"({policy.probation_steps} clean supersteps)"
                ),
            )
            self.scale_events.append(event)
            record_scale_event(event)

    def _maybe_autoscale(self) -> None:
        """Consult the contention-aware oracle; grow or shrink.

        Grow when the run is short-handed (evictions or quarantines,
        unless ``require_deficit=False``) *and* the fitted model
        predicts the p+1 layout beats the current one by at least
        ``grow_threshold``; shrink after ``shrink_patience``
        consecutive under-utilized evaluations.  Cooldown keeps one
        noisy evaluation from thrashing.
        """
        policy = self.scale_policy
        k = self.stepper.step_index
        if k % policy.evaluation_interval != 0:
            return
        if (
            self._last_scale_step is not None
            and k - self._last_scale_step < policy.cooldown_steps
        ):
            return
        smvp = self.smvp
        u = self.stepper.u
        rhs = int(u.shape[1]) if u.ndim == 2 else 1
        flops = smvp.distribution.local_counts["flops"]
        eff_now = predicted_efficiency(
            flops, smvp.schedule, self.machine, rhs=rhs
        )
        deficit = (self._initial_num_pes - smvp.num_parts) + len(
            self.health.quarantined()
        )
        can_grow = (
            policy.max_grows is None or self._grow_count < policy.max_grows
        )
        if can_grow and (deficit > 0 or not policy.require_deficit):
            try:
                eff_next, _, _ = efficiency_after_growth(
                    smvp.distribution.mesh,
                    smvp.partition,
                    self.machine,
                    rhs=rhs,
                )
            except ValueError:
                eff_next = None  # nothing to peel — every PE at floor
            if (
                eff_next is not None
                and eff_next - eff_now >= policy.grow_threshold
            ):
                with stage_span("growth", track="resilience"):
                    self._grow(
                        reason=(
                            f"autoscale: predicted efficiency "
                            f"{eff_now:.3f} -> {eff_next:.3f}"
                        ),
                        eff_before=eff_now,
                        eff_after=eff_next,
                    )
                self._under_utilized_streak = 0
                return
        if eff_now < policy.shrink_utilization:
            self._under_utilized_streak += 1
        else:
            self._under_utilized_streak = 0
        if self._under_utilized_streak < policy.shrink_patience:
            return
        if len(self._current_to_orig) < 2:
            return
        if (
            self.policy.max_evictions is not None
            and len(self.events) >= self.policy.max_evictions
        ):
            return
        loads = np.bincount(
            smvp.partition.parts, minlength=smvp.num_parts
        )
        orig = self.original_id(int(np.argmin(loads)))
        with stage_span("eviction", track="resilience"):
            ev = self._evict(orig)
        event = ScaleEvent(
            kind="shrink",
            superstep=k,
            pe=ev.dead_pe,
            num_pes_before=ev.num_pes_before,
            num_pes_after=ev.num_pes_after,
            migrated_words=ev.migrated_words,
            migrated_blocks=ev.migrated_blocks,
            predicted_efficiency_before=eff_now,
            reason=(
                f"under-utilized (predicted efficiency {eff_now:.3f} < "
                f"{policy.shrink_utilization}) for "
                f"{policy.shrink_patience} evaluations"
            ),
        )
        self.scale_events.append(event)
        record_scale_event(event)
        self._last_scale_step = k
        self._under_utilized_streak = 0


def _normalize_grows(
    grow_schedule: Optional[Mapping[int, int]]
) -> Dict[int, int]:
    """``{superstep: count}`` with validation."""
    out: Dict[int, int] = {}
    if grow_schedule is None:
        return out
    items = (
        grow_schedule.items()
        if hasattr(grow_schedule, "items")
        else grow_schedule
    )
    for step, n in items:
        n = int(n)
        if n < 1:
            raise ValueError("grow count must be positive")
        out[int(step)] = out.get(int(step), 0) + n
    return out


def _normalize_kills(
    kill_schedule: Optional[Mapping[int, object]]
) -> Dict[int, List[int]]:
    """``{superstep: pe-or-sequence}`` -> ``{superstep: [pes]}``."""
    out: Dict[int, List[int]] = {}
    if kill_schedule is None:
        return out
    items = (
        kill_schedule.items()
        if hasattr(kill_schedule, "items")
        else kill_schedule
    )
    for step, pes in items:
        if isinstance(pes, (int, np.integer)):
            pes = [int(pes)]
        out[int(step)] = [int(pe) for pe in pes]
    return out
