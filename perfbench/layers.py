"""The traced run: per-layer metrics.

It times the benchmark's own calls into public functions, attaches a
``TraceLog`` with ``profile=True`` to read the phase medians of the
real solver loop and the blame buckets of ``repro.profile``, and
installs a ``MetricsRegistry`` to read the program's existing stage
spans and counters.  Nothing inside the program is instrumented anew.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.model import CRAY_T3E
from repro.profile import build_report
from repro.smvp import CommSchedule, DataDistribution, TraceLog
from repro.telemetry import MetricsRegistry, use_registry
from repro.telemetry.drift import eq2_t_comm

from pipeline import (
    Outcome,
    Stopwatch,
    Tally,
    build_meshes,
    case_record,
    clock,
    expected_state,
    faults_exercised,
    finish,
    gate,
    matrix_bytes,
    mesh_record,
    regenerate_tables,
    run_episode,
    set_up,
    step_for,
    stiffness_consistent,
    table_row,
    tables_match,
)
from workloads import PER_LAYER, Workload

#: Seconds spent on each reference loop (global K@x, isolated SMVP).
REF_SECONDS = 0.5


def _median_ms(values) -> float:
    return 1e3 * float(np.median(values)) if len(values) else 0.0


def _loop_ms(fn, seconds: float = REF_SECONDS) -> float:
    """Median wall time of ``fn()`` over about ``seconds``."""
    fn()
    times: List[float] = []
    while not times or sum(times) < seconds:
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return _median_ms(times)


def _partition_spans(registry: MetricsRegistry):
    return [s for s in registry.spans if s.track == "partition"]


def _inside(spans, t0: float, t1: float) -> float:
    """Seconds of ``spans`` that fall inside ``[t0, t1]``."""
    return sum(s.duration for s in spans if t0 <= s.t_start and s.t_end <= t1)


def _partition_metrics(registry: MetricsRegistry) -> Dict[str, float]:
    spans = _partition_spans(registry)
    return {
        "partition.busy_s": sum(s.duration for s in spans),
        "partition.calls": len(spans),
        "partition.imbalance": registry.gauge(
            "repro_partition_imbalance"
        ).value(method="geometric"),
    }


def traced_run(
    w: Workload, seed: int, seconds: float, expect
) -> Outcome:
    metrics = {name: 0.0 for name in PER_LAYER}
    registry = MetricsRegistry(clock=clock)
    watch = Stopwatch()
    if not w.steps:
        return _traced_tables(w, registry, watch, metrics, expect)

    tally = Tally()
    with use_registry(registry):
        case = set_up(w, seed, watch)
        with watch("schedule.build_s"):
            # Both classes compute lazily: read what the executor uses.
            dist = DataDistribution(case.mesh, case.partition)
            schedule = CommSchedule(dist)
            dist.pair_shared_nodes, dist.local_counts, schedule.messages
            schedule.c_max, schedule.b_max, schedule.q_max
    metrics.update(_partition_metrics(registry))
    for name in (
        "mesh.build_s",
        "fem.materials_s",
        "fem.assemble_s",
        "schedule.build_s",
        "executor.setup_s",
    ):
        metrics[name] = watch.get(name)

    # Untraced half: the baseline of trace.overhead_frac, and the two
    # references beside the solver loop's compute phase.
    plain = case.smvp
    stepper = case.stepper
    try:
        run_episode(case, stepper, tally)
        untraced = step_for(case, stepper, seconds / 2, tally)
        x = stepper.u.copy()
        metrics["ref.isolated_smvp_ms"] = _loop_ms(lambda: plain(x))
        k = case.stiffness.tocsr()
        metrics["ref.global_matvec_ms"] = _loop_ms(lambda: k @ x)
        consistent = stiffness_consistent(case)
    finally:
        plain.close()

    # Traced half: TraceLog sink, per-PE profiler spans, registry on.
    log = TraceLog()
    with use_registry(registry):
        traced_smvp = case.executor(profile=True, trace_sink=log)
        try:
            stepper.rebind_smvp(traced_smvp)
            run_episode(case, stepper, tally)
            log.traces.clear()
            traced = step_for(case, stepper, seconds / 2, tally)
            holds = table_row(case, watch)
        finally:
            traced_smvp.close()
    exercised = faults_exercised(plain, traced_smvp)
    expected, source = expected_state(case, expect)

    traces = log.traces
    report = build_report(log)
    local = case.smvp.local_matrices
    local_nnz = sum(int(m.nnz) for m in local)
    r = w.rhs
    metrics.update(
        {
            "schedule.c_max_words": schedule.c_max,
            "schedule.b_max_blocks": schedule.b_max,
            "schedule.q_max": schedule.q_max,
            "exchange.eq2_t3e_us": 1e6 * eq2_t_comm(schedule, CRAY_T3E, rhs=r),
            "superstep.scatter_ms": _median_ms([t.t_scatter for t in traces]),
            "superstep.compute_ms": _median_ms([t.t_comp for t in traces]),
            "superstep.exchange_ms": _median_ms([t.t_comm for t in traces]),
            "superstep.gather_ms": _median_ms([t.t_gather for t in traces]),
            "superstep.verify_ms": _median_ms([t.t_verify for t in traces]),
            "superstep.smvp_ms": _median_ms([t.t_smvp for t in traces]),
            "superstep.straggler_max": max(report.straggler.values()),
            "superstep.overlap_eff": report.overlap_efficiency or 0.0,
            "kernel.flops_per_step": 2 * local_nnz * r,
            # CSR arrays read once, local x read and y written per column.
            "kernel.bytes_per_step": sum(
                matrix_bytes(m) + 8 * r * (m.shape[0] + m.shape[1])
                for m in local
            ),
            "kernel.dup_nnz_frac": local_nnz / case.stiffness.nnz - 1.0,
            "exchange.words_per_step": float(
                np.median([t.total_words for t in traces])
            ),
            "exchange.blocks_per_step": float(
                np.median([t.total_blocks for t in traces])
            ),
            "fem.step_update_ms": _median_ms(
                [s - t.t_smvp for s, t in zip(traced, traces)]
            ),
            "stats.busy_s": watch.get("stats.busy_s"),
            "simulate.validate_s": watch.get("simulate.validate_s"),
            "trace.overhead_frac": float(
                np.median(traced) / np.median(untraced) - 1.0
            ),
        }
    )
    compute_ms = metrics["superstep.compute_ms"]
    metrics["kernel.gflops"] = (
        metrics["kernel.flops_per_step"] / (compute_ms * 1e6)
    )
    metrics["ref.compute_over_global"] = (
        compute_ms / metrics["ref.global_matvec_ms"]
    )
    for bucket, value in report.buckets.items():
        metrics[f"blame.{bucket}_ms"] = 1e3 * value / report.steps
    faults = log.summary().get("faults", {})
    words = sum(t.total_words for t in traces)
    metrics["exchange.retransmits"] = faults.get("retransmits", 0)
    metrics["exchange.useful_word_frac"] = (
        1.0 - faults.get("words_retransmitted", 0) / words if words else 1.0
    )
    for name, field_name in (
        ("abft.sdc_injected", "injected_sdc"),
        ("abft.sdc_detected", "detected_sdc"),
        ("abft.sdc_recomputed", "recomputed_sdc"),
        ("abft.sdc_escaped", "escaped_sdc"),
    ):
        metrics[name] = sum(
            getattr(e.sdc_stats, field_name) for e in (plain, traced_smvp)
        )
    correct = gate(
        tally,
        expected,
        holds and consistent and (exercised or not w.faults),
    )
    return finish(
        correct,
        tally,
        metrics,
        {
            "step_samples": {"untraced": len(untraced), "traced": len(traced)},
            "reference": source,
            "stiffness_consistent": consistent,
            "faults_exercised": exercised,
            "inputs": [case_record(case)],
        },
    )


def _traced_tables(w, registry, watch, metrics, expect) -> Outcome:
    tally = Tally()
    with use_registry(registry):
        meshes = build_meshes(w, watch)
        text, windows = regenerate_tables(w.tables, tally)
    spans = _partition_spans(registry)
    metrics.update(_partition_metrics(registry))
    metrics["mesh.build_s"] = watch.get("mesh.build_s")
    # Each table's window less the partitions nested inside it: the
    # statistics tables are stats time, the validation table is
    # schedule building plus the BSP simulation.
    for name, (t0, t1) in zip(w.tables, windows):
        key = "simulate.validate_s" if name == "validation" else "stats.busy_s"
        metrics[key] += t1 - t0 - _inside(spans, t0, t1)
    correct = tally.failed == 0 and tables_match(w, text, expect)
    return finish(
        correct,
        tally,
        metrics,
        {
            "table_seconds": {
                name: t1 - t0 for name, (t0, t1) in zip(w.tables, windows)
            },
            "inputs": [
                mesh_record(m, name) for m, name in zip(meshes, w.instances)
            ],
        },
    )
