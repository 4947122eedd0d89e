"""The benchmark's workloads and the names and units of its metrics.

README.md in this directory gives the reason for each workload and the
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: Seed whose final-state digests are stored in ``reference.json``.
DEFAULT_SEED = 0

#: Ricker source amplitude (N), as ``repro-quake`` uses.
SOURCE_AMPLITUDE = 1e12

#: Mass-proportional damping (1/s), as ``repro-quake`` uses.
DAMPING_ALPHA = 0.02

#: Transport and silent-data-corruption rates of guarded-sf10e; the
#: injector's seed is the workload seed.
FAULT_RATES = {
    "drop_rate": 0.02,
    "bitflip_rate": 0.02,
    "flip_x_rate": 0.002,
    "flip_y_rate": 0.002,
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs.

    A stepping workload (``tables`` empty) integrates ``rhs`` Ricker
    point-source scenarios on ``instance`` partitioned into ``pes``
    subdomains.  Stepping runs in gated *episodes*: each starts from
    the zero state, takes ``episode`` steps around the wavelet peak and
    must end in the reference state.  A table workload regenerates
    ``tables`` after building the meshes of ``instances``.
    """

    name: str
    instance: str = ""
    pes: int = 0
    backend: str = "serial"
    workers: int = 0  # thread-pool size of the threaded backend
    rhs: int = 1
    abft: bool = False
    faults: bool = False
    episode: int = 0
    #: Set-ups timed per run; ``setup_s`` is their median.
    setups: int = 2
    tables: Tuple[str, ...] = ()
    instances: Tuple[str, ...] = ()

    @property
    def steps(self) -> bool:
        return not self.tables


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "quake-sf5e",
            instance="sf5e",
            pes=16,
            backend="threaded",
            workers=1,
            episode=50,
            setups=1,
        ),
        Workload(
            "ensemble-sf10e-r16",
            instance="sf10e",
            pes=8,
            backend="overlap",
            rhs=16,
            episode=25,
        ),
        Workload(
            "guarded-sf10e",
            instance="sf10e",
            pes=8,
            abft=True,
            faults=True,
            episode=100,
        ),
        Workload(
            "paper-tables",
            tables=("fig6", "fig7", "validation"),
            instances=("sf10e", "sf5e"),
            setups=3,
        ),
    )
}

#: Seconds-long variants of every workload for ``selftest.py``: the
#: stepping ones on the demo instance, the table one on tables that
#: need no partitioning.
SMOKE: Dict[str, Workload] = {
    name: (
        replace(w, instance="demo", pes=4, episode=20, setups=2)
        if w.steps
        else replace(w, tables=("fig2", "memory", "fig11"))
    )
    for name, w in WORKLOADS.items()
}

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "scenario_steps_per_s": "1/s",
    "tables_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (traced runs): name -> unit.  A layer a workload
#: does not exercise reads 0.
PER_LAYER = {
    "mesh.build_s": "s",
    "fem.materials_s": "s",
    "fem.assemble_s": "s",
    "partition.busy_s": "s",
    "partition.calls": "count",
    "partition.imbalance": "ratio",
    "schedule.build_s": "s",
    "schedule.c_max_words": "words",
    "schedule.b_max_blocks": "blocks",
    "schedule.q_max": "count",
    "exchange.eq2_t3e_us": "us",
    "executor.setup_s": "s",
    "superstep.scatter_ms": "ms",
    "superstep.compute_ms": "ms",
    "superstep.exchange_ms": "ms",
    "superstep.gather_ms": "ms",
    "superstep.verify_ms": "ms",
    "superstep.smvp_ms": "ms",
    "superstep.straggler_max": "ratio",
    "superstep.overlap_eff": "fraction",
    "kernel.flops_per_step": "flop",
    "kernel.bytes_per_step": "B",
    "kernel.gflops": "GFLOP/s",
    "kernel.dup_nnz_frac": "fraction",
    "ref.global_matvec_ms": "ms",
    "ref.compute_over_global": "ratio",
    "ref.isolated_smvp_ms": "ms",
    "blame.compute_ms": "ms",
    "blame.imbalance_ms": "ms",
    "blame.latency_ms": "ms",
    "blame.bandwidth_ms": "ms",
    "blame.verify_ms": "ms",
    "blame.recovery_ms": "ms",
    "blame.overhead_ms": "ms",
    "exchange.words_per_step": "words",
    "exchange.blocks_per_step": "blocks",
    "exchange.retransmits": "count",
    "exchange.useful_word_frac": "fraction",
    "abft.sdc_injected": "count",
    "abft.sdc_detected": "count",
    "abft.sdc_recomputed": "count",
    "abft.sdc_escaped": "count",
    "fem.step_update_ms": "ms",
    "stats.busy_s": "s",
    "simulate.validate_s": "s",
    "trace.overhead_frac": "fraction",
    "error_rate": "fraction",
}
