"""Set-up, gated time stepping and table regeneration for one run.

Everything here drives the program through its public functions:
instance -> mesh -> materials/assembly -> partition -> DistributedSMVP
-> ExplicitTimeStepper, and ``repro.tables`` for the paper tables.
``timed_run`` is the untraced run that gives the end-to-end metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.faults import FaultConfig, FaultInjector, FaultStats
from repro.fem import (
    ExplicitTimeStepper,
    PointSource,
    RickerWavelet,
    assemble_lumped_mass,
    assemble_stiffness,
    materials_from_model,
    stable_timestep,
)
from repro.mesh.instances import clear_mesh_cache, get_instance
from repro.model import CRAY_T3E
from repro.partition import partition_mesh
from repro.simulate import validate_model
from repro.smvp import DistributedSMVP
from repro.smvp.backends import make_backend
from repro.stats import smvp_statistics
from repro.tables.common import clear_caches
from repro.tables.report import TABLES

from workloads import (
    DAMPING_ALPHA,
    DEFAULT_SEED,
    FAULT_RATES,
    SOURCE_AMPLITUDE,
    Workload,
)

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

clock = time.perf_counter

#: A stepping run interleaves its own table row with its episodes,
#: giving the rows this share of the step time (one row takes only
#: 0.03-0.2 s).
TABLE_ROW_SHARE = 0.15

#: Other tenants slow the host by up to 2x for seconds at a time.  The
#: step metrics pool the steps of the fastest ``FAST_SHARE`` of a run's
#: windows of ``WINDOW_STEPS`` consecutive steps, ranked by median, and
#: at least ``FAST_STEPS`` steps so that the 90th percentile has ten
#: samples beyond it; ``tables_s`` averages the fastest table rows
#: (see README.md, *Bounds*).
FAST_SHARE = 0.1
WINDOW_STEPS = 5
FAST_STEPS = 100


class Stopwatch:
    """Accumulates wall seconds per name around the benchmark's calls."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = clock()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + clock() - t0

    def get(self, name: str) -> float:
        return self.seconds.get(name, 0.0)


@dataclass
class Tally:
    """Operations attempted and failed, and the digests they ended in."""

    attempted: int = 0
    failed: int = 0
    digests: List[Optional[str]] = field(default_factory=list)


@dataclass
class Outcome:
    """What one run prints: gate verdict, counts, metrics, record."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    record: dict


class Forcing:
    """Force at time ``t``: one Ricker point source per scenario column.

    One source gives its own 1-D ``force``.  Several give a (3n, r)
    block whose column ``j`` equals ``sources[j].force(t, n)``; the
    block is allocated once and only the source rows are rewritten.
    """

    def __init__(self, sources: List[PointSource], num_nodes: int) -> None:
        self.sources = sources
        self.num_nodes = num_nodes
        self.block = (
            np.zeros((3 * num_nodes, len(sources)))
            if len(sources) > 1
            else None
        )

    def __call__(self, t: float) -> np.ndarray:
        if self.block is None:
            return self.sources[0].force(t, self.num_nodes)
        for j, s in enumerate(self.sources):
            rows = slice(3 * s.node, 3 * s.node + 3)
            self.block[rows, j] = s.direction * float(s.wavelet(t))
        return self.block


def place_sources(mesh, model, period: float, seed: int, count: int):
    """``count`` sources at distinct nodes, locations drawn from ``seed``.

    Epicentres are uniform over the basin's footprint, depths uniform
    in 2-8 km.
    """
    rng = np.random.default_rng(seed)
    wavelet = RickerWavelet(
        frequency=1.0 / period, amplitude=SOURCE_AMPLITUDE
    )
    sources: List[PointSource] = []
    nodes = set()
    while len(sources) < count:
        a, b = rng.uniform(-1.0, 1.0, size=2)
        location = (
            model.center_x + model.semi_x * a,
            model.center_y + model.semi_y * b,
            -rng.uniform(2000.0, 8000.0),
        )
        source = PointSource.at_point(mesh, location, wavelet)
        if source.node not in nodes:
            nodes.add(source.node)
            sources.append(source)
    return sources


@dataclass
class Case:
    """A set-up stepping workload, ready for its first step."""

    workload: Workload
    seed: int
    mesh: object
    materials: object
    stiffness: object
    mass: np.ndarray
    dt: float
    partition: object
    smvp: DistributedSMVP
    stepper: ExplicitTimeStepper
    forcing: Forcing
    start: int  # step index each episode starts from

    def executor(self, *, reference: bool = False, **options):
        """A DistributedSMVP of this case's mesh and partition.

        ``reference=True`` gives the serial, fault-free, unchecked
        executor the correctness gate compares against.
        """
        return make_executor(
            self.workload,
            self.seed,
            self.mesh,
            self.partition,
            self.materials,
            reference=reference,
            **options,
        )

    def new_stepper(self, smvp) -> ExplicitTimeStepper:
        return make_stepper(
            self.workload, self.stiffness, self.mass, self.dt, smvp
        )


def make_stepper(w: Workload, stiffness, mass, dt, smvp):
    return ExplicitTimeStepper(
        stiffness,
        mass,
        dt,
        damping_alpha=DAMPING_ALPHA,
        smvp=smvp,
        rhs=w.rhs,
    )


def make_executor(
    w: Workload,
    seed: int,
    mesh,
    partition,
    materials,
    *,
    reference: bool = False,
    profile: bool = False,
    trace_sink=None,
) -> DistributedSMVP:
    if reference:
        backend, injector, abft = "serial", None, False
    else:
        backend = (
            make_backend(w.backend, workers=w.workers)
            if w.workers
            else w.backend
        )
        injector = (
            FaultInjector(FaultConfig(seed=seed, **FAULT_RATES))
            if w.faults
            else None
        )
        abft = w.abft
    return DistributedSMVP(
        mesh,
        partition,
        materials,
        kernel="csr",
        backend=backend,
        injector=injector,
        abft=abft,
        profile=profile,
        trace_sink=trace_sink,
    )


def set_up(w: Workload, seed: int, watch: Stopwatch) -> Case:
    """Everything before the first step, from a cold mesh build."""
    inst = get_instance(w.instance)
    clear_mesh_cache()
    with watch("mesh.build_s"):
        mesh, _ = inst.build()
    model = inst.model()
    with watch("fem.materials_s"):
        materials = materials_from_model(mesh, model)
    with watch("fem.assemble_s"):
        stiffness = assemble_stiffness(mesh, materials)
        mass = assemble_lumped_mass(mesh, materials)
    with watch("partition.busy_s"):
        partition = partition_mesh(mesh, w.pes, method="geometric")
    with watch("executor.setup_s"):
        smvp = make_executor(w, seed, mesh, partition, materials)
    dt = stable_timestep(mesh, materials)
    sources = place_sources(mesh, model, inst.period, seed, w.rhs)
    forcing = Forcing(sources, mesh.num_nodes)
    stepper = make_stepper(w, stiffness, mass, dt, smvp)
    # Centre every episode on the wavelet peak, where the state moves.
    peak = int(round(sources[0].wavelet.delay / dt))
    return Case(
        w,
        seed,
        mesh,
        materials,
        stiffness,
        mass,
        dt,
        partition,
        smvp,
        stepper,
        forcing,
        max(0, peak - w.episode // 2),
    )


def state_digest(stepper: ExplicitTimeStepper) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(stepper.u).tobytes())
    h.update(np.ascontiguousarray(stepper.u_prev).tobytes())
    return h.hexdigest()


def run_episode(
    case: Case,
    stepper: ExplicitTimeStepper,
    tally: Tally,
    times: Optional[List[float]] = None,
) -> None:
    """One gated episode; appends each step's wall time to ``times``.

    A step that raises fails the episode: its digest is recorded as
    None, which the gate rejects.
    """
    zero = np.zeros_like(stepper.u)
    stepper.set_state(zero, zero, case.start)
    step, force = stepper.step, case.forcing
    try:
        for _ in range(case.workload.episode):
            tally.attempted += 1
            t0 = clock()
            step(force(stepper.time))
            if times is not None:
                times.append(clock() - t0)
    except Exception:  # a failed step is counted, never fatal
        traceback.print_exc(file=sys.stderr)
        tally.failed += 1
        tally.digests.append(None)
        return
    tally.digests.append(state_digest(stepper))


def step_for(
    case: Case,
    stepper: ExplicitTimeStepper,
    seconds: float,
    tally: Tally,
) -> List[float]:
    """Whole episodes until ``seconds`` of stepping have been timed."""
    times: List[float] = []
    # Episodes that raise add no times; the deadline still ends the loop.
    deadline = clock() + 3 * seconds + 30
    while sum(times) < seconds and clock() < deadline:
        run_episode(case, stepper, tally, times)
    return times


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def reference_state(case: Case) -> Optional[str]:
    """Final-state digest of one serial, fault-free episode (None if a
    step of it raised, which no digest matches)."""
    smvp = case.executor(reference=True)
    try:
        tally = Tally()
        run_episode(case, case.new_stepper(smvp), tally)
    finally:
        smvp.close()
    return tally.digests[0]


def expected_state(case: Case, override: Optional[str]) -> tuple:
    """(digest, source): the stored one at the default seed, else
    recomputed.  An intended change of the default-seed state is
    stored with ``run.py --update-reference``."""
    if override is not None:
        return override, "override"
    if case.seed == DEFAULT_SEED:
        entry = load_references().get(case.workload.name)
        return (entry["state"] if entry else None), "stored"
    return reference_state(case), "recomputed"


def stiffness_consistent(case: Case) -> bool:
    """Whether the global ``K @ x`` agrees with the case's SMVP on a
    seeded ``x`` up to rounding (the two sum in different orders).
    The stepping never reads the global K, so this is its gate."""
    x = np.random.default_rng(case.seed).standard_normal(
        3 * case.mesh.num_nodes
    )
    k = case.stiffness.tocsr()
    scale = abs(k) @ np.abs(x)
    return bool(np.all(np.abs(k @ x - case.smvp(x)) <= 1e-12 * scale))


def faults_exercised(*executors) -> bool:
    """Whether the fault middleware and ABFT did their work: SDCs were
    injected, every one detected and healed by recompute, none escaped,
    and dropped or corrupted messages were retransmitted."""
    sdc, wire = FaultStats(), FaultStats()
    for e in executors:
        sdc, wire = sdc.merge(e.sdc_stats), wire.merge(e.transport_stats)
    return (
        sdc.injected_sdc > 0
        and sdc.detected_sdc >= sdc.injected_sdc
        and sdc.recomputed_sdc >= sdc.detected_sdc
        and sdc.escaped_sdc == 0
        and wire.retransmits > 0
        and wire.fully_recovered()
    )


def table_row(case: Case, watch: Stopwatch) -> bool:
    """This configuration's row of fig6/fig7 and the validation table.

    Returns whether the row's model guarantee 1 <= ratio <= beta holds.
    """
    with watch("stats.busy_s"):
        stats = smvp_statistics(case.mesh, partition=case.partition)
    with watch("simulate.validate_s"):
        validation = validate_model(
            stats.f_per_pe, case.smvp.schedule, CRAY_T3E
        )
    return bool(validation.model_holds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def regenerate_tables(names, tally: Tally) -> tuple:
    """(text, (start, end) clock window per table) after dropping the
    statistics memos.  The text is what ``repro-tables <names>`` prints.
    """
    clear_caches()
    sections, windows = [], []
    for name in names:
        tally.attempted += 1
        t0 = clock()
        try:
            sections.append(str(TABLES[name]()))
        except Exception:  # a failed table is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            tally.failed += 1
            sections.append("")
        windows.append((t0, clock()))
    return "\n\n".join(sections) + "\n", windows


def tables_reference(w: Workload) -> Path:
    """The stored text of ``w.tables``, byte for byte."""
    return HERE / "tables" / ("-".join(w.tables) + ".txt")


def build_meshes(w: Workload, watch: Stopwatch) -> list:
    clear_mesh_cache()
    with watch("mesh.build_s"):
        return [get_instance(name).build()[0] for name in w.instances]


def gate(tally: Tally, expected: str, extra_ok: bool = True) -> bool:
    return (
        extra_ok
        and expected is not None
        and tally.failed == 0
        and bool(tally.digests)
        and all(d == expected for d in tally.digests)
    )


def tables_match(w: Workload, text: str, expect: Optional[str]) -> bool:
    """Whether ``text`` is byte-identical to the stored reference (or
    hashes to ``expect``)."""
    want = expect or hashlib.sha256(
        tables_reference(w).read_bytes()
    ).hexdigest()
    return hashlib.sha256(text.encode()).hexdigest() == want


def timed_run(
    w: Workload, seed: int, seconds: float, expect: Optional[str]
) -> Outcome:
    """The untraced run: end-to-end metrics only."""
    return (_timed_steps if w.steps else _timed_tables)(
        w, seed, seconds, expect
    )


def _timed_tables(w, seed, seconds, expect) -> Outcome:
    samples = []
    for _ in range(w.setups):
        t0 = clock()
        meshes = build_meshes(w, Stopwatch())
        samples.append(clock() - t0)
    tally = Tally()
    text, windows = regenerate_tables(w.tables, tally)
    per_table = [t1 - t0 for t0, t1 in windows]
    rss = peak_rss_mb()
    ms = 1e3 * np.asarray(per_table)
    tables_s = float(sum(per_table))
    metrics = {
        "setup_s": float(np.median(samples)),
        "step_ms_p50": float(np.median(ms)),
        "step_ms_p90": float(np.percentile(ms, 90)),
        "scenario_steps_per_s": len(per_table) / tables_s,
        "tables_s": tables_s,
        "peak_rss_mb": rss,
    }
    record = {
        "setup_samples_s": samples,
        "table_seconds": dict(zip(w.tables, per_table)),
        "inputs": [
            mesh_record(m, name) for m, name in zip(meshes, w.instances)
        ],
    }
    correct = tally.failed == 0 and tables_match(w, text, expect)
    return finish(correct, tally, metrics, record)


def _timed_steps(w, seed, seconds, expect) -> Outcome:
    """Set up ``w.setups`` times, stepping ``seconds / w.setups`` on
    each.  A table row follows an episode whenever the rows are behind
    their share of the step time, so steps and rows sample the same
    stretch of the run.  Only one set-up is alive at a time."""
    tally = Tally()
    samples: List[float] = []
    episodes: List[List[float]] = []
    rows: List[float] = []
    executors, holds, consistent = [], True, True
    for _ in range(w.setups):
        t0 = clock()
        case = set_up(w, seed, Stopwatch())
        samples.append(clock() - t0)
        try:
            run_episode(case, case.stepper, tally)  # warm-up, gated too
            stop = stepped(episodes) + seconds / w.setups
            # Episodes that raise add no times; the deadline still ends
            # the loop.
            deadline = clock() + 3 * seconds + 30
            while stepped(episodes) < stop and clock() < deadline:
                episodes.append([])
                run_episode(case, case.stepper, tally, episodes[-1])
                if sum(rows) < TABLE_ROW_SHARE * stepped(episodes):
                    row = Stopwatch()
                    holds = table_row(case, row) and holds
                    rows.append(
                        row.get("stats.busy_s") + row.get("simulate.validate_s")
                    )
            consistent = stiffness_consistent(case) and consistent
            rss = peak_rss_mb()
        finally:
            case.smvp.close()
        executors.append(case.smvp)
    expected, source = expected_state(case, expect)
    times = fast_steps(episodes)
    metrics = {
        "setup_s": float(np.median(samples)),
        "step_ms_p50": 1e3 * float(np.median(times)),
        "step_ms_p90": 1e3 * float(np.percentile(times, 90)),
        "scenario_steps_per_s": w.rhs * len(times) / float(np.sum(times)),
        "tables_s": float(np.mean(fastest(rows, float, least=2))),
        "peak_rss_mb": rss,
    }
    record = {
        "setup_samples_s": samples,
        "step_samples": len(times),
        "steps_timed": sum(len(e) for e in episodes),
        "table_rows": len(rows),
        "episodes": len(tally.digests),
        "reference": source,
        "stiffness_consistent": consistent,
        "faults_exercised": faults_exercised(*executors),
        "inputs": [case_record(case)],
    }
    correct = gate(
        tally,
        expected,
        holds
        and consistent
        and (record["faults_exercised"] or not w.faults),
    )
    return finish(correct, tally, metrics, record)


def fastest(windows: list, key, least: int) -> list:
    """The ``FAST_SHARE`` of ``windows`` with the smallest ``key``, and
    at least ``least`` of them."""
    k = max(least, math.ceil(FAST_SHARE * len(windows)))
    return sorted(windows, key=key)[:k]


def fast_steps(episodes: List[List[float]]) -> List[float]:
    """The step times of the run's fastest windows (``FAST_SHARE``)."""
    windows = [
        e[i : i + WINDOW_STEPS]
        for e in episodes
        for i in range(0, len(e) - WINDOW_STEPS + 1, WINDOW_STEPS)
    ]
    fast = fastest(windows, np.median, least=math.ceil(FAST_STEPS / WINDOW_STEPS))
    return [t for window in fast for t in window]


def stepped(episodes: List[List[float]]) -> float:
    """Seconds of step time in ``episodes``."""
    return sum(sum(e) for e in episodes)


def finish(correct, tally, metrics, record) -> Outcome:
    """A failed gate counts every operation of the run as failed."""
    failed = tally.failed if correct else tally.attempted
    metrics["error_rate"] = failed / max(tally.attempted, 1)
    return Outcome(correct, tally.attempted, failed, metrics, record)


def mesh_record(mesh, name: str) -> dict:
    return {
        "instance": name,
        "nodes": mesh.num_nodes,
        "tets": mesh.num_elements,
        # The paper's count for a 3-dof linear tet mesh: 9 (n + 2e).
        "nnz": 9 * (mesh.num_nodes + 2 * mesh.num_edges),
    }


def matrix_bytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def case_record(case: Case) -> dict:
    """Instance sizes and the computed bytes one step touches."""
    w = case.workload
    out = mesh_record(case.mesh, w.instance)
    out["nnz"] = int(case.stiffness.nnz)
    n3 = 3 * case.mesh.num_nodes
    local = case.smvp.local_matrices
    # Local matrices, local x/y, and the stepper's global vectors
    # (u, u_prev, u_next, force, K u, 1/M) - computed, not measured.
    out["working_set_bytes_computed"] = int(
        sum(matrix_bytes(m) for m in local)
        + 8 * w.rhs * sum(2 * m.shape[0] for m in local)
        + 8 * n3 * (5 * w.rhs + 1)
    )
    out["pes"] = w.pes
    out["rhs"] = w.rhs
    out["backend"] = w.backend
    return out
