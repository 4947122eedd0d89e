"""Command-line entry points.

``repro-tables``
    Regenerate the paper's tables and figures (all, or a selection).

``repro-quake``
    Run a small end-to-end earthquake simulation (mesh, assemble,
    distributed SMVP per time step) and print a summary.

``repro-mesh``
    Build a named mesh instance, report its statistics, optionally
    export it.

``repro-measure``
    Run the Spark98-style kernel suite and print T_f per kernel.

``repro-trace``
    Run time steps through the distributed executor with per-superstep
    instrumentation attached; print the per-step phase table (or JSON).

``repro-faults``
    Sweep fault rates through the BSP simulator and the distributed
    executor's recovery protocol; print the reliability tables.

``repro-lint``
    Determinism / units / BSP-invariant static analysis over the
    source tree (and golden ``*schedule*.json`` files).  Exits 1 on
    findings; gates CI.

``repro-san``
    Dynamic BSP race detection: run supersteps with tracked per-PE
    arrays and check every access against the ownership map and
    exchange schedule (exact (pe, step, phase, dof) blame).  With
    ``--racy MODE``, runs the seeded race-injection fixture and
    verifies the detector catches every injected race; gates CI's
    race job.

``repro-metrics``
    The observability surface: run an instrumented workload and dump
    the metrics registry (``snapshot``), export a Chrome-trace/Perfetto
    timeline (``timeline``), or compare measured phase times against
    the Eq. (1)/(2) model (``drift``).

``repro-chaos``
    Self-healing exercise: run under the superstep supervisor with a
    seeded schedule of permanent PE failures, evict the dead PEs
    online, and prove survivor equivalence (a fresh P-1 run from the
    spliced state matches bit for bit).  Exits 1 when the proof fails;
    gates CI's chaos job.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import List, Optional


def _refusals_exit(main):
    """Report a refused feature combination as a usage error.

    The executor refuses unsupported backend / feature combinations
    with ``UnsupportedCombinationError`` (a ``ValueError``) when it is
    built; every entry point turns that into one clean line on stderr
    and exit status 2 instead of a traceback.
    """

    @functools.wraps(main)
    def run(argv: Optional[List[str]] = None) -> int:
        try:
            return main(argv)
        except ValueError as exc:
            from repro.smvp.backends import UnsupportedCombinationError

            if not isinstance(exc, UnsupportedCombinationError):
                raise
            print(f"repro-{main.__name__[5:]}: error: {exc}", file=sys.stderr)
            return 2

    return run


def _run_traced_workload(
    instance: str,
    pes: int,
    steps: int,
    kernel: str,
    backend: str,
    fault_rate: float,
    seed: int,
    rhs: int = 1,
    profile: bool = False,
):
    """Run a short traced time-stepped simulation.

    The shared workload behind ``repro-trace`` and ``repro-metrics``:
    build the instance, assemble, time-step through the distributed
    executor with a :class:`~repro.smvp.trace.TraceLog` attached.
    Returns ``(log, flops_per_pe, schedule)``.
    """
    import numpy as np

    from repro.faults import FaultConfig, FaultInjector
    from repro.fem import (
        ExplicitTimeStepper,
        assemble_lumped_mass,
        assemble_stiffness,
        materials_from_model,
        stable_timestep,
    )
    from repro.mesh.instances import get_instance
    from repro.partition.base import partition_mesh
    from repro.smvp.executor import DistributedSMVP
    from repro.smvp.trace import TraceLog

    inst = get_instance(instance)
    mesh, _ = inst.build()
    materials = materials_from_model(mesh, inst.model())
    stiffness = assemble_stiffness(mesh, materials)
    mass = assemble_lumped_mass(mesh, materials)
    dt = stable_timestep(mesh, materials)
    partition = partition_mesh(mesh, pes)
    injector = None
    if fault_rate > 0:
        injector = FaultInjector(
            FaultConfig(
                seed=seed,
                drop_rate=fault_rate,
                bitflip_rate=fault_rate,
                duplicate_rate=fault_rate,
            )
        )
    smvp = DistributedSMVP(
        mesh,
        partition,
        materials,
        kernel=kernel,
        backend=backend,
        injector=injector,
        profile=profile,
    )
    log = TraceLog()
    stepper = ExplicitTimeStepper(stiffness, mass, dt, smvp=smvp, rhs=rhs)
    force = np.zeros(3 * mesh.num_nodes)
    force[: min(300, force.size)] = 1e9
    try:
        stepper.run(steps, force_at=lambda t: force, trace_sink=log)
        flops = smvp.flops_per_pe()
        schedule = smvp.schedule
    finally:
        smvp.close()
    return log, flops, schedule


@_refusals_exit
def main_tables(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-tables``."""
    from repro.tables.report import TABLES, generate

    parser = argparse.ArgumentParser(
        prog="repro-tables",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "tables",
        nargs="*",
        help=f"tables to generate (default all): {', '.join(TABLES)}",
    )
    args = parser.parse_args(argv)
    names = args.tables or None
    try:
        sys.stdout.write(generate(names))
    except ValueError as exc:
        parser.error(str(exc))
    return 0


@_refusals_exit
def main_quake(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-quake``: a miniature Quake simulation."""
    import numpy as np

    from repro.fem import (
        ExplicitTimeStepper,
        PointSource,
        RickerWavelet,
        assemble_lumped_mass,
        assemble_stiffness,
        materials_from_model,
        stable_timestep,
    )
    from repro.mesh.instances import get_instance, instance_names
    from repro.partition.base import partition_mesh
    from repro.smvp.executor import DistributedSMVP

    parser = argparse.ArgumentParser(
        prog="repro-quake",
        description="Run a small earthquake ground-motion simulation.",
    )
    parser.add_argument(
        "--instance", default="demo", choices=list(instance_names())
    )
    parser.add_argument("--pes", type=int, default=8, help="number of PEs")
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument(
        "--sequential",
        action="store_true",
        help="use the sequential SMVP instead of the distributed executor",
    )
    parser.add_argument(
        "--backend",
        default="serial",
        help="execution backend for the compute phase "
        "(serial / threaded / overlap)",
    )
    parser.add_argument(
        "--kernel",
        default="csr",
        help="local SMVP kernel for the distributed executor",
    )
    parser.add_argument(
        "--rhs",
        type=int,
        default=1,
        metavar="R",
        help="number of right-hand-side scenarios integrated in lock "
        "step (block SMVP; 1 = the historical vector path)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot after the run "
        "(.json = JSON, anything else = Prometheus text)",
    )
    parser.add_argument(
        "--timeline-out",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace/Perfetto JSON timeline of the run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-PE spans and print a critical-path blame "
        "summary after the run",
    )
    args = parser.parse_args(argv)

    # Validate registry names up front: an unknown kernel/backend must
    # exit with the registered options, not a traceback from deep in
    # executor setup.
    from repro.smvp.backends import make_backend
    from repro.smvp.kernels import get_kernel

    try:
        get_kernel(args.kernel)
        make_backend(args.backend)
    except ValueError as exc:
        parser.error(str(exc))
    if args.rhs < 1:
        parser.error("--rhs must be >= 1")
    if args.timeline_out and args.sequential:
        parser.error(
            "--timeline-out needs the distributed executor; "
            "drop --sequential"
        )
    if args.profile and args.sequential:
        parser.error(
            "--profile needs the distributed executor; drop --sequential"
        )

    registry = None
    previous_registry = None
    if args.metrics_out or args.timeline_out:
        from repro.telemetry import MetricsRegistry, set_registry
        from repro.util.clock import now as _now

        registry = MetricsRegistry(clock=_now)
        previous_registry = set_registry(registry)
    try:
        inst = get_instance(args.instance)
        mesh, _ = inst.build()
        model = inst.model()
        materials = materials_from_model(mesh, model)
        stiffness = assemble_stiffness(mesh, materials)
        mass = assemble_lumped_mass(mesh, materials)
        dt = stable_timestep(mesh, materials)
        print(f"instance={args.instance} {mesh} dt={dt:.4f}s")

        smvp = None
        if not args.sequential:
            partition = partition_mesh(mesh, args.pes)
            smvp = DistributedSMVP(
                mesh,
                partition,
                materials,
                kernel=args.kernel,
                backend=args.backend,
                profile=args.profile,
            )
            print(
                f"distributed on {args.pes} PEs "
                f"(backend={smvp.backend_name}): "
                f"C_max={smvp.schedule.c_max} B_max={smvp.schedule.b_max}"
            )
        source = PointSource.at_point(
            mesh,
            (model.center_x, model.center_y, -4000.0),
            RickerWavelet(frequency=1.0 / inst.period, amplitude=1e12),
        )
        stepper = ExplicitTimeStepper(
            stiffness, mass, dt, damping_alpha=0.02, smvp=smvp,
            rhs=args.rhs,
        )
        log = None
        if args.timeline_out or args.profile:
            from repro.smvp.trace import TraceLog

            log = TraceLog()
        try:
            records, _ = stepper.run(
                args.steps,
                force_at=lambda t: source.force(t, mesh.num_nodes),
                trace_sink=log,
            )
        finally:
            if smvp is not None:
                smvp.close()
        peak = max(r.max_displacement for r in records)
        print(
            f"ran {args.steps} steps to t={stepper.time:.2f}s; "
            f"peak displacement {peak:.3e} m; "
            f"finite={np.isfinite(peak)}"
        )
        if args.profile:
            from repro.profile import build_report, render_report

            print()
            print(render_report(build_report(log)))
        if args.metrics_out:
            from repro.telemetry import write_metrics

            print(f"wrote metrics to {write_metrics(registry, args.metrics_out)}")
        if args.timeline_out:
            from repro.telemetry import render_chrome_trace

            Path(args.timeline_out).write_text(
                render_chrome_trace(log, registry)
            )
            print(f"wrote timeline to {args.timeline_out}")
    finally:
        if registry is not None:
            from repro.telemetry import set_registry

            set_registry(previous_registry)
    return 0


@_refusals_exit
def main_mesh(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-mesh``: build, inspect, and export meshes."""
    from repro.mesh.instances import get_instance, instance_names
    from repro.mesh.io import save_mesh, save_mesh_text
    from repro.mesh.quality import quality_report

    parser = argparse.ArgumentParser(
        prog="repro-mesh",
        description="Generate a named instance mesh and report/export it.",
    )
    parser.add_argument(
        "--instance", default="sf10e", choices=list(instance_names())
    )
    parser.add_argument(
        "--out", default=None, help="write the mesh to this .npz path"
    )
    parser.add_argument(
        "--out-text", default=None, help="write the portable text format"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="force a fresh build"
    )
    args = parser.parse_args(argv)

    inst = get_instance(args.instance)
    if not inst.is_enabled():
        parser.error(
            f"instance {args.instance} is gated; set {inst.gate}=1"
        )
    mesh, report = inst.build(use_cache=not args.no_cache)
    print(f"{args.instance}: {mesh}")
    if report is not None:
        print(
            f"  generated in {report.seconds_total:.1f}s "
            f"(octree {report.octree_leaves} leaves, depth "
            f"{report.octree_max_level}, method {report.method})"
        )
    print(f"  quality: {quality_report(mesh)}")
    if inst.paper_mesh_sizes:
        paper = inst.paper_mesh_sizes
        print(
            f"  paper ({inst.paper_name}): nodes={paper['nodes']:,} "
            f"elements={paper['elements']:,} edges={paper['edges']:,}"
        )
    if args.out:
        save_mesh(mesh, args.out)
        print(f"  wrote {args.out}")
    if args.out_text:
        save_mesh_text(mesh, args.out_text)
        print(f"  wrote {args.out_text}")
    return 0


@_refusals_exit
def main_faults(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-faults``: the reliability sweep."""
    from repro.mesh.instances import INSTANCES
    from repro.model.machine import MACHINES
    from repro.tables.reliability import (
        DEFAULT_INSTANCES,
        DEFAULT_RATES,
        table_fault_recovery,
        table_reliability,
    )

    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description=(
            "Sweep fault rates (stragglers, dropped/corrupt/duplicated "
            "blocks, transient PE failures) and report efficiency/runtime "
            "degradation plus executor-level detection and recovery."
        ),
    )
    parser.add_argument(
        "--instances",
        nargs="*",
        default=list(DEFAULT_INSTANCES),
        help="instances to sweep (default: sf10e sf5e)",
    )
    parser.add_argument("--pes", type=int, default=32, help="number of PEs")
    parser.add_argument(
        "--rates",
        type=float,
        nargs="*",
        default=list(DEFAULT_RATES),
        help="fault rates to sweep (0 = the paper's perfect machine)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=20,
        help="supersteps sampled per cell (extrapolated to 6000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--machine",
        default="t3e",
        choices=sorted(MACHINES),
        help="machine preset (needs T_l/T_w, e.g. t3e)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: demo instance, 8 PEs, 3 supersteps",
    )
    args = parser.parse_args(argv)

    machine = MACHINES[args.machine]
    try:
        machine.require_comm("the reliability sweep")
    except ValueError as exc:
        parser.error(str(exc))

    if args.smoke:
        instances, pes, rates, steps = ["demo"], 8, [0.0, 0.05], 3
    else:
        instances, pes, rates, steps = (
            args.instances,
            args.pes,
            args.rates,
            args.steps,
        )
    unknown = [n for n in instances if n not in INSTANCES]
    if unknown:
        parser.error(f"unknown instances {unknown}")
    bad_rates = [r for r in rates if not 0.0 <= r <= 0.5]
    if bad_rates:
        parser.error(
            f"rates must be in [0, 0.5] (uniform fault mix), got {bad_rates}"
        )

    print(
        table_reliability(
            instances=instances,
            num_parts=pes,
            rates=rates,
            machine=machine,
            num_steps=steps,
            seed=args.seed,
        )
    )
    print()
    recovery_rate = max([r for r in rates if r > 0], default=0.05)
    print(
        table_fault_recovery(
            instance="demo",
            num_parts=min(pes, 8),
            rate=min(recovery_rate, 0.1),
            num_exchanges=2 if args.smoke else 5,
            seed=args.seed,
        )
    )
    return 0


@_refusals_exit
def main_lint(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-lint``: the static-analysis gate."""
    from repro.analysis import (
        ALL_RULES,
        lint_paths,
        render_json,
        render_text,
    )

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for reproducibility: determinism lints "
            "(unseeded RNG, wall-clock reads, set-order iteration), "
            "dimensional consistency of the Eq. (1)/(2) model code, and "
            "BSP exchange-schedule invariants (pairwise symmetry, "
            "deadlock-freedom, shared-node coverage) over golden "
            "*schedule*.json files."
        ),
        epilog=(
            "Suppress an intentional finding with an inline "
            "`# repro-lint: ignore[rule]` pragma. Exit status: 0 clean, "
            "1 findings, 2 usage error."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--rules",
        nargs="*",
        default=None,
        metavar="RULE",
        help="restrict to these rules (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--pragma-report",
        action="store_true",
        help=(
            "also print the pragma budget: every "
            "`# repro-lint: ignore` suppression under the target "
            "paths, tallied by rule and file"
        ),
    )
    parser.add_argument(
        "--pragma-budget",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fail (exit 1) when the pragma count exceeds N "
            "(implies --pragma-report)"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        from repro.analysis.core import _ensure_rules_loaded

        _ensure_rules_loaded()
        for name, rule in ALL_RULES.items():
            print(f"{name:<22} {rule.description}")
        return 0
    try:
        findings = lint_paths(args.paths, rules=args.rules)
    except (FileNotFoundError, ValueError) as exc:
        parser.error(str(exc))
    over_budget = False
    if args.pragma_report or args.pragma_budget is not None:
        from repro.analysis.core import pragma_report, render_pragma_report

        report = pragma_report(args.paths)
        sys.stdout.write(render_pragma_report(report))
        if (
            args.pragma_budget is not None
            and report["total"] > args.pragma_budget
        ):
            print(
                f"pragma budget exceeded: {report['total']} > "
                f"{args.pragma_budget}"
            )
            over_budget = True
    if args.json:
        print(render_json(findings))
    else:
        sys.stdout.write(render_text(findings))
    return 1 if findings or over_budget else 0


@_refusals_exit
def main_san(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-san``: the dynamic BSP race detector.

    Runs a short power-iteration workload through the distributed
    executor with the superstep sanitizer recording every per-(PE,
    superstep, phase) read/write dof set and checking it against the
    ownership map and exchange schedule.  ``--racy MODE`` swaps in the
    seeded race-injection fixture and additionally verifies the
    detector blamed every injected race exactly.

    Exit status: 0 clean, 1 findings reported, 2 usage error, 4 the
    racy fixture injected a race the sanitizer missed (detector
    regression — this is what the CI race job guards).
    """
    import numpy as np

    from repro.fem import materials_from_model
    from repro.mesh.instances import get_instance, instance_names
    from repro.partition.base import partition_mesh
    from repro.smvp.backends import backend_names
    from repro.smvp.executor import DistributedSMVP
    from repro.smvp.kernels import kernel_names
    from repro.smvp.racy import RACE_MODES, make_racy, verify_detection

    parser = argparse.ArgumentParser(
        prog="repro-san",
        description=(
            "Dynamic BSP race detection: run supersteps with tracked "
            "per-PE arrays and check every recorded access against the "
            "ownership map and the exchange schedule's happens-before "
            "order. Reports racy write/write pairs, non-owner writes, "
            "and stale-ghost reads with exact (pe, step, phase, dof) "
            "blame."
        ),
        epilog=(
            "Exit status: 0 clean, 1 findings, 2 usage error, 4 an "
            "injected race went undetected (--racy only)."
        ),
    )
    parser.add_argument(
        "--instance",
        default="sf10e",
        choices=list(instance_names()),
        help="mesh instance (default: sf10e)",
    )
    parser.add_argument("--pes", type=int, default=8, help="number of PEs")
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument(
        "--kernel", default="csr", choices=list(kernel_names())
    )
    parser.add_argument(
        "--backend",
        default="threaded",
        choices=list(backend_names()),
        help="execution backend (default: threaded)",
    )
    parser.add_argument(
        "--racy",
        default=None,
        choices=sorted(RACE_MODES),
        metavar="MODE",
        help=(
            "run the seeded race-injection fixture instead of the "
            f"clean engine (modes: {', '.join(sorted(RACE_MODES))})"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )
    args = parser.parse_args(argv)

    inst = get_instance(args.instance)
    mesh, _ = inst.build()
    materials = materials_from_model(mesh, inst.model())
    partition = partition_mesh(mesh, args.pes)

    if args.racy is not None:
        smvp = make_racy(
            mesh,
            partition,
            materials,
            args.racy,
            seed=args.seed,
            kernel=args.kernel,
            backend=args.backend,
            strict=False,
        )
    else:
        smvp = DistributedSMVP(
            mesh,
            partition,
            materials,
            kernel=args.kernel,
            backend=args.backend,
            sanitizer=True,
        )
        smvp.sanitizer.strict = False

    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(3 * mesh.num_nodes)
    try:
        for _step in range(args.steps):
            y = smvp.multiply(x)
            x = y / np.linalg.norm(y)  # power iteration keeps it bounded
    finally:
        smvp.close()

    san = smvp.sanitizer
    missed = []
    if args.racy is not None:
        missed = verify_detection(smvp.injected, san.findings)

    if args.json:
        import json as _json
        from dataclasses import asdict

        print(
            _json.dumps(
                {
                    "version": 1,
                    "summary": san.summary(),
                    "findings": [asdict(f) for f in san.findings],
                    "injected": (
                        [asdict(r) for r in smvp.injected]
                        if args.racy is not None
                        else []
                    ),
                    "missed": [asdict(r) for r in missed],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        sys.stdout.write(san.render_report())
        if args.racy is not None:
            total = len(smvp.injected)
            print(
                f"repro-san --racy {args.racy}: detected "
                f"{total - len(missed)}/{total} injected race(s)"
            )
            for race in missed:
                print(f"  MISSED: {race}")
    if missed:
        return 4
    return 1 if san.findings else 0


@_refusals_exit
def main_measure(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-measure``: the Spark98-style suite."""
    from repro.smvp.backends import backend_names
    from repro.smvp.spark98 import SUITE, run_suite

    parser = argparse.ArgumentParser(
        prog="repro-measure",
        description="Measure T_f for the Spark98-style kernel suite.",
    )
    parser.add_argument("--instance", default="sf10e")
    parser.add_argument("--pes", type=int, default=8)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument(
        "--kernels", nargs="*", default=None, help=f"subset of {SUITE}"
    )
    parser.add_argument(
        "--backend",
        default="serial",
        choices=backend_names(),
        help="execution backend for the partitioned kernels (lmv/mmv)",
    )
    parser.add_argument(
        "--rhs",
        type=int,
        default=1,
        metavar="R",
        help="right-hand-side columns per SMVP (block kernels; flops "
        "count every column so T_f stays per-flop-per-column)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot after the suite "
        "(.json = JSON, anything else = Prometheus text)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the critical-path profiler to the mmv kernel's "
        "executor and print its blame summary after the table",
    )
    args = parser.parse_args(argv)
    kernels = tuple(args.kernels) if args.kernels else SUITE
    unknown = [k for k in kernels if k not in SUITE]
    if unknown:
        parser.error(
            f"unknown kernels {unknown}; registered: {list(SUITE)}"
        )
    if args.rhs < 1:
        parser.error("--rhs must be >= 1")
    registry = None
    previous_registry = None
    if args.metrics_out:
        from repro.telemetry import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        previous_registry = set_registry(registry)
    trace_log = None
    if args.profile:
        from repro.smvp.trace import TraceLog

        trace_log = TraceLog()
    try:
        results = run_suite(
            instance=args.instance,
            num_parts=args.pes,
            repetitions=args.repetitions,
            kernels=kernels,
            backend=args.backend,
            rhs=args.rhs,
            trace_sink=trace_log,
            profile=args.profile,
        )
    finally:
        if registry is not None:
            from repro.telemetry import set_registry

            set_registry(previous_registry)
    if args.metrics_out:
        from repro.telemetry import write_metrics

        print(f"wrote metrics to {write_metrics(registry, args.metrics_out)}")
    if args.rhs > 1:
        print(f"rhs={args.rhs} (block SMVP; flops count every column)")
    print(
        f"{'kernel':<8} {'p':>4} {'backend':<13} {'flops':>12} "
        f"{'s/SMVP':>12} {'T_f ns':>9} {'MFLOPS':>8}"
    )
    for name, run in results.items():
        print(
            f"{name:<8} {run.num_parts:>4} {run.backend:<13} {run.flops:>12,} "
            f"{run.seconds_per_smvp:>12.6f} {run.tf_ns:>9.2f} "
            f"{run.mflops:>8.0f}"
        )
    if trace_log is not None:
        from repro.profile import build_report, render_report

        if any(
            getattr(t, "pe_spans", None) is not None
            for t in trace_log.traces
        ):
            print()
            print(render_report(build_report(trace_log)))
        else:
            print(
                "\n--profile: no profiled supersteps (include the mmv "
                "kernel to trace the distributed executor)"
            )
    return 0


@_refusals_exit
def main_trace(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-trace``: per-superstep instrumentation.

    Runs a short time-stepped simulation with the distributed executor
    and a :class:`~repro.smvp.trace.TraceLog` attached, then prints the
    per-step phase table (wall time per phase, per-PE traffic, faults)
    or the JSON report.
    """
    from repro.mesh.instances import instance_names
    from repro.smvp.backends import backend_names
    from repro.smvp.kernels import kernel_names

    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Trace the superstep engine: run time steps through the "
            "distributed executor and print per-phase wall times, "
            "per-PE traffic, and fault statistics for every superstep."
        ),
    )
    parser.add_argument(
        "--instance", default="demo", choices=list(instance_names())
    )
    parser.add_argument("--pes", type=int, default=8, help="number of PEs")
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument(
        "--kernel", default="csr", choices=kernel_names()
    )
    parser.add_argument(
        "--backend", default="serial", choices=backend_names()
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="uniform drop/bitflip/duplicate rate through the exchange "
        "middleware (0 = clean path)",
    )
    parser.add_argument(
        "--rhs",
        type=int,
        default=1,
        metavar="R",
        help="right-hand-side columns per superstep (block SMVP; "
        "1 = the historical vector path)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON report instead of the table",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot after the run "
        "(.json = JSON, anything else = Prometheus text)",
    )
    parser.add_argument(
        "--timeline-out",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace/Perfetto JSON timeline of the run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-PE spans (critical-path profiler); adds a "
        "blame summary after the phase table and per-PE/wire tracks "
        "to --timeline-out",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.fault_rate <= 0.3:
        parser.error("--fault-rate must be in [0, 0.3]")
    if args.rhs < 1:
        parser.error("--rhs must be >= 1")

    registry = None
    previous_registry = None
    if args.metrics_out or args.timeline_out:
        from repro.telemetry import MetricsRegistry, set_registry
        from repro.util.clock import now as _now

        registry = MetricsRegistry(clock=_now)
        previous_registry = set_registry(registry)
    try:
        log, _flops, _schedule = _run_traced_workload(
            instance=args.instance,
            pes=args.pes,
            steps=args.steps,
            kernel=args.kernel,
            backend=args.backend,
            fault_rate=args.fault_rate,
            seed=args.seed,
            rhs=args.rhs,
            profile=args.profile,
        )
    finally:
        if registry is not None:
            from repro.telemetry import set_registry

            set_registry(previous_registry)
    if args.json:
        print(log.render_json())
    else:
        print(
            f"instance={args.instance} pes={args.pes} "
            f"kernel={args.kernel} backend={args.backend} "
            f"fault_rate={args.fault_rate} rhs={args.rhs}"
        )
        print(log.render_table())
        if args.profile:
            from repro.profile import build_report, render_report

            print()
            print(render_report(build_report(log)))
    if args.metrics_out:
        from repro.telemetry import write_metrics

        print(f"wrote metrics to {write_metrics(registry, args.metrics_out)}")
    if args.timeline_out:
        from repro.telemetry import render_chrome_trace

        Path(args.timeline_out).write_text(
            render_chrome_trace(log, registry)
        )
        print(f"wrote timeline to {args.timeline_out}")
    return 0


#: Absolute slack on the critical-path identity gate (seconds).  The
#: host windows tile [0, t_smvp] by construction, so the error is pure
#: float-addition roundoff — nanoseconds would already be a failure.
PROFILE_IDENTITY_TOL = 1e-9


@_refusals_exit
def main_profile(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-profile``: the critical-path profiler.

    Default mode runs a profiled workload and prints the blame table
    (optionally next to the analytic prediction via ``--machine``),
    with the JSON snapshot / folded stacks / Chrome-trace timeline as
    side outputs.  ``--regress OLD NEW`` instead compares two saved
    snapshots with a noise-aware threshold and exits 1 on a slowdown.
    """
    from repro.mesh.instances import instance_names
    from repro.model.machine import MACHINES
    from repro.smvp.backends import backend_names
    from repro.smvp.kernels import kernel_names

    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description=(
            "Critical-path profiler: record per-PE spans through the "
            "superstep engine, attribute wall time to compute / "
            "imbalance / latency / bandwidth / verify / recovery / "
            "overhead, and report stragglers, overlap efficiency, and "
            "the per-message wire fit."
        ),
    )
    parser.add_argument(
        "--instance", default="demo", choices=list(instance_names())
    )
    parser.add_argument("--pes", type=int, default=8, help="number of PEs")
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument(
        "--kernel", default="csr", choices=kernel_names()
    )
    parser.add_argument(
        "--backend", default="serial", choices=backend_names()
    )
    parser.add_argument(
        "--rhs",
        type=int,
        default=1,
        metavar="R",
        help="right-hand-side columns per superstep (block SMVP)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--machine",
        default=None,
        choices=sorted(MACHINES),
        help="also render the analytic per-bucket prediction for this "
        "machine next to the measured buckets",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the JSON snapshot ('-' = stdout); feed two of "
        "these to --regress",
    )
    parser.add_argument(
        "--folded",
        default=None,
        metavar="PATH",
        help="write flamegraph folded stacks ('-' = stdout)",
    )
    parser.add_argument(
        "--timeline-out",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace/Perfetto timeline with per-PE and "
        "wire-thread tracks",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) unless the critical-path identity "
        "|path - t_smvp| holds on every superstep",
    )
    parser.add_argument(
        "--regress",
        nargs=2,
        default=None,
        metavar=("OLD", "NEW"),
        help="compare two --json snapshots instead of running a "
        "workload; exit 1 on a slowdown beyond the noise-aware "
        "threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRACTION",
        help="base relative-slowdown threshold for --regress "
        "(widened automatically on noisy baselines; default 0.10)",
    )
    args = parser.parse_args(argv)

    from repro.profile import (
        DEFAULT_REGRESS_THRESHOLD,
        build_report,
        compare_snapshots,
        load_snapshot,
        render_folded,
        render_report,
        render_snapshot,
    )

    if args.regress:
        old = load_snapshot(Path(args.regress[0]).read_text())
        new = load_snapshot(Path(args.regress[1]).read_text())
        base = (
            args.threshold
            if args.threshold is not None
            else DEFAULT_REGRESS_THRESHOLD
        )
        ok, lines = compare_snapshots(old, new, base_threshold=base)
        for line in lines:
            print(line)
        if not ok:
            print("PROFILE REGRESSION", file=sys.stderr)
            return 1
        print("no regression")
        return 0
    if args.rhs < 1:
        parser.error("--rhs must be >= 1")
    if args.threshold is not None:
        parser.error("--threshold only applies to --regress")
    if args.machine:
        try:
            MACHINES[args.machine].require_comm("the modeled critical path")
        except ValueError as exc:
            parser.error(str(exc))

    log, flops, schedule = _run_traced_workload(
        instance=args.instance,
        pes=args.pes,
        steps=args.steps,
        kernel=args.kernel,
        backend=args.backend,
        fault_rate=0.0,
        seed=args.seed,
        rhs=args.rhs,
        profile=True,
    )
    report = build_report(log)
    modeled = None
    if args.machine:
        from repro.simulate.bsp import modeled_critical_path

        per_step = modeled_critical_path(
            flops, schedule, MACHINES[args.machine], rhs=args.rhs
        )
        # The report totals over the run; scale the per-superstep
        # prediction to match.
        modeled = {k: v * report.steps for k, v in per_step.items()}
    print(render_report(report, modeled=modeled))
    meta = {
        "instance": args.instance,
        "pes": args.pes,
        "steps": args.steps,
        "kernel": args.kernel,
        "backend": args.backend,
        "rhs": args.rhs,
        "seed": args.seed,
    }
    if args.json:
        text = render_snapshot(report, meta) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text)
            print(f"wrote snapshot to {args.json}")
    if args.folded:
        text = render_folded(log)
        if args.folded == "-":
            sys.stdout.write(text)
        else:
            Path(args.folded).write_text(text)
            print(f"wrote folded stacks to {args.folded}")
    if args.timeline_out:
        from repro.telemetry import render_chrome_trace

        Path(args.timeline_out).write_text(render_chrome_trace(log))
        print(f"wrote timeline to {args.timeline_out}")
    if args.check:
        if report.identity_max_err > PROFILE_IDENTITY_TOL:
            print(
                f"PROFILE CHECK FAILURE: critical-path identity "
                f"max error {report.identity_max_err:.3e}s exceeds "
                f"{PROFILE_IDENTITY_TOL:.0e}s",
                file=sys.stderr,
            )
            return 1
        print(
            f"critical-path identity ok "
            f"(max error {report.identity_max_err:.3e}s over "
            f"{report.steps} supersteps)"
        )
    return 0


@_refusals_exit
def main_metrics(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-metrics``: the observability surface.

    ``snapshot``
        Run an instrumented workload and dump the metrics registry
        (Prometheus text or JSON snapshot).
    ``timeline``
        Export a Chrome-trace/Perfetto JSON timeline — from a fresh
        instrumented run or from a saved ``repro-trace --json`` report.
    ``drift``
        Compare measured per-superstep phase times against the
        Eq. (1)/(2) predictions on a named machine; optionally fail
        (exit 1) when relative drift exceeds a threshold.
    """
    from repro.mesh.instances import instance_names
    from repro.model.machine import MACHINES
    from repro.smvp.backends import backend_names
    from repro.smvp.kernels import kernel_names

    parser = argparse.ArgumentParser(
        prog="repro-metrics",
        description=(
            "Observability for the reproduction pipeline: metrics "
            "snapshots, Perfetto timelines, and model-vs-measured "
            "drift monitoring."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--instance", default="demo", choices=list(instance_names())
        )
        p.add_argument("--pes", type=int, default=8, help="number of PEs")
        p.add_argument("--steps", type=int, default=5)
        p.add_argument("--kernel", default="csr", choices=kernel_names())
        p.add_argument(
            "--backend", default="serial", choices=backend_names()
        )
        p.add_argument(
            "--fault-rate",
            type=float,
            default=0.0,
            help="uniform drop/bitflip/duplicate rate (0 = clean path)",
        )
        p.add_argument("--seed", type=int, default=0)

    p_snap = sub.add_parser(
        "snapshot",
        help="run an instrumented workload and dump the registry",
    )
    add_workload_args(p_snap)
    p_snap.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write instead of printing (.json = JSON snapshot, "
        "anything else = Prometheus text)",
    )
    p_snap.add_argument(
        "--json",
        action="store_true",
        help="print the JSON snapshot instead of Prometheus text",
    )

    p_tl = sub.add_parser(
        "timeline", help="export a Chrome-trace/Perfetto JSON timeline"
    )
    add_workload_args(p_tl)
    p_tl.add_argument(
        "--from-trace",
        default=None,
        metavar="PATH",
        help="convert a saved `repro-trace --json` report instead of "
        "running a workload",
    )
    p_tl.add_argument(
        "--out", default=None, metavar="PATH", help="write instead of printing"
    )

    p_drift = sub.add_parser(
        "drift",
        help="compare measured phase times against the Eq. (1)/(2) model",
    )
    add_workload_args(p_drift)
    p_drift.add_argument(
        "--source",
        default="simulate",
        choices=("simulate", "execute"),
        help="'simulate' runs the BSP simulator on the named machine "
        "(measured == modeled by construction when fault-free); "
        "'execute' runs the real executor and fits a host machine "
        "from the first supersteps",
    )
    p_drift.add_argument(
        "--machine",
        default="t3e",
        choices=sorted(MACHINES),
        help="machine preset for --source simulate (needs T_l/T_w)",
    )
    p_drift.add_argument(
        "--max-drift",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail (exit 1) when |relative drift| of T_comp or T_comm "
        "exceeds this fraction, or the beta bound is violated",
    )
    p_drift.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON report instead of the table",
    )

    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("choose a subcommand: snapshot, timeline, or drift")
    if not 0.0 <= args.fault_rate <= 0.3:
        parser.error("--fault-rate must be in [0, 0.3]")

    if args.command == "snapshot":
        return _metrics_snapshot(args)
    if args.command == "timeline":
        return _metrics_timeline(args)
    return _metrics_drift(args, parser)


def _metrics_snapshot(args) -> int:
    from repro.telemetry import (
        MetricsRegistry,
        render_prometheus,
        render_snapshot_json,
        use_registry,
        write_metrics,
    )
    from repro.util.clock import now

    registry = MetricsRegistry(clock=now)
    with use_registry(registry):
        log, _flops, _schedule = _run_traced_workload(
            instance=args.instance,
            pes=args.pes,
            steps=args.steps,
            kernel=args.kernel,
            backend=args.backend,
            fault_rate=args.fault_rate,
            seed=args.seed,
        )
        for trace in log.traces:
            registry.histogram(
                "repro_smvp_t_smvp_seconds",
                help_text="superstep wall time",
            ).observe(trace.t_smvp)
            registry.histogram(
                "repro_smvp_t_comm_seconds",
                help_text="communication-phase wall time",
            ).observe(trace.t_comm)
    if args.out:
        print(f"wrote metrics to {write_metrics(registry, args.out)}")
    elif args.json:
        sys.stdout.write(render_snapshot_json(registry))
    else:
        sys.stdout.write(render_prometheus(registry))
    return 0


def _metrics_timeline(args) -> int:
    from repro.telemetry import MetricsRegistry, render_chrome_trace, use_registry

    registry = None
    if args.from_trace:
        from repro.smvp.trace import TraceLog

        log = TraceLog.from_json(Path(args.from_trace).read_text())
    else:
        from repro.util.clock import now

        registry = MetricsRegistry(clock=now)
        with use_registry(registry):
            log, _flops, _schedule = _run_traced_workload(
                instance=args.instance,
                pes=args.pes,
                steps=args.steps,
                kernel=args.kernel,
                backend=args.backend,
                fault_rate=args.fault_rate,
                seed=args.seed,
            )
    text = render_chrome_trace(log, registry)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote timeline to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _metrics_drift(args, parser: argparse.ArgumentParser) -> int:
    import json

    from repro.model.machine import MACHINES
    from repro.telemetry import DriftMonitor, DriftThresholds, fit_machine

    thresholds = None
    if args.max_drift is not None:
        if args.max_drift <= 0:
            parser.error("--max-drift must be positive")
        thresholds = DriftThresholds(
            max_comp_drift=args.max_drift,
            max_comm_drift=args.max_drift,
            max_efficiency_delta=1.0,  # gated by the time drifts above
        )

    if args.source == "simulate":
        from repro.mesh.instances import get_instance
        from repro.partition.base import partition_mesh
        from repro.simulate.bsp import BspSimulator
        from repro.smvp.distribution import DataDistribution
        from repro.smvp.schedule import CommSchedule

        machine = MACHINES[args.machine]
        try:
            machine.require_comm("drift monitoring")
        except ValueError as exc:
            parser.error(str(exc))
        inst = get_instance(args.instance)
        mesh, _ = inst.build()
        partition = partition_mesh(mesh, args.pes)
        dist = DataDistribution(mesh, partition)
        schedule = CommSchedule(dist)
        flops = dist.local_counts["flops"]
        injector = None
        if args.fault_rate > 0:
            from repro.faults import FaultConfig, FaultInjector

            injector = FaultInjector(
                FaultConfig(
                    seed=args.seed,
                    drop_rate=args.fault_rate,
                    bitflip_rate=args.fault_rate,
                    duplicate_rate=args.fault_rate,
                )
            )
        simulator = BspSimulator(flops, schedule, machine, injector=injector)
        monitor = DriftMonitor(
            flops, schedule, machine, thresholds=thresholds
        )
        for step in range(args.steps):
            monitor.observe(
                simulator.run("barrier", step=step), step=step
            )
    else:  # execute: measure the real executor against a fitted host
        log, flops, schedule = _run_traced_workload(
            instance=args.instance,
            pes=args.pes,
            steps=args.steps,
            kernel=args.kernel,
            backend=args.backend,
            fault_rate=args.fault_rate,
            seed=args.seed,
        )
        if not log.traces:
            parser.error("the workload produced no supersteps")
        calibrate = log.traces[: max(1, min(3, len(log.traces) - 1))]
        machine = fit_machine(calibrate, flops, schedule)
        monitor = DriftMonitor(
            flops, schedule, machine, thresholds=thresholds
        )
        for trace in log.traces[len(calibrate):]:
            monitor.observe(trace)

    report = monitor.report()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_table())
    if args.max_drift is not None and not report.ok:
        for problem in report.violations():
            print(f"DRIFT FAILURE: {problem}", file=sys.stderr)
        return 1
    return 0


@_refusals_exit
def main_chaos(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-chaos``: supervised kill-schedule runs."""
    import json

    from repro.mesh.instances import INSTANCES
    from repro.model.machine import MACHINES
    from repro.resilience import (
        KillSchedule,
        RecoveryPolicy,
        ScalePolicy,
        parse_grow_schedule,
        render_chaos_report,
        run_chaos,
    )
    from repro.smvp.backends import backend_names

    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description=(
            "Run a time-stepped distributed simulation under the "
            "self-healing supervisor with a seeded schedule of permanent "
            "PE failures, then prove survivor equivalence: a fresh P-1 "
            "run from the spliced state must match the supervised run "
            "bit for bit."
        ),
    )
    parser.add_argument(
        "--instance",
        default="sf10e",
        choices=sorted(INSTANCES),
        help="mesh instance (default: sf10e)",
    )
    parser.add_argument("--pes", type=int, default=8, help="initial PEs")
    parser.add_argument(
        "--steps", type=int, default=40, help="time steps to run"
    )
    parser.add_argument(
        "--kill",
        default=None,
        help=(
            "kill schedule 'superstep:pe[,superstep:pe...]' "
            "(default: one seeded random kill)"
        ),
    )
    parser.add_argument(
        "--kills",
        type=int,
        default=1,
        help="random kills to draw when --kill is not given",
    )
    parser.add_argument(
        "--grow",
        default=None,
        metavar="STEP[:N][,...]",
        help=(
            "grow schedule 'superstep[:count][,superstep[:count]...]': "
            "bring count fresh PEs online just before that superstep; "
            "the exit code then also demands rejoin equivalence (a "
            "fresh run from the grown layout matches bit for bit)"
        ),
    )
    parser.add_argument(
        "--readmit",
        action="store_true",
        help=(
            "make growth rejoin previously evicted physical PEs after "
            "the probation window instead of provisioning fresh "
            "hardware (requires --grow; the readmitted PE keeps its "
            "physical id and fault history); fails unless at least "
            "one rejoin happened"
        ),
    )
    parser.add_argument(
        "--probation",
        type=int,
        default=8,
        metavar="STEPS",
        help=(
            "supersteps an evicted or quarantined PE must sit out "
            "before readmission (default: 8)"
        ),
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help=(
            "enable the autoscaling policy: the contention-aware cost "
            "oracle may grow the run back after evictions (and shrink "
            "a sustained under-utilized one)"
        ),
    )
    parser.add_argument("--kernel", default="csr")
    parser.add_argument(
        "--backend", default="serial", choices=backend_names()
    )
    parser.add_argument(
        "--machine",
        default="t3e",
        choices=sorted(MACHINES),
        help="machine preset pricing the reconfiguration (needs T_l/T_w)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="transient link-fault rate riding along with the kills",
    )
    parser.add_argument(
        "--flip",
        type=float,
        default=0.0,
        metavar="RATE",
        help=(
            "silent-data-corruption rate: per PE per superstep, flip a "
            "high-order bit in the local input/output vectors at RATE "
            "and in the assembled matrix block at RATE/2; implies ABFT "
            "verification, and the exit code demands every flip "
            "detected, blamed, and healed bit-exactly"
        ),
    )
    parser.add_argument(
        "--sticky",
        default=None,
        metavar="PE[,PE...]",
        help=(
            "physical PE ids with a bad core: their kernel output is "
            "corrupted on every compute (recovery recomputes included), "
            "so the run must escalate them to eviction"
        ),
    )
    parser.add_argument(
        "--sticky-from",
        type=int,
        default=0,
        metavar="STEP",
        help="first superstep at which sticky PEs start corrupting",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="enable checkpointing (and the rollback recovery path)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=10
    )
    parser.add_argument(
        "--no-shadow",
        action="store_true",
        help="disable buddy shadows; force checkpoint rollback recovery",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the survivor-equivalence proof run",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: demo instance, 6 PEs, 10 steps",
    )
    args = parser.parse_args(argv)

    machine = MACHINES[args.machine]
    try:
        machine.require_comm("the reconfiguration cost model")
    except ValueError as exc:
        parser.error(str(exc))
    if args.smoke:
        instance, pes, steps = "demo", 6, 10
    else:
        instance, pes, steps = args.instance, args.pes, args.steps
    sticky: tuple = ()
    if args.sticky:
        try:
            sticky = tuple(
                int(token) for token in args.sticky.split(",") if token.strip()
            )
        except ValueError:
            parser.error(f"bad --sticky list {args.sticky!r}")
        for pe in sticky:
            if not 0 <= pe < pes:
                parser.error(
                    f"--sticky targets PE {pe}, but only {pes} PEs exist"
                )
    if args.flip < 0 or args.flip > 0.4:
        parser.error("--flip must be in [0, 0.4]")
    sdc_configured = args.flip > 0 or bool(sticky)
    try:
        if args.kill:
            kills = KillSchedule.parse(args.kill)
        elif sdc_configured:
            # SDC runs stand alone by default: no permanent kills, the
            # corruption ladder supplies any evictions.
            kills = KillSchedule(())
        else:
            kills = KillSchedule.random(args.seed, pes, steps, args.kills)
    except ValueError as exc:
        parser.error(str(exc))
    for _, pe in kills.kills:
        if pe >= pes:
            parser.error(f"kill targets PE {pe}, but only {pes} PEs exist")
    policy = RecoveryPolicy(prefer_shadow=not args.no_shadow)
    if args.no_shadow and args.checkpoint_dir is None:
        parser.error("--no-shadow requires --checkpoint-dir")
    grows = None
    if args.grow:
        try:
            grows = parse_grow_schedule(args.grow)
        except ValueError as exc:
            parser.error(str(exc))
    if args.readmit and not grows:
        parser.error("--readmit requires --grow")
    if args.probation < 1:
        parser.error("--probation must be at least 1")
    scale_policy = None
    if args.autoscale or args.readmit:
        try:
            scale_policy = ScalePolicy(
                autoscale=args.autoscale,
                probation_steps=args.probation,
                readmit_evicted=args.readmit or args.autoscale,
            )
        except ValueError as exc:
            parser.error(str(exc))

    report = run_chaos(
        instance=instance,
        pes=pes,
        steps=steps,
        kills=kills,
        kernel=args.kernel,
        backend=args.backend,
        policy=policy,
        machine_name=args.machine,
        fault_rate=args.fault_rate,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        verify=not args.no_verify,
        flip_rate=args.flip,
        sticky=sticky,
        sticky_from=args.sticky_from,
        grows=grows,
        scale_policy=scale_policy,
        readmit=args.readmit,
    )
    if args.json:
        payload = {
            "instance": report.instance,
            "kernel": report.kernel,
            "backend": report.backend,
            "num_steps": report.num_steps,
            "num_pes_initial": report.num_pes_initial,
            "num_pes_final": report.num_pes_final,
            "kill_schedule": report.kill_schedule,
            "evictions": [
                {
                    "dead_pe": e.dead_pe,
                    "superstep": e.superstep,
                    "recovery_source": e.recovery_source,
                    "recomputed_supersteps": e.recomputed_supersteps,
                    "migrated_words": e.migrated_words,
                    "migrated_blocks": e.migrated_blocks,
                    "shadow_words": e.shadow_words,
                    "repartition_flops": e.repartition_flops,
                    "c_max_after": e.delta.c_max_after,
                    "b_max_after": e.delta.b_max_after,
                    "cost_seconds": (
                        e.cost.t_total if e.cost is not None else None
                    ),
                }
                for e in report.evictions
            ],
            "retried_supersteps": report.supervisor.retried_supersteps,
            "survivor_equivalent": report.survivor_equivalent,
            "survivor_max_abs_diff": report.survivor_max_abs_diff,
            "final_max_displacement": report.final_max_displacement,
            "abft": report.abft,
            "sdc_injected": report.sdc_injected,
            "sdc_detected": report.sdc_detected,
            "sdc_recomputed": report.sdc_recomputed,
            "sdc_scrubbed": report.sdc_scrubbed,
            "sdc_escaped": report.sdc_escaped,
            "sdc_all_detected": report.sdc_all_detected,
            "sdc_blame_correct": report.sdc_blame_correct,
            "clean_equivalent": report.clean_equivalent,
            "clean_max_abs_diff": report.clean_max_abs_diff,
            "sticky_evicted": report.sticky_evicted,
            "grow_schedule": report.grow_schedule,
            "grows": report.grows,
            "readmissions": report.readmissions,
            "grow_applied": report.grow_applied,
            "readmit_ok": report.readmit_ok,
            "scale_events": [
                {
                    "kind": e.kind,
                    "superstep": e.superstep,
                    "pe": e.pe,
                    "num_pes_before": e.num_pes_before,
                    "num_pes_after": e.num_pes_after,
                    "migrated_words": e.migrated_words,
                    "migrated_blocks": e.migrated_blocks,
                    "readmitted": e.readmitted,
                    "reason": e.reason,
                }
                for e in report.scale_events
            ],
            "passed": report.passed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in render_chaos_report(report):
            print(line)
    if not report.passed:
        failed = [
            name
            for name, gate in (
                ("survivor equivalence", report.survivor_equivalent),
                ("all SDC detected", report.sdc_all_detected),
                ("SDC blame attribution", report.sdc_blame_correct),
                ("fault-free bit-equivalence", report.clean_equivalent),
                ("sticky PEs evicted", report.sticky_evicted),
                ("scheduled grows applied", report.grow_applied),
                ("evicted PE readmitted", report.readmit_ok),
            )
            if gate is False
        ]
        print(
            f"CHAOS FAILURE: {'; '.join(failed) or 'gate'} broken",
            file=sys.stderr,
        )
        return 1
    return 0
