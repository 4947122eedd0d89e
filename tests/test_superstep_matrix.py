"""The superstep pipeline's combination matrix.

Every combination of backend x ABFT x sanitizer x profiler x rhs x
transport faults is either supported or refused when the executor is
built (DESIGN.md §8).  A supported combination must

* commit bits identical to the fault-free ``serial`` executor,
* emit exactly one ``SuperstepTrace`` per ``multiply``, labelled with
  the backend that actually ran, and
* with the profiler on, carry host windows that tile the superstep and
  satisfy the critical-path / task-DAG identities of
  :mod:`repro.profile`.

A refused combination raises ``UnsupportedCombinationError`` at
construction — nothing downgrades silently.  The ``TestDefects`` cases
pin three drifts of the former forked ``multiply`` paths.
"""

import itertools

import numpy as np
import pytest

from repro.cli import main_chaos
from repro.faults import FaultConfig, FaultInjector, FaultStats
from repro.partition.base import partition_mesh
from repro.profile import analyze_superstep, build_task_dag
from repro.smvp.backends import UnsupportedCombinationError
from repro.smvp.executor import DistributedSMVP
from repro.smvp.trace import TraceLog

PES = 4
R = 16
BACKENDS = ("serial", "threaded", "overlap")
STEPS = 2  # multiplies per case, on distinct inputs


def _supported(backend, abft, sanitizer):
    return backend != "overlap" or not (abft or sanitizer)


CASES = [
    pytest.param(
        *case,
        id="{}-abft{:d}-san{:d}-prof{:d}-r{}-faults{:d}".format(*case),
    )
    for case in itertools.product(
        BACKENDS, (False, True), (False, True), (False, True), (1, R),
        (False, True),
    )
]


@pytest.fixture(scope="module")
def partition(demo_mesh):
    return partition_mesh(demo_mesh, PES)


@pytest.fixture(scope="module")
def inputs(demo_mesh):
    rng = np.random.default_rng(4)
    n = 3 * demo_mesh.num_nodes
    return {
        1: [rng.standard_normal(n) for _ in range(STEPS)],
        R: [rng.standard_normal((n, R)) for _ in range(STEPS)],
    }


@pytest.fixture(scope="module")
def reference(demo_mesh, partition, demo_materials, inputs):
    """Fault-free, feature-free serial products: the bit anchor."""
    with DistributedSMVP(demo_mesh, partition, demo_materials) as ds:
        return {r: [ds.multiply(x) for x in xs] for r, xs in inputs.items()}


def _transport_faults():
    return FaultInjector(
        FaultConfig(
            seed=5, drop_rate=0.1, bitflip_rate=0.1, duplicate_rate=0.1
        )
    )


def _build(mesh, partition, materials, backend, abft, sanitizer, profile,
           faults, sink=None):
    return DistributedSMVP(
        mesh,
        partition,
        materials,
        backend=backend,
        abft=abft,
        sanitizer=sanitizer,
        profile=profile,
        injector=_transport_faults() if faults else None,
        trace_sink=sink,
    )


def _assert_profiled(trace):
    """Host windows tile [0, t_smvp]; the profiler's identities hold."""
    windows = trace.pe_spans.host_windows()
    starts = sorted(w.t_start for w in windows)
    ends = sorted(w.t_end for w in windows)
    assert starts[0] == 0.0
    assert starts[1:] == ends[:-1]
    assert ends[-1] == pytest.approx(trace.t_smvp)
    profile = analyze_superstep(trace)
    assert profile.identity_error <= 1e-9
    assert sum(profile.buckets.values()) == pytest.approx(trace.t_smvp)
    path, length = build_task_dag(trace).longest_path()
    assert path[0] == "scatter" and path[-1] == "gather"
    assert length <= trace.t_smvp + 1e-9


@pytest.mark.parametrize(
    "backend,abft,sanitizer,profile,rhs,faults", CASES
)
def test_combination(
    demo_mesh, partition, demo_materials, inputs, reference,
    backend, abft, sanitizer, profile, rhs, faults,
):
    args = (demo_mesh, partition, demo_materials, backend, abft, sanitizer,
            profile, faults)
    if not _supported(backend, abft, sanitizer):
        with pytest.raises(UnsupportedCombinationError, match="overlap"):
            _build(*args)
        return
    log = TraceLog()
    with _build(*args, sink=log) as ds:
        for k, x in enumerate(inputs[rhs]):
            assert np.array_equal(ds.multiply(x), reference[rhs][k])
            assert len(log.traces) == k + 1
        if sanitizer:
            assert ds.sanitizer.steps_checked == STEPS
            assert ds.sanitizer.findings == []
        assert ds.sdc_stats == FaultStats()
        if faults:
            assert ds.transport_stats.retransmits > 0
            assert ds.transport_stats.fully_recovered()
    for step, trace in enumerate(log.traces):
        assert trace.step == step
        assert trace.backend == backend
        assert trace.rhs == rhs
        assert (trace.faults is not None) == faults
        assert (trace.t_verify > 0.0) == (abft or sanitizer)
        if profile:
            _assert_profiled(trace)
        else:
            assert trace.pe_spans is None


@pytest.mark.parametrize("backend", ["serial", "threaded"])
def test_abft_heals_sdc_under_sanitizer_and_profiler(
    demo_mesh, partition, demo_materials, inputs, reference, backend
):
    """All observers at once, with SDCs and transport faults injected:
    every SDC is detected and healed bit-exactly, the sanitizer stays
    clean, and each superstep still yields one profiled trace."""
    injector = FaultInjector(
        FaultConfig(
            seed=3,
            drop_rate=0.1,
            flip_x_rate=0.3,
            flip_y_rate=0.3,
            flip_k_rate=0.3,
        )
    )
    log = TraceLog()
    with DistributedSMVP(
        demo_mesh,
        partition,
        demo_materials,
        backend=backend,
        abft=True,
        sanitizer=True,
        profile=True,
        injector=injector,
        trace_sink=log,
    ) as ds:
        for k, x in enumerate(inputs[R]):
            assert np.array_equal(ds.multiply(x), reference[R][k])
        stats = ds.sdc_stats
        assert ds.sanitizer.findings == []
        assert ds.sanitizer.steps_checked == STEPS
    assert stats.injected_sdc > 0
    assert stats.detected_sdc >= stats.injected_sdc
    assert stats.escaped_sdc == 0
    assert len(log.traces) == STEPS
    for trace in log.traces:
        assert trace.faults.injected_sdc > 0
        _assert_profiled(trace)


class TestRefusals:
    def test_sdc_injection_on_overlap(
        self, demo_mesh, partition, demo_materials
    ):
        injector = FaultInjector(FaultConfig(seed=1, flip_y_rate=0.1))
        with pytest.raises(UnsupportedCombinationError, match="SDC"):
            DistributedSMVP(
                demo_mesh,
                partition,
                demo_materials,
                backend="overlap",
                injector=injector,
            )

    def test_sanitizer_env_on_overlap(
        self, demo_mesh, partition, demo_materials, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SAN", "1")
        with pytest.raises(UnsupportedCombinationError, match="sanitizer"):
            DistributedSMVP(
                demo_mesh, partition, demo_materials, backend="overlap"
            )

    def test_row_split_kernel_on_overlap(
        self, demo_mesh, partition, demo_materials
    ):
        with pytest.raises(UnsupportedCombinationError, match="row split"):
            DistributedSMVP(
                demo_mesh,
                partition,
                demo_materials,
                kernel="symmetric-upper",
                backend="overlap",
            )

    def test_cli_reports_refusal_as_usage_error(self, capsys):
        rc = main_chaos(
            [
                "--instance", "demo", "--pes", "4", "--steps", "3",
                "--backend", "overlap", "--flip", "0.1",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("repro-chaos: error: the overlap backend")
        assert "Traceback" not in err


class TestDefects:
    """Drifts of the former forked ``multiply`` paths."""

    def test_sanitized_runs_emit_traces(
        self, demo_mesh, partition, demo_materials, inputs
    ):
        log = TraceLog()
        with DistributedSMVP(
            demo_mesh,
            partition,
            demo_materials,
            backend="threaded",
            sanitizer=True,
            trace_sink=log,
        ) as ds:
            ds.multiply(inputs[1][0])
        assert len(log.traces) == 1
        assert log.traces[0].backend == "threaded"

    def test_abft_on_overlap_is_refused(
        self, demo_mesh, partition, demo_materials
    ):
        with pytest.raises(ValueError) as err:
            DistributedSMVP(
                demo_mesh,
                partition,
                demo_materials,
                backend="overlap",
                abft=True,
            )
        assert isinstance(err.value, UnsupportedCombinationError)

    def test_sanitizer_and_abft_both_observe(
        self, demo_mesh, partition, demo_materials, inputs
    ):
        injector = FaultInjector(FaultConfig(seed=2, flip_y_rate=1.0))
        with DistributedSMVP(
            demo_mesh,
            partition,
            demo_materials,
            abft=True,
            sanitizer=True,
            injector=injector,
        ) as ds:
            ds.multiply(inputs[1][0])
            assert ds.sanitizer.steps_checked == 1
            assert ds.sdc_stats.detected_sdc == ds.sdc_stats.injected_sdc > 0
