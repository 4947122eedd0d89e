"""The repo benchmark: one run of one workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload quake-sf5e --seed 3 --seconds 5 --trace 0

Each run sets its workload up, measures it, checks that every output
is correct (final states bit-identical to a serial fault-free run, or
table text byte-identical to the stored one), prints a host and input
record, and prints as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``workloads.END_TO_END``
with tracing off; ``--trace 1`` reports ``workloads.PER_LAYER`` from a
separate traced run.  The program is imported from ``src/`` of the
checkout this file sits in; without it the run exits with code 2 and
prints no result.  A run whose outputs are wrong prints its result with
``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The end-to-end metrics come from one process that uses at most two
#: threads: BLAS pools stay single-threaded, and the environment
#: switches that would enlarge the instances (sf2e/sf1e), reuse meshes
#: from disk or turn on the sanitizer are cleared.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CLEARED_ENV = (
    "REPRO_MESH_CACHE",
    "REPRO_LARGE",
    "REPRO_HUGE",
    "REPRO_SAN",
    "REPRO_CONTRACTS",
)


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS  # stdlib-only module

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the seconds-long variant of the workload (selftest.py)",
    )
    parser.add_argument(
        "--expect-digest",
        default=None,
        metavar="SHA256",
        help="gate against this digest instead of the reference "
        "(selftest.py's negative case)",
    )
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help="recompute the stored reference of the workload at the "
        "default seed and write it, then exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with 2."""
    for name in THREAD_ENV:
        os.environ[name] = "1"
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if src not in Path(repro.__file__).resolve().parents:
        print(
            f"repro imported from {repro.__file__}, not from {src}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def host_record() -> dict:
    """nproc, CPU model, cache sizes and library versions."""
    import platform

    import numpy
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    llc = max(
        (_bytes(size) for size in caches.values()), default=0
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "caches": caches,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _bytes(size: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if size and size[-1] in units:
        return int(size[:-1]) * units[size[-1]]
    return int(size)


def update_reference(w) -> None:
    """Write the workload's stored reference at the default seed."""
    from pipeline import (
        REFERENCE_FILE,
        Stopwatch,
        Tally,
        build_meshes,
        load_references,
        reference_state,
        regenerate_tables,
        set_up,
        tables_reference,
    )
    from workloads import DEFAULT_SEED

    if not w.steps:
        build_meshes(w, Stopwatch())
        text, _ = regenerate_tables(w.tables, Tally())
        path = tables_reference(w)
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        print(f"wrote {path.relative_to(ROOT)}")
        return
    case = set_up(w, DEFAULT_SEED, Stopwatch())
    case.smvp.close()
    refs = load_references() if REFERENCE_FILE.exists() else {}
    refs[w.name] = {
        "seed": DEFAULT_SEED,
        "state": reference_state(case),
    }
    REFERENCE_FILE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {w.name} to {REFERENCE_FILE.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import END_TO_END, PER_LAYER, SMOKE, WORKLOADS

    w = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    if args.update_reference:
        update_reference(w)
        return 0
    if args.trace:
        from layers import traced_run as run
    else:
        from pipeline import timed_run as run
    outcome = run(w, args.seed, args.seconds, args.expect_digest)
    units = PER_LAYER if args.trace else END_TO_END
    print(
        json.dumps(
            {
                "workload": w.name,
                "seed": args.seed,
                "host": host_record(),
                "record": outcome.record,
            },
            default=float,
        )
    )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
