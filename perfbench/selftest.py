"""Self-test of the benchmark, in seconds.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` and ``workloads.py`` name the same
workloads and metrics with the same units, then runs the seconds-long
variant (``--smoke``) of every workload, untraced and traced.  Each run
must pass its correctness gate and print every metric of its mode by
name with its unit.  The negative case runs each workload again against
a wrong reference digest: the gate must fail it, count every operation
as failed and exit with code 1.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WRONG_DIGEST = "0" * 64
TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def run(workload: str, trace: int, *extra: str):
    """(exit code, parsed last stdout line or None) of one smoke run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"]
        + ["--workload", workload, "--seed", "1", "--seconds", "1"]
        + ["--trace", str(trace), "--smoke", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def check_spec(problems: list) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for section, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != units:
            problems.append(f"BENCHMARK.json {section} differs from workloads.py")


def check_result(label, code, result, units, problems) -> None:
    if code != 0 or result is None:
        problems.append(f"{label}: exit {code}, result {result!r}")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
        return
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        problems.append(f"{label}: gate {result['correct']}, "
                        f"{result['failed']}/{result['attempted']} failed")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metrics/units differ from workloads.py")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")


def main() -> int:
    problems: list = []
    check_spec(problems)
    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
            label = f"{workload} trace={trace}"
            code, result = run(workload, trace)
            check_result(label, code, result, units, problems)
            print(f"{label}: exit {code}", flush=True)
        code, result = run(workload, 0, "--expect-digest", WRONG_DIGEST)
        if not (
            code == 1
            and result is not None
            and result["correct"] is False
            and result["failed"] == result["attempted"] >= 1
        ):
            problems.append(f"{workload}: wrong digest not caught "
                            f"(exit {code}, result {result!r})")
        print(f"{workload} wrong digest: exit {code}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
