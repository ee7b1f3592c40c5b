"""Self-test of the scan benchmark at tiny sizes.

Run from the repository root::

    python3 bench/selftest.py

For every workload it runs the benchmark once traced and once untraced on
tiny generated inputs, and checks that the last output line is the result
object, that every scan passed its output check, that every metric named in
``BENCHMARK.json`` is printed with its unit, and that no ``vulnhunt``
attribute is left wrapped afterwards.  It also checks that ``run.py`` fails
without a result when the program's sources are absent.  Exits 1 on any
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def check_workload(name: str, trace: int, spec: dict) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)], sizes=workloads.TINY)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    where = f"{name} --trace {trace}"
    problems = []
    if code != 0:
        problems.append(f"{where}: exit code {code}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 2:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} scans failed")
    for metric in spec["per_layer" if trace else "end_to_end"]:
        if not any(line.split()[1:2] == [metric["name"]] and metric["unit"] in line.split()
                   for line in lines[:-1]):
            problems.append(f"{where}: {metric['name']} not printed with its unit")
    if not trace:
        problems += [f"{where}: {attr} is still wrapped" for attr in tracer.wrapped_attributes()]
    return problems


def check_bare_checkout() -> list[str]:
    """Without the program's sources, run.py must fail and print no result."""
    bare = REPO / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fixture-full", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare checkout: run.py did not fail without a result"]
    return []


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_checkout()
    for name in run.WORKLOADS:
        for trace in (1, 0):
            problems += check_workload(name, trace, spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
