"""Self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

1. Each workload, run briefly with ``--trace 0`` and ``--trace 1``, prints
   exactly the end-to-end (or per-layer) metrics of ``BENCHMARK.json``,
   each with its unit, and no failed op.
2. A planted wrong answer -- the ``sweep`` Kraus oracle taken at another
   lambda -- is counted as failed ops and the run does not pass.
3. Without the program's sources the benchmark exits non-zero and prints
   no result.

Exits 0 when all hold; prints what broke otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common
import run
import tracing

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def run_benchmark(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "11", "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_metric_names(problems: list) -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(common.ROOT, workload, trace)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{workload} trace={trace}: no result line (exit {proc.returncode}) {proc.stderr[-300:]}")
                continue
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} or units differ")
            if proc.returncode != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}, result {result}")
            print(f"ok: {workload} trace={trace} prints {len(got)} {key} metrics with units")


def check_planted_wrong_answer(problems: list) -> None:
    import wl_sweep

    common.use_checkout_src()
    with tempfile.TemporaryDirectory(dir=common.OUT_DIR) as tmp:
        st = wl_sweep.setup(11, Path(tmp), oracle_shift=0.1)
        wl_sweep.run_pass(st, tracing.NullTracer())
    result = run.result(st.tally, {})
    clean_failures = [f for f in st.tally.failures if f.endswith("/clean")]
    if result["correct"] or not clean_failures:
        problems.append(f"planted wrong oracle passed: {result}")
    else:
        print(f"ok: planted wrong oracle failed {result['failed']} of {result['attempted']} ops, correct=false")


def check_missing_program(problems: list) -> None:
    with tempfile.TemporaryDirectory(dir=common.OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(common.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, SPEC["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]}")
    else:
        print(f"ok: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    common.OUT_DIR.mkdir(exist_ok=True)
    problems = []
    check_missing_program(problems)
    check_planted_wrong_answer(problems)
    check_metric_names(problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
