"""Paths, statistics and the run record shared by every benchmark file.

The benchmark imports ``qchansim`` from the checkout's own ``src/`` tree;
the package is never installed.  Only the standard library is imported at
module level, so a cold set-up probe pays for nothing but what it measures.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
# Scratch files (per-run temp dirs, trace dumps) stay inside the checkout.
OUT_DIR = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# The reference chunk: fixed small-matrix numpy work in a Python loop, the
# same kind of work as qchansim's hot paths but independent of qchansim.
# On the shared 2-core Xeon VM this benchmark was built on, the chunk takes
# anywhere from 0.5 ms to 1.4 ms depending on what the host runs beside it,
# in stretches of seconds to half a minute, and every qchansim timing in the
# same stretch moves with it.  Each pass samples the chunk between its items
# and its timings are reported scaled to a machine on which the chunk takes
# REF_NOMINAL_S.
REF_ITERATIONS = 50
REF_NOMINAL_S = 1.0e-3


def reference_chunk() -> float:
    """Seconds the reference chunk takes now."""
    import numpy as np

    a = np.array([[1.0, 2.0j], [3.0, 4.0]], dtype=complex)
    eye = np.eye(2)
    t0 = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        b = a @ a.conj().T
        a = b / np.linalg.norm(b) + 0.1 * eye
    return time.perf_counter() - t0


def speed_factor(ref_samples) -> float:
    """Multiplier that maps a timing taken alongside ``ref_samples`` to a
    machine on which the chunk takes REF_NOMINAL_S (below 1 when slower)."""
    return REF_NOMINAL_S / statistics.fmean(ref_samples)


@dataclass
class Pass:
    # [tag, seconds, speed factor] per timed region; tag None marks work
    # shared by the pass's items, which counts as busy time but not as an item.
    timed: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)  # reference chunks sampled in the pass
    pending: int = 0  # timed regions since the last reference sample


@dataclass
class Tally:
    """What one run did: passes of timed items, and checked ops.

    Workloads sample the reference chunk before their first item and after
    their last one, and between items as often as host speed can change.
    Each timed region is scaled by the mean of the samples just before and
    just after it.
    """

    passes: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def begin_pass(self) -> None:
        self.passes.append(Pass())

    def add_item(self, tag, seconds: float) -> None:
        self.passes[-1].timed.append([tag, seconds, None])
        self.passes[-1].pending += 1

    def add_busy(self, seconds: float) -> None:
        self.add_item(None, seconds)

    def sample_reference(self) -> None:
        p = self.passes[-1]
        p.ref_s.append(reference_chunk())
        factor = speed_factor(p.ref_s[-2:])
        for entry in p.timed[len(p.timed) - p.pending:]:
            entry[2] = factor
        p.pending = 0

    def record(self, ok: bool, what) -> None:
        """Count one checked operation; keep a description of each failure."""
        self.attempted += 1
        if not ok:
            self.failures.append(str(what))

    def items(self, normalized: bool = False) -> list:
        """(tag, seconds) of every timed item, raw or at nominal speed."""
        return [(tag, s * (f if normalized else 1.0)) for p in self.passes for tag, s, f in p.timed
                if tag is not None]

    def busy_s(self, normalized: bool = False) -> float:
        return busy_seconds(self.passes, normalized)

    def median_pass(self, normalized: bool = False) -> list:
        """(tag, seconds) per timed region of one pass, each the median of
        that region over all passes.  Every pass times the same inputs in
        the same order, so a rare stall in one pass does not move it."""
        columns = zip(*(p.timed for p in self.passes))
        return [(col[0][0], median([s * (f if normalized else 1.0) for _, s, f in col])) for col in columns]


def busy_seconds(passes, normalized: bool = False) -> float:
    """Time in the program over ``passes``: every timed region, raw or at nominal speed."""
    return sum(s * (f if normalized else 1.0) for p in passes for _, s, f in p.timed)


class MissingProgram(RuntimeError):
    """The checkout has no ``src/qchansim`` to benchmark."""


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and prove it is used.

    Raises :class:`MissingProgram` when the sources are absent, so the
    benchmark can never fall back to some other installed ``qchansim``.
    """
    if not (SRC / "qchansim" / "__init__.py").is_file():
        raise MissingProgram(f"no qchansim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qchansim

    if SRC.resolve() not in Path(qchansim.__file__).resolve().parents:
        raise MissingProgram(f"qchansim imported from {qchansim.__file__}, not from {SRC}")


def child_env() -> dict:
    """Environment for subprocesses: the checkout's sources and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, cwd, timeout: float = 150.0) -> subprocess.CompletedProcess:
    """Run one subprocess to completion (it is always waited for)."""
    return subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=timeout)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Machine, interpreter, library and source identity of one run."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }
