"""qchansim benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,fit,cli} --seed N --seconds S --trace {0,1}

A run repeats whole passes over the workload's seeded inputs until
``--seconds`` have elapsed, checking every output.

``--trace 0`` wraps nothing and reports the end-to-end metrics.  It first
times SETUP_SAMPLES cold set-ups (fresh interpreter, import qchansim,
workload set-up) and reports their median as ``setup_s``.
``--trace 1`` alternates untraced and traced passes, reports per-layer
metrics and the tracing overhead, and writes the spans of the first traced
pass to ``.perfbench_out/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output checked
out, 1 when some did not, and 2 when there is no program to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import re
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import common
import tracing
from common import BENCH_DIR, OUT_DIR, median, run_child

WORKLOADS = ("sweep", "fit", "cli")
SETUP_SAMPLES = 5
LAYERS = ("channels", "decompose", "optics", "circuit", "tomography", "cli")

# (metric, span name) whose median span duration is reported in microseconds.
SPAN_US = (
    ("circuit.simulate_channel.clean.us_p50", "circuit.simulate_channel.clean"),
    ("circuit.simulate_channel.noisy.us_p50", "circuit.simulate_channel.noisy"),
    ("circuit.run_branch.us_p50", "circuit.run_branch"),
    ("circuit.apply_noise.us_p50", "circuit.apply_noise"),
    ("circuit.gates_for_branch.us_p50", "circuit.gates_for_branch"),
    ("tomography.forward_intensities.us_p50", "tomography.forward_intensities"),
    ("tomography.reconstruct.us_p50", "tomography.reconstruct"),
    ("tomography.fidelity.us_p50", "tomography.fidelity"),
    ("tomography.coherence.us_p50", "tomography.coherence"),
    ("channels.apply_channel.us_p50", "channels.apply_channel"),
    ("channels.to_choi.us_p50", "channels.to_choi"),
    ("channels.validate_channel.us_p50", "channels.validate_channel"),
    ("decompose.closed_form_plan.us_p50", "decompose.closed_form_plan"),
)
# (metric, span name) counted over the first traced pass, which is the
# same work on every run with the same seed.
SPAN_CALLS = (
    ("circuit.simulate_channel.calls", "circuit.simulate_channel"),
    ("channels.to_choi.calls", "channels.to_choi"),
    ("decompose.plan_to_channel.calls", "decompose.plan_to_channel"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(workload: str, seed: int, workdir: Path) -> list:
    """Wall seconds of SETUP_SAMPLES cold set-ups, at nominal machine speed.

    One discarded probe runs first, so bytecode is compiled and the file
    cache holds numpy and scipy: the state a user's second run sees.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(BENCH_DIR / "probe_setup.py"), workload, str(seed), str(probe_dir)]
        refs = [common.reference_chunk() for _ in range(5)]
        t0 = time.perf_counter()
        proc = run_child(cmd, cwd=workdir)
        elapsed = time.perf_counter() - t0
        refs += [common.reference_chunk() for _ in range(5)]
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            samples.append(elapsed * common.speed_factor(refs))
    return samples


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of the process that runs the workload's work:
    this one, or for ``cli`` the largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_decompose_s(workdir: Path) -> float:
    """Cumulative import time of ``qchansim.decompose`` from ``-X importtime``."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import qchansim"], cwd=workdir)
    match = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*qchansim\.decompose\s*$", proc.stderr, re.MULTILINE)
    if proc.returncode != 0 or match is None:
        raise RuntimeError("could not read qchansim.decompose from -X importtime")
    return int(match.group(1)) / 1e6


def end_to_end(workload: str, st, setup: list, normalized: bool = True) -> dict:
    latencies = [s * 1e3 for _, s in st.tally.items(normalized)]
    typical = st.tally.median_pass(normalized)
    return {
        "setup_s": (median(setup), "s"),
        "items_per_s": (sum(tag is not None for tag, _ in typical) / sum(s for _, s in typical), "1/s"),
        "item_ms_p50": (median(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }


def measure(mod, st, seconds: float) -> None:
    start = time.perf_counter()
    null = tracing.NullTracer()
    while not st.tally.passes or time.perf_counter() - start < seconds:
        mod.run_pass(st, null)


def measure_traced(workload: str, mod, st, seconds: float) -> dict:
    """Alternate untraced and traced passes; return what per_layer needs."""
    tracer = tracing.Tracer()
    null = tracing.NullTracer()
    untraced, traced = [], []
    first = None
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        mod.run_pass(st, null)
        untraced.append(st.tally.passes[-1])
        n_fits = len(getattr(st, "fit_log", ()))
        # cli children trace themselves; wrapping here would trace the checks.
        with tracer.installed() if workload != "cli" else contextlib.nullcontext():
            mod.run_pass(st, tracer)
        traced.append(st.tally.passes[-1])
        if first is None:
            # The first traced pass is the same work on every run with one seed.
            first = {"spans": tracer.spans[:], "fits": getattr(st, "fit_log", [])[n_fits:]}
    return {"tracer": tracer, "untraced": untraced, "traced": traced, "first": first}


def per_layer(traced: dict, import_s: float) -> dict:
    tracer, first = traced["tracer"], traced["first"]
    everything = tracing.analyse(tracer.spans, tracer.item_tags)
    first_pass = tracing.analyse(first["spans"], tracer.item_tags)
    durations = everything["durations"]
    metrics = {}
    for metric, span in SPAN_US:
        metrics[metric] = (median(durations.get(span, [])) / 1e3, "us")
    for metric, span in SPAN_CALLS:
        metrics[metric] = (first_pass["calls"][span], "count")
    n_fits = first_pass["calls"]["decompose.fit_plan"]
    in_fit = tracing.calls_under(first["spans"], "channels.to_choi", "decompose.fit_plan")
    metrics["channels.to_choi.calls_per_fit"] = (in_fit / n_fits if n_fits else 0.0, "count")
    fits = first["fits"]
    for rank in (1, 2, 3, 4):
        values = everything["by_tag"].get(("decompose.fit_plan", f"rank{rank}"), [])
        metrics[f"decompose.fit_plan.rank{rank}.s_p50"] = (median(values) / 1e9, "s")
    metrics["decompose.fit_plan.starts_used"] = (sum(f[3] for f in fits), "count")
    metrics["decompose.fit_plan.converged_ratio"] = (
        sum(1 for f in fits if f[2]) / len(fits) if fits else 0.0, "ratio")
    metrics["decompose.fit_plan.residual_max"] = (max((f[1] for f in fits), default=0.0), "norm")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (everything["self_ns"][layer] / everything["item_ns"], "ratio")
    metrics["cli.import.decompose_s"] = (import_s, "s")
    for name in ("import", "validate", "decompose", "decompose_kraus", "simulate", "sweep201"):
        values = [s for p in traced["untraced"] for tag, s, _ in p.timed if tag == name]
        metrics[f"cli.{name}.s_p50"] = (median(values), "s")
    # Both sides at nominal speed, so a change in host speed between passes
    # does not read as tracing cost.
    traced_s = common.busy_seconds(traced["traced"], normalized=True)
    metrics["trace.overhead_frac"] = (traced_s / common.busy_seconds(traced["untraced"], normalized=True) - 1.0,
                                      "ratio")
    return metrics


def write_trace(path: Path, record: dict, traced: dict, metrics: dict) -> None:
    tracer, first = traced["tracer"], traced["first"]
    stats = tracing.analyse(first["spans"], tracer.item_tags)
    payload = {
        "run_record": record,
        "span_fields": ["name", "start_ns", "end_ns", "parent", "item"],
        "spans": first["spans"],
        "item_tags": {str(k): v for k, v in tracer.item_tags.items()},
        "calls": dict(stats["calls"]),
        "self_ns": dict(stats["self_ns"]),
        "metrics": {k: v[0] for k, v in metrics.items()},
    }
    path.write_text(json.dumps(payload))


def result(tally, metrics: dict) -> dict:
    """The result line: every checked op counts, one failure fails the run."""
    failed = len(tally.failures)
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and its children: the host slows each vCPU
    # separately, and the reference chunk must see the vCPU the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        common.use_checkout_src()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = common.run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    print("run_record " + json.dumps(record, sort_keys=True))
    mod = importlib.import_module(f"wl_{args.workload}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        workdir = Path(tmp)
        setup = [] if args.trace else setup_samples(args.workload, args.seed, workdir)
        run_dir = workdir / "run"
        run_dir.mkdir()
        st = mod.setup(args.seed, run_dir)
        if args.trace:
            traced = measure_traced(args.workload, mod, st, args.seconds)
            metrics = per_layer(traced, import_decompose_s(workdir))
            trace_path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
            write_trace(trace_path, record, traced, metrics)
            print(f"spans of the first traced pass: {trace_path}")
        else:
            measure(mod, st, args.seconds)
            metrics = end_to_end(args.workload, st, setup)
            for name, (value, unit) in end_to_end(args.workload, st, setup, normalized=False).items():
                if name in ("items_per_s", "item_ms_p50"):
                    print(f"raw_{name} {value:.6g} {unit}")
    refs = [r for p in st.tally.passes for r in p.ref_s]
    print(f"speed_factor {common.speed_factor(refs):.4g} (mean reference chunk {statistics.fmean(refs) * 1e3:.4g} ms;"
          f" end-to-end timings are scaled to a {common.REF_NOMINAL_S * 1e3:.4g} ms chunk)")
    if not args.trace:
        for name, value, unit, n in mod.details(st):
            print(f"{name} {value:.6g} {unit} (n={n})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for what in st.tally.failures[:10]:
        print(f"failed: {what}", file=sys.stderr)
    print(f"ops {st.tally.attempted} failed_ops {len(st.tally.failures)}")
    outcome = result(st.tally, metrics)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
