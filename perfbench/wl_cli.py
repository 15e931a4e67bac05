"""``cli``: cold ``python -m qchansim.cli`` subprocesses, one at a time.

The only workload that pays interpreter start and ``import qchansim`` on
every call (most of it importing ``scipy.optimize`` through
``qchansim.decompose``).  The in-process workloads never pay it, so they
do not move when import cost changes.  One pass runs the mix below in a
closed loop; each call is timed from spawn to exit.
"""

from __future__ import annotations

import csv
import io
import json
import re
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import tracing
from common import BENCH_DIR, Tally, median, run_child

COMMANDS = ("import", "validate", "decompose", "decompose_kraus", "simulate", "sweep201")
SWEEP_POINTS = 201
VISIBILITY = "0.9"
INTENSITY_SIGMA = "0.01"
TOL = 1e-9


def _fmt(x: float) -> str:
    return repr(float(x))


class CliState:
    def __init__(self, seed: int, workdir: Path):
        from qchansim import channels

        rng = inputs.rng_for(seed, inputs.CLI_STREAM)
        self.workdir = workdir
        self.kraus = channels.KrausChannel(inputs.random_kraus_ops(rng, 2), "rank2")
        kraus_path = workdir / "rank2.json"
        kraus_path.write_text(channels.channel_to_json(self.kraus))
        self.lam_validate = _fmt(rng.uniform(0.05, 0.95))
        self.lam_ad = _fmt(rng.uniform(0.05, 0.95))
        self.sim = (str(rng.choice(["AD", "PD", "BF", "PF", "BPF"])), _fmt(rng.uniform(0.05, 0.95)),
                    _fmt(rng.uniform(0.0, 90.0)), str(int(rng.integers(0, 2**31))))
        self.sweep_phi = _fmt(rng.uniform(0.0, 90.0))
        sweep_seed = str(int(rng.integers(0, 2**31)))
        kind, lam, phi, noise_seed = self.sim
        noise = ["--visibility", VISIBILITY, "--intensity-sigma", INTENSITY_SIGMA]
        self.args = {
            "import": [],
            "validate": ["validate", "--channel", "BPF", "--lambda", self.lam_validate],
            "decompose": ["decompose", "--channel", "AD", "--lambda", self.lam_ad, "--gates",
                          "--outdir", str(workdir / "decompose")],
            "decompose_kraus": ["decompose", "--kraus-file", str(kraus_path), "--outdir", str(workdir / "decompose_kraus")],
            "simulate": ["simulate", "--channel", kind, "--lambda", lam, "--phi-deg", phi, *noise, "--seed", noise_seed],
            # BPF mixes two branches, the most circuit work per sweep row.
            "sweep201": ["sweep", "--channel", "BPF", "--lambda-grid", f"0:1:{SWEEP_POINTS}", "--phi-deg",
                         self.sweep_phi, *noise, "--seed", sweep_seed, "--outdir", str(workdir / "sweep201")],
        }
        self.expected_fidelity_line = _expected_fidelity_line(*self.sim)
        self.expected_oracle_c_l1 = _expected_sweep_oracle(self.sweep_phi)
        self.first_output = {}
        self.tally = Tally()


def _rho_from_phi_deg(phi_deg: str):
    phi = np.deg2rad(float(phi_deg))
    psi = np.array([np.cos(2.0 * phi), np.sin(2.0 * phi)], dtype=complex)
    return np.outer(psi, psi.conj())


def _expected_fidelity_line(kind, lam, phi_deg, noise_seed) -> str:
    """The ``simulate`` fidelity line, computed in process through the library."""
    from qchansim import channels, circuit, decompose, tomography

    rho_in = _rho_from_phi_deg(phi_deg)
    noise = circuit.NoiseParams(visibility=float(VISIBILITY), intensity_sigma=float(INTENSITY_SIGMA),
                                rng_seed=int(noise_seed))
    rho_sim = circuit.simulate_channel(rho_in, decompose.closed_form_plan(kind, float(lam)), noise=noise)
    recon = tomography.reconstruct(tomography.forward_intensities(rho_sim, noise=noise))
    fid = tomography.fidelity(recon.rho, channels.apply_channel(channels.builtin_channel(kind, float(lam)), rho_in))
    return f"fidelity vs Kraus oracle: {fid:.10f}"


def _expected_sweep_oracle(phi_deg) -> list:
    from qchansim import channels, tomography

    rho_in = _rho_from_phi_deg(phi_deg)
    return [tomography.coherence(channels.apply_channel(channels.builtin_channel("BPF", lam), rho_in)).c_l1
            for lam in np.linspace(0.0, 1.0, SWEEP_POINTS)]


def _plan_choi_error(plan_path: Path, target) -> float:
    from qchansim import channels, decompose

    plan = decompose.plan_from_json(plan_path.read_text())
    return float(np.linalg.norm(channels.to_choi(decompose.plan_to_channel(plan)) - channels.to_choi(target)))


def _output_ok(st: CliState, name: str, proc) -> bool:
    """Exit code 0 and the expected output for each command."""
    from qchansim import channels, optics

    if proc.returncode != 0:
        return False
    out = proc.stdout
    if name == "import":
        return out == ""
    if name == "validate":
        return "ok: true" in out.splitlines()
    if name == "decompose":
        gates = optics.gate_list_from_json((st.workdir / "decompose" / "gates_a.json").read_text())
        target = channels.builtin_channel("AD", float(st.lam_ad))
        return bool(gates) and _plan_choi_error(st.workdir / "decompose" / "plan.json", target) <= TOL
    if name == "decompose_kraus":
        match = re.search(r"^fit residual: (\S+)$", out, re.MULTILINE)
        if match is None or float(match.group(1)) > TOL:
            return False
        return _plan_choi_error(st.workdir / "decompose_kraus" / "plan.json", st.kraus) <= TOL
    if name == "simulate":
        return st.expected_fidelity_line in out.splitlines()
    text = (st.workdir / "sweep201" / "sweep.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(text.splitlines()) != SWEEP_POINTS + 1 or len(rows) != SWEEP_POINTS:
        return False
    for row, lam, c_oracle in zip(rows, np.linspace(0.0, 1.0, SWEEP_POINTS), st.expected_oracle_c_l1):
        if float(row["lambda"]) != float(lam) or abs(float(row["c_l1_oracle"]) - c_oracle) > TOL:
            return False
        if not 0.0 <= float(row["fidelity_sim_vs_oracle"]) <= 1.0:
            return False
    # Same seed, same command: the noisy sweep must repeat byte for byte.
    return st.first_output.setdefault(name, text) == text


def setup(seed: int, workdir: Path) -> CliState:
    return CliState(seed, workdir)


def run_pass(st: CliState, tracer) -> None:
    traced = isinstance(tracer, tracing.Tracer)
    spans_path = st.workdir / "child_spans.json"
    st.tally.begin_pass()
    for name in COMMANDS:
        item_id = f"cli/{name}"
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans_path), item_id, *st.args[name]]
        elif name == "import":
            cmd = [sys.executable, "-c", "import qchansim"]
        else:
            cmd = [sys.executable, "-m", "qchansim.cli", *st.args[name]]
        shutil.rmtree(st.workdir / name, ignore_errors=True)  # no stale output can pass a check
        st.tally.sample_reference()
        t0 = time.perf_counter()
        with tracer.item(item_id, name) as span:
            proc = run_child(cmd, cwd=st.workdir)
        st.tally.add_item(name, time.perf_counter() - t0)
        st.tally.sample_reference()
        if traced and spans_path.exists():
            tracer.adopt(json.loads(spans_path.read_text()), span)
        st.tally.record(_output_ok(st, name, proc), f"{name}: exit {proc.returncode} {proc.stderr.strip()[-200:]}")


def details(st: CliState) -> list:
    items = st.tally.items(normalized=True)
    calls = [s for _, s in items]
    rows = [("cli_calls_per_s", len(calls) / st.tally.busy_s(normalized=True), "1/s", len(calls)),
            ("cli_call_s_p50", median(calls), "s", len(calls))]
    for name in COMMANDS:
        values = [s for tag, s in items if tag == name]
        rows.append((f"cli_{name}_s_p50", median(values), "s", len(values)))
    return rows
