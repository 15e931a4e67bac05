"""``sweep``: the paper's coherence sweep, in process and warm.

Five named channels x an 11-point lambda grid x 8 input states (4 pure,
4 mixed) x {clean, noisy}.  Per lambda the plan and the oracle channel are
built once and reused by all 16 points, so this is the workload where a
compiled or batched plan pays off.  A point runs the circuit, the Kraus
oracle, intensity tomography, fidelity and coherence; clean and noisy
points take the two paths through the circuit layer, so a gain on one that
costs the other shows in the per-class latencies.
"""

from __future__ import annotations

import time

import numpy as np

import inputs
from common import Tally, median, quantile

CHANNELS = ("AD", "PD", "BF", "PF", "BPF")
VISIBILITY = 0.9
INTENSITY_SIGMA = 0.01
TOL = 1e-9


class SweepState:
    def __init__(self, seed: int, oracle_shift: float = 0.0):
        from qchansim import circuit

        rng = inputs.rng_for(seed, inputs.SWEEP_STREAM)
        self.grid = inputs.lambda_grid(rng)
        self.states = inputs.input_states(rng)
        base_seed = int(rng.integers(0, 2**31))
        self.noise = {}
        for kind in CHANNELS:
            for li in range(len(self.grid)):
                for si in range(len(self.states)):
                    self.noise[kind, li, si] = circuit.NoiseParams(
                        visibility=VISIBILITY, intensity_sigma=INTENSITY_SIGMA, rng_seed=base_seed + len(self.noise)
                    )
        # A nonzero shift builds the oracle at another lambda: a planted
        # wrong answer that the clean-point checks must catch.
        self.oracle_shift = oracle_shift
        self.first_noisy = {}
        self.tally = Tally()

    def oracle_lambda(self, lam: float) -> float:
        shifted = lam + self.oracle_shift
        return shifted if shifted <= 1.0 else lam - self.oracle_shift


def _point(plan, oracle_ch, rho, noise):
    from qchansim import channels, circuit, tomography

    rho_sim = circuit.simulate_channel(rho, plan, noise=noise)
    rho_oracle = channels.apply_channel(oracle_ch, rho)
    recon = tomography.reconstruct(tomography.forward_intensities(rho_sim, noise=noise))
    fid = tomography.fidelity(recon.rho, rho_oracle)
    coh = tomography.coherence(recon.rho)
    return rho_sim, rho_oracle, recon, fid, coh


def _is_state(rho) -> bool:
    """Hermitian, unit trace and positive semidefinite within TOL."""
    if np.abs(rho - rho.conj().T).max() > TOL or abs(np.trace(rho) - 1.0) > TOL:
        return False
    return bool(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min() >= -TOL)


def _point_ok(st: SweepState, key, noisy: bool, out) -> bool:
    rho_sim, rho_oracle, recon, fid, coh = out
    if not 0.0 <= fid <= 1.0 or coh.c_l1 > coh.c_max + TOL:
        return False
    if not noisy:
        return bool(np.abs(rho_sim - rho_oracle).max() <= TOL and fid >= 1.0 - TOL)
    if not (_is_state(rho_sim) and _is_state(recon.rho)):
        return False
    # Same seed, same point: the noisy output must repeat bit for bit.
    digest = (rho_sim.tobytes(), recon.rho.tobytes(), fid)
    return st.first_noisy.setdefault(key, digest) == digest


def setup(seed: int, workdir, oracle_shift: float = 0.0) -> SweepState:
    from qchansim import channels, decompose

    st = SweepState(seed, oracle_shift)
    for kind in CHANNELS:
        plan = decompose.closed_form_plan(kind, st.grid[1])
        oracle_ch = channels.builtin_channel(kind, st.grid[1])
        for noise in (None, st.noise[kind, 1, 0]):
            _point(plan, oracle_ch, st.states[0], noise)
    return st


def run_pass(st: SweepState, tracer) -> None:
    from qchansim import channels, decompose

    clock = time.perf_counter
    st.tally.begin_pass()
    for kind in CHANNELS:
        for li, lam in enumerate(st.grid):
            st.tally.sample_reference()
            t0 = clock()
            with tracer.item(f"{kind}/{li}", "plan"):
                plan = decompose.closed_form_plan(kind, lam)
                oracle_ch = channels.builtin_channel(kind, st.oracle_lambda(lam))
            st.tally.add_busy(clock() - t0)
            for si, rho in enumerate(st.states):
                for noise in (None, st.noise[kind, li, si]):
                    tag = "clean" if noise is None else "noisy"
                    key = f"{kind}/{li}/{si}/{tag}"
                    t0 = clock()
                    with tracer.item(key, tag):
                        out = _point(plan, oracle_ch, rho, noise)
                    st.tally.add_item(tag, clock() - t0)
                    st.tally.record(_point_ok(st, key, noise is not None, out), key)
    st.tally.sample_reference()


def details(st: SweepState) -> list:
    """Metrics under the names the notes use, as (name, value, unit, samples)."""
    items = st.tally.items(normalized=True)
    clean = [s * 1e3 for tag, s in items if tag == "clean"]
    noisy = [s * 1e3 for tag, s in items if tag == "noisy"]
    rows = [("sweep_points_per_s", len(items) / st.tally.busy_s(normalized=True), "1/s", len(items))]
    for name, values in (("clean", clean), ("noisy", noisy)):
        for label, q in (("p50", 50), ("p90", 90), ("p99", 99)):
            value = median(values) if q == 50 else quantile(values, q)
            rows.append((f"sweep_{name}_ms_{label}", value, "ms", len(values)))
    return rows
