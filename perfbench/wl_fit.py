"""``fit``: validate, fit, compile and verify a corpus of random channels.

Choi ranks 1-2 stop at the fitter's closed-form SVD stage; ranks 3-4 reach
multi-start Levenberg-Marquardt, where most of the time goes to
``plan_to_channel`` and ``to_choi`` inside the residual.  Each plan serves
only a few verification states, the opposite of ``sweep``, so compiling a
plan is not amortised here and the circuit and tomography layers do little
work.
"""

from __future__ import annotations

import time

import numpy as np

import inputs
from common import Tally, median

TOL = 1e-9


class FitState:
    def __init__(self, seed: int):
        from qchansim import KrausChannel

        self.corpus = [(rank, KrausChannel(ops, f"rank{rank}-{i}")) for i, (rank, ops) in enumerate(inputs.fit_corpus())]
        rng = inputs.rng_for(seed, inputs.FIT_STREAM)
        self.verify_states = [inputs.random_pure(rng), inputs.random_density(rng), inputs.random_pure(rng)]
        self.fit_log = []  # (rank, residual, converged, starts_used) per fit
        self.tally = Tally()


def _verified(st: FitState, ch, report, fit, gate_lists) -> bool:
    """CPTP input, converged fit at 1e-9, Choi residual recomputed, optical
    element lists complete, and the circuit reproducing the Kraus oracle."""
    from qchansim import channels, circuit, decompose

    if not report.ok or not fit.converged or fit.residual > TOL:
        return False
    choi_residual = np.linalg.norm(channels.to_choi(decompose.plan_to_channel(fit.plan)) - channels.to_choi(ch))
    if choi_residual > TOL:
        return False
    for gates in gate_lists:
        elements = [g.element for g in gates]
        if "CNOT" not in elements or "TBS" not in elements:
            return False
    for rho in st.verify_states:
        diff = circuit.simulate_channel(rho, fit.plan) - channels.apply_channel(ch, rho)
        if np.abs(diff).max() > TOL:
            return False
    return True


def _fit_one(ch):
    from qchansim import channels, circuit, decompose

    report = channels.validate_channel(ch)
    fit = decompose.fit_plan(ch)
    gate_lists = [circuit.gates_for_branch(b) for b in (fit.plan.branch_a, fit.plan.branch_b) if b is not None]
    return report, fit, gate_lists


def setup(seed: int, workdir) -> FitState:
    st = FitState(seed)
    for rank, ch in st.corpus[:2]:
        _verified(st, ch, *_fit_one(ch))
    return st


def run_pass(st: FitState, tracer) -> None:
    clock = time.perf_counter
    st.tally.begin_pass()
    for i, (rank, ch) in enumerate(st.corpus):
        tag = f"rank{rank}"
        st.tally.sample_reference()
        t0 = clock()
        with tracer.item(str(i), tag):
            report, fit, gate_lists = _fit_one(ch)
        st.tally.add_item(tag, clock() - t0)
        st.tally.sample_reference()  # a rank-3 fit can outlast a change in host speed
        with tracer.item(f"{i}/verify", "verify"):
            ok = _verified(st, ch, report, fit, gate_lists)
        st.tally.record(ok, f"{ch.label}: residual {fit.residual:.3g}, converged {fit.converged}")
        st.fit_log.append((rank, fit.residual, fit.converged, fit.starts_used))


def details(st: FitState) -> list:
    items = st.tally.items(normalized=True)
    rows = [("fit_channels_per_s", len(items) / st.tally.busy_s(normalized=True), "1/s", len(items))]
    for rank in (1, 2, 3, 4):
        values = [s for tag, s in items if tag == f"rank{rank}"]
        rows.append((f"fit_rank{rank}_s_p50", median(values), "s", len(values)))
    return rows
