"""Convergence table of ``qchansim.decompose.fit_plan`` over fixed, seeded channel corpora.

Run from the repository root, with numpy installed and no other dependency::

    PYTHONPATH=src:. python tools/fit_convergence.py                   # every corpus
    PYTHONPATH=src:. python tools/fit_convergence.py fit depolarizing  # the named corpora only

Each corpus prints one markdown table row: its size; misses (residual above
``FIT_TARGET_RESIDUAL``); unconverged channels (residual above ``CONVERGED_RESIDUAL``,
on which ``qchansim decompose`` exits 3); the worst residual; the share of fits that reach
stage two, the closed-form split (the stage marker ``FitResult.starts_used`` is 0 for a
stage-one plan and 1 for a split); the number of fits that made any ``numpy.linalg`` call; and the p50 / p90 wall
time of one ``fit_plan`` call in ms.  A corpus with misses adds a line naming each missed channel's
index and residual, with a ``*`` on the unconverged ones.  The exit status is 1 when any channel is
unconverged, when any corpus but ``rounded`` has a miss or a worst residual above
``FIT_ROUNDOFF_RESIDUAL`` (1e-11: those corpora fit to round-off, at most a few 1e-15, so
a residual above it means a kernel lost digits, though the plan still passes), or when
any plan does not have its stage's shape: one branch at p = 1 from stage one, two branches at
p = 1/2 from the split, or when any plan or branch gate list does not read back as itself from the JSON the
library writes (``plan_to_json`` / ``plan_from_json``, ``gate_list_to_json`` / ``gate_list_from_json``, run
outside the timed call): the readers must accept everything the writers produce.
A ``rounded`` channel is off trace preservation, and
no trace-preserving plan is nearer to it than the floor ``trace_residual / sqrt(2)`` of
``qchansim.validate_channel``; the worst ratio of residual to floor is printed for that corpus.

The corpora, by name:

- ``fit``: the 28 channels of the ``fit`` benchmark workload, ``perfbench.inputs.fit_corpus``;
- ``rank3``, ``rank4``: 100 random channels of that Choi rank (``perfbench.inputs.random_kraus_ops``,
  as every random channel here), seeds 10000 + i and 20000 + i;
- ``pauli``: 50 Pauli channels with Dirichlet(1, 1, 1, 1) weights, seeds 40000 + i;
- ``depolarizing``: (1 - lam) id + lam (fully depolarizing), lam in linspace(0.05, 1, 20);
- ``gad``: generalized amplitude damping, gamma and N in linspace(0.1, 0.9, 5);
- ``near-<eps>``: (1 - eps) of a random Choi-rank-2 channel (seed 30000 + i) plus eps of
  the fully depolarizing channel; i < 30 at eps = 1e-2 and 1e-4, i < 100 at 1e-5, 1e-6, 1e-7;
- ``near-wide-<eps>``: the same for i = 100-399 at 1e-5, 1e-6 and 1e-7, listed by i;
- ``degenerate``: two-Kraus channels whose distortion matrix repeats a singular value where the
  displacement has a share: 30 rotated resets (i < 30) and 30 rotated T-rank-1 channels
  (i = 30-59), then 30 rotated mixtures of three Paulis (i = 60-89), seeds 50000 + i;
- ``near-flat``: named-channel Kraus sets close to where a two-Kraus frame is ill-determined: AD at
  lam = 1 - {1e-12, 1e-10, 1e-8} (near a reset), PD at lam = 1 - {0, 1e-9, 1e-7} and BF, PF and BPF at
  lam = 0.5 + {0, +-1e-9, +-1e-5} (at or near complete dephasing), each under 20 two-sided rotations
  U K V: channel c, rotation j is i = 20 c + j, seed 70000 + i;
- ``rounded``: the ``rank3`` and ``rank4`` channels (i < 100 and i = 100-199) with every
  Kraus entry rounded to 9 digits, as a Kraus file written by hand would be.

Residuals and stage markers are deterministic; the times spread with the host.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time

import numpy as np

from perfbench.inputs import fit_corpus, random_kraus_ops
from qchansim import KrausChannel, builtin_channel, decompose, validate_channel
from qchansim.circuit import gates_for_branch
from qchansim.optics import gate_list_from_json, gate_list_to_json

_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _mixed_with_depolarizing(ops, eps):
    return [math.sqrt(1.0 - eps) * k for k in ops] + [math.sqrt(eps) / 2.0 * s for s in _PAULIS]


def _gad(gamma, n):
    g, h = math.sqrt(gamma), math.sqrt(1.0 - gamma)
    a, b = math.sqrt(n), math.sqrt(1.0 - n)
    return [a * np.array([[1, 0], [0, h]]), a * np.array([[0, g], [0, 0]]),
            b * np.array([[h, 0], [0, 1]]), b * np.array([[0, 0], [g, 0]])]


def _near_extreme(eps, indices):
    return lambda: {i: _mixed_with_depolarizing(random_kraus_ops(np.random.default_rng(30000 + i), 2), eps)
                    for i in indices}


def _random_unitary(rng):
    return random_kraus_ops(rng, 1)[0]


def _degenerate():
    """Rotated resets, rotated T-rank-1 two-Kraus channels and rotated three-Pauli mixtures."""
    corpus = {}
    for i in range(90):
        rng = np.random.default_rng(50000 + i)
        u, v = _random_unitary(rng), _random_unitary(rng)
        if i < 30:  # reset to |0>, then U: T = 0 and t is U's image of the z axis
            pair = [np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]])]
        elif i < 60:  # nu = pi/2: T = diag(0, cos mu, 0), t = (0, 0, sin mu)
            mu = rng.uniform(-np.pi, np.pi)
            pair = decompose.kraus_from_angles((mu + np.pi / 2) / 2, (mu - np.pi / 2) / 2)
        else:
            weights = rng.dirichlet(np.ones(3))
            pair = [math.sqrt(w) * s for w, s in zip(weights, np.delete(_PAULIS, i % 4, axis=0))]
        corpus[i] = [u @ k @ v for k in pair]
    return corpus


_NEAR_FLAT = ([("AD", 1.0 - d) for d in (1e-12, 1e-10, 1e-8)] + [("PD", 1.0 - d) for d in (0.0, 1e-9, 1e-7)]
              + [(kind, 0.5 + d) for kind in ("BF", "PF", "BPF") for d in (0.0, 1e-9, -1e-9, 1e-5, -1e-5)])


def _near_flat():
    corpus = {}
    for c, (kind, lam) in enumerate(_NEAR_FLAT):
        for i in range(20 * c, 20 * c + 20):
            rng = np.random.default_rng(70000 + i)
            u, v = _random_unitary(rng), _random_unitary(rng)
            corpus[i] = [u @ k @ v for k in builtin_channel(kind, lam).ops]
    return corpus


def _rounded():
    channels = [*CORPORA["rank3"]().values(), *CORPORA["rank4"]().values()]
    return {i: [np.round(np.asarray(k), 9) for k in ops] for i, ops in enumerate(channels)}


def _listed(build):
    return lambda: dict(enumerate(build()))


CORPORA = {
    "fit": _listed(lambda: [ops for _, ops in fit_corpus()]),
    "rank3": _listed(lambda: [random_kraus_ops(np.random.default_rng(10000 + i), 3) for i in range(100)]),
    "rank4": _listed(lambda: [random_kraus_ops(np.random.default_rng(20000 + i), 4) for i in range(100)]),
    "pauli": _listed(lambda: [[math.sqrt(w) * s for w, s in zip(np.random.default_rng(40000 + i).dirichlet(np.ones(4)),
                                                                _PAULIS)] for i in range(50)]),
    "depolarizing": _listed(lambda: [_mixed_with_depolarizing([_PAULIS[0]], lam) for lam in np.linspace(0.05, 1.0, 20)]),
    "gad": _listed(lambda: [_gad(gamma, n) for gamma in np.linspace(0.1, 0.9, 5) for n in np.linspace(0.1, 0.9, 5)]),
    "near-1e-2": _near_extreme(1e-2, range(30)),
    "near-1e-4": _near_extreme(1e-4, range(30)),
    "near-1e-5": _near_extreme(1e-5, range(100)),
    "near-1e-6": _near_extreme(1e-6, range(100)),
    "near-1e-7": _near_extreme(1e-7, range(100)),
    "near-wide-1e-5": _near_extreme(1e-5, range(100, 400)),
    "near-wide-1e-6": _near_extreme(1e-6, range(100, 400)),
    "near-wide-1e-7": _near_extreme(1e-7, range(100, 400)),
    "degenerate": _degenerate,
    "near-flat": _near_flat,
    "rounded": _rounded,
}


@contextlib.contextmanager
def _counted_linalg():
    """Count the calls of every ``numpy.linalg`` function made in the block; yields a one-item list holding the count."""
    count, saved = [0], {name: getattr(np.linalg, name) for name in np.linalg.__all__}

    def counted(function):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return function(*args, **kwargs)
        return wrapper

    for name, function in saved.items():
        if callable(function) and not isinstance(function, type):
            setattr(np.linalg, name, counted(function))
    try:
        yield count
    finally:
        for name, function in saved.items():
            setattr(np.linalg, name, function)


def _round_trip_fault(plan):
    """Why ``plan``, or one of its branches' gate lists, does not read back as itself from its JSON; None if both do."""
    text = decompose.plan_to_json(plan)
    try:
        if decompose.plan_to_json(decompose.plan_from_json(text)) != text:
            return "the plan reads back differently"
        for branch in (plan.branch_a, plan.branch_b):
            gates = [] if branch is None else gates_for_branch(branch)
            if gate_list_from_json(gate_list_to_json(gates)) != gates:
                return "a gate list reads back differently"
    except ValueError as exc:
        return f"rejected: {exc}"
    return None


def run(name):
    """Fit every channel of corpus ``name``; return its table row, note lines, miss and unconverged counts, the
    worst residual, the number of plans that do not have their stage's shape, and the number that fail the JSON
    round trip."""
    residuals, stage_two, misshapen, ms, floor_ratios, linalg_fits, round_trip = {}, [], 0, [], [], 0, {}
    for i, ops in CORPORA[name]().items():
        ch = KrausChannel(tuple(np.asarray(k, dtype=complex) for k in ops), f"{name} {i}")
        with _counted_linalg() as linalg_calls:
            t0 = time.perf_counter()
            result = decompose.fit_plan(ch)
            ms.append(1e3 * (time.perf_counter() - t0))
        linalg_fits += linalg_calls[0] > 0
        residuals[i] = result.residual
        plan = result.plan
        stage_two.append(result.starts_used == 1)
        misshapen += not ((result.starts_used == 0 and plan.branch_b is None and plan.p == 1.0)
                          or (result.starts_used == 1 and plan.branch_b is not None and plan.p == 0.5))
        fault = _round_trip_fault(plan)
        if fault is not None:
            round_trip[i] = fault
        if name == "rounded":
            floor_ratios.append(result.residual / (validate_channel(ch).trace_residual / math.sqrt(2.0)))
    misses = [i for i, r in residuals.items() if r > decompose.FIT_TARGET_RESIDUAL]
    unconverged = sum(residuals[i] > decompose.CONVERGED_RESIDUAL for i in misses)
    p50, p90 = np.percentile(ms, [50, 90])
    row = (f"| {name} | {len(residuals)} | {len(misses)} | {unconverged} | {max(residuals.values()):.1e} "
           f"| {np.mean(stage_two):.2f} | {linalg_fits} | {p50:.1f} / {p90:.1f} |")
    listed = ", ".join(f"{i} ({residuals[i]:.1e}{'*' if residuals[i] > decompose.CONVERGED_RESIDUAL else ''})"
                       for i in misses)
    notes = [f"{name} misses, * unconverged: {listed}"] if misses else []
    if floor_ratios:
        notes.append(f"{name} residual / floor: median {np.median(floor_ratios):.2f}, worst {max(floor_ratios):.2f}")
    if misshapen:
        notes.append(f"{name}: {misshapen} plans without their stage's shape")
    if round_trip:
        first = min(round_trip)
        notes.append(f"{name}: {len(round_trip)} plans fail the JSON round trip, first {first}: {round_trip[first]}")
    return row, notes, len(misses), unconverged, max(residuals.values()), misshapen, len(round_trip)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("corpora", nargs="*", metavar="CORPUS", help=f"of {', '.join(CORPORA)} (default: all)")
    names = parser.parse_args(argv).corpora or list(CORPORA)
    unknown = [name for name in names if name not in CORPORA]
    if unknown:
        parser.error(f"unknown corpus: {', '.join(unknown)}")
    print("| Corpus | n | Misses | Unconverged | Worst residual | Stage two, share | numpy.linalg fits | p50 / p90 ms |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    notes, failed = [], False
    for name in names:
        row, corpus_notes, misses, unconverged, worst, misshapen, round_trip = run(name)
        print(row, flush=True)
        notes += corpus_notes
        lost_digits = name != "rounded" and (misses > 0 or worst > decompose.FIT_ROUNDOFF_RESIDUAL)
        failed = failed or unconverged > 0 or lost_digits or misshapen > 0 or round_trip > 0
    for note in notes:
        print(note)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
