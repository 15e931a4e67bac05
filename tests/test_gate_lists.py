"""The emitted gate lists, run element by element, are the circuit that ``compile_plan`` simulates.

``executed_transfer`` is a test-only executor of gate lists: it multiplies the Jones matrices of the elements in beam
order on polarization (x) mode, keeps both ports of the mode sorter, and traces out the mode.  It shares no code with
``circuit._branch_stages`` beyond the element matrices of ``qchansim.optics`` and the sorter's ports.
"""

import numpy as np
import pytest

from conftest import random_channel
from qchansim.channels import ChannelKind
from qchansim.circuit import compile_plan, gates_for_branch, tbs_transfer
from qchansim.decompose import closed_form_plan, fit_plan
from qchansim.matops import ID2, PAULI_X
from qchansim.optics import GateElement, dove, gate_list_from_json, gate_list_to_json, hwp, qwp

_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # polarization |V> flips the mode |h> <-> |v>
_CONDX = np.kron(PAULI_X, ID2)  # the feed-forward sigma_x on polarization
_ONE_QUBIT = {"QWP": lambda a: np.kron(qwp(a), ID2), "HWP": lambda a: np.kron(hwp(a), ID2),
              "DP": lambda a: np.kron(ID2, dove(a))}


def branch_kraus(gates):
    """The 2x2 Kraus operators, on polarization, of one branch's gate list with the mode prepared in |h>: one per path
    through the sorter's ports and per mode read out, <m| A |h> for the path's 4x4 operator A."""
    even, odd = tbs_transfer(0.0)
    paths = [(np.eye(4, dtype=complex), False)]  # (operator so far, on the odd port)
    for gate in gates:
        if gate.element == "TBS":
            paths = [(port @ op, on_odd) for op, _ in paths for port, on_odd in ((even, False), (odd, True))]
        elif gate.element == "CONDX":
            paths = [(_CONDX @ op if on_odd else op, on_odd) for op, on_odd in paths]
        else:
            m = _CNOT if gate.element == "CNOT" else _ONE_QUBIT[gate.element](gate.angle)
            paths = [(m @ op, on_odd) for op, on_odd in paths]
    # Index [pol_out, mode_out, pol_in, mode_in], polarization first.
    return [op.reshape(2, 2, 2, 2)[:, mode, :, 0] for op, _ in paths for mode in (0, 1)]


def executed_transfer(weighted_gate_lists):
    """The 4x4 transfer matrix sum_w w sum_K K (x) conj(K) of (weight, gate list) pairs, row-major vec as in
    ``qchansim.channels.transfer``."""
    return sum(w * np.kron(k, k.conj()) for w, gates in weighted_gate_lists for k in branch_kraus(gates))


def _gate_lists(plan):
    return [(w, gates_for_branch(b)) for b, w in ((plan.branch_a, plan.p), (plan.branch_b, 1.0 - plan.p))
            if b is not None]


def _named_plans():
    return [closed_form_plan(kind, lam) for kind in ChannelKind for lam in np.linspace(0.0, 1.0, 11)]


def _fitted_plans():
    """Plans fitted to seeded channels of Choi rank 1-4, 10 of each."""
    return [fit_plan(random_channel(np.random.default_rng(90000 + 100 * rank + i), rank)).plan
            for rank in (1, 2, 3, 4) for i in range(10)]


@pytest.mark.parametrize("plans", [_named_plans, _fitted_plans], ids=["named", "fitted"])
def test_executed_gate_lists_match_compile_plan(plans):
    for plan in plans():
        gate_lists = _gate_lists(plan)
        expected = compile_plan(plan)
        assert np.abs(executed_transfer(gate_lists) - expected).max() <= 1e-14
        # As written to and read back from gates_a.json / gates_b.json.
        read_back = [(w, gate_list_from_json(gate_list_to_json(gates))) for w, gates in gate_lists]
        assert np.abs(executed_transfer(read_back) - expected).max() <= 1e-14


@pytest.mark.parametrize("plans", [lambda: [closed_form_plan("AD", 0.5)], _fitted_plans], ids=["AD", "fitted"])
def test_half_a_degree_on_any_one_element_is_detected(plans):
    # Every angled element of these plans acts on the channel.  Some elements of the named plans do not (PD's second
    # Dove pair, and the branch of weight 0 of PF and BPF at lambda = 0 and 1), so a misset angle there changes nothing.
    error = np.pi / 360.0
    for plan in plans():
        gate_lists = _gate_lists(plan)
        expected = compile_plan(plan)
        for n, (w, gates) in enumerate(gate_lists):
            for i, gate in enumerate(gates):
                if gate.angle is None:
                    continue
                off = gates[:i] + [GateElement(gate.element, gate.angle + error)] + gates[i + 1:]
                perturbed = gate_lists[:n] + [(w, off)] + gate_lists[n + 1:]
                assert np.abs(executed_transfer(perturbed) - expected).max() > 1e-5, (gate, plan)
