import re

import numpy as np
import pytest

from conftest import haar_unitary, random_channel, random_density, random_pure
from qchansim.channels import ChannelKind, apply_channel, builtin_channel, to_choi, transfer
from qchansim.circuit import (
    _CNOT,
    NoiseParams,
    _branch_stages,
    _waveplates,
    apply_noise,
    compile_plan,
    gates_for_branch,
    prepare_initial,
    run_branch,
    simulate_channel,
    tbs_transfer,
)
from qchansim.decompose import (
    DecompositionPlan,
    QuasiExtremeBranch,
    U_BPF,
    closed_form_plan,
    fit_plan,
    plan_to_channel,
)
from qchansim.matops import ID2, PAULIS, dagger, phase_invariant_distance
from qchansim.optics import euler_from_su2, gate_list_from_json, gate_list_to_json, waveplates_from_euler
from qchansim.tomography import fidelity

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
KET_V = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
KET_H = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def test_prepare_initial_ground():
    assert np.allclose(prepare_initial(0.0), KET_H, atol=1e-12)


def test_prepare_initial_vertical():
    assert np.allclose(prepare_initial(np.pi / 4.0), KET_V, atol=1e-12)


def test_prepare_initial_superposition():
    rho = prepare_initial(np.pi / 8.0)
    assert np.allclose(rho, PLUS, atol=1e-12)
    # The input stage puts the mode in |h>: (|Hh> + |Vh>) / sqrt(2).
    label, rho4 = next(_branch_stages(rho, [closed_form_plan("AD", 0.5).branch_a]))
    psi = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    assert label == "input"
    assert rho4.shape == (1, 4, 4)
    assert np.allclose(rho4[0], np.outer(psi, psi), atol=1e-12)


def test_cnot_action():
    cx = _CNOT
    vh = np.array([0.0, 0.0, 1.0, 0.0])
    vv = np.array([0.0, 0.0, 0.0, 1.0])
    hh = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(cx @ vh, vv)
    assert np.allclose(cx @ hh, hh)
    assert np.allclose(cx @ cx, np.eye(4))
    assert np.allclose(cx @ dagger(cx), np.eye(4))


def test_tbs_sorts_modes_balanced():
    rng = np.random.default_rng(40)
    k_op, l_op = tbs_transfer(0.0)
    for _ in range(100):
        phi1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi1 /= np.linalg.norm(phi1)
        phi2 /= np.linalg.norm(phi2)
        state = np.array([phi1[0], phi2[0], phi1[1], phi2[1]]) / np.sqrt(2)
        out_k = k_op @ state
        out_l = l_op @ state
        expected_k = np.array([phi1[0], 0.0, phi1[1], 0.0]) / np.sqrt(2)
        expected_l = np.array([0.0, phi2[0], 0.0, phi2[1]]) / np.sqrt(2)
        assert np.abs(out_k - expected_k).max() <= 1e-12
        assert np.abs(out_l - expected_l).max() <= 1e-12


def test_tbs_all_amplitude_in_even_port_for_hh():
    k_op, l_op = tbs_transfer(0.0)
    hh = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(k_op @ hh, hh)
    assert np.allclose(l_op @ hh, 0.0)


def test_tbs_pi_phase_swaps_ports():
    k0, l0 = tbs_transfer(0.0)
    kpi, lpi = tbs_transfer(np.pi)
    assert np.allclose(kpi, l0, atol=1e-12)
    assert np.allclose(lpi, k0, atol=1e-12)


def test_tbs_piezo_phase_rides_the_transmitted_arm_as_exp_i_delta():
    # The transmitted arm, net I (x) H0, is the difference K - L of the ports and carries exp(+i delta); the reflected
    # arm, K + L, carries none.  So a mode-v photon, on which H0 is -1, leaves the even port with amplitude
    # (1 - exp(i delta)) / 2 and the odd port with (1 + exp(i delta)) / 2.
    k0, l0 = tbs_transfer(0.0)
    hv = np.array([0.0, 1.0, 0.0, 0.0])
    for delta in (0.3, np.pi / 2, 2.0, -1.1):
        k_op, l_op = tbs_transfer(delta)
        phase = np.exp(1j * delta)
        assert np.abs(k_op - l_op - phase * (k0 - l0)).max() <= 1e-15
        assert np.abs(k_op + l_op - (k0 + l0)).max() <= 1e-15
        assert np.abs(k_op @ hv - (1.0 - phase) / 2.0 * hv).max() <= 1e-15
        assert np.abs(l_op @ hv - (1.0 + phase) / 2.0 * hv).max() <= 1e-15


def test_tbs_port_completeness():
    for delta in np.linspace(0.0, 2 * np.pi, 9):
        k_op, l_op = tbs_transfer(delta)
        acc = dagger(k_op) @ k_op + dagger(l_op) @ l_op
        assert np.linalg.norm(acc - np.eye(4)) <= 1e-12


def test_run_branch_full_damping():
    branch = closed_form_plan("AD", 1.0).branch_a
    out = run_branch(KET_V, branch)
    assert np.allclose(out, apply_channel(builtin_channel("AD", 1.0), KET_V), atol=1e-12)
    assert np.allclose(out, KET_H, atol=1e-12)


def test_run_branch_identity():
    rng = np.random.default_rng(41)
    branch = QuasiExtremeBranch.from_alpha_beta(0.0, 0.0)
    for _ in range(20):
        rho = random_density(rng)
        assert np.allclose(run_branch(rho, branch), rho, atol=1e-12)


def test_run_branch_phase_damping():
    branch = closed_form_plan("PD", 0.5).branch_a
    out = run_branch(PLUS, branch)
    root = np.sqrt(0.5)
    assert np.allclose(out, 0.5 * np.array([[1.0, root], [root, 1.0]]), atol=1e-12)


def test_simulate_phase_flip_mixture():
    out = simulate_channel(PLUS, closed_form_plan("PF", 0.5))
    assert np.allclose(out, np.eye(2) / 2.0, atol=1e-12)


def test_simulate_single_branch_equals_run_branch():
    rng = np.random.default_rng(42)
    plan = closed_form_plan("BF", 0.3)
    rho = random_density(rng)
    direct = run_branch(rho, plan.branch_a)
    assert np.allclose(simulate_channel(rho, plan), direct, atol=1e-14)


def test_simulate_full_bit_phase_flip():
    out = simulate_channel(PLUS, closed_form_plan("BPF", 1.0))
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    assert np.allclose(out, minus, atol=1e-12)


def test_circuit_matches_kraus_oracle():
    rng = np.random.default_rng(43)
    for kind in ChannelKind:
        for lam in np.linspace(0.0, 1.0, 6):
            plan = closed_form_plan(kind, lam)
            oracle = builtin_channel(kind, lam)
            for _ in range(5):
                rho = random_density(rng)
                d = np.linalg.norm(simulate_channel(rho, plan) - apply_channel(oracle, rho))
                assert d <= 1e-10


def test_intermediate_states_stay_physical():
    rng = np.random.default_rng(44)
    for kind in ChannelKind:
        plan = closed_form_plan(kind, 0.6)
        for _, (rho4,) in _branch_stages(random_density(rng), [plan.branch_a]):
            assert abs(np.trace(rho4) - 1.0) <= 1e-9
            assert np.linalg.norm(rho4 - dagger(rho4)) <= 1e-9
            assert np.linalg.eigvalsh((rho4 + dagger(rho4)) / 2.0).min() >= -1e-9
            apply_noise(rho4, 1.0)


def test_bpf_unitary_placement_is_equivalent():
    # Diagonal dressing commutes through, so applying U_BPF before the CNOT
    # or after the feed-forward gives the same branch channel.
    rng = np.random.default_rng(45)
    after = QuasiExtremeBranch.from_alpha_beta(np.pi / 2, np.pi / 2, U=U_BPF)
    before = QuasiExtremeBranch.from_alpha_beta(np.pi / 2, np.pi / 2, Uprime=U_BPF)
    for _ in range(20):
        rho = random_density(rng)
        assert np.allclose(run_branch(rho, after), run_branch(rho, before), atol=1e-12)


def test_apply_noise_identity_at_unit_visibility():
    rng = np.random.default_rng(46)
    rho4 = np.kron(random_density(rng), np.diag([1.0, 0.0]))
    assert np.allclose(apply_noise(rho4, 1.0), rho4)


def test_apply_noise_fully_dephases_arms():
    psi = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)  # (|Hh> + |Vh>)/sqrt(2)
    rho = apply_noise(np.outer(psi, psi), 0.0, arms="pol")
    assert np.allclose(rho, np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-12)
    assert abs(np.trace(rho) - 1.0) <= 1e-12


def test_visibility_keeps_states_physical_and_close():
    noise = NoiseParams(visibility=0.95)
    plan = closed_form_plan("AD", 0.5)
    ideal = simulate_channel(PLUS, plan)
    noisy = simulate_channel(PLUS, plan, noise=noise)
    assert abs(np.trace(noisy) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh((noisy + dagger(noisy)) / 2.0).min() >= -1e-10
    assert fidelity(noisy, ideal) >= 0.95


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(visibility=1.2)
    with pytest.raises(ValueError):
        NoiseParams(intensity_sigma=-0.1)
    with pytest.raises(ValueError, match="rng_seed"):
        NoiseParams(rng_seed=-3)


@pytest.mark.parametrize("options, message", [
    ({"intensity_sigma": np.nan}, "intensity_sigma must be finite, got nan"),
    ({"intensity_sigma": np.inf}, "intensity_sigma must be finite, got inf"),
    ({"rng_seed": 1.5}, "rng_seed must be an integer, got 1.5"),
    ({"rng_seed": 1.5, "intensity_sigma": 0.1}, "rng_seed must be an integer, got 1.5"),
    ({"rng_seed": "3"}, "rng_seed must be an integer, got '3'"),
    ({"rng_seed": np.float64(2.0)}, "rng_seed must be an integer, got "),
    ({"intensity_sigma": 1e301}, "intensity_sigma must be at most 1e300, got 1e+301"),
    ({"intensity_sigma": 1e308}, "intensity_sigma must be at most 1e300, got 1e+308"),
])
def test_noise_params_reject_a_non_finite_sigma_and_a_non_integer_seed(options, message):
    # NaN used to switch the noise off, inf to leak numpy's divide warning from reconstruct, a sigma above 1e300 to leak
    # its overflow warning from forward_intensities, and a float seed to fail in numpy's RNG only where sigma > 0.
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        NoiseParams(**options)
    assert NoiseParams(rng_seed=np.int64(3), intensity_sigma=0.1).rng_seed == 3


def test_gates_for_identity_dressing():
    branch = closed_form_plan("AD", 0.5).branch_a
    gates = gates_for_branch(branch)
    kinds = [g.element for g in gates]
    assert kinds == ["DP", "DP", "CNOT", "DP", "DP", "TBS", "CONDX"]
    # Dove pairs encode the half-angle rotations: second prism at gamma / 4.
    assert gates[1].angle == pytest.approx(branch.gamma1 / 4.0)
    assert gates[4].angle == pytest.approx(branch.gamma2 / 4.0)


@pytest.mark.parametrize("phi", [0.0, np.pi / 2.0, np.pi, 2.718])
def test_gates_skip_a_dressing_that_is_a_global_phase(phi):
    phase = np.exp(1j * phi) * np.eye(2)
    branch = QuasiExtremeBranch.from_alpha_beta(0.4, 0.1, U=phase, Uprime=phase)
    assert [g.element for g in gates_for_branch(branch)] == ["DP", "DP", "CNOT", "DP", "DP", "TBS", "CONDX"]
    # diag(e^{-i e / 2}, e^{i e / 2}) is e / sqrt(2) from the identity up to phase: at 1e-10 it gets its triple.
    eps = np.sqrt(2.0) * 1e-10
    near = phase @ np.diag([np.exp(-0.5j * eps), np.exp(0.5j * eps)])
    branch = QuasiExtremeBranch.from_alpha_beta(0.4, 0.1, U=phase, Uprime=near)
    assert [g.element for g in gates_for_branch(branch)][2:5] == ["QWP", "HWP", "QWP"]
    assert [g.element for g in gates_for_branch(branch)].count("HWP") == 1


def test_gates_respect_conditional_x_flag():
    branch = closed_form_plan("PD", 0.5).branch_a
    kinds = [g.element for g in gates_for_branch(branch)]
    assert "CONDX" not in kinds


def test_gates_include_waveplates_for_dressed_branch():
    branch = closed_form_plan("BPF", 0.5).branch_a
    gates = gates_for_branch(branch)
    kinds = [g.element for g in gates]
    assert kinds == ["DP", "DP", "CNOT", "DP", "DP", "TBS", "CONDX", "QWP", "HWP", "QWP"]
    assert gate_list_from_json(gate_list_to_json(gates)) == gates


def test_waveplates_are_the_angles_of_euler_from_su2_bit_for_bit():
    # _waveplates reads the dressing as four Python numbers; the public path builds the EulerAngles and the
    # WaveplateTriple records.  Haar unitaries, the dressings of fitted plans, diagonal and Pauli unitaries times a
    # phase, and exp(-i t n.sigma) times a phase, e = sqrt(2) t from the identity up to phase, around the 1e-12 bound.
    rng = np.random.default_rng(91)
    unitaries = [haar_unitary(rng) for _ in range(200)]
    for i in range(20):
        plan = fit_plan(random_channel(np.random.default_rng(92000 + i), 1 + i % 4)).plan
        unitaries += [m for b in (plan.branch_a, plan.branch_b) if b is not None for m in (b.U, b.Uprime)]
    phases = [np.exp(1j * phi) for phi in (0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi, 2.718)]
    unitaries += [z * m for z in phases for m in (ID2, U_BPF, *PAULIS, np.diag([1.0, 1.0j]))]
    for e in (1e-13, 9.9e-13, 0.999e-12, 1e-12, 1.001e-12, 1.01e-12, 2e-12, 1e-11):
        n = rng.standard_normal(3)
        t = e / np.sqrt(2.0)
        turn = np.cos(t) * ID2 - 1j * np.sin(t) * np.einsum("k,kab->ab", n / np.linalg.norm(n), np.array(PAULIS))
        unitaries += [z * turn for z in phases]
    skipped = 0
    for u in unitaries:
        u = np.array(u, dtype=complex)
        euler = None if phase_invariant_distance(u, ID2) <= 1e-12 else euler_from_su2(u)
        gates = _waveplates(u)
        assert (euler is None) == (gates == [])
        if euler is None:
            skipped += 1
            continue
        triple = waveplates_from_euler(euler)
        assert [g.element for g in gates] == ["QWP", "HWP", "QWP"]
        expected = [triple.eta2, triple.tau, triple.eta1]
        assert np.array([g.angle for g in gates]).tobytes() == np.array(expected).tobytes()
    assert 0 < skipped < len(unitaries)


def test_spin_orbit_state_validation():
    with pytest.raises(ValueError):
        apply_noise(np.eye(4, dtype=complex), 1.0)  # trace 4
    with pytest.raises(ValueError):
        apply_noise(np.diag([1.5, 0.0, 0.0, -0.5]).astype(complex), 1.0)
    with pytest.raises(ValueError):
        apply_noise(PLUS, 1.0)  # a 2x2 system state, not polarization (x) mode


@pytest.mark.parametrize("rho, message", [
    (np.eye(3) / 3.0, r"expected a 2x2 matrix, got shape \(3, 3\)"),
    (np.array([PLUS] * 3), r"expected one matrix, not a stack of shape \(3, 2, 2\)"),
])
def test_simulate_channel_rejects_a_non_qubit_or_stacked_state_in_one_line(rho, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate_channel(rho, closed_form_plan("AD", 0.5))


def test_an_empty_plan_sequence_fails_in_one_line():
    # zip(*runs) used to raise "not enough values to unpack (expected 3, got 0)".
    with pytest.raises(ValueError, match="^expected at least one plan$"):
        compile_plan([])
    with pytest.raises(ValueError, match="^expected at least one plan$"):
        simulate_channel(PLUS, [], NoiseParams(visibility=0.9))


def test_run_branch_rejects_a_non_qubit_state_in_one_line_and_runs_a_stack():
    branch = closed_form_plan("AD", 0.5).branch_a
    with pytest.raises(ValueError, match=r"^expected a 2x2 matrix, got shape \(3, 3\)$"):
        run_branch(np.eye(3) / 3.0, branch)
    out = run_branch(np.array([PLUS, KET_V]), branch)
    assert out.shape == (2, 2, 2)
    assert np.array_equal(out[1], run_branch(KET_V, branch))


def test_run_branch_oracle_on_pure_states():
    rng = np.random.default_rng(47)
    plan = closed_form_plan("AD", 0.35)
    oracle = builtin_channel("AD", 0.35)
    for _ in range(10):
        rho = random_pure(rng)
        d = np.linalg.norm(simulate_channel(rho, plan) - apply_channel(oracle, rho))
        assert d <= 1e-12


def _random_plan(rng):
    def branch():
        return QuasiExtremeBranch.from_alpha_beta(
            *rng.uniform(-np.pi, np.pi, 2), U=haar_unitary(rng), Uprime=haar_unitary(rng),
            conditional_x=bool(rng.integers(2)),
        )

    return DecompositionPlan(branch(), branch(), rng.uniform(0.0, 1.0))


def _assert_unit_trace_psd(rho, tol=1e-10):
    assert abs(np.trace(rho) - 1.0) <= tol
    assert np.linalg.norm(rho - dagger(rho)) <= tol
    assert np.linalg.eigvalsh((rho + dagger(rho)) / 2.0).min() >= -tol


def _circuit_choi(plan, noise):
    """Choi matrix of the simulated map, rebuilt from four state inputs by linearity."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    plus_i = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    e00, e11 = (simulate_channel(r, plan, noise=noise) for r in (KET_H, KET_V))
    e01 = (simulate_channel(plus, plan, noise=noise) + 1j * simulate_channel(plus_i, plan, noise=noise)
           - 0.5 * (1.0 + 1.0j) * (e00 + e11))
    # Block (i, j) of J is the image of |i><j|.
    return np.block([[e00, e01], [dagger(e01), e11]])


def test_noisy_circuit_stays_cptp():
    rng = np.random.default_rng(50)
    for visibility in np.linspace(0.0, 1.0, 11):
        noise = NoiseParams(visibility=visibility)
        for _ in range(4):
            choi = _circuit_choi(_random_plan(rng), noise)
            partial = np.trace(choi.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            assert np.abs(partial - np.eye(2)).max() <= 1e-10
            _assert_unit_trace_psd(choi / 2.0)


# Columns: the row-major vecs of I, X, Y, Z.  Their inverse is the conjugate transpose over 2.
_PAULI_VECS = np.array([ID2, *PAULIS]).reshape(4, 4).T
# Row k of this times the Pauli-diagonal (1, l_x, l_y, l_z) is the weight of Pauli k: I, X, Y, Z.
_PAULI_WEIGHTS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 4.0


def _pauli_diagonal(visibility: float, conditional_x: bool) -> np.ndarray:
    v = visibility
    return np.array([1.0, v, v * v, v] if conditional_x else [1.0, v, v, 1.0])


def _closed_form_noisy_transfer(plan, visibility: float) -> np.ndarray:
    """sum_b w_b L(U_b) P D_b P^-1 S_K,b L(U'_b): L(U) = U (x) conj U, P = _PAULI_VECS, D_b the Pauli-diagonal
    noise of the branch, and S_K,b = sum K (x) conj K over the branch's bare Kraus pair."""
    s = np.zeros((4, 4), dtype=complex)
    for branch, weight in ((plan.branch_a, plan.p), (plan.branch_b, 1.0 - plan.p)):
        if branch is None or weight == 0.0:
            continue
        noise = _PAULI_VECS @ np.diag(_pauli_diagonal(visibility, branch.conditional_x)) @ dagger(_PAULI_VECS) / 2.0
        bare = sum(np.kron(k, k.conj()) for k in branch.kraus_pair())
        s += weight * np.kron(branch.U, branch.U.conj()) @ noise @ bare @ np.kron(branch.Uprime, branch.Uprime.conj())
    return s


def test_noisy_circuit_is_the_pauli_diagonal_closed_form():
    # A noisy branch is U o D o K(alpha, beta) o U', with D = diag(1, v, v^2, v) in the Pauli basis with the
    # feed-forward and diag(1, v, v, 1) without it.  Pinned on the named plans and on random dressed branches
    # (alpha, beta uniform, Haar U and U', the feed-forward on and off) at five visibilities.
    rng = np.random.default_rng(56)
    plans = [closed_form_plan(kind, lam) for kind in ChannelKind for lam in np.linspace(0.0, 1.0, 6)]
    plans += [_random_plan(rng) for _ in range(40)]
    branches = [b for plan in plans for b in (plan.branch_a, plan.branch_b) if b is not None]
    assert {b.conditional_x for b in branches} == {True, False}
    for visibility in (0.0, 0.25, 0.5, 0.9, 1.0):
        noise = NoiseParams(visibility=visibility)
        for plan, s in zip(plans, compile_plan(plans, noise)):
            assert np.abs(s - _closed_form_noisy_transfer(plan, visibility)).max() <= 1e-14, (plan, visibility)
    # D's Pauli weights are nonnegative, so by the Fujiwara-Algoet conditions D is CP and the noisy circuit is CPTP
    # at every visibility in [0, 1].
    for v in np.linspace(0.0, 1.0, 101):
        with_x = ((1 + v) ** 2 / 4, (1 - v * v) / 4, (1 - v) ** 2 / 4, (1 - v * v) / 4)
        without_x = ((1 + v) / 2, 0.0, 0.0, (1 - v) / 2)
        for conditional_x, weights in ((True, with_x), (False, without_x)):
            assert min(weights) >= 0.0
            assert np.abs(_PAULI_WEIGHTS @ _pauli_diagonal(v, conditional_x) - weights).max() <= 1e-15, v


def test_circuit_choi_at_unit_visibility_matches_plan_channel():
    rng = np.random.default_rng(51)
    for _ in range(5):
        plan = _random_plan(rng)
        assert np.abs(_circuit_choi(plan, None) - to_choi(plan_to_channel(plan))).max() <= 1e-10


def test_apply_noise_rejects_unknown_arms_and_dephases_mode():
    rho4 = np.full((4, 4), 0.25, dtype=complex)
    with pytest.raises(ValueError, match="arms"):
        apply_noise(rho4, 0.5, arms="both")
    mode = apply_noise(rho4, 0.5, arms="mode")
    assert np.allclose(mode, 0.25 * np.where(np.kron(np.ones((2, 2)), np.eye(2)) > 0, 1.0, 0.5))


def test_compile_plan_matches_plan_transfer_at_unit_visibility():
    rng = np.random.default_rng(52)
    plans = [_random_plan(rng) for _ in range(20)]
    plans += [closed_form_plan(kind, lam) for kind in ChannelKind for lam in np.linspace(0.0, 1.0, 6)]
    for plan in plans:
        assert np.abs(compile_plan(plan) - transfer(plan_to_channel(plan))).max() <= 1e-12


def test_simulate_channel_is_weighted_sum_of_branch_runs():
    rng = np.random.default_rng(53)
    for visibility in np.linspace(0.0, 1.0, 6):
        noise = NoiseParams(visibility=visibility)
        plan = _random_plan(rng)
        rho = random_density(rng)
        direct = plan.p * run_branch(rho, plan.branch_a, noise) + (1.0 - plan.p) * run_branch(rho, plan.branch_b, noise)
        assert np.abs(simulate_channel(rho, plan, noise=noise) - direct).max() <= 1e-12


def test_compile_plan_stack_rows_match_single_plans():
    rng = np.random.default_rng(54)
    plans = [closed_form_plan(kind, lam) for kind in ChannelKind for lam in (0.0, 0.3, 0.7, 1.0)]
    plans += [_random_plan(rng) for _ in range(6)]
    assert not plans[4].branch_a.conditional_x  # PD runs without the feed-forward
    rho = random_density(rng)
    for noise in (None, NoiseParams(visibility=0.9)):
        stacked = compile_plan(plans, noise)
        outputs = simulate_channel(rho, plans, noise=noise)
        assert stacked.shape == (len(plans), 4, 4) and outputs.shape == (len(plans), 2, 2)
        for plan, s, out in zip(plans, stacked, outputs):
            assert np.abs(s - compile_plan(plan, noise)).max() <= 1e-15
            assert np.abs(out - simulate_channel(rho, plan, noise=noise)).max() <= 1e-15


def test_branch_stages_stack_every_branch_over_every_state():
    rng = np.random.default_rng(55)
    branches = [_random_plan(rng).branch_a for _ in range(3)]
    states = np.array([random_density(rng) for _ in range(5)])
    for (label, stacked), *singles in zip(
        _branch_stages(states, branches, 0.9), *(_branch_stages(rho, branches, 0.9) for rho in states)
    ):
        assert stacked.shape == (3, 5, 4, 4)
        for m, (single_label, single) in enumerate(singles):
            assert single_label == label and single.shape == (3, 4, 4)
            assert np.abs(stacked[:, m] - single).max() <= 1e-15
