import numpy as np
import pytest

from conftest import haar_unitary, random_density, random_pure
from qchansim.channels import ChannelKind, apply_channel, builtin_channel, to_choi
from qchansim.circuit import (
    BranchConfig,
    NoiseParams,
    SpinOrbitState,
    _branch_stages,
    apply_noise,
    cnot_pol_controls_mode,
    gates_for_branch,
    prepare_initial,
    run_branch,
    simulate_channel,
    tbs_transfer,
)
from qchansim.decompose import DecompositionPlan, QuasiExtremeBranch, U_BPF, closed_form_plan, plan_to_channel
from qchansim.matops import dagger
from qchansim.optics import gate_list_from_json, gate_list_to_json
from qchansim.tomography import fidelity

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
KET_V = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
KET_H = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def test_prepare_initial_ground():
    rho = prepare_initial(0.0).rho
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-12)


def test_prepare_initial_vertical():
    rho = prepare_initial(np.pi / 4.0).rho
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 1.0  # |Vh>
    assert np.allclose(rho, expected, atol=1e-12)


def test_prepare_initial_superposition():
    rho = prepare_initial(np.pi / 8.0).rho
    psi = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    assert np.allclose(rho, np.outer(psi, psi), atol=1e-12)


def test_cnot_action():
    cx = cnot_pol_controls_mode()
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


def test_tbs_port_completeness():
    for delta in np.linspace(0.0, 2 * np.pi, 9):
        k_op, l_op = tbs_transfer(delta)
        acc = dagger(k_op) @ k_op + dagger(l_op) @ l_op
        assert np.linalg.norm(acc - np.eye(4)) <= 1e-12


def test_run_branch_full_damping():
    cfg = BranchConfig(closed_form_plan("AD", 1.0).branch_a)
    out = run_branch(KET_V, cfg)
    assert np.allclose(out, apply_channel(builtin_channel("AD", 1.0), KET_V), atol=1e-12)
    assert np.allclose(out, KET_H, atol=1e-12)


def test_run_branch_identity():
    rng = np.random.default_rng(41)
    cfg = BranchConfig(QuasiExtremeBranch.from_alpha_beta(0.0, 0.0))
    for _ in range(20):
        rho = random_density(rng)
        assert np.allclose(run_branch(rho, cfg), rho, atol=1e-12)


def test_run_branch_phase_damping():
    cfg = BranchConfig(closed_form_plan("PD", 0.5).branch_a)
    out = run_branch(PLUS, cfg)
    root = np.sqrt(0.5)
    assert np.allclose(out, 0.5 * np.array([[1.0, root], [root, 1.0]]), atol=1e-12)


def test_simulate_phase_flip_mixture():
    out = simulate_channel(PLUS, closed_form_plan("PF", 0.5))
    assert np.allclose(out, np.eye(2) / 2.0, atol=1e-12)


def test_simulate_single_branch_equals_run_branch():
    rng = np.random.default_rng(42)
    plan = closed_form_plan("BF", 0.3)
    rho = random_density(rng)
    direct = run_branch(rho, BranchConfig(plan.branch_a))
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
        cfg = BranchConfig(plan.branch_a)
        for _, rho4 in _branch_stages(random_density(rng), cfg):
            assert abs(np.trace(rho4) - 1.0) <= 1e-9
            assert np.linalg.norm(rho4 - dagger(rho4)) <= 1e-9
            assert np.linalg.eigvalsh((rho4 + dagger(rho4)) / 2.0).min() >= -1e-9
            SpinOrbitState(rho=rho4)


def test_bpf_unitary_placement_is_equivalent():
    # Diagonal dressing commutes through, so applying U_BPF before the CNOT
    # or after the feed-forward gives the same branch channel.
    rng = np.random.default_rng(45)
    after = BranchConfig(
        QuasiExtremeBranch.from_alpha_beta(np.pi / 2, np.pi / 2, U=U_BPF)
    )
    before = BranchConfig(
        QuasiExtremeBranch.from_alpha_beta(np.pi / 2, np.pi / 2, Uprime=U_BPF)
    )
    for _ in range(20):
        rho = random_density(rng)
        assert np.allclose(run_branch(rho, after), run_branch(rho, before), atol=1e-12)


def test_apply_noise_identity_at_unit_visibility():
    rng = np.random.default_rng(46)
    state = SpinOrbitState(rho=np.kron(random_density(rng), np.diag([1.0, 0.0])))
    assert np.allclose(apply_noise(state, 1.0).rho, state.rho)


def test_apply_noise_fully_dephases_arms():
    psi = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)  # (|Hh> + |Vh>)/sqrt(2)
    state = SpinOrbitState(rho=np.outer(psi, psi))
    rho = apply_noise(state, 0.0, arms="pol").rho
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


def test_gates_for_identity_dressing():
    branch = closed_form_plan("AD", 0.5).branch_a
    gates = gates_for_branch(branch)
    kinds = [g.element for g in gates]
    assert kinds == ["DP", "DP", "CNOT", "DP", "DP", "TBS", "CONDX"]
    # Dove pairs encode the half-angle rotations: second prism at gamma / 4.
    assert gates[1].angle == pytest.approx(branch.gamma1 / 4.0)
    assert gates[4].angle == pytest.approx(branch.gamma2 / 4.0)


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


def test_spin_orbit_state_validation():
    with pytest.raises(ValueError):
        SpinOrbitState(rho=np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(ValueError):
        SpinOrbitState(rho=np.diag([1.5, 0.0, 0.0, -0.5]).astype(complex))


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


def test_tbs_full_phase_turn_is_identity():
    rng = np.random.default_rng(48)
    noise = NoiseParams(visibility=0.9)
    for kind in ChannelKind:
        plan = closed_form_plan(kind, 0.4)
        for _ in range(5):
            rho = random_density(rng)
            for n in (None, noise):
                a = simulate_channel(rho, plan, noise=n, tbs_delta=2.0 * np.pi)
                b = simulate_channel(rho, plan, noise=n, tbs_delta=0.0)
                assert np.abs(a - b).max() <= 1e-12


def test_tbs_phase_grid_gives_physical_outputs():
    rng = np.random.default_rng(49)
    for delta in np.linspace(-np.pi, 3.0 * np.pi, 17):
        plan = _random_plan(rng)
        for noise in (None, NoiseParams(visibility=rng.uniform(0.0, 1.0))):
            _assert_unit_trace_psd(simulate_channel(random_density(rng), plan, noise=noise, tbs_delta=delta))


def test_noisy_circuit_stays_cptp():
    rng = np.random.default_rng(50)
    for visibility in np.linspace(0.0, 1.0, 11):
        noise = NoiseParams(visibility=visibility)
        for _ in range(4):
            choi = _circuit_choi(_random_plan(rng), noise)
            partial = np.trace(choi.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            assert np.abs(partial - np.eye(2)).max() <= 1e-10
            _assert_unit_trace_psd(choi / 2.0)


def test_circuit_choi_at_unit_visibility_matches_plan_channel():
    rng = np.random.default_rng(51)
    for _ in range(5):
        plan = _random_plan(rng)
        assert np.abs(_circuit_choi(plan, None) - to_choi(plan_to_channel(plan))).max() <= 1e-10


def test_apply_noise_rejects_unknown_arms_and_dephases_mode():
    state = prepare_initial(np.pi / 8.0)
    with pytest.raises(ValueError, match="arms"):
        apply_noise(state, 0.5, arms="both")
    mode = apply_noise(SpinOrbitState(rho=np.full((4, 4), 0.25, dtype=complex)), 0.5, arms="mode").rho
    assert np.allclose(mode, 0.25 * np.where(np.kron(np.ones((2, 2)), np.eye(2)) > 0, 1.0, 0.5))
