import re

import numpy as np
import pytest

from conftest import haar_unitary
from qchansim.matops import ID2, PAULI_X, Q0, phase_invariant_distance
from qchansim.optics import (
    EulerAngles,
    GateElement,
    WaveplateTriple,
    dove,
    dove_pair_for_ry,
    euler_from_su2,
    gate_list_from_json,
    gate_list_to_json,
    hwp,
    qwp,
    rot2,
    ry_rotation,
    su2_from_euler,
    triple_to_unitary,
    waveplates_from_euler,
)

U_BPF = np.diag([-1.0j, 1.0j])


def test_qwp_at_zero_is_q0():
    assert np.allclose(qwp(0.0), Q0, atol=1e-15)


def test_hwp_at_quarter_pi_is_sigma_x():
    # R(pi/4) H0 R(-pi/4) multiplied out by hand gives sigma_x.
    assert np.allclose(hwp(np.pi / 4.0), PAULI_X, atol=1e-15)


def test_dove_squares_to_identity():
    assert np.allclose(dove(0.0) @ dove(0.0), ID2, atol=1e-15)


def test_dove_equals_hwp_everywhere():
    for gamma in np.linspace(-np.pi, np.pi, 37):
        assert np.allclose(dove(gamma), hwp(gamma), atol=1e-12)


def test_triple_identity():
    assert np.allclose(triple_to_unitary(WaveplateTriple(0.0, 0.0, 0.0)), ID2, atol=1e-15)


def test_triple_bit_phase_flip_unitary():
    u = triple_to_unitary(WaveplateTriple(-np.pi / 2.0, np.pi / 2.0, 0.0))
    assert np.abs(u - U_BPF).max() <= 1e-12


def test_triple_coefficient_formulas():
    # u, w from the closed-form coefficient relations, against the product.
    rng = np.random.default_rng(20)
    for _ in range(1000):
        eta1, tau, eta2 = rng.uniform(-np.pi, np.pi, size=3)
        lam = 2.0 * tau - eta1 - eta2
        plus, minus = eta1 + eta2, eta1 - eta2
        u = np.cos(lam) * np.cos(minus) - 1j * np.sin(lam) * np.sin(plus)
        w = np.cos(lam) * np.sin(minus) + 1j * np.sin(lam) * np.cos(plus)
        expected = np.array([[u, -np.conj(w)], [w, np.conj(u)]])
        got = triple_to_unitary(WaveplateTriple(eta1, tau, eta2))
        assert np.linalg.norm(got - expected) <= 1e-12
        assert abs(abs(u) ** 2 + abs(w) ** 2 - 1.0) <= 1e-12


def test_su2_from_euler_identity():
    assert np.allclose(su2_from_euler(EulerAngles(0.0, 0.0, 0.0)), ID2, atol=1e-15)


def test_su2_from_euler_matches_rotation_product():
    # Independent path: Ry(phi) Rz(-xi) Ry(zeta) as an explicit product,
    # with Rz(xi) = diag(e^{-i xi}, e^{i xi}).
    rng = np.random.default_rng(26)
    angles = rng.uniform(-np.pi, np.pi, size=(200, 3))
    stacked = su2_from_euler(EulerAngles(*angles.T))
    for i, (phi, xi, zeta) in enumerate(angles):
        product = rot2(phi) @ np.diag([np.exp(1j * xi), np.exp(-1j * xi)]) @ rot2(zeta)
        single = su2_from_euler(EulerAngles(phi, xi, zeta))
        assert np.linalg.norm(single - product) <= 1e-12
        # A stacked call gives the same matrices as one call per angle triple.
        assert np.abs(stacked[i] - single).max() <= 1e-15


def test_euler_and_axis_angle_agree():
    rng = np.random.default_rng(21)
    for _ in range(200):
        u = haar_unitary(rng)
        e = euler_from_su2(u)
        assert phase_invariant_distance(su2_from_euler(e), u) <= 1e-10


def test_waveplates_from_euler_at_origin():
    triple = waveplates_from_euler(EulerAngles(0.0, 0.0, 0.0))
    assert triple == WaveplateTriple(-np.pi / 4.0, -np.pi / 4.0, -np.pi / 4.0)
    assert phase_invariant_distance(triple_to_unitary(triple), ID2) <= 1e-12


def test_waveplates_for_bit_phase_flip():
    e = euler_from_su2(U_BPF)
    triple = waveplates_from_euler(e)
    reference = triple_to_unitary(WaveplateTriple(-np.pi / 2.0, np.pi / 2.0, 0.0))
    assert phase_invariant_distance(triple_to_unitary(triple), reference) <= 1e-12


def test_waveplate_synthesis_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        e = EulerAngles(*rng.uniform(-np.pi, np.pi, size=3))
        u = su2_from_euler(e)
        assert phase_invariant_distance(triple_to_unitary(waveplates_from_euler(e)), u) <= 1e-10


def test_euler_from_su2_canonical_cases():
    assert euler_from_su2(ID2) == EulerAngles(0.0, 0.0, 0.0)
    e = euler_from_su2(U_BPF)
    assert phase_invariant_distance(su2_from_euler(e), U_BPF) <= 1e-12


def test_euler_round_trip_random_unitaries():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        u = haar_unitary(rng)
        e = euler_from_su2(u)
        assert phase_invariant_distance(su2_from_euler(e), u) <= 1e-10


@pytest.mark.parametrize("edge", ["w vanishes", "u vanishes", "w near zero"])
def test_euler_from_su2_round_trips_at_its_gauge_edges(edge):
    # |w| <= 1e-14 and |u| <= 1e-14 take their own branches; just above that the general atan2 branch runs.
    rng = np.random.default_rng(28)
    for _ in range(100):
        theta, phase = rng.uniform(-np.pi, np.pi, 2)
        c, s = np.exp(1j * theta), {"w vanishes": 0.0, "u vanishes": 1.0, "w near zero": 1e-13}[edge]
        u = np.exp(1j * phase) * np.array([[np.sqrt(1.0 - s * s) * c, -s], [s, np.sqrt(1.0 - s * s) * np.conj(c)]])
        e = euler_from_su2(u)
        if edge != "w near zero":
            assert e.zeta == 0.0
        assert phase_invariant_distance(su2_from_euler(e), u) <= 1e-12


@pytest.mark.parametrize("bad, message", [
    (1.1 * ID2, "euler_from_su2 requires a unitary input"),
    (np.full((2, 2), np.nan), "non-finite"),
    (np.eye(3), "expected a 2x2 matrix"),
    (np.ones((2, 3)), "expected a square matrix"),
], ids=["not unitary", "not finite", "not 2x2", "not square"])
def test_euler_from_su2_rejects_what_is_not_a_2x2_unitary(bad, message):
    with pytest.raises(ValueError, match=message):
        euler_from_su2(bad)


def test_ry_rotation_examples():
    assert np.allclose(ry_rotation(0.0), ID2, atol=1e-15)
    assert np.allclose(ry_rotation(np.pi) @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-12)


def test_dove_pair_realizes_half_angle_rotation():
    rng = np.random.default_rng(24)
    for _ in range(100):
        gamma = rng.uniform(-2 * np.pi, 2 * np.pi)
        delta = dove_pair_for_ry(gamma)
        assert delta == pytest.approx(gamma / 4.0)
        assert np.linalg.norm(dove(delta) @ dove(0.0) - ry_rotation(gamma)) <= 1e-12


def test_printed_dove_composition_is_full_angle():
    # DP(g/2) DP(0) rotates by the full angle g, twice the circuit reading.
    for gamma in np.linspace(-np.pi, np.pi, 17):
        assert np.linalg.norm(dove(gamma / 2.0) @ dove(0.0) - rot2(gamma)) <= 1e-12


def test_waveplates_square_to_identity_up_to_phase():
    for angle in np.linspace(-np.pi, np.pi, 19):
        assert phase_invariant_distance(hwp(angle) @ hwp(angle), ID2) <= 1e-12
        q4 = np.linalg.matrix_power(qwp(angle), 4)
        assert phase_invariant_distance(q4, ID2) <= 1e-12


def test_gate_element_validation():
    with pytest.raises(ValueError):
        GateElement("LENS", 0.0)
    assert [GateElement(e, 0.0 if e in ("QWP", "HWP", "DP") else None).target
            for e in ("QWP", "HWP", "DP", "TBS", "CNOT", "CONDX")] == ["pol", "pol", "mode", "mode", "both", "both"]
    for target in ("beam", "mode", "both"):
        with pytest.raises(ValueError, match="QWP acts on 'pol'"):
            gate_list_from_json(f'[{{"element": "QWP", "angle": 0.0, "target": "{target}"}}]')


@pytest.mark.parametrize("element, angle, message", [
    ("CNOT", 1.0, "CNOT takes no angle, got 1.0"),
    ("TBS", 0.0, "TBS takes no angle, got 0.0"),
    ("DP", None, "DP needs a finite angle, got None"),
    ("QWP", "x", "QWP needs a finite angle, got 'x'"),
    ("HWP", np.nan, "HWP needs a finite angle, got nan"),
    ("DP", np.inf, "DP needs a finite angle, got inf"),
    ("QWP", True, "QWP needs a finite angle, got True"),
    (["DP"], 0.0, "unknown element ['DP']"),
])
def test_gate_element_takes_an_angle_exactly_when_its_element_does(element, angle, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GateElement(element, angle)
    assert GateElement("DP", np.float32(0.5)).angle == 0.5 and GateElement("HWP", 1).angle == 1


@pytest.mark.parametrize("text, message", [
    ('{"element": "DP", "angle": 0.0, "target": "mode"}', "expected a JSON list"),
    ("[1]", "expected a JSON list"),
    ('[{"element": "DP", "angle": 0.0}]', "expected a JSON list"),
    ('[{"element": "DP", "angle": "x", "target": "mode"}]', "DP needs a finite angle, got 'x'"),
    ('[{"element": "DP", "angle": NaN, "target": "mode"}]', "DP needs a finite angle, got nan"),
    ('[{"element": "DP", "angle": null, "target": "mode"}]', "DP needs a finite angle, got None"),
    ('[{"element": "CNOT", "angle": 1.0, "target": "both"}]', "CNOT takes no angle, got 1.0"),
], ids=["an-object", "a-number-row", "target-missing", "angle-a-string", "angle-nan", "angle-missing-for-dp",
        "angle-for-cnot"])
def test_gate_list_from_json_rejects_a_malformed_list_with_one_value_error(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        gate_list_from_json(text)


def test_gate_list_json_round_trip():
    gates = [
        GateElement("DP", 0.0),
        GateElement("CNOT", None),
        GateElement("QWP", -np.pi / 4.0),
    ]
    assert gate_list_from_json(gate_list_to_json(gates)) == gates
