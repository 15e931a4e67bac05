"""Jones-calculus optical elements and SU(2) synthesis maps.

Conventions used throughout:

* ``rot2(theta)`` is the real rotation [[cos t, -sin t], [sin t, cos t]].
* A waveplate at fast-axis angle ``a`` is the zero-angle Jones matrix
  conjugated by ``rot2(a)``: QWP(a) = R(a) diag(1, i) R(-a) and
  HWP(a) = R(a) diag(1, -1) R(-a).
* A Dove prism acts on first-order transverse modes exactly as a half-wave
  plate acts on polarization, DP(a) = [[cos 2a, sin 2a], [sin 2a, -cos 2a]].
* SU(2) matrices are written [[u, -conj(w)], [w, conj(u)]] with
  |u|^2 + |w|^2 = 1.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .matops import H0, Q0, Record, _unitarity_residual_2x2, as_cmat

# The qubit each optical element acts on: polarization, transverse mode or both.
GATE_TARGETS = {"QWP": "pol", "HWP": "pol", "DP": "mode", "TBS": "mode", "CNOT": "both", "CONDX": "both"}
ANGLED_ELEMENTS = ("QWP", "HWP", "DP")  # the elements set by an angle; the others take none
_REAL = (int, float, np.integer, np.floating)  # concrete types: an isinstance test on numbers.Real costs 4x as much


def rot2(theta) -> np.ndarray:
    """The rotation by ``theta``; an array of angles gives a stack ``(..., 2, 2)``."""
    c, s = np.cos(theta), np.sin(theta)
    return np.moveaxis(np.array([[c, -s], [s, c]], dtype=complex), (0, 1), (-2, -1))


def qwp(eta: float) -> np.ndarray:
    """Quarter-wave plate with fast axis at ``eta`` from horizontal."""
    return rot2(eta) @ Q0 @ rot2(-eta)


def hwp(tau: float) -> np.ndarray:
    """Half-wave plate with fast axis at ``tau`` from horizontal."""
    return rot2(tau) @ H0 @ rot2(-tau)


def dove(gamma: float) -> np.ndarray:
    """Dove prism rotated by ``gamma``; equal to hwp(gamma) on mode space."""
    c, s = np.cos(2.0 * gamma), np.sin(2.0 * gamma)
    return np.array([[c, s], [s, -c]], dtype=complex)


class WaveplateTriple(Record):
    """Fast-axis angles of a QWP-HWP-QWP set; light traverses eta2 first."""

    __slots__ = ("eta1", "tau", "eta2")


class EulerAngles(Record):
    """Angles (phi, xi, zeta) of the rotation sequence Ry(phi) Rz(-xi) Ry(zeta)."""

    __slots__ = ("phi", "xi", "zeta")


def triple_to_unitary(w: WaveplateTriple) -> np.ndarray:
    """Jones matrix QWP(eta1) HWP(tau) QWP(eta2) of a waveplate triple.

    The product always lands in SU(2) even though the individual plates
    do not.
    """
    return qwp(w.eta1) @ hwp(w.tau) @ qwp(w.eta2)


def su2_from_euler(e: EulerAngles) -> np.ndarray:
    """SU(2) matrix with u = cos(xi)cos(phi+zeta) + i sin(xi)cos(phi-zeta)
    and w = cos(xi)sin(phi+zeta) + i sin(xi)sin(phi-zeta); angle arrays give a stack (..., 2, 2)."""
    u = np.cos(e.xi) * np.cos(e.phi + e.zeta) + 1j * np.sin(e.xi) * np.cos(e.phi - e.zeta)
    w = np.cos(e.xi) * np.sin(e.phi + e.zeta) + 1j * np.sin(e.xi) * np.sin(e.phi - e.zeta)
    return np.stack([u, -np.conj(w), w, np.conj(u)], axis=-1).reshape(np.shape(u) + (2, 2))


def euler_from_su2(u) -> EulerAngles:
    """Euler angles reproducing a unitary up to global phase.

    The determinant phase is divided out first, in scalar arithmetic.  Branch choice: xi is taken
    in [0, pi/2] from the magnitudes of the (Re, Im) component pairs, the
    sums/differences phi +- zeta come from atan2 of those pairs, and the
    zeta = 0 gauge is used whenever w vanishes.
    """
    entries = as_cmat(u, 2).ravel().tolist()
    if _unitarity_residual_2x2(*entries) > 1e-8:
        raise ValueError("euler_from_su2 requires a unitary input")
    return EulerAngles(*_euler_floats(entries))


def _waveplate_angles(entries) -> tuple | None:
    """``waveplates_from_euler(euler_from_su2(u))`` as the floats (eta1, tau, eta2), or None where
    :func:`_is_identity_up_to_phase` holds, for a unitary given as its row-major Python complex entries, taken as
    unitary: the same arithmetic, without the records."""
    if _is_identity_up_to_phase(*entries):
        return None
    return _triple_angles(*_euler_floats(entries))


def _is_identity_up_to_phase(u00: complex, u01: complex, u10: complex, u11: complex) -> bool:
    """``phase_invariant_distance(u, I) <= 1e-12`` for u = [[u00, u01], [u10, u11]], taken as unitary: the formula
    of :func:`qchansim.matops.phase_invariant_distance` with the identity's entries written in."""
    phase = cmath.exp(-1j * cmath.phase(u00.conjugate() + u11.conjugate()))
    return math.sqrt(abs(u00 - phase) ** 2 + abs(u01) ** 2 + abs(u10) ** 2 + abs(u11 - phase) ** 2) <= 1e-12


def _euler_floats(entries) -> tuple:
    """:func:`euler_from_su2`'s (phi, xi, zeta) of a unitary given as its row-major Python complex entries."""
    u00, u01, u10, u11 = entries
    root = cmath.sqrt(u00 * u11 - u01 * u10)
    a, w = u00 / root, u10 / root
    if abs(w) <= 1e-14:
        return 0.0, cmath.phase(a), 0.0
    if abs(a) <= 1e-14:
        return math.pi / 2.0, cmath.phase(w), 0.0
    xi = math.atan2(math.hypot(a.imag, w.imag), math.hypot(a.real, w.real))
    ssum = math.atan2(w.real, a.real)
    sdiff = math.atan2(w.imag, a.imag)
    return (ssum + sdiff) / 2.0, xi, (ssum - sdiff) / 2.0


def waveplates_from_euler(e: EulerAngles) -> WaveplateTriple:
    """Waveplate angles eta1 = phi - pi/4, eta2 = -zeta - pi/4,
    tau = (phi + xi - zeta)/2 - pi/4 realizing su2_from_euler(e)."""
    return WaveplateTriple(*_triple_angles(e.phi, e.xi, e.zeta))


def _triple_angles(phi, xi, zeta) -> tuple:
    """:func:`waveplates_from_euler`'s (eta1, tau, eta2)."""
    return phi - math.pi / 4.0, (phi + xi - zeta) / 2.0 - math.pi / 4.0, -zeta - math.pi / 4.0


def ry_rotation(gamma) -> np.ndarray:
    """Ancilla rotation in the SU(2) half-angle convention,
    [[cos(g/2), -sin(g/2)], [sin(g/2), cos(g/2)]]."""
    return rot2(gamma / 2.0)


def dove_pair_for_ry(gamma: float) -> float:
    """Angle of the second prism of the Dove pair DP(d) DP(0) realizing ry_rotation(gamma).

    The pair rotates by the full angle 2d, so the half-angle circuit
    rotation by gamma needs d = gamma / 4.
    """
    return gamma / 4.0


class GateElement(Record):
    """One physical element of a compiled gate list; its target follows from the element, and it has a finite angle
    exactly when it is one of ``ANGLED_ELEMENTS``."""

    __slots__ = ("element", "angle")

    def __init__(self, element: str, angle: float | None):
        if not (isinstance(element, str) and element in GATE_TARGETS):
            raise ValueError(f"unknown element {element!r}")
        if element not in ANGLED_ELEMENTS:
            if angle is not None:
                raise ValueError(f"{element} takes no angle, got {angle!r}")
        elif isinstance(angle, bool) or not isinstance(angle, _REAL) or not math.isfinite(angle):
            raise ValueError(f"{element} needs a finite angle, got {angle!r}")
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "angle", angle)

    @property
    def target(self) -> str:
        return GATE_TARGETS[self.element]


def gate_list_to_json(gates) -> str:
    rows = [
        {"element": g.element, "angle": None if g.angle is None else float(g.angle), "target": g.target}
        for g in gates
    ]
    return json.dumps(rows, sort_keys=True)


def gate_list_from_json(text: str) -> list[GateElement]:
    """Inverse of :func:`gate_list_to_json`; raises ValueError on any other shape, on an angle its element does not
    take, and on a target that contradicts its element."""
    rows = json.loads(text)
    if not (isinstance(rows, list) and all(isinstance(r, dict) and {"element", "angle", "target"} <= r.keys()
                                           for r in rows)):
        raise ValueError('expected a JSON list of {"element": ..., "angle": ..., "target": ...} objects')
    gates = [GateElement(r["element"], r["angle"]) for r in rows]
    for gate, r in zip(gates, rows):
        if r["target"] != gate.target:
            raise ValueError(f"{gate.element} acts on {gate.target!r}, not {r['target']!r}")
    return gates
