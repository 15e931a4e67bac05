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

import json
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, to_affine
from .matops import (
    H0,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Q0,
    as_cmat,
    is_unitary,
    unitarity_residual,
)

GATE_ELEMENTS = ("QWP", "HWP", "DP", "CNOT", "TBS", "CONDX")
GATE_TARGETS = ("pol", "mode", "both")


def rot2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


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


@dataclass(frozen=True)
class WaveplateTriple:
    """Fast-axis angles of a QWP-HWP-QWP set; light traverses eta2 first."""

    eta1: float
    tau: float
    eta2: float

    def to_matrix(self) -> np.ndarray:
        return triple_to_unitary(self)


@dataclass(frozen=True)
class EulerAngles:
    """Angles (phi, xi, zeta) of the rotation sequence Ry(phi) Rz(-xi) Ry(zeta)."""

    phi: float
    xi: float
    zeta: float


@dataclass(frozen=True)
class AxisAngle:
    """Rotation exp(-i psi n.sigma); theta/phi orient the axis n."""

    psi: float
    theta: float
    phi: float


@dataclass(frozen=True)
class DovePair:
    """Two Dove prisms, the first fixed at 0 and the second at ``delta``."""

    delta: float

    def to_matrix(self) -> np.ndarray:
        return dove(self.delta) @ dove(0.0)


def triple_to_unitary(w: WaveplateTriple) -> np.ndarray:
    """Jones matrix QWP(eta1) HWP(tau) QWP(eta2) of a waveplate triple.

    The product always lands in SU(2) even though the individual plates
    do not.
    """
    return qwp(w.eta1) @ hwp(w.tau) @ qwp(w.eta2)


def _su2_from_uw(u: complex, w: complex) -> np.ndarray:
    return np.array([[u, -np.conj(w)], [w, np.conj(u)]], dtype=complex)


def su2_from_euler(e: EulerAngles) -> np.ndarray:
    """SU(2) matrix with u = cos(xi)cos(phi+zeta) + i sin(xi)cos(phi-zeta)
    and w = cos(xi)sin(phi+zeta) + i sin(xi)sin(phi-zeta)."""
    u = np.cos(e.xi) * np.cos(e.phi + e.zeta) + 1j * np.sin(e.xi) * np.cos(e.phi - e.zeta)
    w = np.cos(e.xi) * np.sin(e.phi + e.zeta) + 1j * np.sin(e.xi) * np.sin(e.phi - e.zeta)
    return _su2_from_uw(u, w)


def su2_from_axis_angle(a: AxisAngle) -> np.ndarray:
    """cos(psi) I - i sin(psi) n.sigma for the unit axis set by (theta, phi)."""
    n = np.array([np.sin(a.theta) * np.cos(a.phi), np.sin(a.theta) * np.sin(a.phi), np.cos(a.theta)])
    nsigma = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return np.cos(a.psi) * ID2 - 1j * np.sin(a.psi) * nsigma


def euler_from_su2(u) -> EulerAngles:
    """Euler angles reproducing a unitary up to global phase.

    The determinant phase is divided out first.  Branch choice: xi is taken
    in [0, pi/2] from the magnitudes of the (Re, Im) component pairs, the
    sums/differences phi +- zeta come from atan2 of those pairs, and the
    zeta = 0 gauge is used whenever w vanishes.
    """
    u = as_cmat(u, 2)
    if unitarity_residual(u) > 1e-8:
        raise ValueError("euler_from_su2 requires a unitary input")
    det = np.linalg.det(u)
    su = u / np.sqrt(det)
    a, w = su[0, 0], su[1, 0]
    if abs(w) <= 1e-14:
        return EulerAngles(phi=0.0, xi=float(np.angle(a)), zeta=0.0)
    if abs(a) <= 1e-14:
        return EulerAngles(phi=np.pi / 2.0, xi=float(np.angle(w)), zeta=0.0)
    xi = np.arctan2(np.hypot(a.imag, w.imag), np.hypot(a.real, w.real))
    ssum = np.arctan2(w.real, a.real)
    sdiff = np.arctan2(w.imag, a.imag)
    return EulerAngles(phi=float((ssum + sdiff) / 2.0), xi=float(xi), zeta=float((ssum - sdiff) / 2.0))


def waveplates_from_euler(e: EulerAngles) -> WaveplateTriple:
    """Waveplate angles eta1 = phi - pi/4, eta2 = -zeta - pi/4,
    tau = (phi + xi - zeta)/2 - pi/4 realizing su2_from_euler(e)."""
    return WaveplateTriple(
        eta1=e.phi - np.pi / 4.0,
        tau=(e.phi + e.xi - e.zeta) / 2.0 - np.pi / 4.0,
        eta2=-e.zeta - np.pi / 4.0,
    )


def ry_rotation(gamma: float) -> np.ndarray:
    """Ancilla rotation in the SU(2) half-angle convention,
    [[cos(g/2), -sin(g/2)], [sin(g/2), cos(g/2)]]."""
    return rot2(gamma / 2.0)


def dove_pair_for_ry(gamma: float) -> DovePair:
    """Dove-prism pair realizing ry_rotation(gamma).

    A pair DP(d) DP(0) rotates by the full angle 2d, so the half-angle
    circuit rotation by gamma needs the second prism at gamma / 4.
    """
    return DovePair(delta=gamma / 4.0)


def bloch_rotation(u) -> np.ndarray:
    """SO(3) rotation of Bloch vectors under rho -> u rho u^dag."""
    u = as_cmat(u, 2)
    if not is_unitary(u):
        raise ValueError("bloch_rotation requires a unitary input")
    return to_affine(KrausChannel((u,))).T


def su2_from_rotation(r) -> np.ndarray:
    """SU(2) element (unique up to sign) whose Bloch action is the rotation ``r``.

    Quaternion extraction picks the numerically largest component first, so
    rotations by angles near pi stay well conditioned.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or np.linalg.norm(r @ r.T - np.eye(3)) > 1e-8 or np.linalg.det(r) < 0:
        raise ValueError("su2_from_rotation requires a proper 3x3 rotation")
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    if tr > max(r[0, 0], r[1, 1], r[2, 2]):
        s = 2.0 * np.sqrt(max(tr + 1.0, 0.0))
        q = (0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s)
    elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        s = 2.0 * np.sqrt(max(1.0 + r[0, 0] - r[1, 1] - r[2, 2], 0.0))
        q = ((r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s)
    elif r[1, 1] >= r[2, 2]:
        s = 2.0 * np.sqrt(max(1.0 + r[1, 1] - r[0, 0] - r[2, 2], 0.0))
        q = ((r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s)
    else:
        s = 2.0 * np.sqrt(max(1.0 + r[2, 2] - r[0, 0] - r[1, 1], 0.0))
        q = ((r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s)
    w, x, y, z = q
    return w * ID2 - 1j * (x * PAULI_X + y * PAULI_Y + z * PAULI_Z)


@dataclass(frozen=True)
class GateElement:
    """One physical element of a compiled gate list."""

    element: str
    angle: float | None
    target: str

    def __post_init__(self):
        if self.element not in GATE_ELEMENTS:
            raise ValueError(f"unknown element {self.element!r}")
        if self.target not in GATE_TARGETS:
            raise ValueError(f"unknown target {self.target!r}")


def gate_list_to_json(gates) -> str:
    rows = [
        {"element": g.element, "angle": None if g.angle is None else float(g.angle), "target": g.target}
        for g in gates
    ]
    return json.dumps(rows, sort_keys=True)


def gate_list_from_json(text: str) -> list[GateElement]:
    return [GateElement(r["element"], r["angle"], r["target"]) for r in json.loads(text)]
