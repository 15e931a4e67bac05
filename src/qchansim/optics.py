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
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, to_affine
from .matops import (
    H0,
    ID2,
    PAULIS,
    Q0,
    _phase_distance,
    _unitarity_residual_2x2,
    as_cmat,
    det3,
    unitarity_residual,
)

# The qubit each optical element acts on: polarization, transverse mode or both.
GATE_TARGETS = {"QWP": "pol", "HWP": "pol", "DP": "mode", "TBS": "mode", "CNOT": "both", "CONDX": "both"}


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


@dataclass(frozen=True)
class WaveplateTriple:
    """Fast-axis angles of a QWP-HWP-QWP set; light traverses eta2 first."""

    eta1: float
    tau: float
    eta2: float


@dataclass(frozen=True)
class EulerAngles:
    """Angles (phi, xi, zeta) of the rotation sequence Ry(phi) Rz(-xi) Ry(zeta)."""

    phi: float
    xi: float
    zeta: float


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
    return _euler_from_entries(_unitary_entries(u, "euler_from_su2"))


def dressing_euler(u) -> EulerAngles | None:
    """:func:`euler_from_su2` of a dressing unitary, or None where :func:`qchansim.matops.phase_invariant_distance`
    puts it within 1e-12 of the identity; one scalar pass over the entries, with their unitarity check."""
    return _dressing_euler(_unitary_entries(u, "dressing_euler"))


def _dressing_euler(entries) -> EulerAngles | None:
    """:func:`dressing_euler` of a unitary given as its row-major Python complex entries, taken as unitary."""
    return None if _phase_distance(entries, _ID2_ENTRIES) <= 1e-12 else _euler_from_entries(entries)


_ID2_ENTRIES = ID2.ravel().tolist()


def _unitary_entries(u, caller: str) -> list:
    """Row-major Python complex entries of a 2x2 unitary; ValueError naming ``caller`` unless unitary within 1e-8."""
    entries = as_cmat(u, 2).ravel().tolist()
    if _unitarity_residual_2x2(*entries) > 1e-8:
        raise ValueError(f"{caller} requires a unitary input")
    return entries


def _euler_from_entries(entries) -> EulerAngles:
    u00, u01, u10, u11 = entries
    root = cmath.sqrt(u00 * u11 - u01 * u10)
    a, w = u00 / root, u10 / root
    if abs(w) <= 1e-14:
        return EulerAngles(phi=0.0, xi=cmath.phase(a), zeta=0.0)
    if abs(a) <= 1e-14:
        return EulerAngles(phi=np.pi / 2.0, xi=cmath.phase(w), zeta=0.0)
    xi = math.atan2(math.hypot(a.imag, w.imag), math.hypot(a.real, w.real))
    ssum = math.atan2(w.real, a.real)
    sdiff = math.atan2(w.imag, a.imag)
    return EulerAngles(phi=(ssum + sdiff) / 2.0, xi=xi, zeta=(ssum - sdiff) / 2.0)


def waveplates_from_euler(e: EulerAngles) -> WaveplateTriple:
    """Waveplate angles eta1 = phi - pi/4, eta2 = -zeta - pi/4,
    tau = (phi + xi - zeta)/2 - pi/4 realizing su2_from_euler(e)."""
    return WaveplateTriple(
        eta1=e.phi - np.pi / 4.0,
        tau=(e.phi + e.xi - e.zeta) / 2.0 - np.pi / 4.0,
        eta2=-e.zeta - np.pi / 4.0,
    )


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


def bloch_rotation(u) -> np.ndarray:
    """SO(3) rotation of Bloch vectors under rho -> u rho u^dag."""
    u = as_cmat(u, 2)
    if unitarity_residual(u) > 1e-8:
        raise ValueError("bloch_rotation requires a unitary input")
    return to_affine(KrausChannel((u,))).T


def su2_from_rotation(r) -> np.ndarray:
    """SU(2) element (unique up to sign) whose Bloch action is the rotation ``r``.

    Quaternion extraction picks the numerically largest component first, so
    rotations by angles near pi stay well conditioned.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError("su2_from_rotation requires a proper 3x3 rotation")
    return np.array(_su2_entries(r.tolist())).reshape(2, 2)


def _su2_entries(rows) -> list:
    """:func:`su2_from_rotation` of a 3x3 matrix given as nested lists of its rows: its row-major Python complex
    entries, with the same checks."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    # ||r r^T - I||_F <= 1e-8 (false where r is not finite) and det r > 0, in scalars.
    g00, g11, g22 = (r00 * r00 + r01 * r01 + r02 * r02, r10 * r10 + r11 * r11 + r12 * r12,
                     r20 * r20 + r21 * r21 + r22 * r22)
    g01, g02, g12 = (r00 * r10 + r01 * r11 + r02 * r12, r00 * r20 + r01 * r21 + r02 * r22,
                     r10 * r20 + r11 * r21 + r12 * r22)
    if not ((g00 - 1.0) ** 2 + (g11 - 1.0) ** 2 + (g22 - 1.0) ** 2 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12) <= 1e-16
            and det3(rows) >= 0):
        raise ValueError("su2_from_rotation requires a proper 3x3 rotation")
    tr = r00 + r11 + r22
    if tr > max(r00, r11, r22):
        s = 2.0 * math.sqrt(max(tr + 1.0, 0.0))
        q = (0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s)
    elif r00 >= r11 and r00 >= r22:
        s = 2.0 * math.sqrt(max(1.0 + r00 - r11 - r22, 0.0))
        q = ((r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s)
    elif r11 >= r22:
        s = 2.0 * math.sqrt(max(1.0 + r11 - r00 - r22, 0.0))
        q = ((r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s)
    else:
        s = 2.0 * math.sqrt(max(1.0 + r22 - r00 - r11, 0.0))
        q = ((r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s)
    w, x, y, z = q
    # w I - i (x X + y Y + z Z) entry by entry, in numpy's order of operations, so that every signed zero is kept.
    return [w * e - 1j * (x * ex + y * ey + z * ez) for e, ex, ey, ez in _QUATERNION_BASIS]


_QUATERNION_BASIS = list(zip(*(m.ravel().tolist() for m in (ID2, *PAULIS))))


@dataclass(frozen=True)
class GateElement:
    """One physical element of a compiled gate list; its target follows from the element."""

    element: str
    angle: float | None

    def __post_init__(self):
        if self.element not in GATE_TARGETS:
            raise ValueError(f"unknown element {self.element!r}")

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
    """Inverse of :func:`gate_list_to_json`; rejects a target that contradicts its element."""
    rows = json.loads(text)
    gates = [GateElement(r["element"], r["angle"]) for r in rows]
    for gate, r in zip(gates, rows):
        if r["target"] != gate.target:
            raise ValueError(f"{gate.element} acts on {gate.target!r}, not {r['target']!r}")
    return gates
