"""Three-basis polarization tomography, fidelity and coherence measures.

The measurement stage is a quarter-wave plate at ``theta_q`` followed by a
half-wave plate at ``theta_h`` and a polarizing splitter.  The settings

    HV: theta_q = 0,    theta_h = 0
    DA: theta_q = pi/4, theta_h = pi/8
    LR: theta_q = pi/4, theta_h = 0

send |H>, |+> and |L> to output port A, so the normalized intensities give
the probabilities P_H, P_+ and P_L directly and the Bloch vector follows
from the Stokes differences r_x = P_+ - P_-, r_y = P_L - P_R,
r_z = P_H - P_V.  Port A of each setting is row 0 of HWP(theta_h) QWP(theta_q),
kept in the constant ``_PORT_A_ROWS``.  Qubit closed forms give the purity
Tr rho^2 = (1 + |r|^2) / 2 and the Uhlmann fidelity
F = Tr(rho sigma) + 2 sqrt(det rho det sigma) (Hubner 1992; Jozsa 1994).
"""

from __future__ import annotations

import json
from enum import Enum

import numpy as np

from .circuit import NoiseParams
from .matops import Record, assert_density_matrix, bloch_vector, complex_to_pairs, density_from_bloch
from .optics import hwp, qwp


class Basis(str, Enum):
    HV = "HV"
    DA = "DA"
    LR = "LR"


class MeasurementSetting(Record):
    """Waveplate angles selecting one measurement basis."""

    __slots__ = ("theta_q", "theta_h")

    def __init__(self, theta_q: float, theta_h: float):
        object.__setattr__(self, "theta_q", theta_q)
        object.__setattr__(self, "theta_h", theta_h)


SETTINGS = {
    Basis.HV: MeasurementSetting(0.0, 0.0),
    Basis.DA: MeasurementSetting(np.pi / 4.0, np.pi / 8.0),
    Basis.LR: MeasurementSetting(np.pi / 4.0, 0.0),
}

# Row b is port A's row of HWP(theta_h) QWP(theta_q) for SETTINGS entry b, so P_A(b) = (R rho R^dag)[b, b].
_PORT_A_ROWS = np.array([(hwp(s.theta_h) @ qwp(s.theta_q))[0] for s in SETTINGS.values()])


class TomographyRecord(Record):
    """Detected intensities (I_A, I_B) for each of the three bases; for a
    stack of n states each field is an ``(n, 2)`` array."""

    __slots__ = ("hv", "da", "lr")

    def __init__(self, hv: tuple, da: tuple, lr: tuple):
        object.__setattr__(self, "hv", hv)
        object.__setattr__(self, "da", da)
        object.__setattr__(self, "lr", lr)


class CoherencePair(Record):
    """l1-norm coherence and its unitary maximum (the Bloch length); arrays for a stack."""

    __slots__ = ("c_l1", "c_max")

    def __init__(self, c_l1: float, c_max: float):
        object.__setattr__(self, "c_l1", c_l1)
        object.__setattr__(self, "c_max", c_max)


class Reconstruction(Record):
    """A reconstructed state; for a stack every field gains a leading axis of length n."""

    __slots__ = ("rho", "bloch", "purity", "clamped")

    def __init__(self, rho: np.ndarray, bloch: np.ndarray, purity: float, clamped: bool):
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "bloch", bloch)
        object.__setattr__(self, "purity", purity)  # Tr rho^2 = (1 + |r|^2) / 2
        object.__setattr__(self, "clamped", clamped)

    def __getitem__(self, i) -> "Reconstruction":
        """Member ``i`` of a stacked reconstruction."""
        return Reconstruction(rho=self.rho[i], bloch=self.bloch[i], purity=float(self.purity[i]),
                              clamped=bool(self.clamped[i]))


def forward_intensities(rho, noise: NoiseParams | None = None) -> TomographyRecord:
    """Model the six detected intensities for a state, or a stack ``(n, 2, 2)``
    of states, at unit total power.

    With noise, each intensity picks up multiplicative Gaussian fluctuation
    of relative width ``intensity_sigma``, clamped at zero.  Member i of a
    stack draws from ``default_rng(rng_seed + i)``; one state is member 0.
    """
    rho = assert_density_matrix(rho, dim=2)
    stack = rho.reshape(-1, 2, 2)
    pa = np.diagonal(_PORT_A_ROWS @ stack @ _PORT_A_ROWS.conj().T, axis1=-2, axis2=-1).real
    intensities = np.stack([pa, 1.0 - pa], axis=-1)
    if noise is not None and noise.intensity_sigma > 0.0:
        # Draw order I_A, I_B per basis, bases in SETTINGS order.
        draws = np.array([np.random.default_rng(noise.rng_seed + i).standard_normal((3, 2)) for i in range(len(stack))])
        intensities = np.maximum(intensities * (1.0 + noise.intensity_sigma * draws), 0.0)
    if rho.ndim == 2:
        hv, da, lr = (tuple(row) for row in intensities[0].tolist())
    else:
        hv, da, lr = intensities.swapaxes(0, 1)
    return TomographyRecord(hv=hv, da=da, lr=lr)


class DarkBasisError(ValueError):
    """Both intensities of a basis are zero, so its probabilities are undefined."""


def _port_a_probabilities(rec: TomographyRecord) -> np.ndarray:
    """P_A = I_A / (I_A + I_B) of each basis in Basis order: ``(3,)``, or ``(n, 3)`` for a stacked record.

    Raises :class:`DarkBasisError` naming the first basis, in Basis order,
    that is dark for some member.
    """
    intensities = np.stack([rec.hv, rec.da, rec.lr], axis=-2)
    total = intensities[..., 0] + intensities[..., 1]
    dark = (total <= 0.0).reshape(-1, 3).any(axis=0)
    if dark.any():
        raise DarkBasisError(f"zero total intensity in basis {list(Basis)[dark.argmax()].value}")
    return intensities[..., 0] / total


def reconstruct(rec: TomographyRecord) -> Reconstruction:
    """Linear Stokes inversion of a tomography record, or of a stacked one.

    A Bloch vector outside the unit ball is rescaled onto the sphere.  The
    clamp is flagged only for a norm above 1 + 1e-12: round-off leaves a
    pure state a few ulp above 1, intensity noise moves it by far more.
    """
    pa = _port_a_probabilities(rec)
    # r_x, r_y, r_z are the differences P_A - P_B of the DA, LR and HV bases.
    r = (pa - (1.0 - pa))[..., [1, 2, 0]]
    stack = r.reshape(-1, 3)
    norm = np.linalg.norm(stack, axis=-1)
    stack = stack / np.maximum(norm, 1.0)[:, None]
    r_squared = (stack[:, None, :] @ stack[:, :, None])[:, 0, 0]
    out = Reconstruction(rho=density_from_bloch(stack), bloch=stack, purity=(1.0 + r_squared) / 2.0,
                         clamped=norm > 1.0 + 1e-12)
    return out[0] if r.ndim == 1 else out


def _det2(m) -> np.ndarray:
    return (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real


def fidelity(rho, sigma):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of two qubit states
    in closed form, Tr(rho sigma) + 2 sqrt(det rho det sigma), clamped to [0, 1].
    Two stacks ``(n, 2, 2)`` give the ``(n,)`` fidelities of their members.

    F is not Lipschitz where an argument is rank deficient: the square root
    of a round-off determinant of order 1e-16 is of order 1e-8, so a 1e-16
    change of a near-pure input can move F by about 1e-8.
    """
    rho = assert_density_matrix(rho, dim=2)
    sigma = assert_density_matrix(sigma, dim=2)
    a, b = rho.reshape(-1, 2, 2), sigma.reshape(-1, 2, 2)
    value = np.trace(a @ b, axis1=-2, axis2=-1).real + 2.0 * np.sqrt(np.maximum(_det2(a) * _det2(b), 0.0))
    value = np.minimum(np.maximum(value, 0.0), 1.0)
    return float(value[0]) if rho.ndim == sigma.ndim == 2 else value


def coherence(rho) -> CoherencePair:
    """c_l1 = 2 |rho_01| and c_max = ||r||, the coherence ceiling over
    local unitaries; a stack ``(n, 2, 2)`` gives arrays."""
    rho = assert_density_matrix(rho, dim=2)
    stack = rho.reshape(-1, 2, 2)
    c_l1 = 2.0 * np.abs(stack[:, 0, 1])
    c_max = np.linalg.norm(bloch_vector(stack), axis=-1)
    if rho.ndim == 2:
        return CoherencePair(c_l1=float(c_l1[0]), c_max=float(c_max[0]))
    return CoherencePair(c_l1=c_l1, c_max=c_max)


def reconstruction_to_json(rec: Reconstruction) -> str:
    payload = {
        "rho": complex_to_pairs(rec.rho),
        "bloch": [float(x) for x in rec.bloch],
        "purity": rec.purity,
        "clamped": rec.clamped,
    }
    return json.dumps(payload, sort_keys=True)
