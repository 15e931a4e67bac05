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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import NoiseParams
from .matops import as_cmat, assert_density_matrix, bloch_vector, complex_to_pairs, density_from_bloch
from .optics import hwp, qwp


class Basis(str, Enum):
    HV = "HV"
    DA = "DA"
    LR = "LR"


@dataclass(frozen=True)
class MeasurementSetting:
    """Waveplate angles selecting one measurement basis."""

    theta_q: float
    theta_h: float


SETTINGS = {
    Basis.HV: MeasurementSetting(0.0, 0.0),
    Basis.DA: MeasurementSetting(np.pi / 4.0, np.pi / 8.0),
    Basis.LR: MeasurementSetting(np.pi / 4.0, 0.0),
}

# Row b is port A's row of HWP(theta_h) QWP(theta_q) for SETTINGS entry b, so P_A(b) = (R rho R^dag)[b, b].
_PORT_A_ROWS = np.array([(hwp(s.theta_h) @ qwp(s.theta_q))[0] for s in SETTINGS.values()])


@dataclass(frozen=True)
class TomographyRecord:
    """Detected intensities (I_A, I_B) for each of the three bases."""

    hv: tuple
    da: tuple
    lr: tuple


@dataclass(frozen=True)
class CoherencePair:
    """l1-norm coherence and its unitary maximum (the Bloch length)."""

    c_l1: float
    c_max: float


@dataclass(frozen=True)
class Reconstruction:
    rho: np.ndarray
    bloch: np.ndarray
    purity: float  # Tr rho^2 = (1 + |r|^2) / 2
    clamped: bool


def forward_intensities(rho, noise: NoiseParams | None = None) -> TomographyRecord:
    """Model the six detected intensities for a state at unit total power.

    With noise, each intensity picks up multiplicative Gaussian fluctuation
    of relative width ``intensity_sigma``, seeded by ``rng_seed``, clamped at zero.
    """
    rho = assert_density_matrix(rho)
    pa = np.diagonal(_PORT_A_ROWS @ rho @ _PORT_A_ROWS.conj().T).real
    intensities = np.stack([pa, 1.0 - pa], axis=1)
    if noise is not None and noise.intensity_sigma > 0.0:
        # Draw order I_A, I_B per basis, bases in SETTINGS order.
        rng = np.random.default_rng(noise.rng_seed)
        intensities = np.maximum(intensities * (1.0 + noise.intensity_sigma * rng.standard_normal((3, 2))), 0.0)
    hv, da, lr = (tuple(row) for row in intensities.tolist())
    return TomographyRecord(hv=hv, da=da, lr=lr)


def probabilities(rec: TomographyRecord) -> dict:
    """Per-basis (P_A, P_B) with P_A = I_A / (I_A + I_B); P_A + P_B = 1 exactly."""
    out = {}
    for basis, (ia, ib) in zip(Basis, (rec.hv, rec.da, rec.lr)):
        total = ia + ib
        if total <= 0.0:
            raise ValueError(f"zero total intensity in basis {basis.value}")
        pa = ia / total
        out[basis] = (pa, 1.0 - pa)
    return out


def reconstruct(rec: TomographyRecord) -> Reconstruction:
    """Linear Stokes inversion of a tomography record.

    A Bloch vector outside the unit ball is rescaled onto the sphere.  The
    clamp is flagged only for a norm above 1 + 1e-12: round-off leaves a
    pure state a few ulp above 1, intensity noise moves it by far more.
    """
    probs = probabilities(rec)
    r = np.array([probs[b][0] - probs[b][1] for b in (Basis.DA, Basis.LR, Basis.HV)])
    norm = float(np.linalg.norm(r))
    if norm > 1.0:
        r = r / norm
    return Reconstruction(rho=density_from_bloch(r), bloch=r, purity=float((1.0 + r @ r) / 2.0),
                          clamped=norm > 1.0 + 1e-12)


def _det2(m) -> float:
    return (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of two qubit states
    in closed form, Tr(rho sigma) + 2 sqrt(det rho det sigma), clamped to [0, 1].

    F is not Lipschitz where an argument is rank deficient: the square root
    of a round-off determinant of order 1e-16 is of order 1e-8, so a 1e-16
    change of a near-pure input can move F by about 1e-8.
    """
    rho = assert_density_matrix(as_cmat(rho, 2))
    sigma = assert_density_matrix(as_cmat(sigma, 2))
    value = float(np.trace(rho @ sigma).real + 2.0 * np.sqrt(max(_det2(rho) * _det2(sigma), 0.0)))
    return min(max(value, 0.0), 1.0)


def coherence(rho) -> CoherencePair:
    """c_l1 = 2 |rho_01| and c_max = ||r||, the coherence ceiling over
    local unitaries."""
    rho = assert_density_matrix(rho)
    r = bloch_vector(rho)
    return CoherencePair(c_l1=float(2.0 * abs(rho[0, 1])), c_max=float(np.linalg.norm(r)))


def reconstruction_to_json(rec: Reconstruction) -> str:
    payload = {
        "rho": complex_to_pairs(rec.rho),
        "bloch": [float(x) for x in rec.bloch],
        "purity": rec.purity,
        "clamped": rec.clamped,
    }
    return json.dumps(payload, sort_keys=True)
