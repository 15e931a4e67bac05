"""Three-basis polarization tomography, fidelity and coherence measures.

The measurement stage is a quarter-wave plate at ``theta_q`` followed by a
half-wave plate at ``theta_h`` and a polarizing splitter.  The settings

    HV: theta_q = 0,    theta_h = 0
    DA: theta_q = pi/4, theta_h = pi/8
    LR: theta_q = pi/4, theta_h = 0

send |H>, |+> and |L> to output port A, so the normalized intensities give
the probabilities P_H, P_+ and P_L directly and the Bloch vector follows
from the Stokes differences r_x = P_+ - P_-, r_y = P_L - P_R,
r_z = P_H - P_V.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import NoiseParams
from .matops import assert_density_matrix, bloch_vector, complex_to_pairs, dagger, density_from_bloch, eig_hermitian
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


@dataclass(frozen=True)
class TomographyRecord:
    """Detected intensities (I_A, I_B) for each of the three bases."""

    hv: tuple
    da: tuple
    lr: tuple

    def pair(self, basis: Basis) -> tuple:
        return {Basis.HV: self.hv, Basis.DA: self.da, Basis.LR: self.lr}[Basis(basis)]


@dataclass(frozen=True)
class CoherencePair:
    """l1-norm coherence and its unitary maximum (the Bloch length)."""

    c_l1: float
    c_max: float


@dataclass(frozen=True)
class Reconstruction:
    rho: np.ndarray
    bloch: np.ndarray
    purity: float
    clamped: bool


def port_a_probability(rho, setting: MeasurementSetting) -> float:
    """Born probability of the A port behind QWP(theta_q), HWP(theta_h), PBS."""
    w = hwp(setting.theta_h) @ qwp(setting.theta_q)
    return float((w @ rho @ dagger(w))[0, 0].real)


def forward_intensities(rho, noise: NoiseParams | None = None) -> TomographyRecord:
    """Model the six detected intensities for a state at unit total power.

    With noise, each intensity picks up multiplicative Gaussian fluctuation
    of relative width ``intensity_sigma``, seeded by ``rng_seed``, clamped at zero.
    """
    rho = assert_density_matrix(rho)
    noisy = noise is not None and noise.intensity_sigma > 0.0
    rng = np.random.default_rng(noise.rng_seed) if noisy else None
    pairs = {}
    for basis in Basis:
        pa = port_a_probability(rho, SETTINGS[basis])
        ia, ib = pa, 1.0 - pa
        if noisy:
            ia = max(ia * (1.0 + noise.intensity_sigma * rng.standard_normal()), 0.0)
            ib = max(ib * (1.0 + noise.intensity_sigma * rng.standard_normal()), 0.0)
        pairs[basis] = (float(ia), float(ib))
    return TomographyRecord(hv=pairs[Basis.HV], da=pairs[Basis.DA], lr=pairs[Basis.LR])


def probabilities(rec: TomographyRecord) -> dict:
    """Per-basis (P_A, P_B) with P_A = I_A / (I_A + I_B); P_A + P_B = 1 exactly."""
    out = {}
    for basis in Basis:
        ia, ib = rec.pair(basis)
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
    r = np.array(
        [
            probs[Basis.DA][0] - probs[Basis.DA][1],
            probs[Basis.LR][0] - probs[Basis.LR][1],
            probs[Basis.HV][0] - probs[Basis.HV][1],
        ]
    )
    norm = float(np.linalg.norm(r))
    if norm > 1.0:
        r = r / norm
    return Reconstruction(
        rho=density_from_bloch(r),
        bloch=r,
        purity=float(np.linalg.norm(r)),
        clamped=norm > 1.0 + 1e-12,
    )


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1].

    F is not Lipschitz where an argument is rank deficient: the square root
    of a round-off eigenvalue of order 1e-16 is of order 1e-8, so a 1e-16
    change of a near-pure input can move F by about 1e-8.
    """
    rho = assert_density_matrix(rho)
    sigma = assert_density_matrix(sigma)
    w, v = eig_hermitian(rho)
    sqrt_rho = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    inner = sqrt_rho @ sigma @ sqrt_rho
    w_inner, _ = eig_hermitian(inner)
    value = float(np.sum(np.sqrt(np.clip(w_inner, 0.0, None))) ** 2)
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
