"""Exact simulation of the two-qubit polarization (x) transverse-mode circuit.

The composite basis is |Hh>, |Hv>, |Vh>, |Vv> with the polarization qubit
first.  One branch of a decomposition runs through the stages

    system U'  ->  ancilla Ry(gamma1)  ->  CNOT (pol controls mode)
    ->  ancilla Ry(gamma2)  ->  TBS mode sort  ->  sigma_x feed-forward on
    the |v> port  ->  system U  ->  nonselective ancilla readout,

which reproduces ``M0 rho M0^dag + M1 rho M1^dag`` with ``M_i = U K_i U'``.
The ancilla measurement keeps both TBS ports and sums them, so outputs are
deterministic.  An optional imperfection model scales the interferometric
coherence between the two arms of each interferometer (the polarization
arms of the CNOT, the geometric arms of the TBS) by a visibility factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import DecompositionPlan, QuasiExtremeBranch
from .matops import (
    H0,
    ID2,
    PAULI_X,
    as_cmat,
    assert_density_matrix,
    dagger,
    hermiticity_residual,
    phase_invariant_distance,
)
from .optics import GateElement, dove_pair_for_ry, euler_from_su2, ry_rotation, waveplates_from_euler

BASIS_LABELS = ("Hh", "Hv", "Vh", "Vv")

_MODE_H = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_MODE_DIAG_MASK = np.kron(np.ones((2, 2)), np.eye(2)).astype(bool)
_POL_DIAG_MASK = np.kron(np.eye(2), np.ones((2, 2))).astype(bool)


@dataclass(frozen=True)
class SpinOrbitState:
    """Density operator on polarization (x) mode, validated on construction."""

    rho: np.ndarray

    def __post_init__(self):
        rho = as_cmat(self.rho, 4)
        if hermiticity_residual(rho) > 1e-9:
            raise ValueError("spin-orbit state must be Hermitian")
        if abs(np.trace(rho) - 1.0) > 1e-9:
            raise ValueError("spin-orbit state must have unit trace")
        if np.linalg.eigvalsh((rho + dagger(rho)) / 2.0).min() < -1e-9:
            raise ValueError("spin-orbit state must be positive semidefinite")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class NoiseParams:
    """Imperfection model: interferometer visibility, relative Gaussian
    intensity noise at the detector, and the RNG seed that makes runs
    reproducible."""

    visibility: float = 1.0
    intensity_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if self.intensity_sigma < 0.0:
            raise ValueError("intensity_sigma must be nonnegative")


@dataclass(frozen=True)
class BranchConfig:
    """Everything needed to run one branch through the circuit."""

    branch: QuasiExtremeBranch
    noise: NoiseParams | None = None
    tbs_delta: float = 0.0


def prepare_initial(phi: float) -> SpinOrbitState:
    """Pure state (cos(2 phi) |H> + sin(2 phi) |V>) (x) |h> from the
    preparation half-wave plate at angle ``phi``."""
    psi = np.array([np.cos(2.0 * phi), 0.0, np.sin(2.0 * phi), 0.0], dtype=complex)
    return SpinOrbitState(rho=np.outer(psi, psi.conj()))


def cnot_pol_controls_mode() -> np.ndarray:
    """CNOT with polarization as control: |V> flips |h> <-> |v>."""
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0] = g[1, 1] = 1.0
    g[2, 3] = g[3, 2] = 1.0
    return g


def tbs_transfer(delta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Port operators of the mode-sorting interferometer.

    The input splits 50/50; the transmitted arm passes a half-wave plate at
    zero then one mirror (net I (x) H0) and picks up the piezo phase
    ``exp(i delta)``, the reflected arm sees two mirrors (net identity).
    Recombining on the second splitter gives the even port K and odd port
    Lambda; at delta = 0 they project the mode onto |h> and |v> while
    leaving polarization untouched.
    """
    mirror = np.kron(H0, H0)
    hwp_zero = np.kron(H0, ID2)
    arm_transmitted = np.exp(1j * delta) * (mirror @ hwp_zero)
    arm_reflected = mirror @ mirror
    # Each 1/2 is the product of the two 50/50 splitter amplitudes.
    k_op = (arm_reflected + arm_transmitted) / 2.0
    l_op = (arm_reflected - arm_transmitted) / 2.0
    return k_op, l_op


def apply_noise(state: SpinOrbitState, visibility: float, arms: str = "pol") -> SpinOrbitState:
    """Scale interferometric coherence between the two arms by ``visibility``.

    ``arms="pol"`` dephases between the polarization arms (the CNOT
    interferometer), ``arms="mode"`` between the mode components.
    visibility = 1 is the identity.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    if arms not in ("pol", "mode"):
        raise ValueError("arms must be 'pol' or 'mode'")
    mask = _POL_DIAG_MASK if arms == "pol" else _MODE_DIAG_MASK
    return SpinOrbitState(rho=_scale_coherences(state.rho, mask, visibility))


def _scale_coherences(rho4: np.ndarray, mask: np.ndarray, factor: float) -> np.ndarray:
    """Copy of ``rho4`` with every entry outside ``mask`` scaled by ``factor``."""
    out = rho4.copy()
    out[~mask] *= factor
    return out


def _trace_out_mode(rho4: np.ndarray) -> np.ndarray:
    return np.trace(rho4.reshape(2, 2, 2, 2), axis1=1, axis2=3)


def _branch_stages(rho_in, cfg: BranchConfig):
    """Yield (stage label, 4x4 state) through the branch circuit.

    Both TBS ports are kept; after the feed-forward they are summed into a
    single nonselective state.
    """
    branch = cfg.branch
    visibility = 1.0 if cfg.noise is None else cfg.noise.visibility
    rho = np.kron(assert_density_matrix(rho_in), _MODE_H)
    yield "input", rho

    upre = np.kron(branch.Uprime, ID2)
    rho = upre @ rho @ dagger(upre)
    yield "system_pre_unitary", rho

    g1 = np.kron(ID2, ry_rotation(branch.gamma1))
    rho = g1 @ rho @ dagger(g1)
    yield "ancilla_rotation_1", rho

    cx = cnot_pol_controls_mode()
    rho = cx @ rho @ dagger(cx)
    if visibility < 1.0:
        rho = _scale_coherences(rho, _POL_DIAG_MASK, visibility)
    yield "cnot", rho

    g2 = np.kron(ID2, ry_rotation(branch.gamma2))
    rho = g2 @ rho @ dagger(g2)
    yield "ancilla_rotation_2", rho

    k_op, l_op = tbs_transfer(cfg.tbs_delta)
    rho_k = k_op @ rho @ dagger(k_op)
    rho_l = l_op @ rho @ dagger(l_op)
    if visibility < 1.0:
        # Failed interference spills the mode-dephased state evenly into
        # both ports; the coherent part keeps weight = visibility.
        spill = 0.5 * (1.0 - visibility) * _scale_coherences(rho, _MODE_DIAG_MASK, 0.0)
        rho_k = visibility * rho_k + spill
        rho_l = visibility * rho_l + spill
    if branch.conditional_x:
        feed_forward = np.kron(PAULI_X, ID2)
        rho_l = feed_forward @ rho_l @ dagger(feed_forward)
    rho = rho_k + rho_l
    yield "tbs_and_feedforward", rho

    upost = np.kron(branch.U, ID2)
    rho = upost @ rho @ dagger(upost)
    yield "system_post_unitary", rho


def run_branch(rho_in, cfg: BranchConfig) -> np.ndarray:
    """Run one branch; returns the 2x2 system state after ancilla readout."""
    final = None
    for _, final in _branch_stages(rho_in, cfg):
        pass
    return _trace_out_mode(final)


def simulate_channel(rho_in, plan: DecompositionPlan, noise: NoiseParams | None = None,
                     tbs_delta: float = 0.0) -> np.ndarray:
    """Convex mix of both branch runs: p * branch_a + (1 - p) * branch_b."""
    rho_in = assert_density_matrix(rho_in)
    out = np.zeros((2, 2), dtype=complex)
    for branch, weight in ((plan.branch_a, plan.p), (plan.branch_b, 1.0 - plan.p)):
        if branch is None or weight == 0.0:
            continue
        cfg = BranchConfig(branch, noise=noise, tbs_delta=tbs_delta)
        out += weight * run_branch(rho_in, cfg)
    return out


def gates_for_branch(branch: QuasiExtremeBranch) -> list[GateElement]:
    """Compile one branch into the ordered optical element list.

    Dove-prism pairs realize the ancilla rotations, waveplate triples the
    dressing unitaries (skipped when they equal the identity up to phase);
    elements appear in beam order.
    """
    gates: list[GateElement] = []

    def add_dove_pair(gamma):
        pair = dove_pair_for_ry(gamma)
        gates.append(GateElement("DP", 0.0, "mode"))
        gates.append(GateElement("DP", pair.delta, "mode"))

    def add_triple(u):
        if phase_invariant_distance(u, ID2) <= 1e-12:
            return
        triple = waveplates_from_euler(euler_from_su2(u))
        gates.append(GateElement("QWP", triple.eta2, "pol"))
        gates.append(GateElement("HWP", triple.tau, "pol"))
        gates.append(GateElement("QWP", triple.eta1, "pol"))

    add_dove_pair(branch.gamma1)
    add_triple(branch.Uprime)
    gates.append(GateElement("CNOT", None, "both"))
    add_dove_pair(branch.gamma2)
    gates.append(GateElement("TBS", None, "mode"))
    if branch.conditional_x:
        gates.append(GateElement("CONDX", None, "both"))
    add_triple(branch.U)
    return gates
