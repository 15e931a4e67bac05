"""Exact simulation of the two-qubit polarization (x) transverse-mode circuit.

The composite basis is |Hh>, |Hv>, |Vh>, |Vv> with the polarization qubit
first.  One branch of a decomposition runs through the stages

    system U'  ->  ancilla Ry(gamma1)  ->  CNOT (pol controls mode)
    ->  ancilla Ry(gamma2)  ->  TBS mode sort  ->  sigma_x feed-forward on
    the |v> port  ->  system U  ->  nonselective ancilla readout,

which reproduces ``M0 rho M0^dag + M1 rho M1^dag`` with ``M_i = U K_i U'``.
The ancilla measurement keeps both TBS ports and sums them, so outputs are
deterministic.  The mode sorter runs at its working point, piezo phase
delta = 0 (:func:`tbs_transfer` models any delta).  An optional
imperfection model scales the interferometric coherence between the two
arms of each interferometer (the polarization arms of the CNOT, the
geometric arms of the TBS) by a visibility factor.

Every stage, noise included, is linear in the system state, so
:func:`compile_plan` runs the stages once on the basis operators ``|i><j|``
and returns the plan's 4x4 transfer matrix ``S`` (row-major vec, as in
:func:`qchansim.channels.transfer`); :func:`simulate_channel` applies it.
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
    phase_invariant_distance,
)
from .optics import GateElement, dove_pair_for_ry, euler_from_su2, ry_rotation, waveplates_from_euler

BASIS_LABELS = ("Hh", "Hv", "Vh", "Vv")

_MODE_H = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_MODE_DIAG_MASK = np.kron(np.ones((2, 2)), np.eye(2)).astype(bool)
_POL_DIAG_MASK = np.kron(np.eye(2), np.ones((2, 2))).astype(bool)

# The CNOT (polarization controls the mode: |V> flips |h> <-> |v>) and the
# feed-forward sigma_x are Hermitian, so each is its own dagger.
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_FEED_FORWARD = np.kron(PAULI_X, ID2)
_MIRROR = np.kron(H0, H0)
_TBS_TRANSMITTED = _MIRROR @ np.kron(H0, ID2)
_TBS_REFLECTED = _MIRROR @ _MIRROR
# The system basis operators |i><j|, stacked at index 2 i + j.
_BASIS_OPS = np.eye(4, dtype=complex).reshape(4, 2, 2)


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
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


def prepare_initial(phi: float) -> np.ndarray:
    """System state cos(2 phi) |H> + sin(2 phi) |V> from the preparation
    half-wave plate at angle ``phi``; the circuit's input stage adds the mode |h>."""
    psi = np.array([np.cos(2.0 * phi), np.sin(2.0 * phi)], dtype=complex)
    return np.outer(psi, psi.conj())


def tbs_transfer(delta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Port operators of the mode-sorting interferometer.

    The input splits 50/50; the transmitted arm passes a half-wave plate at
    zero then one mirror (net I (x) H0) and picks up the piezo phase
    ``exp(i delta)``, the reflected arm sees two mirrors (net identity).
    Recombining on the second splitter gives the even port K and odd port
    Lambda; at delta = 0 they project the mode onto |h> and |v> while
    leaving polarization untouched.
    """
    arm_transmitted = np.exp(1j * delta) * _TBS_TRANSMITTED
    # Each 1/2 is the product of the two 50/50 splitter amplitudes.
    k_op = (_TBS_REFLECTED + arm_transmitted) / 2.0
    l_op = (_TBS_REFLECTED - arm_transmitted) / 2.0
    return k_op, l_op


# The sorter ports at delta = 0, the projectors onto |h> and |v>; each is its own dagger.
_TBS_K, _TBS_L = tbs_transfer(0.0)


def apply_noise(rho4, visibility: float, arms: str = "pol") -> np.ndarray:
    """Scale interferometric coherence of the 4x4 state ``rho4`` between the two arms by ``visibility``.

    ``arms="pol"`` dephases between the polarization arms (the CNOT
    interferometer), ``arms="mode"`` between the mode components.
    visibility = 1 is the identity.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    if arms not in ("pol", "mode"):
        raise ValueError("arms must be 'pol' or 'mode'")
    mask = _POL_DIAG_MASK if arms == "pol" else _MODE_DIAG_MASK
    return _scale_coherences(assert_density_matrix(as_cmat(rho4, 4), tol=1e-9), mask, visibility)


def _scale_coherences(rho4: np.ndarray, mask: np.ndarray, factor: float) -> np.ndarray:
    """``rho4`` (a stack of 4x4 operators) with every entry outside ``mask`` scaled by ``factor``."""
    return np.where(mask, rho4, factor * rho4)


def _branch_stages(rho_in, branch: QuasiExtremeBranch, visibility: float = 1.0):
    """Yield (stage label, 4x4 operator) through the branch circuit.

    ``rho_in`` is a 2x2 system operator or a stack ``(..., 2, 2)`` of them;
    every stage acts on the whole stack.  Both TBS ports are kept; after the
    feed-forward they are summed into a single nonselective state.
    """
    rho_in = np.asarray(rho_in, dtype=complex)
    rho = np.einsum("...pq,mn->...pmqn", rho_in, _MODE_H).reshape(rho_in.shape[:-2] + (4, 4))
    yield "input", rho

    upre = np.kron(branch.Uprime, ID2)
    rho = upre @ rho @ dagger(upre)
    yield "system_pre_unitary", rho

    g1 = np.kron(ID2, ry_rotation(branch.gamma1))
    rho = g1 @ rho @ dagger(g1)
    yield "ancilla_rotation_1", rho

    rho = _CNOT @ rho @ _CNOT
    if visibility < 1.0:
        rho = _scale_coherences(rho, _POL_DIAG_MASK, visibility)
    yield "cnot", rho

    g2 = np.kron(ID2, ry_rotation(branch.gamma2))
    rho = g2 @ rho @ dagger(g2)
    yield "ancilla_rotation_2", rho

    rho_k = _TBS_K @ rho @ _TBS_K
    rho_l = _TBS_L @ rho @ _TBS_L
    if visibility < 1.0:
        # Failed interference spills the mode-dephased state evenly into
        # both ports; the coherent part keeps weight = visibility.
        spill = 0.5 * (1.0 - visibility) * _scale_coherences(rho, _MODE_DIAG_MASK, 0.0)
        rho_k = visibility * rho_k + spill
        rho_l = visibility * rho_l + spill
    if branch.conditional_x:
        rho_l = _FEED_FORWARD @ rho_l @ _FEED_FORWARD
    rho = rho_k + rho_l
    yield "tbs_and_feedforward", rho

    upost = np.kron(branch.U, ID2)
    rho = upost @ rho @ dagger(upost)
    yield "system_post_unitary", rho


def _readout(rho_in, branch: QuasiExtremeBranch, noise: NoiseParams | None) -> np.ndarray:
    """Run every stage of one branch and trace out the mode."""
    visibility = 1.0 if noise is None else noise.visibility
    for _, final in _branch_stages(rho_in, branch, visibility):
        pass
    return np.trace(final.reshape(final.shape[:-2] + (2, 2, 2, 2)), axis1=-3, axis2=-1)


def run_branch(rho_in, branch: QuasiExtremeBranch, noise: NoiseParams | None = None) -> np.ndarray:
    """Run one branch; returns the 2x2 system state after ancilla readout."""
    return _readout(assert_density_matrix(rho_in), branch, noise)


def compile_plan(plan: DecompositionPlan, noise: NoiseParams | None = None) -> np.ndarray:
    """The 4x4 transfer matrix of the circuit: vec(rho_out) = S vec(rho_in).

    Column ``2 i + j`` of ``S`` is the row-major vec of the circuit's image
    of ``|i><j|``, mixed over the branches as p * branch_a + (1 - p) * branch_b.
    """
    s = np.zeros((4, 4), dtype=complex)
    for branch, weight in ((plan.branch_a, plan.p), (plan.branch_b, 1.0 - plan.p)):
        if branch is None or weight == 0.0:
            continue
        s += weight * _readout(_BASIS_OPS, branch, noise).reshape(4, 4).T
    return s


def simulate_channel(rho_in, plan: DecompositionPlan, noise: NoiseParams | None = None) -> np.ndarray:
    """Apply the plan's compiled circuit: p * branch_a + (1 - p) * branch_b."""
    rho_in = assert_density_matrix(rho_in)
    return (compile_plan(plan, noise) @ rho_in.reshape(4)).reshape(2, 2)


def gates_for_branch(branch: QuasiExtremeBranch) -> list[GateElement]:
    """Compile one branch into the ordered optical element list.

    Dove-prism pairs realize the ancilla rotations, waveplate triples the
    dressing unitaries (skipped when they equal the identity up to phase);
    elements appear in beam order.
    """
    gates: list[GateElement] = []

    def add_dove_pair(gamma):
        gates.append(GateElement("DP", 0.0))
        gates.append(GateElement("DP", dove_pair_for_ry(gamma)))

    def add_triple(u):
        if phase_invariant_distance(u, ID2) <= 1e-12:
            return
        triple = waveplates_from_euler(euler_from_su2(u))
        gates.append(GateElement("QWP", triple.eta2))
        gates.append(GateElement("HWP", triple.tau))
        gates.append(GateElement("QWP", triple.eta1))

    add_dove_pair(branch.gamma1)
    add_triple(branch.Uprime)
    gates.append(GateElement("CNOT", None))
    add_dove_pair(branch.gamma2)
    gates.append(GateElement("TBS", None))
    if branch.conditional_x:
        gates.append(GateElement("CONDX", None))
    add_triple(branch.U)
    return gates
