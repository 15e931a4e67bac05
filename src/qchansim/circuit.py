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

import math
import operator

import numpy as np

from .decompose import DecompositionPlan, QuasiExtremeBranch
from .matops import (
    H0,
    ID2,
    PAULI_X,
    Record,
    assert_density_matrix,
    dagger,
)
from .optics import GateElement, _waveplate_angles, dove_pair_for_ry, ry_rotation

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


class NoiseParams(Record):
    """Imperfection model: interferometer visibility, relative Gaussian
    intensity noise at the detector, and the RNG seed that makes runs
    reproducible."""

    __slots__ = ("visibility", "intensity_sigma", "rng_seed")

    def __init__(self, visibility: float = 1.0, intensity_sigma: float = 0.0, rng_seed: int = 0):
        if not 0.0 <= visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if not math.isfinite(intensity_sigma):
            raise ValueError(f"intensity_sigma must be finite, got {intensity_sigma!r}")
        if intensity_sigma < 0.0:
            raise ValueError("intensity_sigma must be nonnegative")
        try:
            seed = operator.index(rng_seed)  # numpy integers pass, floats do not
        except TypeError:
            raise ValueError(f"rng_seed must be an integer, got {rng_seed!r}") from None
        if seed < 0:
            raise ValueError("rng_seed must be nonnegative")
        object.__setattr__(self, "visibility", visibility)
        object.__setattr__(self, "intensity_sigma", intensity_sigma)
        object.__setattr__(self, "rng_seed", rng_seed)


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
    return _scale_coherences(assert_density_matrix(rho4, tol=1e-9, dim=4), mask, visibility)


def _scale_coherences(rho4: np.ndarray, mask: np.ndarray, factor: float) -> np.ndarray:
    """``rho4`` (a stack of 4x4 operators) with every entry outside ``mask`` scaled by ``factor``."""
    return np.where(mask, rho4, factor * rho4)


def _conjugate(op, rho: np.ndarray) -> np.ndarray:
    """``op rho op^dag`` for every member of a working stack ``(n, 4, m, 4)``
    (row, member, column), with ``op`` one 4x4 or one per branch ``(n, 4, 4)``.

    In this layout the m members side by side are one 4 x 4m matrix, and
    stacked they are one 4m x 4 matrix, so each side is one product per branch.
    """
    n, _, m, _ = rho.shape
    rho = (op @ rho.reshape(n, 4, 4 * m)).reshape(n, 4 * m, 4) @ dagger(op)
    return rho.reshape(n, 4, m, 4)


def _branch_stages(rho_in, branches, visibility: float = 1.0):
    """Yield (stage label, states) through the circuits of a sequence of n branches.

    ``rho_in`` is a 2x2 system operator or a stack ``(m, 2, 2)`` of them, and
    every branch acts on each: a stage's states are ``(n, 4, 4)`` or
    ``(n, m, 4, 4)``, branch first.  Both TBS ports are kept; after the
    feed-forward they are summed into a single nonselective state.
    """
    rho_in = np.asarray(rho_in, dtype=complex)
    stack = rho_in.reshape(-1, 2, 2)
    n, m = len(branches), len(stack)

    def states(rho):
        """A view of the (n, 4, m, 4) working stack in the layout documented above."""
        return rho[:, :, 0] if rho_in.ndim == 2 else rho.transpose(0, 2, 1, 3)

    def lift(pol, mode):
        """pol (x) mode, polarization first, from 2x2 factors or stacks (n, 2, 2) of them."""
        return np.einsum("...pq,...rs->...prqs", pol, mode).reshape(n, 4, 4)

    rho = np.einsum("bpq,rs->prbqs", stack, _MODE_H).reshape(4, m, 4)
    rho = np.broadcast_to(rho, (n, 4, m, 4))
    yield "input", states(rho)

    rho = _conjugate(lift(np.array([b.Uprime for b in branches]), ID2), rho)
    yield "system_pre_unitary", states(rho)

    rho = _conjugate(lift(ID2, ry_rotation(np.array([b.gamma1 for b in branches]))), rho)
    yield "ancilla_rotation_1", states(rho)

    rho = _conjugate(_CNOT, rho)
    if visibility < 1.0:
        rho = _scale_coherences(rho, _POL_DIAG_MASK[:, None], visibility)
    yield "cnot", states(rho)

    rho = _conjugate(lift(ID2, ry_rotation(np.array([b.gamma2 for b in branches]))), rho)
    yield "ancilla_rotation_2", states(rho)

    rho_k = _conjugate(_TBS_K, rho)
    rho_l = _conjugate(_TBS_L, rho)
    if visibility < 1.0:
        # Failed interference spills the mode-dephased state evenly into
        # both ports; the coherent part keeps weight = visibility.
        spill = 0.5 * (1.0 - visibility) * _scale_coherences(rho, _MODE_DIAG_MASK[:, None], 0.0)
        rho_k = visibility * rho_k + spill
        rho_l = visibility * rho_l + spill
    conditional_x = np.array([b.conditional_x for b in branches])[:, None, None, None]
    rho = rho_k + np.where(conditional_x, _conjugate(_FEED_FORWARD, rho_l), rho_l)
    yield "tbs_and_feedforward", states(rho)

    rho = _conjugate(lift(np.array([b.U for b in branches]), ID2), rho)
    yield "system_post_unitary", states(rho)


def _readout(rho_in, branches, noise: NoiseParams | None) -> np.ndarray:
    """Run every stage of n branches and trace out the mode: ``(n, 2, 2)`` or ``(n, m, 2, 2)``."""
    visibility = 1.0 if noise is None else noise.visibility
    for _, final in _branch_stages(rho_in, branches, visibility):
        pass
    return np.trace(final.reshape(final.shape[:-2] + (2, 2, 2, 2)), axis1=-3, axis2=-1)


def run_branch(rho_in, branch: QuasiExtremeBranch, noise: NoiseParams | None = None) -> np.ndarray:
    """Run one branch; returns the 2x2 system state after ancilla readout, or
    the stack ``(m, 2, 2)`` of outputs of a stack of states."""
    return _readout(assert_density_matrix(rho_in, dim=2), [branch], noise)[0]


def compile_plan(plan, noise: NoiseParams | None = None) -> np.ndarray:
    """The 4x4 transfer matrix of the circuit, vec(rho_out) = S vec(rho_in),
    of one plan; a sequence of n plans gives the stack ``(n, 4, 4)``.

    Column ``2 i + j`` of ``S`` is the row-major vec of the circuit's image
    of ``|i><j|``, mixed over the branches as p * branch_a + (1 - p) * branch_b.
    The branches of every plan run through the stages as one stack.
    """
    single = isinstance(plan, DecompositionPlan)
    plans = (plan,) if single else plan
    runs = [
        (row, weight, branch)
        for row, member in enumerate(plans)
        for branch, weight in ((member.branch_a, member.p), (member.branch_b, 1.0 - member.p))
        if branch is not None and weight != 0.0
    ]
    rows, weights, branches = zip(*runs)
    images = _readout(_BASIS_OPS, branches, noise).reshape(-1, 4, 4).swapaxes(-1, -2)
    s = np.zeros((len(plans), 4, 4), dtype=complex)
    # Runs come in plan order, branch a first, so each S sums as 0 + p * a + (1 - p) * b.
    np.add.at(s, list(rows), np.asarray(weights)[:, None, None] * images)
    return s[0] if single else s


def simulate_channel(rho_in, plan, noise: NoiseParams | None = None) -> np.ndarray:
    """Apply the compiled circuit, p * branch_a + (1 - p) * branch_b, of one
    plan; a sequence of n plans gives the stack ``(n, 2, 2)`` of outputs."""
    rho_in = assert_density_matrix(rho_in, dim=2, stack=False)
    single = isinstance(plan, DecompositionPlan)
    out = (compile_plan([plan] if single else plan, noise) @ rho_in.reshape(4)).reshape(-1, 2, 2)
    return out[0] if single else out


_DP0, _CNOT_GATE, _TBS_GATE = GateElement("DP", 0.0), GateElement("CNOT", None), GateElement("TBS", None)
_CONDX_GATE = GateElement("CONDX", None)  # the elements with the same angle in every branch, built once (immutable)


def gates_for_branch(branch: QuasiExtremeBranch) -> list[GateElement]:
    """Compile one branch into the ordered optical element list.

    Dove-prism pairs realize the ancilla rotations, waveplate triples the
    dressing unitaries (skipped when they equal the identity up to phase);
    elements appear in beam order.
    """
    gates = [_DP0, GateElement("DP", dove_pair_for_ry(branch.gamma1)), *_waveplates(branch.Uprime), _CNOT_GATE,
             _DP0, GateElement("DP", dove_pair_for_ry(branch.gamma2)), _TBS_GATE]
    if branch.conditional_x:
        gates.append(_CONDX_GATE)
    return gates + _waveplates(branch.U)


def _waveplates(u) -> list[GateElement]:
    """Waveplates of a branch's dressing, read-only and checked unitary, in beam order: none where it is the identity
    up to phase.  The dressing is read once as four Python complex numbers, and the phase test
    (``phase_invariant_distance(u, I) <= 1e-12``) and the angles of ``waveplates_from_euler(euler_from_su2(u))`` are
    float arithmetic on them."""
    angles = _waveplate_angles(u.ravel().tolist())
    if angles is None:
        return []
    eta1, tau, eta2 = angles
    return [GateElement("QWP", eta2), GateElement("HWP", tau), GateElement("QWP", eta1)]
