"""Two-branch quasiextreme decomposition of single-qubit channels.

A quasiextreme channel distorts the Bloch ball by
``T = diag(cos nu, cos mu, cos nu cos mu)`` with displacement
``t = (0, 0, sin nu sin mu)`` and is generated by exactly two Kraus
operators::

    K0 = diag(cos beta, cos alpha)      K1 = [[0, sin alpha], [sin beta, 0]]

with ``alpha = (mu + nu) / 2`` and ``beta = (mu - nu) / 2``.  An arbitrary
channel is a convex mix ``p E_a + (1 - p) E_b`` of two such branches, each
dressed by unitaries: ``M_i = U K_i U'``.  This module provides the closed
forms for the five named channels, a numpy Levenberg-Marquardt fitter for
everything else (quadratically convergent also on Choi-rank-deficient targets),
and the reconstruction of a channel from a plan.

The ancilla rotation angles obey ``gamma1 = pi/2 - alpha + beta`` and
``gamma2 = alpha + beta - pi/2`` (modulo 2 pi); the circuit-versus-Kraus
equivalence tests pin this relation down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    AffineRep,
    ChannelKind,
    KrausChannel,
    ZERO_OP_TOL,
    affine_from_transfer,
    choi_from_transfer,
    cptp_report,
    to_choi,
    transfer,
)
from .matops import ID2, PAULIS, as_cmat, complex_to_pairs, frob_dist, pairs_to_complex, svd3, unitarity_residual
from .optics import EulerAngles, su2_from_euler, su2_from_rotation

U_BPF = np.array([[-1.0j, 0.0], [0.0, 1.0j]], dtype=complex)

ANGLE_TOL = 1e-10
QE_TOL = 1e-8
FIT_MAX_STARTS = 32
FIT_SEED = 7
FIT_TARGET_RESIDUAL = 1e-9
LM_STOP_RESIDUAL = 1e-12
CONVERGED_RESIDUAL = 1e-4
_EPS = np.finfo(float).eps


class NotQuasiExtremeError(ValueError):
    """Raised when an affine map lacks the quasiextreme diagonal structure."""


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = float(np.mod(a + np.pi, 2.0 * np.pi) - np.pi)
    return np.pi if w == -np.pi else w


def kraus_from_angles(alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """The trace-preserving quasiextreme Kraus pair for angles (alpha, beta); angle arrays give stacks."""
    zero = np.zeros_like(alpha, dtype=complex)
    shape = np.shape(zero) + (2, 2)
    k0 = np.stack([np.cos(beta), zero, zero, np.cos(alpha)], axis=-1).reshape(shape)
    k1 = np.stack([zero, np.sin(alpha), np.sin(beta), zero], axis=-1).reshape(shape)
    return k0, k1


def gammas_from_angles(alpha: float, beta: float) -> tuple[float, float]:
    """Ancilla rotation angles gamma1 = pi/2 - alpha + beta, gamma2 = alpha + beta - pi/2."""
    return np.pi / 2.0 - alpha + beta, alpha + beta - np.pi / 2.0


@dataclass(frozen=True)
class QuasiExtremeBranch:
    """One quasiextreme branch: Kraus angles, ancilla angles and dressing unitaries.

    ``conditional_x`` records whether the feed-forward sigma_x acts on the
    odd-ancilla port; disabling it turns the off-diagonal K1 into its
    diagonal counterpart (the phase-damping behaviour).  The ancilla angles
    ``gamma1`` and ``gamma2`` follow from (alpha, beta), wrapped into (-pi, pi].
    """

    alpha: float
    beta: float
    U: np.ndarray
    Uprime: np.ndarray
    conditional_x: bool = True

    def __post_init__(self):
        u = as_cmat(self.U, 2)
        up = as_cmat(self.Uprime, 2)
        if unitarity_residual(u) > ANGLE_TOL or unitarity_residual(up) > ANGLE_TOL:
            raise ValueError("branch unitaries must be unitary within 1e-10")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "Uprime", up)

    @property
    def gamma1(self) -> float:
        return wrap_angle(gammas_from_angles(self.alpha, self.beta)[0])

    @property
    def gamma2(self) -> float:
        return wrap_angle(gammas_from_angles(self.alpha, self.beta)[1])

    @classmethod
    def from_alpha_beta(cls, alpha, beta, U=None, Uprime=None, conditional_x=True) -> "QuasiExtremeBranch":
        return cls(alpha=wrap_angle(alpha), beta=wrap_angle(beta), U=ID2 if U is None else U,
                   Uprime=ID2 if Uprime is None else Uprime, conditional_x=conditional_x)

    def kraus_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Effective bare Kraus pair, honouring the conditional-x flag."""
        k0, k1 = kraus_from_angles(self.alpha, self.beta)
        if not self.conditional_x:
            k1 = np.array([[np.sin(self.beta), 0.0], [0.0, np.sin(self.alpha)]], dtype=complex)
        return k0, k1


@dataclass(frozen=True)
class AngleNuMu:
    """Bloch-distortion angles of a quasiextreme channel."""

    nu: float
    mu: float


@dataclass(frozen=True)
class DecompositionPlan:
    """Convex mix p * branch_a + (1 - p) * branch_b; branch_b may be absent only at p = 1."""

    branch_a: QuasiExtremeBranch
    branch_b: QuasiExtremeBranch | None
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixing weight must be in [0, 1], got {self.p}")
        if self.branch_b is None and self.p < 1.0:
            raise ValueError("branch_b is required whenever p < 1")


# The lambda-independent branches of the PF and BPF plans, built once.
_IDENTITY_BRANCH = QuasiExtremeBranch.from_alpha_beta(0.0, 0.0)
_FLIP_BRANCHES = {
    ChannelKind.PF: QuasiExtremeBranch.from_alpha_beta(np.pi, 0.0),
    ChannelKind.BPF: QuasiExtremeBranch.from_alpha_beta(np.pi / 2.0, np.pi / 2.0, U=U_BPF),
}


def closed_form_plan(kind: ChannelKind | str, lam: float) -> DecompositionPlan:
    """Decomposition parameters of the five named channels.

    AD, PD and BF need a single branch (p = 1) with
    ``alpha = arcsin(sqrt(lam))`` and ``beta = 0`` (AD/PD) or
    ``beta = alpha`` (BF); the PD branch additionally disables the
    feed-forward sigma_x.  PF and BPF mix a flip branch, weighted by
    ``lam``, with an identity branch: the PF flip branch is
    ``alpha = pi, beta = 0`` and the BPF flip branch is
    ``alpha = beta = pi/2`` dressed with U = diag(-i, i).
    """
    kind = ChannelKind(kind)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"decoherence parameter must be in [0, 1], got {lam}")
    if kind in (ChannelKind.AD, ChannelKind.PD, ChannelKind.BF):
        alpha = float(np.arcsin(np.sqrt(lam)))
        beta = alpha if kind is ChannelKind.BF else 0.0
        branch = QuasiExtremeBranch.from_alpha_beta(
            alpha, beta, conditional_x=kind is not ChannelKind.PD
        )
        return DecompositionPlan(branch_a=branch, branch_b=None, p=1.0)
    return DecompositionPlan(branch_a=_FLIP_BRANCHES[kind], branch_b=_IDENTITY_BRANCH, p=float(lam))


def plan_to_channel(plan: DecompositionPlan) -> KrausChannel:
    """Kraus set {sqrt(w) U K_i U'} over both branches, zero operators dropped."""
    ops = []
    for branch, weight in ((plan.branch_a, plan.p), (plan.branch_b, 1.0 - plan.p)):
        if branch is None:
            continue
        root = np.sqrt(weight)
        for k in branch.kraus_pair():
            m = root * (branch.U @ k @ branch.Uprime)
            if np.linalg.norm(m) >= ZERO_OP_TOL:
                ops.append(m)
    return KrausChannel(tuple(ops))


def extract_nu_mu(aff: AffineRep) -> AngleNuMu:
    """Recover (nu, mu) from a quasiextreme affine map.

    Requires T diagonal with T = diag(cos nu, cos mu, cos nu cos mu) and
    t = (0, 0, sin nu sin mu); nu is taken in [0, pi] and mu in (-pi, pi].
    Raises :class:`NotQuasiExtremeError` when the structure is absent.
    """
    T, t = aff.T, aff.t
    off = T - np.diag(np.diag(T))
    if np.abs(off).max() > QE_TOL:
        raise NotQuasiExtremeError("distortion matrix is not diagonal")
    if abs(t[0]) > QE_TOL or abs(t[1]) > QE_TOL:
        raise NotQuasiExtremeError("displacement is not along z")
    cnu, cmu, prod = T[0, 0], T[1, 1], T[2, 2]
    if abs(cnu) > 1.0 + QE_TOL or abs(cmu) > 1.0 + QE_TOL:
        raise NotQuasiExtremeError("diagonal entries exceed unit magnitude")
    nu = float(np.arccos(np.clip(cnu, -1.0, 1.0)))
    snu = np.sin(nu)
    if snu > QE_TOL:
        smu = t[2] / snu
        mu = float(np.arctan2(smu, cmu))
    else:
        mu = float(np.arccos(np.clip(cmu, -1.0, 1.0)))
    if abs(np.cos(nu) * np.cos(mu) - prod) > QE_TOL or abs(np.sin(nu) * np.sin(mu) - t[2]) > QE_TOL:
        raise NotQuasiExtremeError("diagonal and displacement are mutually inconsistent")
    if abs(np.cos(mu) - cmu) > QE_TOL:
        raise NotQuasiExtremeError("second diagonal entry is not a cosine consistent with t_z")
    return AngleNuMu(nu=nu, mu=float(mu))


def branch_from_nu_mu(nm: AngleNuMu, U=None, Uprime=None) -> QuasiExtremeBranch:
    return QuasiExtremeBranch.from_alpha_beta((nm.mu + nm.nu) / 2.0, (nm.mu - nm.nu) / 2.0, U=U, Uprime=Uprime)


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit_plan`."""

    plan: DecompositionPlan
    residual: float
    starts_used: int

    @property
    def converged(self) -> bool:
        return self.residual <= CONVERGED_RESIDUAL


def _signed_permutation_rotations():
    """All 24 signed 3x3 permutation matrices with determinant +1."""
    from itertools import permutations, product

    out = []
    for perm in permutations(range(3)):
        for signs in product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for col, row in enumerate(perm):
                m[row, col] = signs[col]
            if np.linalg.det(m) > 0:
                out.append(m)
    return out

_ROT_PERMS = _signed_permutation_rotations()
_DET1_SIGNS = [np.diag(d) for d in ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0))]


def _single_branch_candidates(aff: AffineRep):
    """Closed-form p = 1 plans for channels that are rotated quasiextreme maps.

    Writes T = L diag(s) R^T, then scans the finite set of axis
    relabellings P, Q = P S (proper signed permutations) under which
    P^T diag(s) Q matches the quasiextreme diagonal and L^T t points
    along z.  Every hit yields an exact plan, generated lazily so that the
    caller can stop at the first one.
    """
    left, s, right = svd3(aff.T)
    for perm in _ROT_PERMS:
        lp = left @ perm
        tk = lp.T @ aff.t
        if abs(tk[0]) > QE_TOL or abs(tk[1]) > QE_TOL:
            continue
        for sign in _DET1_SIGNS:
            q = perm @ sign
            tmat = perm.T @ np.diag(s) @ q
            try:
                nm = extract_nu_mu(AffineRep(T=tmat, t=tk))
            except NotQuasiExtremeError:
                continue
            branch = branch_from_nu_mu(nm, U=su2_from_rotation(lp), Uprime=su2_from_rotation((right @ q).T))
            yield DecompositionPlan(branch_a=branch, branch_b=None, p=1.0)


def _plan_from_params(x) -> DecompositionPlan:
    u = su2_from_euler(EulerAngles(*x[5:17].reshape(4, 3).T))
    branch_a = QuasiExtremeBranch.from_alpha_beta(x[0], x[1], U=u[0], Uprime=u[1])
    branch_b = QuasiExtremeBranch.from_alpha_beta(x[2], x[3], U=u[2], Uprime=u[3])
    return DecompositionPlan(branch_a=branch_a, branch_b=branch_b, p=float(np.sin(x[4]) ** 2))


def _affine_tables():
    """Constant tables of :func:`_affine_residual`, built once at import.

    ``angles`` maps x to t = (alpha_a, beta_a, 0, alpha_b, beta_b, 0, theta, then xi, phi + zeta,
    phi - zeta of U_a, U'_a, U_b, U'_b); ``exp(1j t)`` as floats holds cos t_j at 2j, sin t_j at
    2j + 1.  ``g = coef * cs[first] * cs[second]`` holds, per dressing, the quaternion
    (Re u, Im u, Re w, Im w) of :func:`su2_from_euler` and twice its derivatives in (phi, xi, zeta);
    per branch, (cos alpha, sin alpha, cos beta, sin beta) and twice its derivatives in alpha, beta;
    then p = sin^2 theta, 1 - p, sin 2 theta.  ``rotation`` and ``kraus`` give the Pauli transfer
    matrices Tr(s_i E(s_j)) / 2, s = (I, sigma_x, sigma_y, sigma_z), of U and of the Kraus pair as
    bilinear forms in those four-vectors v: v (x) v is the matrix, 2 dv (x) v its derivative.
    """
    # The dressing x[c:c + 3] = (phi, xi, zeta) gives xi = x[c + 1], phi + zeta and phi - zeta.
    rows = [0, 1, 2, 3, 4] + [c + i for c in range(5, 17, 3) for i in (1, 0, 2, 0, 2)]
    cols = [0, 1, 3, 4, 6] + [c + j for c in range(7, 19, 3) for j in (0, 1, 1, 2, 2)]
    angles = np.zeros((17, 19))
    angles[rows, cols] = [1.0] * 5 + [1.0, 1.0, 1.0, 1.0, -1.0] * 4
    # Rows first, second, coef.  Dressing d has cos xi, sin xi, cos(phi+zeta), sin(phi+zeta),
    # cos(phi-zeta), sin(phi-zeta) at 14 + 6 d + (0-5): the quaternion, d/dphi, d/dxi, d/dzeta.
    quat = np.array([0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1,
                     2, 4, 3, 5, 3, 5, 2, 4, 2, 4, 3, 5, 3, 5, 2, 4,
                     1, 1, 1, 1, -2, -2, 2, 2, -2, 2, -2, 2, -2, 2, 2, -2]).reshape(3, 4, 4)
    # Branch s has cos alpha, sin alpha, cos beta, sin beta, 1, 0 at 6 s + (0-5): the value, d/dalpha, d/dbeta.
    pair = np.array([0, 1, 2, 3, 1, 0, 5, 5, 5, 5, 3, 2, *[4] * 12,
                     1, 1, 1, 1, -2, 2, 0, 0, 0, 0, -2, 2]).reshape(3, 3, 4)
    offsets = np.array([[14, 20, 26, 32, 0, 6], [14, 20, 26, 32, 0, 6], [0, 0, 0, 0, 0, 0]])[:, :, None, None]
    quat, pair = quat[:, None] + offsets[:, :4], pair[:, None] + offsets[:, 4:]
    weights = [[13, 12, 13, 13, 12, 12, 13], [13, 12, 12, 4, 4, 4, 4], [1, 1, 2, 1, 1, 1, -1]]
    first, second, coef = np.concatenate([quat.reshape(3, 64), pair.reshape(3, 24), weights], axis=1)
    # Row-major: the basis of U = a I + i b sigma_z - i c sigma_y + i d sigma_x, then the places of cos alpha,
    # sin alpha, cos beta, sin beta in K0 = diag(cos beta, cos alpha) and K1 = [[0, sin alpha], [sin beta, 0]].
    ops = np.array([[1, 0, 0, 1], [1j, 0, 0, -1j], [0, -1, 1, 0], [0, 1j, 1j, 0],
                    [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]).reshape(2, 4, 2, 2)
    kron = (ops[:, :, None, :, None, :, None] * ops.conj()[:, None, :, None, :, None, :]).reshape(32, 16)
    # Columns of paulis are the row-major vecs of s: V^dag (A (x) conj B) V for all (A, B) is one product.
    paulis = np.array([ID2, *PAULIS]).reshape(4, 4).T
    forms = 0.5 * (kron @ (paulis.conj()[:, None, :, None] * paulis[None, :, None, :]).reshape(16, 16)).real
    rotation, kraus = forms.reshape(2, 4, 4, 16)
    kraus[::2, 1::2] = kraus[1::2, ::2] = 0.0  # cosines are K0's entries and sines K1's: they do not pair
    # Choi vectors of B_i E_m B_j for U = sum_i q_i B_i, U' = sum_j q'_j B_j and Kraus entry m, split by the
    # Kraus operator (K0 for the cosines, K1 for the sines) that holds entry m.
    choi = np.einsum("iab,mbc,jcd->daijm", ops[0], ops[1], ops[0]).reshape(4, 1, 64)
    null = (choi * (np.arange(64) % 2 == np.arange(2)[:, None])).reshape(4, 128)
    return angles, first, second, coef.astype(float), rotation.reshape(16, 16), kraus.reshape(16, 16), null


(_ANGLE_MAP, _PRODUCT_FIRST, _PRODUCT_SECOND, _PRODUCT_COEF, _ROTATION_FORM, _KRAUS_FORM,
 _NULL_BASIS) = _affine_tables()
# Row _VALUE[i] of g's 22 four-vectors (4 per dressing, then 3 per branch) is the value that vector i
# pairs with.  Branch s has 9 terms PTM(U) PTM(K) PTM(U') with at most one factor differentiated: the
# value, d/dalpha, d/dbeta, d/dU and d/dU' in (phi, xi, zeta).  The rotations' matrices are indexed
# 4 * dressing + (value, phi, xi, zeta), the Kraus pairs' 3 * branch + (value, alpha, beta).
_VALUE = np.array([0] * 4 + [4] * 4 + [8] * 4 + [12] * 4 + [16] * 3 + [19] * 3)
_LEFT, _MIDDLE, _RIGHT = np.array([[0, 0, 0, 1, 2, 3, 0, 0, 0, 8, 8, 8, 9, 10, 11, 8, 8, 8],
                                    [0, 1, 2, 0, 0, 0, 0, 0, 0, 3, 4, 5, 3, 3, 3, 3, 3, 3],
                                    [4, 4, 4, 4, 4, 4, 5, 6, 7, 12, 12, 12, 12, 12, 12, 13, 14, 15]])
# _MIX @ (p, 1 - p, sin 2 theta) takes the terms to the Jacobian in x and, in column 17, to the map:
# branch a's terms are weighed by p, branch b's by 1 - p, and d/dtheta = sin 2 theta (a - b).
_MIX = np.zeros((18, 18, 3))
_MIX[range(18), [17, 0, 1, 5, 6, 7, 8, 9, 10, 17, 2, 3, 11, 12, 13, 14, 15, 16], [0] * 9 + [1] * 9] = 1.0
_MIX[[0, 9], 4, 2] = 1.0, -1.0
# The null rows take the 18 terms per branch from the trilinear Tr(W U K U'): _NULL_GATHER gathers each term's
# q_i (U), q'_j (U') and kappa_m (Kraus entry) from g over ijm = 16 i + 4 j + m.  _NULL_PLACE halves g's doubled
# derivatives and sends values to d/dtheta too, weighed by sin or cos theta or their derivative, _NULL_WEIGHT.
_NULL_GATHER = np.stack(np.broadcast_arrays(*(4 * t + np.arange(4).reshape(-1, *[1] * k) for t, k in
                                              ((_LEFT, 3), (_RIGHT, 2), (16 + _MIDDLE, 1))))).reshape(3, 64, 18)
_NULL_PLACE = _MIX[:, :, :2].transpose(0, 2, 1) * np.where(np.arange(18) % 9, 0.5, 1.0)[:, None, None]
_NULL_PLACE[[0, 9], [0, 1], 4] = 1.0
_NULL_PLACE = _NULL_PLACE.reshape(18, 36)
_NULL_WEIGHT = np.repeat([91, 92], 18)
_NULL_WEIGHT[[4, 22]] = 93, 94


def _null_table(vectors) -> np.ndarray:
    """(4n, 64): Re, then Im, of Tr(W_n B_i E_m B_j) for each column v_n of ``vectors``, then K0, K1 (their E_m)."""
    table = (vectors.conj().T @ _NULL_BASIS).reshape(-1, 64)
    return np.concatenate([table.real, table.imag])


def _affine_residual(x, target, nulls) -> tuple[np.ndarray, np.ndarray]:
    """The plan's Bloch map and null rows minus ``target``: 12 + 8n reals, and their exact Jacobian in x.

    The first 12 are [t | T], row-major, for the map r -> T r + t of
    ``plan_to_channel(_plan_from_params(x))``, the rows of its transfer matrix
    p PTM(U_a) PTM(K_a) PTM(U'_a) + (1 - p) PTM(U_b) PTM(K_b) PTM(U'_b) below [1, 0].
    Trace-preserving maps have the transfer matrix [[1, 0], [t, T]] in the orthonormal
    basis s/sqrt(2), and the Choi matrix is a reshuffle of that, so
    ||Choi - Choi*||_F = ||(T - T*, t - t*)||: the least-squares problem is that of the
    Choi difference.  No plan is built.

    Each of the n Choi null vectors v of the target in ``nulls`` (:func:`_null_table`) adds 8 null
    rows, Re and Im of Tr(W M) = <v|vec M> for the Kraus operators M = c U K U', c = sin theta or
    cos theta: row 12 + 2 r + s pairs row r of ``nulls`` with branch s.  The plan's Choi weight on v,
    sum_M |<v|vec M>|^2, is 0 at every exact plan, so the rows vanish there and leave the solutions
    alone.  That weight is quadratic in the distance to a solution, so the 12 rows' Jacobian is
    singular there and Gauss-Newton only halves the distance per step; the null rows are linear
    in it and restore quadratic convergence.
    """
    cs = np.exp(1j * (x @ _ANGLE_MAP)).view(float)
    g = _PRODUCT_COEF * cs[_PRODUCT_FIRST] * cs[_PRODUCT_SECOND]
    vecs = g[:88].reshape(22, 4)
    forms = (vecs[:, :, None] * vecs[_VALUE, None, :]).reshape(22, 16)
    rot = (forms[:16] @ _ROTATION_FORM).reshape(16, 4, 4)
    kraus = (forms[16:] @ _KRAUS_FORM).reshape(6, 4, 4)
    terms = rot[_LEFT, 1:, 1:] @ (kraus[_MIDDLE, 1:] @ rot[_RIGHT])
    out = terms.reshape(18, 12).T @ (_MIX @ g[88:91])
    if nulls.size:
        left, right, middle = g[_NULL_GATHER]
        rows = (nulls @ (left * right * middle)) @ _NULL_PLACE * g[_NULL_WEIGHT]
        out = np.concatenate([out, rows.reshape(-1, 18)])
    return out[:, 17] - target, out[:, :17]


def _damped_step_solver(jac, f):
    """The map lam -> argmin over d of |J d + f|^2 + lam |D d|^2, D = diag of J's column norms.

    J is (12 + 8n) x 17: 12 + 8n residuals, 17 parameters.  Marquardt's scaling D makes the step independent
    of the parameters' units.  With y = D d this is ridge least squares on A = J D^-1, solved by
    y = A^T (A A^T + lam I)^-1 (-f), the push-through form of (A^T A + lam I)^-1 A^T (-f): each lam costs
    one solve with the rows' Gram matrix G = A A^T (More, 1978).  A's columns have unit norm, so tr G <= 17
    and G carries round-off up to (rows + 17) eps 17.  lam is clamped up to that level, which keeps G + lam I
    regular where G is singular (more than 17 rows, or p = 0 or 1 zeroing a branch's columns) and where
    lam has underflowed to 0.
    """
    d = np.linalg.norm(jac, axis=0)
    d[d == 0.0] = 1.0
    a = jac / d
    gram, back = a @ a.T, a.T / d[:, None]
    floor, eye = sum(a.shape) * _EPS * a.shape[1], np.eye(len(a))

    def step(lam):
        return back @ np.linalg.solve(gram + max(lam, floor) * eye, -f)

    return step


def _levenberg_marquardt(x, target, nulls) -> np.ndarray:
    """Levenberg-Marquardt least squares on :func:`_affine_residual`, started at ``x``.

    J^T J is singular in general (17 parameters, 12-dimensional channels), so each step is the
    damped least-squares step of :func:`_damped_step_solver`: one small Gram solve per trial, with lam
    clamped at the Gram matrix's round-off level.  The start and every trial cost one kernel call,
    which brings the exact Jacobian along.  lam falls tenfold after a step that lowers the cost and
    rises tenfold otherwise.  The loop stops once |f| <= ``LM_STOP_RESIDUAL``,
    when the last 10 accepted steps did not halve |f| together (a stalled start, left to the
    caller's next start), when no lam up to 1e16 helps, or after 2000 trials.
    """
    f, jac = _affine_residual(x, target, nulls)
    norms = [math.sqrt(f @ f)]
    lam, step = 1e-3, None
    for _ in range(2000):
        if f @ f <= LM_STOP_RESIDUAL**2:
            break
        if step is None:
            step = _damped_step_solver(jac, f)
        x_trial = x + step(lam)
        f_trial, jac_trial = _affine_residual(x_trial, target, nulls)
        if f_trial @ f_trial < f @ f:
            x, f, jac, lam, step = x_trial, f_trial, jac_trial, lam / 10.0, None
            norms.append(math.sqrt(f @ f))
            if len(norms) > 10 and norms[-1] > 0.5 * norms[-11]:
                break
        elif lam > 1e16:
            break
        else:
            lam *= 10.0
    return x


def _tidy_plan(plan: DecompositionPlan) -> DecompositionPlan:
    """Snap the weight to the boundary and keep the heavier branch first."""
    p = plan.p
    a, b = plan.branch_a, plan.branch_b
    if p < 0.5 and b is not None:
        a, b, p = b, a, 1.0 - p
    if p > 1.0 - 1e-12:
        return DecompositionPlan(branch_a=a, branch_b=None, p=1.0)
    return DecompositionPlan(branch_a=a, branch_b=b, p=p)


def fit_plan(ch: KrausChannel) -> FitResult:
    """Fit a two-branch plan to an arbitrary CPTP channel.

    Stage one recognizes rotated single-branch channels in closed form from the
    signed SVD of the distortion matrix; any two-Kraus channel lands here with
    residual at the arithmetic floor, and the first candidate within
    ``FIT_TARGET_RESIDUAL`` is kept; it is skipped when the target's two smallest
    Choi eigenvalues already put every two-Kraus channel farther away.  Stage two runs
    multi-start Levenberg-Marquardt, a numpy loop, over all seventeen parameters (branch
    angles, mixing weight, Euler angles of the four dressing unitaries) against
    the Bloch affine map, whose distance is the Choi distance, from seeded random
    starts until one lands within ``FIT_TARGET_RESIDUAL`` or ``FIT_MAX_STARTS``
    are spent.  Starts are merged by lowest residual with the start index as
    tiebreak, so results are deterministic.  Choi eigenvectors with eigenvalue <= ``LM_STOP_RESIDUAL``
    add null rows to the residual; one transfer matrix and one ``eigh`` give them and the CPTP check.

    Non-convergence (residual above ``CONVERGED_RESIDUAL``) is reported in
    the result, not raised.
    """
    transfer_matrix = transfer(ch)
    target = choi_from_transfer(transfer_matrix)
    eigenvalues, eigenvectors = np.linalg.eigh((target + target.conj().T) / 2.0)
    if not cptp_report(target, eigenvalues).ok:
        raise ValueError("fit_plan requires a CPTP channel")
    aff = affine_from_transfer(transfer_matrix)

    def residual_of(plan):
        return frob_dist(to_choi(plan_to_channel(plan)), target)

    # A candidate has two Kraus operators, so Choi rank <= 2: by Eckart-Young it is at least the root-sum-square
    # of the target's two smallest |eigenvalues| away, and stage one cannot succeed when that exceeds the target.
    if math.hypot(*np.sort(np.abs(eigenvalues))[:2]) <= FIT_TARGET_RESIDUAL:
        for cand in _single_branch_candidates(aff):
            r = residual_of(cand)
            if r <= FIT_TARGET_RESIDUAL:
                return FitResult(plan=_tidy_plan(cand), residual=float(r), starts_used=0)

    nulls = _null_table(eigenvectors[:, eigenvalues <= LM_STOP_RESIDUAL])
    affine_target = np.concatenate([np.hstack([aff.t[:, None], aff.T]).ravel(), np.zeros(2 * len(nulls))])
    rng = np.random.default_rng(FIT_SEED)
    best_plan = None
    best_res = np.inf
    for starts_used in range(1, FIT_MAX_STARTS + 1):
        x0 = rng.uniform(-np.pi, np.pi, size=17)
        x0[4] = rng.uniform(0.0, np.pi / 2.0)
        plan = _tidy_plan(_plan_from_params(_levenberg_marquardt(x0, affine_target, nulls)))
        r = residual_of(plan)
        if r < best_res:
            best_plan, best_res = plan, r
        if best_res <= FIT_TARGET_RESIDUAL:
            break

    return FitResult(plan=best_plan, residual=float(best_res), starts_used=starts_used)


def _unitary_to_json(u) -> list | None:
    return None if frob_dist(u, ID2) <= 1e-12 else complex_to_pairs(u)


def _unitary_from_json(rows) -> np.ndarray:
    return ID2 if rows is None else pairs_to_complex(rows)


def plan_to_json(plan: DecompositionPlan) -> str:
    branches = []
    for br in (plan.branch_a, plan.branch_b):
        if br is None:
            continue
        branches.append(
            {
                "alpha": br.alpha,
                "beta": br.beta,
                "gamma1": br.gamma1,
                "gamma2": br.gamma2,
                "U": _unitary_to_json(br.U),
                "Uprime": _unitary_to_json(br.Uprime),
                "conditional_x": br.conditional_x,
            }
        )
    return json.dumps({"p": plan.p, "branches": branches}, sort_keys=True)


def plan_from_json(text: str) -> DecompositionPlan:
    """Inverse of :func:`plan_to_json`; rejects gamma angles that do not follow from (alpha, beta)."""
    payload = json.loads(text)
    branches = []
    for b in payload["branches"]:
        branch = QuasiExtremeBranch(
            alpha=b["alpha"],
            beta=b["beta"],
            U=_unitary_from_json(b.get("U")),
            Uprime=_unitary_from_json(b.get("Uprime")),
            conditional_x=b.get("conditional_x", True),
        )
        if max(abs(wrap_angle(b[key] - getattr(branch, key))) for key in ("gamma1", "gamma2")) > ANGLE_TOL:
            raise ValueError("gamma angles inconsistent with (alpha, beta)")
        branches.append(branch)
    branch_b = branches[1] if len(branches) > 1 else None
    return DecompositionPlan(branch_a=branches[0], branch_b=branch_b, p=payload["p"])
