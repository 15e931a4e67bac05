"""Two-branch quasiextreme decomposition of single-qubit channels.

A quasiextreme channel distorts the Bloch ball by
``T = diag(cos nu, cos mu, cos nu cos mu)`` with displacement
``t = (0, 0, sin nu sin mu)`` and is generated by exactly two Kraus
operators::

    K0 = diag(cos beta, cos alpha)      K1 = [[0, sin alpha], [sin beta, 0]]

with ``alpha = (mu + nu) / 2`` and ``beta = (mu - nu) / 2``.  An arbitrary
channel is a convex mix ``p E_a + (1 - p) E_b`` of two such branches, each
dressed by unitaries: ``M_i = U K_i U'``.  This module provides the closed
forms for the five named channels, the decomposition of any other channel
(a split of its own Kraus set into two quasiextreme halves), and the
reconstruction of a channel from a plan.

The ancilla rotation angles obey ``gamma1 = pi/2 - alpha + beta`` and
``gamma2 = alpha + beta - pi/2`` (modulo 2 pi); the circuit-versus-Kraus
equivalence tests pin this relation down.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    AffineRep,
    ChannelKind,
    KrausChannel,
    ZERO_OP_TOL,
    choi_from_transfer,
    cptp_report,
    kraus_transfer,
    pauli_transfer,
    transfer,
)
from .matops import (
    ID2,
    PAULIS,
    _svd3,
    _unitarity_residual_2x2,
    as_cmat,
    complex_to_pairs,
    det3,
    frob_dist,
    pairs_to_complex,
)
from .optics import _su2_entries

U_BPF = np.array([[-1.0j, 0.0], [0.0, 1.0j]], dtype=complex)
U_BPF.flags.writeable = False

ANGLE_TOL = 1e-10
QE_TOL = 1e-8
FIT_MAX_STARTS = 32
FIT_SEED = 7
FIT_TARGET_RESIDUAL = 1e-9
CONVERGED_RESIDUAL = 1e-4
_EPS = np.finfo(float).eps
_PAULI_STACK = np.array(PAULIS)


class NotQuasiExtremeError(ValueError):
    """Raised when an affine map lacks the quasiextreme diagonal structure."""


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = float((a + math.pi) % (2.0 * math.pi) - math.pi)
    return math.pi if w == -math.pi else w


def kraus_from_angles(alpha, beta) -> np.ndarray:
    """The trace-preserving quasiextreme Kraus pair (K0, K1) for angles (alpha, beta), stacked ``(2, 2, 2)``; angle
    arrays of shape ``s`` give ``(2, *s, 2, 2)``."""
    ca, cb, sa, sb = np.cos(alpha), np.cos(beta), np.sin(alpha), np.sin(beta)
    pair = np.zeros((2, *np.shape(ca), 4), dtype=complex)  # row-major entries
    pair[0, ..., 0], pair[0, ..., 3], pair[1, ..., 1], pair[1, ..., 2] = cb, ca, sa, sb
    return pair.reshape(pair.shape[:-1] + (2, 2))


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
        u, up = (as_cmat(np.array(m, dtype=complex), 2) for m in (self.U, self.Uprime))  # copies, read-only below
        _check_dressings(u.ravel().tolist(), up.ravel().tolist())
        u.flags.writeable = up.flags.writeable = False
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

    def kraus_pair(self) -> np.ndarray:
        """Effective bare Kraus pair (K0, K1) stacked ``(2, 2, 2)``; without the conditional x, K1 is X K1, diagonal."""
        pair = kraus_from_angles(self.alpha, self.beta)
        if not self.conditional_x:
            pair[1] = pair[1, ::-1]
        return pair


def _check_dressings(u: list, uprime: list) -> None:
    """:class:`QuasiExtremeBranch`'s check of its dressings, given as row-major Python complex entries."""
    # False also where an entry is not finite.
    if not (_unitarity_residual_2x2(*u) <= ANGLE_TOL and _unitarity_residual_2x2(*uprime) <= ANGLE_TOL):
        raise ValueError("branch unitaries must be unitary within 1e-10")


def _branch_from_entries(alpha: float, beta: float, u: list, uprime: list) -> QuasiExtremeBranch:
    """``QuasiExtremeBranch.from_alpha_beta(alpha, beta, U, U')`` for dressings given as row-major Python complex
    entries, checked on those scalars instead of on arrays."""
    _check_dressings(u, uprime)
    pair = np.array(u + uprime).reshape(2, 2, 2)
    pair.flags.writeable = False
    branch = object.__new__(QuasiExtremeBranch)  # the fields as __init__ would set them, without its checks on arrays
    branch.__dict__.update(alpha=wrap_angle(alpha), beta=wrap_angle(beta), U=pair[0], Uprime=pair[1],
                           conditional_x=True)
    return branch


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
    return KrausChannel(tuple(np.array(_plan_vecs(plan)).reshape(-1, 2, 2).swapaxes(1, 2)))


def _plan_vecs(plan: DecompositionPlan) -> list:
    """The Kraus operators of :func:`plan_to_channel` as their vecs, vec K[2 j + a] = K[a, j] as in to_choi, from
    scalar entries: one 4-tuple of Python complex numbers per operator.  The unitaries keep ||K||, so an operator
    is dropped as zero by the norm of its bare K."""
    vecs = []
    for branch, weight in ((plan.branch_a, plan.p), (plan.branch_b, 1.0 - plan.p)):
        if branch is None:
            continue
        root = math.sqrt(weight)
        cb, ca, sa, sb = (root * math.cos(branch.beta), root * math.cos(branch.alpha), root * math.sin(branch.alpha),
                          root * math.sin(branch.beta))
        u00, u01, u10, u11 = branch.U.ravel().tolist()
        v00, v01, v10, v11 = branch.Uprime.ravel().tolist()
        # U K0 for K0 = diag(cos beta, cos alpha), and U K1 for K1 = [[0, sin alpha], [sin beta, 0]], or for
        # X K1 = diag(sin beta, sin alpha) without the conditional x; then (U K) U'.
        uk = []
        if math.hypot(cb, ca) >= ZERO_OP_TOL:
            uk.append((u00 * cb, u01 * ca, u10 * cb, u11 * ca))
        if math.hypot(sa, sb) >= ZERO_OP_TOL:
            uk.append((u01 * sb, u00 * sa, u11 * sb, u10 * sa) if branch.conditional_x else
                      (u00 * sb, u01 * sa, u10 * sb, u11 * sa))
        vecs += [(a * v00 + b * v10, c * v00 + d * v10, a * v01 + b * v11, c * v01 + d * v11) for a, b, c, d in uk]
    return vecs


def _plan_choi(plan: DecompositionPlan) -> np.ndarray:
    """``to_choi(plan_to_channel(plan))`` as one Gram product J = V^T conj(V) of the stacked vecs V: einsum takes
    to_choi's sums, so the two agree to the last bit."""
    vecs = np.array(_plan_vecs(plan))
    return np.einsum("ki,kj->ij", vecs, vecs.conj())


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
    nu_mu = _nu_mu(float(T[0, 0]), float(T[1, 1]), float(T[2, 2]), float(t[2]))
    if isinstance(nu_mu, str):
        raise NotQuasiExtremeError(nu_mu)
    return AngleNuMu(*nu_mu)


def _nu_mu(cnu: float, cmu: float, prod: float, tz: float) -> tuple[float, float] | str:
    """The rest of :func:`extract_nu_mu` on floats: (nu, mu), or why there is none.  nu and mu come from numpy's
    arccos and arctan2, whose last bits can differ from the math module's."""
    if abs(cnu) > 1.0 + QE_TOL or abs(cmu) > 1.0 + QE_TOL:
        return "diagonal entries exceed unit magnitude"
    nu = float(np.arccos(min(max(cnu, -1.0), 1.0)))
    snu = math.sin(nu)
    if snu > QE_TOL:
        mu = float(np.arctan2(tz / snu, cmu))
    else:
        mu = float(np.arccos(min(max(cmu, -1.0), 1.0)))
    if abs(math.cos(nu) * math.cos(mu) - prod) > QE_TOL or abs(snu * math.sin(mu) - tz) > QE_TOL:
        return "diagonal and displacement are mutually inconsistent"
    if abs(math.cos(mu) - cmu) > QE_TOL:
        return "second diagonal entry is not a cosine consistent with t_z"
    return nu, mu


def branch_from_nu_mu(nm: AngleNuMu, U=None, Uprime=None) -> QuasiExtremeBranch:
    return QuasiExtremeBranch.from_alpha_beta((nm.mu + nm.nu) / 2.0, (nm.mu - nm.nu) / 2.0, U=U, Uprime=Uprime)


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit_plan`.

    ``starts_used`` is 0 for a plan from the closed-form stage, else the number of
    seeded split starts drawn.  ``plan`` is None, with an infinite residual, only
    when no start yielded two branches.
    """

    plan: DecompositionPlan | None
    residual: float
    starts_used: int

    @property
    def converged(self) -> bool:
        return self.residual <= CONVERGED_RESIDUAL


# The 24 proper signed 3x3 permutation matrices P, P[perm[i], i] = signs[i], as (perm, the 4 signs of that perm), and
# the 4 diagonal sign matrices S of determinant +1.
_ROT_PERMS = [(perm, [signs for signs in itertools.product((1.0, -1.0), repeat=3)
                      if det3([[signs[c] if perm[c] == r else 0.0 for c in range(3)] for r in range(3)]) > 0])
              for perm in itertools.permutations(range(3))]
_DET1_SIGNS = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]


def _frame_turned_to_t(left, s, right, lt):
    """The SVD frame of T = L diag(s) R^T, turned where |s| repeats so that t's share there is on one axis.

    ``left`` holds the rows of L, ``right`` the columns of R and ``lt`` = L^T t, all as lists; returns them turned.
    Inside a block of equal |s| (T = 0 of a rotated reset, the zero pair of a T-rank-1 channel) the frame
    is arbitrary, and a share of L^T t spread over the block's axes hides the quasiextreme form from the
    permutation scan.  L turns by the rotation G that puts the share on one axis, R by D G D with D the
    signs of s, which leaves L diag(s) R^T alone; L^T t becomes G^T L^T t, the share's length on that axis.
    """
    a, b, c = map(abs, s)  # sorted, so a repeated value is a block of neighbours
    block = [0, 1, 2] if a - c <= QE_TOL else [0, 1] if a - b <= QE_TOL else [1, 2] if b - c <= QE_TOL else []
    if not block:
        return left, right, lt
    share = [lt[i] if i in block else 0.0 for i in range(3)]
    k = max(range(3), key=lambda i: abs(share[i]))
    if math.hypot(*(share[i] for i in range(3) if i != k)) <= 8.0 * _EPS:  # round-off, as t of a unitary channel
        return left, right, lt
    # The rotation G that takes +-e_k to the unit share, about their cross product v (Rodrigues):
    # G = I + [v]x + [v]x^2 / (1 + e_k . share), with [v]x^2 = v v^T - |v|^2 I.
    norm = math.hypot(*share)
    unit = [x / norm for x in share]
    sign = math.copysign(1.0, share[k])
    axis = [sign if i == k else 0.0 for i in range(3)]
    v = [axis[1] * unit[2] - axis[2] * unit[1], axis[2] * unit[0] - axis[0] * unit[2],
         axis[0] * unit[1] - axis[1] * unit[0]]
    vx = [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    scale, vv = 1.0 / (1.0 + abs(unit[k])), v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    turn = [[(i == j) + vx[i][j] + (v[i] * v[j] - (i == j) * vv) * scale for j in range(3)] for i in range(3)]
    d = [-1.0 if x < 0.0 else 1.0 for x in s]
    left = [[sum(row[m] * turn[m][j] for m in range(3)) for j in range(3)] for row in left]
    right = [[sum(right[m][i] * d[m] * turn[m][j] for m in range(3)) * d[j] for i in range(3)] for j in range(3)]
    lt = [sign * norm if i == k else 0.0 if i in block else lt[i] for i in range(3)]
    return left, right, lt


def _single_branch_candidates(s):
    """Closed-form branches of the channel with transfer matrix ``s``, if it is a rotated quasiextreme map.

    Reads T and t off :func:`qchansim.channels.pauli_transfer` and writes T = L diag(s) R^T with one LAPACK
    call, signed to rotations on floats (:func:`qchansim.matops._svd3`), then turns the frame
    (:func:`_frame_turned_to_t`) and scans the finite set of axis relabellings P, Q = P S (proper signed
    permutations) under which P^T diag(s) Q matches the quasiextreme diagonal and L^T t points along z.
    P^T diag(s) Q = diag(s[perm] * S) and (L P)^T t = signs * (L^T t)[perm] are read off as floats, exactly.
    Every hit yields the branch of an exact p = 1 plan, generated lazily so that the caller can stop at the
    first one.  Its dressings U = su2(L P) and U' = su2((R Q)^T) come from the signed, permuted columns of L
    and R, through the float core of :func:`qchansim.optics.su2_from_rotation` with its rotation check, and
    the branch checks them on those scalars.
    """
    m = pauli_transfer(s)
    left, sv, right = _svd3(m[1:, 1:])
    lt = (np.array(left).T @ m[1:, 0]).tolist()  # numpy's fused sums: t_z's last bits, so nu and mu, depend on them
    left, right, lt = _frame_turned_to_t(left, sv, right, lt)
    for axes, perm_signs in _ROT_PERMS:
        if abs(lt[axes[0]]) > QE_TOL or abs(lt[axes[1]]) > QE_TOL:  # the signs of P leave |(L P)^T t| alone
            continue
        s0, s1, s2 = (sv[axis] for axis in axes)
        for signs in perm_signs:
            tz, u = signs[2] * lt[axes[2]], None
            for sign in _DET1_SIGNS:
                nu_mu = _nu_mu(s0 * sign[0], s1 * sign[1], s2 * sign[2], tz)
                if isinstance(nu_mu, str):
                    continue
                # Row i of L P is L[i, perm] * signs, row c of (R P S)^T is R[:, perm[c]] * signs[c] S[c]; + 0.0
                # gives a zero entry the sign that a matrix product gives it.
                if u is None:
                    u = _su2_entries([[row[axis] * sg + 0.0 for axis, sg in zip(axes, signs)] for row in left])
                up = _su2_entries([[x * (sg * d) + 0.0 for x in right[axis]]
                                   for axis, sg, d in zip(axes, signs, sign)])
                nu, mu = nu_mu
                yield _branch_from_entries((mu + nu) / 2.0, (mu - nu) / 2.0, u, up)


def _mixed_plan(p: float, a: QuasiExtremeBranch, b: QuasiExtremeBranch) -> DecompositionPlan:
    """p a + (1 - p) b with the heavier branch first and the weight snapped to the boundary."""
    if p < 0.5:
        a, b, p = b, a, 1.0 - p
    if p > 1.0 - 1e-12:
        return DecompositionPlan(branch_a=a, branch_b=None, p=1.0)
    return DecompositionPlan(branch_a=a, branch_b=b, p=p)


def _exact_branch_plan(s: np.ndarray, choi: np.ndarray):
    """The first p = 1 plan of :func:`_single_branch_candidates` within ``FIT_TARGET_RESIDUAL`` of the channel with
    transfer matrix ``s`` and Choi matrix ``choi``, with its Choi distance; None if there is none."""
    for branch in _single_branch_candidates(s):
        plan = DecompositionPlan(branch_a=branch, branch_b=None, p=1.0)
        r = frob_dist(_plan_choi(plan), choi)
        if r <= FIT_TARGET_RESIDUAL:
            return plan, r
    return None


def _inv_sqrt_psd(a: float, b: complex, d: float):
    """M^(-1/2) of the positive definite M = [[a, b], [conj b, d]], as nested lists: with s = sqrt(det M),
    sqrt(M) = (M + s I) / sqrt(Tr M + 2 s)."""
    s = math.sqrt(a * d - abs(b) ** 2)
    st = s * math.sqrt(a + d + 2.0 * s)
    return [[(d + s) / st, -b / st], [-b.conjugate() / st, (a + s) / st]]


def _polar_turn(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    """[[P, -W^dag Q], [W P, Q]] for W = [[a, b], [c, d]], P = (I + W^dag W)^(-1/2) and Q = (I + W W^dag)^(-1/2): a
    4x4 unitary, and [Y Z] times it is [(Y + Z W) P, (Z - Y W^dag) Q]."""
    (p00, p01), (p10, p11) = _inv_sqrt_psd(1.0 + abs(a) ** 2 + abs(c) ** 2, a.conjugate() * b + c.conjugate() * d,
                                           1.0 + abs(b) ** 2 + abs(d) ** 2)
    (q00, q01), (q10, q11) = _inv_sqrt_psd(1.0 + abs(a) ** 2 + abs(b) ** 2, a * c.conjugate() + b * d.conjugate(),
                                           1.0 + abs(c) ** 2 + abs(d) ** 2)
    a_, b_, c_, d_ = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    return np.array([[p00, p01, -(a_ * q00 + c_ * q10), -(a_ * q01 + c_ * q11)],
                     [p10, p11, -(b_ * q00 + d_ * q10), -(b_ * q01 + d_ * q11)],
                     [a * p00 + b * p10, a * p01 + b * p11, q00, q01],
                     [c * p00 + d * p10, c * p01 + d * p11, q10, q11]])


def _solve_psd3(a, r):
    """x with a x = r for a symmetric positive semidefinite 3x3 ``a`` (nested lists), and the number of unknowns left.
    Symmetric elimination pivoting on the largest remaining diagonal entry, stable however ill-conditioned ``a`` is.
    A pivot at round-off, at most 8 eps times the first, ends it: the unknowns left are 0, their equations unsolved."""
    i, j, k = (0, 1, 2) if a[0][0] >= max(a[1][1], a[2][2]) else (1, 0, 2) if a[1][1] >= a[2][2] else (2, 0, 1)
    tol, x = 8.0 * _EPS * a[i][i], [0.0, 0.0, 0.0]
    if not a[i][i] > tol:  # a = 0, or not finite
        return x, 3
    lj, lk = a[j][i] / a[i][i], a[k][i] / a[i][i]  # eliminate unknown i: s is the Schur complement on (j, k)
    sjj, skk, sjk = a[j][j] - lj * a[i][j], a[k][k] - lk * a[i][k], a[j][k] - lj * a[i][k]
    rj, rk = r[j] - lj * r[i], r[k] - lk * r[i]
    if skk > sjj:
        j, k, sjj, skk, rj, rk = k, j, skk, sjj, rk, rj
    left = 2
    if sjj > tol:  # eliminate unknown j: what is left of s[k][k] is the last pivot
        lk, left = sjk / sjj, 1
        if skk - lk * sjk > tol:
            x[k], left = (rk - lk * rj) / (skk - lk * sjk), 0
        x[j] = (rj - sjk * x[k]) / sjj
    x[i] = (r[i] - a[i][j] * x[j] - a[i][k] * x[k]) / a[i][i]
    return x, left


def _start_frames(seed):
    """Random starts [Y Z] of :func:`_kraus_split` from ``default_rng(seed)``: unitaries of complete QRs of complex
    Gaussian 4x2 matrices."""
    rng = np.random.default_rng(seed)
    while True:
        yield np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)), mode="complete")[0]


@functools.cache
def _first_frame() -> np.ndarray:
    """fit_plan's first start, ``next(_start_frames(FIT_SEED))``: drawn once per process, on first use, read-only."""
    frame = next(_start_frames(FIT_SEED))
    frame.flags.writeable = False
    return frame


def _kraus_split(kraus, frame):
    """Cut a trace-preserving set of four Kraus operators into two weighted trace-preserving pairs.

    For an orthonormal 2-plane Y of Kraus space and its complement Z, the operators L_a = sum_i Y[i, a] K_i
    and L'_b = sum_i Z[i, b] K_i are another Kraus set of the same channel.  Each pair sums to a multiple
    of I, sum L^dag L = p I, when Y solves the three real equations g_k = Tr(Y^dag B_k Y) = 0 with
    B_k[i, j] = Tr(sigma_k K_i^dag K_j).  From the start ``frame`` = [Y Z], a 4x4 unitary, least-norm
    Newton steps over the tangent directions Y + Z W solve them until |g| <= 4 eps or 50 steps are taken.
    Each step solves its 3x3 normal equations in floats (:func:`_solve_psd3`) and is the polar update
    Y <- (Y + Z W)(I + W^dag W)^(-1/2), Z <- (Z - Y W^dag)(I + W W^dag)^(-1/2), which keeps [Y Z]
    unitary and spans the plane a QR of Y + Z W would.  Near a solution where the equations lose rank
    (the fully depolarizing channel), the normal equations turn singular at round-off; once |g| <= 1e-6
    the step leaves out their null direction, and before that the start fails.  Returns
    (p, L / sqrt(p), L' / sqrt(1 - p)), or None when the start fails or a pair has no weight.
    """
    vecs = kraus.reshape(4, 4)
    b_rows = vecs.conj() @ (kraus @ _PAULI_STACK[:, None]).reshape(12, 4).T  # [B_0 B_1 B_2]
    for _ in range(50):
        m = (frame[:, :2].conj().T @ b_rows).reshape(6, 4) @ frame  # row 3 a + k: row a of Y^dag B_k [Y Z]
        g = [m_k[0].real + m_3k[1].real for m_k, m_3k in zip(m[:3].tolist(), m[3:].tolist())]
        gg = g[0] * g[0] + g[1] * g[1] + g[2] * g[2]
        if gg <= (4.0 * _EPS) ** 2:
            break
        # g_k(Y + Z W) = g_k + 2 Re Tr(C_k W) + O(W^2), C_k = Y^dag B_k Z; W[b, a] pairs with C_k[a, b].  With the
        # rows c_k of the C_k^T, the least-norm W solving 2 Re(c W) = -g is c^dag x, Re(c c^dag) x = -g / 2.
        c = m[:, 2:].reshape(2, 3, 2).transpose(1, 2, 0).reshape(3, 4)
        x, left = _solve_psd3((c @ c.conj().T).real.tolist(), [-0.5 * g_k for g_k in g])
        if left and gg > 1e-6 ** 2:
            return None
        frame = frame @ _polar_turn(*(c.conj().T @ x).tolist())
    mixed = (frame.T @ vecs).reshape(4, 2, 2)
    p = float(np.vdot(mixed[:2], mixed[:2]).real) / 2.0
    if not 0.0 < p < 1.0:
        return None
    return p, mixed[:2] / math.sqrt(p), mixed[2:] / math.sqrt(1.0 - p)


def fit_plan(ch: KrausChannel) -> FitResult:
    """Two-branch plan of an arbitrary CPTP channel.

    Stage one recognizes rotated single-branch channels in closed form from the
    signed SVD of the distortion matrix; any two-Kraus channel lands here with
    residual at the arithmetic floor, and the first candidate within
    ``FIT_TARGET_RESIDUAL`` is kept.  It is skipped when the target's two smallest
    Choi eigenvalues already put every two-Kraus channel farther away.

    Stage two splits the target's own Kraus set in two.  The Choi matrix is first projected onto
    the trace-preserving subspace, J - (Tr_out J - I) (x) I / 2, the nearest trace-preserving
    matrix to a target that is slightly off (a Kraus file rounded by hand).  Its eigenvectors
    scaled by the square roots of their eigenvalues are a Kraus set of four, made exactly trace
    preserving, K -> K (sum K^dag K)^(-1/2).  :func:`_kraus_split` mixes it into two pairs that
    are each a weighted trace-preserving channel, and stage one turns each pair into a branch:
    its first candidate, or, where that plan misses, the first candidate that reproduces its
    pair.  The plan reproduces the target's Choi matrix by construction, so one seeded start almost
    always suffices: the first frame from ``FIT_SEED``, drawn once per process, on first use.  Further starts continue
    that stream until a plan lands within ``FIT_TARGET_RESIDUAL`` or ``FIT_MAX_STARTS`` are spent,
    and the lowest residual, first start on ties, is kept.  The CPTP check and the skip of stage
    one read the unprojected target.

    Non-convergence (residual above ``CONVERGED_RESIDUAL``) is reported in
    the result, not raised.  When no start yields two branches the result has
    ``plan=None`` and an infinite residual.
    """
    transfer_matrix = transfer(ch)
    target = choi_from_transfer(transfer_matrix)
    hermitian = (target + target.conj().T) / 2.0
    eigenvalues = np.linalg.eigvalsh(hermitian)
    if not cptp_report(target, eigenvalues).ok:
        raise ValueError("fit_plan requires a CPTP channel")

    # A candidate has two Kraus operators, so Choi rank <= 2: by Eckart-Young it is at least the root-sum-square
    # of the target's two smallest |eigenvalues| away, and stage one cannot succeed when that exceeds the target.
    if math.hypot(*np.sort(np.abs(eigenvalues))[:2]) <= FIT_TARGET_RESIDUAL:
        found = _exact_branch_plan(transfer_matrix, target)
        if found is not None:
            return FitResult(plan=found[0], residual=float(found[1]), starts_used=0)

    # Subtract (Tr_out J - I) (x) I / 2, whose entry [(i, a), (j, b)] is (Tr_out J - I)[i, j] I[a, b] / 2.
    off_tp = np.trace(hermitian.reshape(2, 2, 2, 2), axis1=1, axis2=3) - ID2
    projected = hermitian - (off_tp[:, None, :, None] * ID2[:, None, :]).reshape(4, 4) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(projected)
    # Column i of the eigenvectors is vec K_i, vec K[2 j + a] = K[a, j], as in to_choi.
    kraus = (np.sqrt(np.maximum(eigenvalues, 0.0))[:, None] * eigenvectors.T).reshape(4, 2, 2).swapaxes(1, 2)
    (a, b), (_, d) = (kraus.reshape(8, 2).conj().T @ kraus.reshape(8, 2)).tolist()  # sum K^dag K
    kraus = kraus @ np.array(_inv_sqrt_psd(a.real, b, d.real))
    # A start is exact once its plan reproduces this Kraus set.  A target off trace preservation by more than
    # FIT_TARGET_RESIDUAL (a Kraus file rounded by hand) is that far from every plan, and further starts cannot help.
    split_target = choi_from_transfer(kraus_transfer(kraus))
    best_plan, best_res = None, math.inf
    frames = itertools.chain([_first_frame()], itertools.islice(_start_frames(FIT_SEED), 1, None))  # one stream
    for starts_used, frame in zip(range(1, FIT_MAX_STARTS + 1), frames):
        split = _kraus_split(kraus, frame)
        if split is None:
            continue
        p, *pairs = split
        halves = [kraus_transfer(pair) for pair in pairs]
        branches = [next(_single_branch_candidates(s), None) for s in halves]
        if None in branches:
            continue
        plan = _mixed_plan(p, *branches)
        choi = _plan_choi(plan)
        exact = frob_dist(choi, split_target) <= FIT_TARGET_RESIDUAL
        if not exact:
            # A half's first candidate can miss it by ~1e-9 (an exactly unital half: extract_nu_mu's nu comes from an
            # arccos near 0), where a later candidate of the same scan reproduces it; that is tried before a new start.
            found = [_exact_branch_plan(s, choi_from_transfer(s)) for s in halves]
            if None not in found:
                plan = _mixed_plan(p, found[0][0].branch_a, found[1][0].branch_a)
                choi = _plan_choi(plan)
                exact = frob_dist(choi, split_target) <= FIT_TARGET_RESIDUAL
        r = frob_dist(choi, target)
        if r < best_res:
            best_plan, best_res = plan, r
        if exact:
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
