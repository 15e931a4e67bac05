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

import cmath
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
    _cptp_parts,
    _tp_defect,
)
from .matops import (
    ID2,
    PAULIS,
    _unitarity_residual_2x2,
    as_cmat,
    complex_to_pairs,
    frob_dist,
    pairs_to_complex,
)

U_BPF = np.array([[-1.0j, 0.0], [0.0, 1.0j]], dtype=complex)
U_BPF.flags.writeable = False

ANGLE_TOL = 1e-10
QE_TOL = 1e-8
FIT_MAX_STARTS = 32
FIT_SEED = 7
FIT_TARGET_RESIDUAL = 1e-9
FIT_ROUNDOFF_RESIDUAL = 1e-11  # what fit_plan reaches on an exactly trace-preserving target, with margin
CONVERGED_RESIDUAL = 1e-4
_EPS = float(np.finfo(float).eps)  # a Python float: the Newton loop compares against it on every step
# vec(K sigma_k) = vec K (I (x) sigma_k) for row-major vec: column 6 a + 2 k + b of vec K times this 4x12 is
# vec(K sigma_k)[2 a + b].
_RIGHT_PAULIS = np.kron(ID2, np.hstack(PAULIS))


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
    cnu, cmu, prod, tz = float(T[0, 0]), float(T[1, 1]), float(T[2, 2]), float(t[2])
    if abs(cnu) > 1.0 + QE_TOL or abs(cmu) > 1.0 + QE_TOL:
        raise NotQuasiExtremeError("diagonal entries exceed unit magnitude")
    nu = float(np.arccos(min(max(cnu, -1.0), 1.0)))
    snu = math.sin(nu)
    if snu > QE_TOL:
        mu = float(np.arctan2(tz / snu, cmu))
    else:
        mu = float(np.arccos(min(max(cmu, -1.0), 1.0)))
    if abs(math.cos(nu) * math.cos(mu) - prod) > QE_TOL or abs(snu * math.sin(mu) - tz) > QE_TOL:
        raise NotQuasiExtremeError("diagonal and displacement are mutually inconsistent")
    if abs(math.cos(mu) - cmu) > QE_TOL:
        raise NotQuasiExtremeError("second diagonal entry is not a cosine consistent with t_z")
    return AngleNuMu(nu, mu)


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


def _offdiagonal_frame(a0, a1, a2, a3, b0, b1, b2, b3) -> tuple:
    """(c, w) of an SU(2) frame [[c, -conj w], [w, c]] in which the traceless part of B adj(A) is off-diagonal, for
    A = [[a0, a1], [a2, a3]] and B given as row-major Python complex entries.

    With q the Pauli components of that part (up to a common factor), v^dag (q . sigma) v = q . n for a column v of
    Bloch vector n, so the first column's n (or -n; nz >= 0 is taken, so c >= 1/sqrt 2) is a unit normal to Re q and
    Im q: n = e1 x e2, with e1 the unit vector of the longer of the two and e2 the unit remainder of the other after
    its e1 part is taken out twice, so that n is normal to e1 to round-off however close to parallel the two are.
    Where they are parallel, or q = 0, every normal serves: e1 x the axis e1 leans on least, or the z axis."""
    m00, m01, m10, m11 = b0 * a3 - b1 * a2, b1 * a0 - b0 * a1, b2 * a3 - b3 * a2, b3 * a0 - b2 * a1  # B adj(A)
    qx, qy, qz = m01 + m10, 1j * (m01 - m10), m00 - m11
    ax, ay, az, bx, by, bz = qx.real, qy.real, qz.real, qx.imag, qy.imag, qz.imag
    aa, bb = ax * ax + ay * ay + az * az, bx * bx + by * by + bz * bz
    if bb > aa:
        ax, ay, az, bx, by, bz, aa = bx, by, bz, ax, ay, az, bb
    if not aa > 0.0:
        return 1.0, 0j
    norm = math.sqrt(aa)
    ax, ay, az = ax / norm, ay / norm, az / norm
    for _ in range(2):
        d = bx * ax + by * ay + bz * az
        bx, by, bz = bx - d * ax, by - d * ay, bz - d * az
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx  # e1 x (e2 |b|)
    nn = nx * nx + ny * ny + nz * nz
    if not nn >= 0.25 * (bx * bx + by * by + bz * bz) > 0.0:  # b was round-off along e1
        k = min((abs(ax), 0), (abs(ay), 1), (abs(az), 2))[1]
        nx, ny, nz = (0.0, az, -ay) if k == 0 else (-az, 0.0, ax) if k == 1 else (ay, -ax, 0.0)
        nn = nx * nx + ny * ny + nz * nz
    norm = math.copysign(math.sqrt(nn), nz)
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    c = math.sqrt((1.0 + nz) / 2.0)
    return c, complex(nx, ny) / (2.0 * c)


def _pair_branch(pair) -> QuasiExtremeBranch:
    """The branch of a trace-preserving Kraus pair (L_0, L_1), given as the 8 row-major Python complex entries of L_0
    then L_1, read off the pair in closed form.

    A branch's pair is L_k = sum_a V[k, a] U K_a U' for a Kraus mix V and K_0 = diag(cos beta, cos alpha),
    K_1 = [[0, sin alpha], [sin beta, 0]].  The traceless part of B adj(A) is antisymmetric and bilinear in (A, B), so
    a mix only scales it by det V: that of L_1 adj(L_0) is U (K_1 adj K_0) U^dag up to a factor, off-diagonal in the
    output frame U.  Likewise, with N_j the 2x2 matrix of rows j of L_0 and L_1, that of N_1 adj(N_0) is
    V [[0, cos alpha cos beta], [sin alpha sin beta, 0]] V^dag up to a factor, off-diagonal in the Kraus frame V.  Both
    frames come from these two products (:func:`_offdiagonal_frame`), with no eigenvalue gap to lose digits on.  Then,
    with Lt = V^dag L, row a of U^dag Lt_k is c_ka times row a (k = 0) or row 1 - a (k = 1) of U'.  Row 0 of U' is
    the longer of rows 0 of U^dag Lt_0 and 1 of U^dag Lt_1, made a unit row, and row 1 its SU(2) partner; the c_ka are
    projections on them.  beta = atan2(|c_11|, |c_00|) and alpha = atan2(|c_10|, |c_01|), at full precision.  The
    phases of the c_ka go into the dressings: the invariant arg c_00 + arg c_11 - arg c_01 - arg c_10 into the second
    row of U', the rest into the columns of U, and both keep determinant 1.  This is exact also where a frame is
    arbitrary: for a unitary pair (L_1 adj L_0 = 0), a reset (N_1 adj N_0 = 0) or complete dephasing (q real up to a
    phase)."""
    l0, l1, l2, l3, m0, m1, m2, m3 = pair
    c, w = _offdiagonal_frame(*pair)  # U = [[c, -conj w], [w, c]]
    cv, wv = _offdiagonal_frame(l0, l1, m0, m1, l2, l3, m2, m3)  # V, likewise
    wc, wvc = w.conjugate(), wv.conjugate()
    # Lt_0 = conj(V[0, 0]) L_0 + conj(V[1, 0]) L_1 = t and Lt_1 = conj(V[0, 1]) L_0 + conj(V[1, 1]) L_1 = s; r_ka is
    # row a of U^dag Lt_k, U^dag = [[c, conj w], [-w, c]].
    t0, t1, t2, t3 = cv * l0 + wvc * m0, cv * l1 + wvc * m1, cv * l2 + wvc * m2, cv * l3 + wvc * m3
    s0, s1, s2, s3 = cv * m0 - wv * l0, cv * m1 - wv * l1, cv * m2 - wv * l2, cv * m3 - wv * l3
    r00, r01 = (c * t0 + wc * t2, c * t1 + wc * t3), (c * t2 - w * t0, c * t3 - w * t1)
    r10, r11 = (c * s0 + wc * s2, c * s1 + wc * s3), (c * s2 - w * s0, c * s3 - w * s1)
    x0, x1 = r00 if abs(r00[0]) ** 2 + abs(r00[1]) ** 2 >= abs(r11[0]) ** 2 + abs(r11[1]) ** 2 else r11
    norm = math.sqrt(abs(x0) ** 2 + abs(x1) ** 2)  # > 0 for a trace-preserving pair: cos^2 beta + sin^2 beta = 1
    p0, p1 = x0 / norm, x1 / norm  # row 0 of U'; row 1 is (-conj p1, conj p0)
    p0c, p1c = p0.conjugate(), p1.conjugate()
    c00, c11 = r00[0] * p0c + r00[1] * p1c, r11[0] * p0c + r11[1] * p1c
    c01, c10 = r01[1] * p0 - r01[0] * p1, r10[1] * p0 - r10[0] * p1
    f00, f01, f10, f11 = cmath.phase(c00), cmath.phase(c01), cmath.phase(c10), cmath.phase(c11)
    d = cmath.exp(0.25j * (f00 - f01 + f10 - f11))  # U -> U diag(d, conj d)
    e = cmath.exp(0.25j * (f00 - f01 - f10 + f11))  # U' -> diag(e, conj e) U'
    dc, ec = d.conjugate(), e.conjugate()
    return _branch_from_entries(math.atan2(abs(c10), abs(c01)), math.atan2(abs(c11), abs(c00)),
                                [c * d, -wc * dc, w * d, c * dc], [p0 * e, p1 * e, -p1c * ec, p0c * ec])


def _mixed_plan(p: float, a: QuasiExtremeBranch, b: QuasiExtremeBranch) -> DecompositionPlan:
    """p a + (1 - p) b with the heavier branch first and the weight snapped to the boundary."""
    if p < 0.5:
        a, b, p = b, a, 1.0 - p
    if p > 1.0 - 1e-12:
        return DecompositionPlan(branch_a=a, branch_b=None, p=1.0)
    return DecompositionPlan(branch_a=a, branch_b=b, p=p)


def _inv_sqrt_psd(a: float, b: complex, d: float) -> tuple:
    """M^(-1/2) of the positive definite M = [[a, b], [conj b, d]], as its row-major entries: with s = sqrt(det M),
    sqrt(M) = (M + s I) / sqrt(Tr M + 2 s)."""
    s = math.sqrt(a * d - abs(b) ** 2)
    st = s * math.sqrt(a + d + 2.0 * s)
    return (d + s) / st, -b / st, -b.conjugate() / st, (a + s) / st


def _polar_turn(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    """[[P, -W^dag Q], [W P, Q]] for W = [[a, b], [c, d]], P = (I + W^dag W)^(-1/2) and Q = (I + W W^dag)^(-1/2): a
    4x4 unitary, and [Y Z] times it is [(Y + Z W) P, (Z - Y W^dag) Q]."""
    aa, bb, cc, dd = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2, abs(d) ** 2
    a_, b_, c_, d_ = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    p00, p01, p10, p11 = _inv_sqrt_psd(1.0 + aa + cc, a_ * b + c_ * d, 1.0 + bb + dd)
    q00, q01, q10, q11 = _inv_sqrt_psd(1.0 + aa + bb, a * c_ + b * d_, 1.0 + cc + dd)
    return np.array([p00, p01, -(a_ * q00 + c_ * q10), -(a_ * q01 + c_ * q11),
                     p10, p11, -(b_ * q00 + d_ * q10), -(b_ * q01 + d_ * q11),
                     a * p00 + b * p10, a * p01 + b * p11, q00, q01,
                     c * p00 + d * p10, c * p01 + d * p11, q10, q11]).reshape(4, 4)


def _re_inner(u, v) -> float:
    """Re(u . conj v) of two 4-vectors of Python complex numbers."""
    return (u[0] * v[0].conjugate() + u[1] * v[1].conjugate() + u[2] * v[2].conjugate()
            + u[3] * v[3].conjugate()).real


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
    A step takes one product (Y^dag [B_0 B_1 B_2]) [Y Z] and reads it once as Python numbers: g, the rows
    c_k of the C_k^T for C_k = Y^dag B_k Z, the 3x3 normal equations Re(c c^dag) x = -g / 2 and
    W = c^dag x are scalar arithmetic, and the normal equations are solved in floats (:func:`_solve_psd3`).
    The step is the polar update Y <- (Y + Z W)(I + W^dag W)^(-1/2), Z <- (Z - Y W^dag)(I + W W^dag)^(-1/2)
    (:func:`_polar_turn`), which keeps [Y Z] unitary and spans the plane a QR of Y + Z W would; ``frame.dot(turn)``
    is the step's other array product.  Near a solution where the equations lose rank (the fully depolarizing
    channel), the normal equations turn singular at round-off; once |g| <= 1e-6 the step leaves out their null
    direction, and before that the start fails.  Returns (p, pairs) with the stack ``pairs`` =
    [L / sqrt(p), L' / sqrt(1 - p)] of shape ``(2, 2, 2, 2)``, or None when the start fails or a pair has no weight.
    """
    vecs = kraus.reshape(4, 4)
    # [B_0 B_1 B_2] with B_k[i, j] = vec K_i^* . vec(K_j sigma_k): one product gives every vec(K_j sigma_k), which
    # is laid out as rows m, columns (k, j).
    b_rows = vecs.conj().dot(vecs.dot(_RIGHT_PAULIS).reshape(4, 2, 3, 2).transpose(1, 3, 2, 0).reshape(4, 12))
    for _ in range(50):
        # Row 3 a + k is row a of Y^dag B_k [Y Z]: Tr(Y^dag B_k Y) from columns 0-1, C_k = Y^dag B_k Z in columns 2-3.
        t0, t1, t2, b0, b1, b2 = frame[:, :2].conj().T.dot(b_rows).reshape(6, 4).dot(frame).tolist()
        g = [t0[0].real + b0[1].real, t1[0].real + b1[1].real, t2[0].real + b2[1].real]
        gg = g[0] * g[0] + g[1] * g[1] + g[2] * g[2]
        if gg <= (4.0 * _EPS) ** 2:
            break
        # g_k(Y + Z W) = g_k + 2 Re Tr(C_k W) + O(W^2); W[b, a] pairs with C_k[a, b].  With the rows
        # c_k = (C_k[0, 0], C_k[1, 0], C_k[0, 1], C_k[1, 1]), the least-norm W solving 2 Re(c W) = -g is c^dag x,
        # with Re(c c^dag) x = -g / 2.
        c0, c1, c2 = (t0[2], b0[2], t0[3], b0[3]), (t1[2], b1[2], t1[3], b1[3]), (t2[2], b2[2], t2[3], b2[3])
        n01, n02, n12 = _re_inner(c0, c1), _re_inner(c0, c2), _re_inner(c1, c2)
        x, left = _solve_psd3([[_re_inner(c0, c0), n01, n02], [n01, _re_inner(c1, c1), n12],
                               [n02, n12, _re_inner(c2, c2)]], [-0.5 * g[0], -0.5 * g[1], -0.5 * g[2]])
        if left and gg > 1e-6 ** 2:
            return None
        x0, x1, x2 = x
        frame = frame.dot(_polar_turn(*((x0 * u + x1 * v + x2 * w).conjugate() for u, v, w in zip(c0, c1, c2))))
    pairs = frame.T.dot(vecs).reshape(2, 2, 2, 2)
    p = float(np.vdot(pairs[0], pairs[0]).real) / 2.0
    if not 0.0 < p < 1.0:
        return None
    pairs[0] /= math.sqrt(p)
    pairs[1] /= math.sqrt(1.0 - p)
    return p, pairs


def fit_plan(ch: KrausChannel) -> FitResult:
    """Two-branch plan of an arbitrary CPTP channel.

    The CPTP check is :func:`qchansim.channels.validate_channel`'s, and its Choi matrix (one Gram product of the Kraus
    vecs) and eigenvalues serve the rest of the fit.

    Stage one recognizes rotated single-branch channels: a Kraus pair of the target (its own operators when it has at
    most two, else its top two Choi eigenvectors times the square roots of their eigenvalues) is read in closed form
    (:func:`_pair_branch`), so any two-Kraus channel lands here with residual at the arithmetic floor.  Its plan is
    kept within ``FIT_TARGET_RESIDUAL``.  Stage one is skipped when the target's two smallest Choi eigenvalues already
    put every two-Kraus channel farther away.

    Stage two splits the target's own Kraus set in two.  The Choi matrix is first projected onto
    the trace-preserving subspace, J - (Tr_out J - I) (x) I / 2, the nearest trace-preserving
    matrix to a target that is slightly off (a Kraus file rounded by hand); the four entries of
    Tr_out J - I are read as Python numbers.  Its eigenvectors scaled by the square roots of their
    eigenvalues are a Kraus set of four, made exactly trace preserving, K -> K (sum K^dag K)^(-1/2),
    with sum K^dag K and the renormalisation in Python complex arithmetic; the split target is the
    Choi matrix of that set, the same Gram product.  :func:`_kraus_split` mixes it into two pairs
    that are each a weighted trace-preserving channel, and each pair is read in closed form.
    The plan reproduces the target's Choi matrix by construction, so one seeded start almost always
    suffices: the first frame from ``FIT_SEED``, drawn once per process, on first use.  Only a plan
    that still misses by more than ``FIT_TARGET_RESIDUAL`` draws a further start; starts continue
    that stream until a plan lands within ``FIT_TARGET_RESIDUAL`` or ``FIT_MAX_STARTS`` are spent,
    and the lowest residual, first start on ties, is kept.  The CPTP check and the skip of stage
    one read the unprojected target.

    Non-convergence (residual above ``CONVERGED_RESIDUAL``) is reported in
    the result, not raised.  When no start yields two branches the result has
    ``plan=None`` and an infinite residual.
    """
    _, target, eigenvalues, report = _cptp_parts(ch)
    if not report.ok:
        raise ValueError("fit_plan requires a CPTP channel")

    # A candidate has two Kraus operators, so Choi rank <= 2: by Eckart-Young it is at least the root-sum-square
    # of the target's two smallest |eigenvalues| away, and stage one cannot succeed when that exceeds the target.
    if math.hypot(*sorted(map(abs, eigenvalues.tolist()))[:2]) <= FIT_TARGET_RESIDUAL:
        if len(ch.ops) <= 2:
            pair = np.array(ch.ops).ravel().tolist() + [0j] * (8 - 4 * len(ch.ops))
        else:  # the top two Choi eigenvectors times sqrt(lambda): vec K[2 j + a] = K[a, j], as in to_choi
            w, v = (a.tolist() for a in np.linalg.eigh(target))
            pair = [math.sqrt(max(w[i], 0.0)) * v[m][i] for i in (3, 2) for m in (0, 2, 1, 3)]
        plan = DecompositionPlan(branch_a=_pair_branch(pair), branch_b=None, p=1.0)
        r = frob_dist(_plan_choi(plan), target)
        if r <= FIT_TARGET_RESIDUAL:
            return FitResult(plan=plan, residual=r, starts_used=0)

    # Subtract (Tr_out J - I) (x) I / 2: row (i, a) loses (Tr_out J - I)[i, j] / 2 in column (j, a).
    rows = target.tolist()
    for i, (d0, d1) in enumerate(_tp_defect(rows)):
        for a in (0, 1):
            rows[2 * i + a][a] -= d0 / 2.0
            rows[2 * i + a][2 + a] -= d1 / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(np.array(rows))
    # Row i is vec K_i, vec K[2 j + a] = K[a, j], as in to_choi.
    vecs = (np.sqrt(np.maximum(eigenvalues, 0.0))[:, None] * eigenvectors.T).tolist()
    a = b = d = 0.0  # sum K^dag K = [[a, b], [conj b, d]]
    for v0, v1, v2, v3 in vecs:
        a += (v0.conjugate() * v0 + v1.conjugate() * v1).real
        b += v0.conjugate() * v2 + v1.conjugate() * v3
        d += (v2.conjugate() * v2 + v3.conjugate() * v3).real
    # K -> K M for M = (sum K^dag K)^(-1/2): (K M)[a, j] = K[a, 0] M[0, j] + K[a, 1] M[1, j].
    m00, m01, m10, m11 = _inv_sqrt_psd(a, b, d)
    vecs = np.array([(v0 * m00 + v2 * m10, v1 * m00 + v3 * m10, v0 * m01 + v2 * m11, v1 * m01 + v3 * m11)
                     for v0, v1, v2, v3 in vecs])
    kraus = vecs.reshape(4, 2, 2).swapaxes(1, 2)
    # A start is exact once its plan reproduces this Kraus set.  A target off trace preservation by more than
    # FIT_TARGET_RESIDUAL (a Kraus file rounded by hand) is that far from every plan, and further starts cannot help.
    split_target = np.einsum("ki,kj->ij", vecs, vecs.conj())
    best_plan, best_res = None, math.inf
    frames = itertools.chain([_first_frame()], itertools.islice(_start_frames(FIT_SEED), 1, None))  # one stream
    for starts_used, frame in zip(range(1, FIT_MAX_STARTS + 1), frames):
        split = _kraus_split(kraus, frame)
        if split is None:
            continue
        p, pairs = split
        plan = _mixed_plan(p, *(_pair_branch(half) for half in pairs.reshape(2, 8).tolist()))
        choi = _plan_choi(plan)
        r = frob_dist(choi, target)
        if r < best_res:
            best_plan, best_res = plan, r
        if frob_dist(choi, split_target) <= FIT_TARGET_RESIDUAL:
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
