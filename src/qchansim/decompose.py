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
import json
import math

import numpy as np

from .channels import (
    ChannelKind,
    KrausChannel,
    TRACE_TOL,
    ZERO_OP_TOL,
    _gram,
    _tp_defect,
)
from .matops import (
    ID2,
    PAULIS,
    Record,
    _unitarity_residual_2x2,
    complex_to_pairs,
    frob_dist,
    pairs_to_complex,
)

U_BPF = np.array([[-1.0j, 0.0], [0.0, 1.0j]], dtype=complex)
U_BPF.flags.writeable = False

ANGLE_TOL = 1e-10
FIT_TARGET_RESIDUAL = 1e-9
FIT_ROUNDOFF_RESIDUAL = 1e-11  # what fit_plan reaches on an exactly trace-preserving target, with margin
CONVERGED_RESIDUAL = 1e-4
# Parts of q at most this times |A| |B| are round-off in _offdiagonal_frame: on the degenerate pairs of the
# convergence probe's corpora the exact part of Im q normal to Re q reaches 5.7 eps |A| |B|, and genuine parts start
# near 1e6 eps.  _pair_branch's coefficients, at most 1, take the same margin.
_FRAME_TOL = 16.0 * np.finfo(float).eps


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


class QuasiExtremeBranch(Record):
    """One quasiextreme branch: Kraus angles, ancilla angles and dressing unitaries.

    ``conditional_x`` records whether the feed-forward sigma_x acts on the
    odd-ancilla port; disabling it turns the off-diagonal K1 into its
    diagonal counterpart (the phase-damping behaviour).  The ancilla angles
    ``gamma1`` and ``gamma2`` follow from (alpha, beta), wrapped into (-pi, pi].
    """

    __slots__ = ("alpha", "beta", "U", "Uprime", "conditional_x")

    def __init__(self, alpha: float, beta: float, U: np.ndarray, Uprime: np.ndarray, conditional_x: bool = True):
        if not isinstance(conditional_x, (bool, np.bool_)):
            raise ValueError(f"conditional_x must be true or false, got {conditional_x!r}")
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError(f"branch angles must be finite, got alpha={alpha!r}, beta={beta!r}")
        pair = np.array((U, Uprime), dtype=complex)  # one copy of both, read-only below
        if pair.shape != (2, 2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {pair.shape[1:]}")
        u, up = pair.reshape(2, 4).tolist()
        # False also where an entry is not finite.
        if not (_unitarity_residual_2x2(*u) <= ANGLE_TOL and _unitarity_residual_2x2(*up) <= ANGLE_TOL):
            raise ValueError("branch unitaries must be unitary within 1e-10")
        pair.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "U", pair[0])
        object.__setattr__(self, "Uprime", pair[1])
        object.__setattr__(self, "conditional_x", bool(conditional_x))

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


class DecompositionPlan(Record):
    """Convex mix p * branch_a + (1 - p) * branch_b; branch_b may be absent only at p = 1."""

    __slots__ = ("branch_a", "branch_b", "p")

    def __init__(self, branch_a: QuasiExtremeBranch, branch_b: QuasiExtremeBranch | None, p: float):
        if not isinstance(branch_a, QuasiExtremeBranch) or not isinstance(branch_b, (QuasiExtremeBranch, type(None))):
            raise ValueError(f"expected a QuasiExtremeBranch and a QuasiExtremeBranch or None, got "
                             f"{type(branch_a).__name__} and {type(branch_b).__name__}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"mixing weight must be in [0, 1], got {p}")
        if branch_b is None and p < 1.0:
            raise ValueError("branch_b is required whenever p < 1")
        object.__setattr__(self, "branch_a", branch_a)
        object.__setattr__(self, "branch_b", branch_b)
        object.__setattr__(self, "p", p)


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
    """``to_choi(plan_to_channel(plan))`` as the Gram product J = V^T conj(V) of the stacked vecs V: the channel's own
    product of the same vecs, so the two agree to the last bit."""
    return _gram(np.array(_plan_vecs(plan)))


class FitResult(Record):
    """Outcome of :func:`fit_plan`.

    ``starts_used`` marks the stage that made the plan: 0 for stage one, which reads
    a Kraus pair of the target, 1 for stage two, the split of its Kraus set.
    """

    __slots__ = ("plan", "residual", "starts_used")

    @property
    def converged(self) -> bool:
        return self.residual <= CONVERGED_RESIDUAL


def _offdiagonal_frame(a0, a1, a2, a3, b0, b1, b2, b3) -> tuple:
    """(c, w) of an SU(2) frame [[c, -conj w], [w, c]] in which the traceless part of B adj(A) is off-diagonal, for
    A = [[a0, a1], [a2, a3]] and B given as row-major Python complex entries.

    With q the Pauli components of that part (up to a common factor), v^dag (q . sigma) v = q . n for a column v of
    Bloch vector n, so the first column's n (or -n; nz >= 0 is taken, so c >= 1/sqrt 2 up to round-off) is a unit
    normal to Re q and Im q: n = e1 x e2, with e1 the unit vector of the longer of the two and e2 the unit remainder b
    of the other after its e1 part is taken out.  e1 x b is normal to e1 whatever part of b still lies along it, so
    one pass serves.  q, and then b, count as zero at or below _FRAME_TOL |A| |B|, the scale of B adj(A); there every
    normal serves, so a degenerate pair (complete dephasing, a reset, a unitary pair) takes a fixed one, not the
    round-off direction: the z axis for q = 0, else e1 x the first axis e1 leans on least.  Components of e1 or n
    within their round-off of each other, or of zero, count as tied, so last-bit changes pick neither another axis
    nor the other sign."""
    m00, m01, m10, m11 = b0 * a3 - b1 * a2, b1 * a0 - b0 * a1, b2 * a3 - b3 * a2, b3 * a0 - b2 * a1  # B adj(A)
    qx, qy, qz = m01 + m10, 1j * (m01 - m10), m00 - m11
    ax, ay, az, bx, by, bz = qx.real, qy.real, qz.real, qx.imag, qy.imag, qz.imag
    aa, bb = ax * ax + ay * ay + az * az, bx * bx + by * by + bz * bz
    if bb > aa:
        ax, ay, az, bx, by, bz, aa = bx, by, bz, ax, ay, az, bb
    tol = _FRAME_TOL * math.hypot(abs(a0), abs(a1), abs(a2), abs(a3)) * math.hypot(abs(b0), abs(b1), abs(b2), abs(b3))
    tol2 = tol * tol
    if not aa > tol2:
        return 1.0, 0j
    norm = math.sqrt(aa)
    ax, ay, az = ax / norm, ay / norm, az / norm
    tie = tol / norm  # the round-off of e1's components
    d = bx * ax + by * ay + bz * az
    bx, by, bz = bx - d * ax, by - d * ay, bz - d * az
    if bx * bx + by * by + bz * bz > tol2:
        nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx  # e1 x (e2 |b|)
    else:
        low = min(abs(ax), abs(ay), abs(az)) + tie
        nx, ny, nz = (0.0, az, -ay) if abs(ax) <= low else (-az, 0.0, ax) if abs(ay) <= low else (ay, -ax, 0.0)
    nn = nx * nx + ny * ny + nz * nz
    least = tie * tie * nn  # a component of n whose square is at most this is round-off
    norm = math.copysign(math.sqrt(nn), nz if nz * nz > least else ny if ny * ny > least else nx)
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    c = math.sqrt((1.0 + nz) / 2.0)
    return c, complex(nx, ny) / (2.0 * c)


def _pair_branch(pair) -> QuasiExtremeBranch:
    """The branch of a trace-preserving Kraus pair (L_0, L_1), given as the 8 row-major Python complex entries of L_0
    then L_1, read off the pair in closed form and built by :meth:`QuasiExtremeBranch.from_alpha_beta`, whose
    unitarity check the dressings pass.

    A branch's pair is L_k = sum_a V[k, a] U K_a U' for a Kraus mix V and K_0 = diag(cos beta, cos alpha),
    K_1 = [[0, sin alpha], [sin beta, 0]].  The traceless part of B adj(A) is antisymmetric and bilinear in (A, B), so
    a mix only scales it by det V: that of L_1 adj(L_0) is U (K_1 adj K_0) U^dag up to a factor, off-diagonal in the
    output frame U.  Likewise, with N_j the 2x2 matrix of rows j of L_0 and L_1, that of N_1 adj(N_0) is
    V [[0, cos alpha cos beta], [sin alpha sin beta, 0]] V^dag up to a factor, off-diagonal in the Kraus frame V.  Both
    frames come from these two products (:func:`_offdiagonal_frame`), with no eigenvalue gap to lose digits on.  Then,
    with Lt = V^dag L, row a of U^dag Lt_k is c_ka times row a (k = 0) or row 1 - a (k = 1) of U'.  Row 0 of U' is
    the longer of rows 0 of U^dag Lt_0 and 1 of U^dag Lt_1 (the first within _FRAME_TOL), made a unit row, and row 1
    its SU(2) partner; the c_ka are projections on them.  beta = atan2(|c_11|, |c_00|) and
    alpha = atan2(|c_10|, |c_01|), at full precision.  The phases of the c_ka go into the dressings: the invariant
    arg c_00 + arg c_11 - arg c_01 - arg c_10 into the second row of U', the rest into the columns of U, and both
    keep determinant 1.  This is exact also where a frame is arbitrary: for a unitary pair (L_1 adj L_0 = 0), a reset
    (N_1 adj N_0 = 0) or complete dephasing (q real up to a phase)."""
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
    x0, x1 = r00 if abs(r00[0]) ** 2 + abs(r00[1]) ** 2 + _FRAME_TOL >= abs(r11[0]) ** 2 + abs(r11[1]) ** 2 else r11
    norm = math.sqrt(abs(x0) ** 2 + abs(x1) ** 2)  # > 0 for a trace-preserving pair: cos^2 beta + sin^2 beta = 1
    p0, p1 = x0 / norm, x1 / norm  # row 0 of U'; row 1 is (-conj p1, conj p0)
    p0c, p1c = p0.conjugate(), p1.conjugate()
    c00, c11 = r00[0] * p0c + r00[1] * p1c, r11[0] * p0c + r11[1] * p1c
    c01, c10 = r01[1] * p0 - r01[0] * p1, r10[1] * p0 - r10[0] * p1
    # A c_ka (|c_ka| <= 1) within _FRAME_TOL of 0 takes phase 0, and one within it of the negative real axis pi,
    # whatever the round-off: a quarter of a phase that jumped by 2 pi would turn a dressing by a factor i.
    f00, f01, f10, f11 = [0.0 if abs(x) <= _FRAME_TOL else math.pi if x.real < 0.0 and abs(x.imag) <= _FRAME_TOL
                          else cmath.phase(x) for x in (c00, c01, c10, c11)]
    d = cmath.exp(0.25j * (f00 - f01 + f10 - f11))  # U -> U diag(d, conj d)
    e = cmath.exp(0.25j * (f00 - f01 - f10 + f11))  # U' -> diag(e, conj e) U'
    dc, ec = d.conjugate(), e.conjugate()
    return QuasiExtremeBranch.from_alpha_beta(
        math.atan2(abs(c10), abs(c01)), math.atan2(abs(c11), abs(c00)),
        ((c * d, -wc * dc), (w * d, c * dc)), ((p0 * e, p1 * e), (-p1c * ec, p0c * ec)))


def _inv_sqrt_psd(a: float, b: complex, d: float) -> tuple:
    """M^(-1/2) of the positive definite M = [[a, b], [conj b, d]], as its row-major entries: with s = sqrt(det M),
    sqrt(M) = (M + s I) / sqrt(Tr M + 2 s)."""
    # A common scale of the result cannot move a plan: _pair_branch reads angles from ratios and normalises U'.
    s = math.sqrt(a * d - abs(b) ** 2)
    st = s * math.sqrt(a + d + 2.0 * s)
    return (d + s) / st, -b / st, -b.conjugate() / st, (a + s) / st


# Gamma_1..Gamma_5 = sigma_x (x) I, sigma_y (x) I and sigma_z (x) sigma_{x,y,z}: five anticommuting Hermitian 4x4
# matrices (the Euclidean Dirac matrices of Cl(5)), so R = sum_g n_g Gamma_g squares to |n|^2 I and is traceless.
_DIRAC = np.array([np.kron(PAULIS[0], ID2), np.kron(PAULIS[1], ID2), *(np.kron(PAULIS[2], s) for s in PAULIS)])
_SIGMAS = np.array([ID2, *PAULIS])  # sigma_0 = I, then sigma_x, sigma_y, sigma_z
# M_kg = Re sum W[(k, g), (i, a, j, c)] G[(i, a), (j, c)] for the Gram matrix G[(i, a), (j, c)] = (K_i^dag K_j)[a, c]
# of the Kraus columns: W[(k, g), (i, a, j, c)] = sigma_k[c, a] Gamma_g[j, i].
_SPLIT_W = np.einsum("kca,gji->kgiajc", _SIGMAS, _DIRAC).reshape(20, 64)


def _top_eigenvector(z: float, w: complex) -> tuple:
    """Unit eigenvector (x, y) of the Hermitian [[z, conj w], [w, -z]] for its eigenvalue r = sqrt(z^2 + |w|^2), as
    two Python numbers: (r + z, w) for z >= 0, else (conj w, r - z), normalised, so no entry cancels and the squared
    norm is >= r^2.  (1, 0) where z = w = 0.  Its partner (-conj y, conj x) is the unit eigenvector for -r."""
    r = math.hypot(z, abs(w))
    # z > 0.0 gives the same channels: at z = 0 both forms are unit eigenvectors for r, a phase conj(w) / |w| apart.
    x, y = (r + z, w) if z >= 0.0 else (w.conjugate(), r - z)
    norm = math.hypot(abs(x), abs(y))
    return (x / norm, y / norm) if norm > 0.0 else (1.0, 0.0)


def _dirac_frame(n1: float, n2: float, n3: float, n4: float, n5: float) -> np.ndarray:
    """The 4x4 unitary of eigenvectors of R = sum_g n_g Gamma_g for a unit n, columns ordered for the eigenvalues
    -1, -1, 1, 1, in closed form.

    R = [[A, conj c I], [c I, -A]] with A = n_3 sigma_x + n_4 sigma_y + n_5 sigma_z and c = n_1 + i n_2.  For a unit
    eigenvector u of A, A u = a u with a = +-|(n_3, n_4, n_5)|, R acts on the plane (x u, y u) as the 2x2
    [[a, conj c], [c, -a]], whose eigenvalues are +-1.  So each column is the Kronecker product of a unit
    eigenvector of that 2x2 (:func:`_top_eigenvector` and its partner) with u."""
    c = complex(n1, n2)
    u0, u1 = _top_eigenvector(n5, complex(n3, n4))  # A = [[n5, n3 - i n4], [n3 + i n4, -n5]]: A u = |m| u
    v0, v1 = -u1.conjugate(), u0.conjugate()  # A v = -|m| v
    r = math.hypot(n5, math.hypot(n3, n4))
    x0, y0 = _top_eigenvector(r, c)  # +1 on (x u, y u)
    x1, y1 = _top_eigenvector(-r, c)  # +1 on (x v, y v)
    return np.array([(x * p, x * q, y * p, y * q) for x, y, p, q in (
        (-y0.conjugate(), x0.conjugate(), u0, u1), (-y1.conjugate(), x1.conjugate(), v0, v1),
        (x0, y0, u0, u1), (x1, y1, v0, v1))]).T


_NULL_TOL = 1e-15  # the largest |(M n)_k| kept from the minors: each half L has Tr(sigma_k (sum L^dag L - I)) = (M n)_k


def _null_vector(m) -> list:
    """A unit null vector of the real 4x5 M, as five Python floats.

    The five signed 4x4 minors n_g = (-1)^g det(M without column g) give (M n)_k = the determinant of M with row k
    repeated on top, zero.  Each minor is a Laplace expansion over the 2x2 minors t_pq of rows 0-1 and u_pq of rows
    2-3 on columns p < q: for columns c0 < c1 < c2 < c3 it is t_c0c1 u_c2c3 - t_c0c2 u_c1c3 + t_c0c3 u_c1c2
    + t_c1c2 u_c0c3 - t_c1c3 u_c0c2 + t_c2c3 u_c0c1.  They are kept where M n is within ``_NULL_TOL`` of zero.  Where rank M < 4 they vanish
    (M = 0 for the fully depolarizing channel, a zero row for a Pauli channel in its Pauli frame) and fix no
    direction, and near it they lose the digits the condition of M costs: there the null vector is the last column
    of a complete QR of M^T, exact whatever the rank of M."""
    rows = m.tolist()
    (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4), (d0, d1, d2, d3, d4) = rows
    t01, t02, t03, t04, t12 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0, a0 * b4 - a4 * b0, a1 * b2 - a2 * b1
    t13, t14, t23, t24, t34 = a1 * b3 - a3 * b1, a1 * b4 - a4 * b1, a2 * b3 - a3 * b2, a2 * b4 - a4 * b2, a3 * b4 - a4 * b3
    u01, u02, u03, u04, u12 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0, c0 * d4 - c4 * d0, c1 * d2 - c2 * d1
    u13, u14, u23, u24, u34 = c1 * d3 - c3 * d1, c1 * d4 - c4 * d1, c2 * d3 - c3 * d2, c2 * d4 - c4 * d2, c3 * d4 - c4 * d3
    n = [t12 * u34 - t13 * u24 + t14 * u23 + t23 * u14 - t24 * u13 + t34 * u12,
         -(t02 * u34 - t03 * u24 + t04 * u23 + t23 * u04 - t24 * u03 + t34 * u02),
         t01 * u34 - t03 * u14 + t04 * u13 + t13 * u04 - t14 * u03 + t34 * u01,
         -(t01 * u24 - t02 * u14 + t04 * u12 + t12 * u04 - t14 * u02 + t24 * u01),
         t01 * u23 - t02 * u13 + t03 * u12 + t12 * u03 - t13 * u02 + t23 * u01]
    norm = math.hypot(*n)
    if norm > 0.0:
        n = [g / norm for g in n]
        if max(abs(sum(x * g for x, g in zip(row, n))) for row in rows) <= _NULL_TOL:
            return n
    return np.linalg.qr(m.T, mode="complete")[0][:, 4].tolist()


def _kraus_split(kraus):
    """Cut a trace-preserving set of four Kraus operators, stacked ``(4, 2, 2)``, into two trace-preserving pairs
    whose equal mix is the same channel.

    For an orthonormal 2-plane Y of Kraus space, L_a = sum_i Y[i, a] K_i has sum_a L_a^dag L_a = sum_ij P[j, i]
    K_i^dag K_j with P = Y Y^dag, so Tr(sigma_k sum_a L_a^dag L_a) = Tr(P B_k) for B_k[i, j] = Tr(sigma_k K_i^dag K_j),
    sigma_0 = I.  For a unit n in R^5, P = (I + R) / 2 with R = sum_g n_g Gamma_g is a rank-2 projector, and trace
    preservation (Tr B_0 = 2, Tr B_k = 0 for k = 1..3) gives Tr(P B_k) = delta_k0 + (M n)_k / 2 with the real 4x5
    M_kg = Tr(B_k Gamma_g) (each B_k is Hermitian).  So for a null vector n of M, sqrt 2 L over the +1 eigenspace Y
    of R, and likewise over the -1 eigenspace Z, is a trace-preserving pair, and p = 1/2.

    M is one contraction of the module constant ``_SPLIT_W`` with the Gram matrix C^dag C of the Kraus columns,
    C[b, (i, a)] = K_i[b, a], and n is read off its minors (:func:`_null_vector`).  The eigenframe of R is in closed
    form (:func:`_dirac_frame`), and the halves are sqrt 2 frame^T times the Kraus set, one matrix product.

    Returns the 4x4 unitary [Z Y] of eigenvectors of R, columns ordered for eigenvalues -1, -1, 1, 1, and the two
    halves, over Z then Y, stacked ``(2, 2, 2, 2)``.
    """
    columns = kraus.transpose(1, 0, 2).reshape(2, 8)
    m = (_SPLIT_W @ (columns.conj().T @ columns).ravel()).real.reshape(4, 5)
    frame = _dirac_frame(*_null_vector(m))
    return frame, math.sqrt(2.0) * (frame.T @ kraus.reshape(4, 4)).reshape(2, 2, 2, 2)


def _project(rows, defect) -> list:
    """The rows of J' = J - (Tr_out J - I) (x) I / 2, for J given as its rows (changed in place and returned) and its
    trace defect: row (i, a) loses (Tr_out J - I)[i, j] / 2 in column (j, a)."""
    for i, (d0, d1) in enumerate(defect):
        for a in (0, 1):
            rows[2 * i + a][a] -= d0 / 2.0
            rows[2 * i + a][2 + a] -= d1 / 2.0
    return rows


_E3_ROUNDOFF = 1e-13  # e3's round-off: sums of terms up to (Tr J')^3 = 8 land within a few 1e-15 of it


def _stage_one_out_of_reach(rows) -> bool:
    """True where the eigenvalues of the Hermitian, positive semidefinite J', given as its rows, prove with no
    eigenvalue call that the root-sum-square of the two smallest exceeds ``FIT_TARGET_RESIDUAL`` = t.

    For lambda_1 >= ... >= lambda_4 >= 0, the elementary symmetric functions obey e3 = lambda_1 lambda_2 (lambda_3 +
    lambda_4) + lambda_3 lambda_4 (lambda_1 + lambda_2) <= (lambda_3 + lambda_4) e2, so e3 > sqrt 2 t e2 gives
    lambda_3 + lambda_4 > sqrt 2 t and hypot(lambda_3, lambda_4) > t.  The test asks for 4 times that, and for e3 to
    clear its round-off.  e2 and e3 are the sums of the principal 2x2 and 3x3 minors of J'."""
    d = [rows[i][i].real for i in range(4)]
    s = {(i, k): abs(rows[i][k]) ** 2 for i, k in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
    e2 = sum(d[i] * d[k] - s_ik for (i, k), s_ik in s.items())
    e3 = sum(d[i] * (d[k] * d[l] - s[k, l]) - d[k] * s[i, l] - d[l] * s[i, k]
             + 2.0 * (rows[i][k] * rows[k][l] * rows[i][l].conjugate()).real
             for i, k, l in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    return e3 > 4.0 * math.sqrt(2.0) * FIT_TARGET_RESIDUAL * e2 + _E3_ROUNDOFF


def fit_plan(ch: KrausChannel) -> FitResult:
    """Two-branch plan of an arbitrary CPTP channel.

    The CPTP verdict is :func:`qchansim.channels.validate_channel`'s, from the trace residual alone: the target's Choi
    matrix J, formed when the channel was built, is a Gram product, positive semidefinite, so no eigenvalue call can
    change it.  J is projected onto the trace-preserving subspace, J' = J - (Tr_out J - I) (x) I / 2, the nearest
    trace-preserving matrix to a target that is slightly off (a Kraus file rounded by hand).

    Stage one recognizes rotated single-branch channels: a Kraus pair of the target (its own operators when it has at
    most two, else the top two eigenvectors of J' times the square roots of their eigenvalues, from one ``eigh``) is
    read in closed form (:func:`_pair_branch`), so any two-Kraus channel lands here with residual at the arithmetic
    floor.  Its plan is kept within ``FIT_TARGET_RESIDUAL``.  For more operators, stage one is skipped when the two
    smallest eigenvalues of J' (within half the trace residual of J's, by Weyl) put every two-Kraus channel farther
    away.  For three or four operators trace preserving to ``FIT_ROUNDOFF_RESIDUAL``, J''s elementary symmetric
    functions prove most skips with no ``eigh`` (:func:`_stage_one_out_of_reach`).

    Stage two splits a Kraus set of four in two.  It is the target's own operators, padded with zeros, when it has at
    most four and is trace preserving to ``FIT_ROUNDOFF_RESIDUAL``; else the eigenvectors of J' scaled by the square
    roots of their eigenvalues.  The set is made exactly trace preserving, K -> K (sum K^dag K)^(-1/2), with
    sum K^dag K one 2x8 product and the renormalisation another.  :func:`_kraus_split` cuts it, in closed form, into
    two trace-preserving pairs whose equal mix is the channel, and each pair is read in closed form: the plan mixes
    the two branches at p = 1/2 and reproduces the renormalised set's Choi matrix by construction, with no seed and
    no retry.  The residual reads the unprojected target.

    Non-convergence (residual above ``CONVERGED_RESIDUAL``) is reported in
    the result, not raised.
    """
    target = ch._choi
    rows = target.tolist()
    defect, trace_residual = _tp_defect(rows)
    if not trace_residual <= TRACE_TOL:  # False also where J is not finite
        raise ValueError("fit_plan requires a CPTP channel")
    projected = _project(rows, defect)
    own = len(ch.ops) <= 4 and trace_residual <= FIT_ROUNDOFF_RESIDUAL  # the split takes the target's operators

    # A candidate has two Kraus operators, so Choi rank <= 2: by Eckart-Young it is at least the root-sum-square
    # of the target's two smallest |eigenvalues| away, and stage one cannot succeed when that exceeds the target.
    spectrum, pair = None, None
    if len(ch.ops) <= 2:
        pair = np.array(ch.ops).ravel().tolist() + [0j] * (8 - 4 * len(ch.ops))
    elif not (own and _stage_one_out_of_reach(projected)):
        spectrum = np.linalg.eigh(np.array(projected))
        w, v = (a.tolist() for a in spectrum)
        if math.hypot(*sorted(map(abs, w))[:2]) <= FIT_TARGET_RESIDUAL:
            # the top two eigenvectors of J' times sqrt(lambda): vec K[2 j + a] = K[a, j], as in to_choi
            pair = [math.sqrt(max(w[i], 0.0)) * v[m][i] for i in (3, 2) for m in (0, 2, 1, 3)]
    if pair is not None:
        plan = DecompositionPlan(branch_a=_pair_branch(pair), branch_b=None, p=1.0)
        r = frob_dist(_plan_choi(plan), target)
        if r <= FIT_TARGET_RESIDUAL:
            return FitResult(plan, r, 0)

    # x[j, (a, i)] = K_i[a, j] for the set K_i to split.
    if own:
        x = np.zeros((2, 2, 4), dtype=complex)
        x[..., :len(ch.ops)] = np.array(ch.ops).T
        x = x.reshape(2, 8)
    else:  # column i of the eigenvectors is vec K_i, vec K[2 j + a] = K[a, j], as in to_choi
        eigenvalues, eigenvectors = np.linalg.eigh(np.array(projected)) if spectrum is None else spectrum
        x = (eigenvectors * np.sqrt(np.maximum(eigenvalues, 0.0))).reshape(2, 8)
    # K -> K M for M = (sum K^dag K)^(-1/2), that is x -> M^T x, with sum K^dag K = [[a, b], [conj b, d]] = conj(x) x^T.
    (a, b), (_, d) = (x.conj() @ x.T).tolist()
    m00, m01, m10, m11 = _inv_sqrt_psd(a.real, b, d.real)
    kraus = (np.array(((m00, m10), (m01, m11))) @ x).reshape(2, 2, 4).T
    halves = _kraus_split(kraus)[1]
    plan = DecompositionPlan(*(_pair_branch(half) for half in halves.reshape(2, 8).tolist()), p=0.5)
    return FitResult(plan, frob_dist(_plan_choi(plan), target), 1)


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


def _json_number(payload: dict, key: str):
    """``payload[key]`` where it is a finite JSON number (an int or a float, not a bool); else ValueError."""
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return value


def plan_from_json(text: str) -> DecompositionPlan:
    """Inverse of :func:`plan_to_json`; raises ValueError on any other shape: an object with a finite number ``p`` and
    one or two branch objects, each with finite angles, gammas that follow from (alpha, beta), and a bool
    ``conditional_x``."""
    payload = json.loads(text)
    rows = payload.get("branches") if isinstance(payload, dict) else None
    if not (isinstance(rows, list) and 1 <= len(rows) <= 2 and all(isinstance(b, dict) for b in rows)):
        raise ValueError('expected a JSON object {"p": ..., "branches": [one or two branch objects]}')
    p = _json_number(payload, "p")
    branches = []
    for b in rows:
        alpha, beta, gamma1, gamma2 = (_json_number(b, key) for key in ("alpha", "beta", "gamma1", "gamma2"))
        branch = QuasiExtremeBranch(alpha=alpha, beta=beta, U=_unitary_from_json(b.get("U")),
                                    Uprime=_unitary_from_json(b.get("Uprime")), conditional_x=b.get("conditional_x"))
        if max(abs(wrap_angle(gamma1 - branch.gamma1)), abs(wrap_angle(gamma2 - branch.gamma2))) > ANGLE_TOL:
            raise ValueError("gamma angles inconsistent with (alpha, beta)")
        branches.append(branch)
    return DecompositionPlan(branch_a=branches[0], branch_b=branches[1] if len(branches) > 1 else None, p=p)
