"""Dense complex linear algebra for 2x2 / 4x4 operators and Bloch 3-vectors.

Everything here is a pure function on plain numpy arrays.  Equality is
always tolerance-based.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

ID2 = np.eye(2, dtype=complex)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
_PAULI_STACK = np.array(PAULIS)

# Jones matrices of a quarter- and half-wave plate with horizontal fast axis.
Q0 = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
H0 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _constant in (ID2, *PAULIS, _PAULI_STACK, Q0, H0):  # shared by every caller, so a write raises
    _constant.flags.writeable = False


def as_cmat(m, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex array with finite entries; with ``stack``,
    to a stack ``(..., d, d)`` of them."""
    a = np.asarray(m, dtype=complex)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[-1] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def dagger(m) -> np.ndarray:
    """Conjugate transpose; of every member of a stack ``(..., d, d)``."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def frob_dist(a, b) -> float:
    """Frobenius distance between two same-shape matrices."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)))


def unitarity_residual(u) -> float:
    """||u^dag u - I||_F; for 2x2 ``u`` in scalar arithmetic."""
    u = as_cmat(u)
    if u.shape != (2, 2):
        return frob_dist(dagger(u) @ u, np.eye(u.shape[0]))
    return _unitarity_residual_2x2(*u.ravel().tolist())


def _unitarity_residual_2x2(a, b, c, d) -> float:
    """:func:`unitarity_residual` of [[a, b], [c, d]], from Python complex entries."""
    return math.hypot(abs(a) ** 2 + abs(c) ** 2 - 1.0, abs(b) ** 2 + abs(d) ** 2 - 1.0,
                      math.sqrt(2.0) * abs(a.conjugate() * b + c.conjugate() * d))


def phase_invariant_distance(u, v) -> float:
    """min over phi of ||u - e^{i phi} v||_F for unitary u, v.

    Equals sqrt(2 d - 2 |Tr(u^dag v)|), but is evaluated at the minimizing
    phase phi = arg Tr(u^dag v) so that near-equal matrices resolve to the
    floating-point floor instead of sqrt(eps).  The sums run over scalar entries.
    """
    u = as_cmat(u)
    v = as_cmat(v, u.shape[0])
    if unitarity_residual(u) > 1e-8 or unitarity_residual(v) > 1e-8:
        raise ValueError("phase_invariant_distance requires unitary inputs")
    return _phase_distance(u.ravel().tolist(), v.ravel().tolist())


def _phase_distance(us, vs) -> float:
    """:func:`phase_invariant_distance` of two unitaries given as their row-major Python complex entries."""
    pairs = list(zip(us, vs))
    phase = cmath.exp(-1j * cmath.phase(sum(a.conjugate() * b for a, b in pairs)))
    return math.sqrt(sum(abs(a - phase * b) ** 2 for a, b in pairs))


def svd3(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed SVD of a real 3x3 matrix: t = L diag(s) R^T with L, R rotations.

    Both factors are forced to determinant +1; any reflection is absorbed
    into the sign of the last singular value, so entries of ``s`` may be
    negative.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3):
        raise ValueError("svd3 expects a finite real 3x3 matrix")
    left, s, right = _svd3(t)
    return np.array(left), np.array(s), np.array(right).T.copy()


def _svd3(t: np.ndarray) -> tuple[list, list, list]:
    """:func:`svd3` of a float 3x3 array as nested lists: the rows of L, s, and the columns of R.  One LAPACK call;
    the finiteness check and the determinant signs run on floats."""
    rows = t.tolist()
    if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
        raise ValueError("svd3 expects a finite real 3x3 matrix")
    left, s, right = (a.tolist() for a in np.linalg.svd(t))  # right: the rows of R^T
    if det3(left) < 0:
        left = [[a, b, -c] for a, b, c in left]
        s[2] = -s[2]
    if det3(right) < 0:  # det R^T = det R
        right[2] = [-x for x in right[2]]
        s[2] = -s[2]
    return left, s, right


def det3(rows) -> float:
    """Determinant of a 3x3 matrix given as nested lists of its rows, in scalar arithmetic."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def complex_to_pairs(m) -> list:
    """Nested [re, im] float pairs of a complex matrix, row-major (the JSON encoding)."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def pairs_to_complex(rows) -> np.ndarray:
    """Inverse of :func:`complex_to_pairs`; raises ValueError unless ``rows``
    is a square grid of [re, im] pairs of numbers."""
    message = "expected a square grid of [re, im] number pairs"
    try:
        a = np.asarray(rows)
    except ValueError:  # ragged nesting
        raise ValueError(message) from None
    if a.dtype.kind not in "iuf" or a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[2] != 2:
        raise ValueError(message)
    # Viewing each [re, im] pair as one complex keeps the sign of every zero.
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector of a 2x2 Hermitian operator, r_i = Tr(sigma_i rho); a
    stack ``(..., 2, 2)`` gives ``(..., 3)``."""
    return np.einsum("kij,...ji->...k", _PAULI_STACK, as_cmat(rho, 2, stack=True)).real


def density_from_bloch(r) -> np.ndarray:
    """rho = (I + r . sigma) / 2; requires ||r|| <= 1 + 1e-10.  A stack
    ``(..., 3)`` of Bloch vectors gives ``(..., 2, 2)``."""
    r = np.asarray(r, dtype=float)
    if r.ndim == 0 or r.shape[-1] != 3:
        raise ValueError("Bloch vector must have 3 real components")
    length = np.linalg.norm(r, axis=-1)
    if length.max() > 1.0 + 1e-10:
        raise ValueError(f"Bloch vector length {length.max():.6g} exceeds 1")
    x, y, z = (r[..., i, None, None] for i in range(3))
    return (ID2 + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 2.0


def assert_density_matrix(rho, tol: float = 1e-8, dim: int | None = None) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a state or of every
    member of a stack ``(..., d, d)``; return the coerced array.

    A stack takes one ``eigvalsh`` call, and one bad member rejects it.
    """
    rho = as_cmat(rho, dim, stack=True)
    rho_dag = dagger(rho)
    if np.linalg.norm(rho - rho_dag, axis=(-2, -1)).max() > tol:
        raise ValueError("density matrix must be Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if abs(trace.real - 1.0).max() > tol or abs(trace.imag).max() > tol:
        raise ValueError("density matrix must have unit trace")
    w = np.linalg.eigvalsh((rho + rho_dag) / 2.0).min()
    if w < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {w:.3g}")
    return rho
