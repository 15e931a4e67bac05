"""Dense complex linear algebra for 2x2 / 4x4 operators and Bloch 3-vectors.

Everything here is a pure function on plain numpy arrays, except
:class:`Record`, the base of the package's immutable records.  Equality of
matrices is always tolerance-based.
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
_SQRT_HALF = math.sqrt(0.5)

# Jones matrices of a quarter- and half-wave plate with horizontal fast axis.
Q0 = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
H0 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _constant in (ID2, *PAULIS, _PAULI_STACK, Q0, H0):  # shared by every caller, so a write raises
    _constant.flags.writeable = False


class Record:
    """Base of the package's immutable records, built without generating code at import.

    A subclass lists its fields as ``__slots__`` in constructor order and sets them in its own ``__init__`` with
    ``object.__setattr__``.  A field named with a leading underscore is derived from the others: it takes no part in
    ``repr``, ``==``, ``hash`` or pickling.  Records compare equal only to records of their own class, field by field,
    and pickle and copy by calling ``__init__`` again."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __reduce__(self):
        return type(self), self._values()


def as_cmat(m, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex array with finite entries; with ``stack``,
    to a stack ``(..., d, d)`` of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not stack and a.ndim != 2:
        raise ValueError(f"expected one matrix, not a stack of shape {a.shape}")
    if dim is not None and a.shape[-1] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def dagger(m) -> np.ndarray:
    """Conjugate transpose; of every member of a stack ``(..., d, d)``."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def frob_dist(a, b) -> float:
    """Frobenius distance between two same-shape matrices: one ``vdot`` of their difference."""
    d = np.subtract(a, b, dtype=complex)
    return math.sqrt(np.vdot(d, d).real)


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
    pairs = list(zip(u.ravel().tolist(), v.ravel().tolist()))
    phase = cmath.exp(-1j * cmath.phase(sum(a.conjugate() * b for a, b in pairs)))
    return math.sqrt(sum(abs(a - phase * b) ** 2 for a, b in pairs))


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


def assert_density_matrix(rho, tol: float = 1e-8, dim: int | None = None, stack: bool = True) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a state or, unless
    ``stack`` is false, of every member of a stack ``(..., d, d)``; return the
    coerced array.  One bad member rejects a stack, and so does a stack with
    no members.

    Qubit states are checked in closed form from their entries a, b, c, d:
    ||rho - rho^dag||_F = sqrt(4 Im^2 a + 4 Im^2 d + 2 |b - conj c|^2), the
    trace a + d, and the least eigenvalue of the Hermitian part,
    (Re a + Re d) / 2 - hypot((Re a - Re d) / 2, |b + conj c| / 2).  Other
    sizes take one ``eigvalsh`` call.
    """
    rho = as_cmat(rho, dim, stack=stack)
    if rho.size == 0:
        raise ValueError(f"expected at least one density matrix, got shape {rho.shape}")
    if rho.shape[-1] == 2:
        herm, trace_defect, w = _qubit_defects(rho)
    else:
        rho_dag = dagger(rho)
        herm = np.linalg.norm(rho - rho_dag, axis=(-2, -1)).max()
        trace = np.trace(rho, axis1=-2, axis2=-1)
        trace_defect = max(abs(trace.real - 1.0).max(), abs(trace.imag).max())
        w = np.linalg.eigvalsh((rho + rho_dag) / 2.0).min()
    if herm > tol:
        raise ValueError("density matrix must be Hermitian")
    if trace_defect > tol:
        raise ValueError("density matrix must have unit trace")
    if w < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {w:.3g}")
    return rho


def _qubit_defects(rho: np.ndarray) -> tuple:
    """The worst ||rho - rho^dag||_F, |Re Tr rho - 1| and least eigenvalue of
    the Hermitian part over a stack of 2x2 states, as floats.  Im Tr rho needs
    no term: ||rho - rho^dag||_F >= sqrt 2 |Im Tr rho|, so a state whose trace
    is off in its imaginary part has already failed the Hermitian check.

    They are read off the entries of rho / 8, which is exact above the
    subnormal range, so that no sum or ``hypot`` here can overflow; the
    worst values are scaled back on Python floats, which round an
    out-of-range value to inf without a warning.
    """
    a, b, c, d = (rho.reshape(-1, 4) * 0.125).T
    c_bar = c.conj()
    herm = np.hypot(np.hypot(a.imag, d.imag), np.abs(b - c_bar) * _SQRT_HALF)  # ||rho - rho^dag||_F / 16
    trace = a.real + d.real  # Re Tr rho / 8
    least = trace - np.hypot(a.real - d.real, np.abs(b + c_bar))  # the least eigenvalue / 4
    return 16.0 * float(herm.max()), 8.0 * float(abs(trace - 0.125).max()), 4.0 * float(least.min())
