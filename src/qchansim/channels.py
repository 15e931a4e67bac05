"""Single-qubit CPTP channels as Kraus sets, with affine and Choi forms.

Conventions: |H> = |0> = (1, 0)^T, |V> = |1> = (0, 1)^T, and the Pauli basis
is sigma_x = [[0,1],[1,0]], sigma_y = [[0,-i],[i,0]], sigma_z = [[1,0],[0,-1]].
A channel acts as ``rho -> sum_i K_i rho K_i^dag``, which is the 4x4 transfer
matrix ``S`` of :func:`transfer` on row-major ``vec(rho)``, and on Bloch
vectors as ``r -> T r + t``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matops import (
    ID2,
    PAULIS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_cmat,
    assert_density_matrix,
    complex_to_pairs,
    dagger,
    pairs_to_complex,
)

TRACE_TOL = 1e-8
CHOI_EIG_TOL = 1e-8
ZERO_OP_TOL = 1e-12

# Columns are the row-major vecs of I, sigma_x, sigma_y, sigma_z.
_PAULI_VECS = np.stack([m.reshape(4) for m in (ID2, *PAULIS)], axis=1)
_PAULI_VECS_DAG = dagger(_PAULI_VECS)


class ChannelKind(str, Enum):
    """The five named decoherence channels."""

    AD = "AD"
    PD = "PD"
    BF = "BF"
    PF = "PF"
    BPF = "BPF"


@dataclass(frozen=True)
class KrausChannel:
    """An ordered set of 2x2 Kraus operators with a human-readable label."""

    ops: tuple
    label: str = ""

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        coerced = tuple(as_cmat(k, 2) for k in self.ops)
        object.__setattr__(self, "ops", coerced)


@dataclass(frozen=True)
class CPTPReport:
    """Diagnostics from :func:`validate_channel`."""

    trace_residual: float
    min_choi_eig: float
    ok: bool


@dataclass(frozen=True)
class AffineRep:
    """Bloch-sphere representation r -> T r + t of a channel."""

    T: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        t = np.asarray(self.t, dtype=float)
        if T.shape != (3, 3) or t.shape != (3,):
            raise ValueError("AffineRep needs a 3x3 matrix and a 3-vector")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "t", t)


def builtin_channel(kind: ChannelKind | str, lam: float) -> KrausChannel:
    """Kraus operators of a named channel at decoherence parameter ``lam``.

    AD damps the excited state |V>, PD damps the phase without populating,
    BF/PF/BPF flip with probability ``lam`` via sigma_x / sigma_z / sigma_y.
    Kraus operators with negligible norm are dropped.
    """
    kind = ChannelKind(kind)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"decoherence parameter must be in [0, 1], got {lam}")
    root = np.sqrt(lam)
    coroot = np.sqrt(1.0 - lam)
    if kind is ChannelKind.AD:
        ops = [np.diag([1.0, coroot]), np.array([[0.0, root], [0.0, 0.0]])]
    elif kind is ChannelKind.PD:
        ops = [np.diag([1.0, coroot]), np.diag([0.0, root])]
    elif kind is ChannelKind.BF:
        ops = [coroot * ID2, root * PAULI_X]
    elif kind is ChannelKind.PF:
        ops = [coroot * ID2, root * PAULI_Z]
    else:
        ops = [coroot * ID2, root * PAULI_Y]
    ops = [k for k in ops if np.linalg.norm(k) >= ZERO_OP_TOL]
    return KrausChannel(tuple(ops), f"{kind.value}(lambda={lam:g})")


def transfer(ch: KrausChannel) -> np.ndarray:
    """Superoperator S = sum_i K_i (x) conj(K_i), so vec(E(rho)) = S vec(rho)
    for row-major vec.  Every other form of the channel derives from S."""
    return kraus_transfer(np.asarray(ch.ops))


def kraus_transfer(ops: np.ndarray) -> np.ndarray:
    """:func:`transfer` of a stack ``(k, 2, 2)`` of Kraus operators, taken as given: no channel object, no checks."""
    return np.einsum("kac,kbd->abcd", ops, ops.conj()).reshape(4, 4)


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """sum_i K_i rho K_i^dag for a valid density matrix ``rho``."""
    rho = assert_density_matrix(rho)
    return (transfer(ch) @ rho.reshape(4)).reshape(2, 2)


def to_choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix J = sum_ij |i><j| (x) E(|i><j|); Tr J = 2 when E is TP."""
    return choi_from_transfer(transfer(ch))


def choi_from_transfer(s) -> np.ndarray:
    """The reshuffle J[(i,a),(j,b)] = S[(a,b),(i,j)] of a transfer matrix: its Choi matrix."""
    return s.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def validate_channel(ch: KrausChannel) -> CPTPReport:
    """CPTP diagnostics: never raises, returns residuals and a verdict."""
    j = to_choi(ch)
    return cptp_report(j, np.linalg.eigvalsh((j + j.conj().T) / 2.0))


def cptp_report(j, choi_eigenvalues) -> CPTPReport:
    """:func:`validate_channel`'s report from J and its eigenvalues, ascending as ``eigvalsh`` returns them."""
    trace_residual = float(np.linalg.norm(j[::2, ::2] + j[1::2, 1::2] - ID2))  # TP: Tr_out J = (sum K^dag K)^T = I
    min_eig = float(choi_eigenvalues[0])
    ok = trace_residual <= TRACE_TOL and min_eig >= -CHOI_EIG_TOL
    return CPTPReport(trace_residual=trace_residual, min_choi_eig=min_eig, ok=ok)


def to_affine(ch: KrausChannel) -> AffineRep:
    """Distortion matrix and displacement: T_ij = Tr[s_i E(s_j)]/2, t_i = Tr[s_i E(I)]/2."""
    return affine_from_transfer(transfer(ch))


def affine_from_transfer(s) -> AffineRep:
    """T and t as blocks of :func:`pauli_transfer`."""
    m = pauli_transfer(s)
    return AffineRep(T=m[1:, 1:], t=m[1:, 0])


def pauli_transfer(s) -> np.ndarray:
    """(1/2) P^dag S P, the transfer matrix S in the Pauli basis: [[1, 0], [t, T]] for a trace-preserving channel."""
    return 0.5 * (_PAULI_VECS_DAG @ s @ _PAULI_VECS).real


def channel_to_json(ch: KrausChannel) -> str:
    """Serialize as {label, kraus: [2x2 row-major [re, im] pairs, ...]}."""
    payload = {"label": ch.label, "kraus": [complex_to_pairs(k) for k in ch.ops]}
    return json.dumps(payload, sort_keys=True)


def channel_from_json(text: str) -> KrausChannel:
    """Inverse of :func:`channel_to_json`; raises ValueError on any other shape."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not isinstance(payload.get("kraus"), list):
        raise ValueError('expected a JSON object {"label": ..., "kraus": [...]}')
    ops = tuple(pairs_to_complex(k) for k in payload["kraus"])
    return KrausChannel(ops, payload.get("label", ""))
