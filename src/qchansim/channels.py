"""Single-qubit CPTP channels as Kraus sets, with affine and Choi forms.

Conventions: |H> = |0> = (1, 0)^T, |V> = |1> = (0, 1)^T, and the Pauli basis
is sigma_x = [[0,1],[1,0]], sigma_y = [[0,-i],[i,0]], sigma_z = [[1,0],[0,-1]].
A channel acts as ``rho -> sum_i K_i rho K_i^dag``, which is the 4x4 transfer
matrix ``S`` of :func:`transfer` on row-major ``vec(rho)``, and on Bloch
vectors as ``r -> T r + t``.
"""

from __future__ import annotations

import json
import math
from enum import Enum

import numpy as np

from .matops import (
    ID2,
    PAULIS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Record,
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


class KrausChannel(Record):
    """An ordered set of 2x2 Kraus operators with a human-readable label.

    The operators are kept as one read-only stacked copy, so a later write to the caller's arrays cannot change the
    channel.  The Choi matrix J = sum_k vec K_k vec K_k^dag is formed once, here (:func:`to_choi` returns it, read-only,
    and :func:`transfer` reshuffles it); it takes no part in ``repr`` or ``==``."""

    __slots__ = ("ops", "label", "_choi")

    def __init__(self, ops: tuple, label: str = ""):
        if len(ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        stacked = np.array([as_cmat(k, 2) for k in ops])
        choi = _gram(stacked.swapaxes(1, 2).reshape(-1, 4))  # column-major vecs, vec K[2 j + a] = K[a, j]
        stacked.flags.writeable = choi.flags.writeable = False
        object.__setattr__(self, "ops", tuple(stacked))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_choi", choi)


class CPTPReport(Record):
    """Diagnostics from :func:`validate_channel`."""

    __slots__ = ("trace_residual", "min_choi_eig", "ok")

    def __init__(self, trace_residual: float, min_choi_eig: float, ok: bool):
        object.__setattr__(self, "trace_residual", trace_residual)
        object.__setattr__(self, "min_choi_eig", min_choi_eig)
        object.__setattr__(self, "ok", ok)


class AffineRep(Record):
    """Bloch-sphere representation r -> T r + t of a channel."""

    __slots__ = ("T", "t")

    def __init__(self, T: np.ndarray, t: np.ndarray):
        T = np.asarray(T, dtype=float)
        t = np.asarray(t, dtype=float)
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
    """Superoperator S = sum_i K_i (x) conj(K_i), so vec(E(rho)) = S vec(rho) for row-major vec: the reshuffle
    S[(a,b),(i,j)] = J[(i,a),(j,b)] of the channel's Choi matrix, formed when the channel was built."""
    return ch._choi.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """sum_i K_i rho K_i^dag for a valid 2x2 density matrix ``rho``."""
    rho = assert_density_matrix(rho, dim=2, stack=False)
    return (transfer(ch) @ rho.reshape(4)).reshape(2, 2)


def to_choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix J = sum_ij |i><j| (x) E(|i><j|), read-only; Tr J = 2 when E is TP."""
    return ch._choi


def _gram(vecs) -> np.ndarray:
    """The Gram product ``sum_k vec K_k vec K_k^dag`` of Kraus vecs stacked ``(n, 4)``: a Choi matrix, exactly
    Hermitian."""
    return np.einsum("ki,kj->ij", vecs, vecs.conj())


def validate_channel(ch: KrausChannel) -> CPTPReport:
    """CPTP diagnostics from the channel's Choi matrix J; never raises.  J is positive semidefinite, so ``ok`` is
    ``trace_residual <= TRACE_TOL``, the Frobenius norm of Tr_out J - I (:func:`_tp_defect`).  J = sum_k vec K_k
    vec K_k^dag has rank at most the number of operators, so below four its least eigenvalue is exactly 0 and needs no
    LAPACK call; four or more take one ``eigvalsh``.  A J that is not finite (Kraus entries past ~1e154) gets an
    infinite residual and a NaN eigenvalue with no LAPACK call: LAPACK fails on it, and numpy warns on the way."""
    j = ch._choi
    if not np.isfinite(j).all():
        return CPTPReport(trace_residual=math.inf, min_choi_eig=math.nan, ok=False)
    trace_residual = _tp_defect(j.tolist())[1]
    min_eig = 0.0 if len(ch.ops) < 4 else float(np.linalg.eigvalsh(j)[0])
    ok = trace_residual <= TRACE_TOL and min_eig >= -CHOI_EIG_TOL
    return CPTPReport(trace_residual=trace_residual, min_choi_eig=min_eig, ok=ok)


def _tp_defect(rows) -> tuple:
    """Tr_out J - I (TP: Tr_out J = (sum K^dag K)^T = I) as rows of Python complex numbers, and its Frobenius norm,
    the trace residual, from the eight entries it needs of J given as its rows (``J.tolist()``)."""
    (j00, _, j02, _), (_, j11, _, j13), (j20, _, j22, _), (_, j31, _, j33) = rows
    d00, d01, d10, d11 = j00 + j11 - 1.0, j02 + j13, j20 + j31, j22 + j33 - 1.0
    residual = math.hypot(d00.real, d00.imag, d01.real, d01.imag, d10.real, d10.imag, d11.real, d11.imag)
    return ((d00, d01), (d10, d11)), residual


def to_affine(ch: KrausChannel) -> AffineRep:
    """Distortion matrix and displacement: T_ij = Tr[s_i E(s_j)]/2, t_i = Tr[s_i E(I)]/2, as blocks of
    :func:`pauli_transfer`."""
    m = pauli_transfer(transfer(ch))
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
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {label!r}")
    ops = tuple(pairs_to_complex(k) for k in payload["kraus"])
    return KrausChannel(ops, label)
