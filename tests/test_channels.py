import numpy as np
import pytest

from conftest import random_channel, random_density, random_kraus_pair_channel
from qchansim.channels import (
    AffineRep,
    ChannelKind,
    KrausChannel,
    apply_channel,
    builtin_channel,
    channel_from_json,
    channel_to_json,
    to_affine,
    to_choi,
    transfer,
    validate_channel,
)
from qchansim.matops import ID2, PAULIS, bloch_vector, dagger, density_from_bloch

H = np.array([1.0, 0.0], dtype=complex)
V = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def proj(psi):
    return np.outer(psi, psi.conj())


def test_builtin_ad_quarter():
    ch = builtin_channel("AD", 0.25)
    assert len(ch.ops) == 2
    assert np.allclose(ch.ops[0], np.diag([1.0, np.sqrt(0.75)]))
    assert np.allclose(ch.ops[1], [[0.0, 0.5], [0.0, 0.0]])


def test_builtin_drops_zero_operators():
    ch = builtin_channel(ChannelKind.BF, 0.0)
    assert len(ch.ops) == 1
    assert np.allclose(ch.ops[0], ID2)


def test_builtin_bpf_half():
    ch = builtin_channel("BPF", 0.5)
    assert np.allclose(ch.ops[0], np.sqrt(0.5) * ID2)
    assert np.allclose(ch.ops[1], np.sqrt(0.5) * np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def test_builtin_rejects_bad_lambda():
    with pytest.raises(ValueError):
        builtin_channel("AD", 1.5)
    with pytest.raises(ValueError):
        builtin_channel("PD", -0.1)


def test_validate_builtin_ok():
    assert validate_channel(builtin_channel("AD", 0.5)).ok


def test_validate_flags_trace_violation():
    report = validate_channel(KrausChannel((np.diag([1.0, 1.1]),), "stretch"))
    assert not report.ok
    assert report.trace_residual > 0.2  # sum K^dag K = diag(1, 1.21)


def test_validate_flags_incomplete_kraus_set():
    k0 = builtin_channel("AD", 0.5).ops[0]
    report = validate_channel(KrausChannel((k0,), "half"))
    assert not report.ok
    assert report.trace_residual > 0.2


def test_apply_deterministic_flip():
    out = apply_channel(builtin_channel("BF", 1.0), proj(V))
    assert np.allclose(out, proj(H), atol=1e-12)


def test_apply_full_damping_of_plus():
    # Brute-force matrix products with the lam = 1 damping operators.
    k0 = np.diag([1.0, 0.0]).astype(complex)
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    expected = k0 @ proj(PLUS) @ dagger(k0) + k1 @ proj(PLUS) @ dagger(k1)
    assert np.allclose(expected, proj(H), atol=1e-12)
    assert np.allclose(apply_channel(builtin_channel("AD", 1.0), proj(PLUS)), expected, atol=1e-12)


def test_apply_phase_flip_mixes_plus():
    out = apply_channel(builtin_channel("PF", 0.5), proj(PLUS))
    assert np.allclose(out, ID2 / 2.0, atol=1e-12)


def test_apply_rejects_invalid_state():
    with pytest.raises(ValueError):
        apply_channel(builtin_channel("AD", 0.5), np.diag([1.0, 1.0]))


def _affine_oracle(ch):
    """Independent affine extraction through Bloch vectors of channel outputs."""
    t = bloch_vector(apply_channel(ch, ID2 / 2.0))
    cols = []
    for axis in np.eye(3):
        plus = bloch_vector(apply_channel(ch, density_from_bloch(axis)))
        cols.append(plus - t)
    return np.stack(cols, axis=1), t


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.0])
def test_to_affine_phase_damping(lam):
    aff = to_affine(builtin_channel("PD", lam))
    root = np.sqrt(1.0 - lam)
    assert np.allclose(aff.T, np.diag([root, root, 1.0]), atol=1e-12)
    assert np.allclose(aff.t, 0.0, atol=1e-12)
    t_oracle, shift_oracle = _affine_oracle(builtin_channel("PD", lam))
    assert np.allclose(aff.T, t_oracle, atol=1e-10)
    assert np.allclose(aff.t, shift_oracle, atol=1e-10)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
def test_to_affine_amplitude_damping(lam):
    aff = to_affine(builtin_channel("AD", lam))
    root = np.sqrt(1.0 - lam)
    assert np.allclose(aff.T, np.diag([root, root, 1.0 - lam]), atol=1e-12)
    assert np.allclose(aff.t, [0.0, 0.0, lam], atol=1e-12)


def test_to_affine_identity_channel():
    aff = to_affine(builtin_channel("BF", 0.0))
    assert np.allclose(aff.T, np.eye(3), atol=1e-12)
    assert np.allclose(aff.t, 0.0, atol=1e-12)


def test_to_choi_identity_channel_is_rank_one():
    choi = to_choi(builtin_channel("BF", 0.0))
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    assert np.allclose(choi, np.outer(bell, bell.conj()), atol=1e-12)
    assert abs(np.trace(choi) - 2.0) <= 1e-12


def test_to_choi_full_phase_damping_kills_coherence_block():
    choi = to_choi(builtin_channel("PD", 1.0))
    assert np.allclose(choi, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)


def test_to_choi_amplitude_damping_spectrum():
    w = np.linalg.eigvalsh(to_choi(builtin_channel("AD", 0.5)))
    assert np.allclose(w, [0.0, 0.0, 0.5, 1.5], atol=1e-12)


def test_all_builtins_validate_on_grid():
    for kind in ChannelKind:
        for lam in np.linspace(0.0, 1.0, 21):
            assert validate_channel(builtin_channel(kind, lam)).ok


def test_apply_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(10)
    kinds = list(ChannelKind)
    for i in range(1000):
        ch = builtin_channel(kinds[i % 5], rng.uniform(0.0, 1.0))
        out = apply_channel(ch, random_density(rng))
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.norm(out - dagger(out)) <= 1e-10


def test_affine_apply_consistency_random_channels():
    rng = np.random.default_rng(11)
    for _ in range(100):
        ch = random_kraus_pair_channel(rng)
        assert validate_channel(ch).ok
        aff = to_affine(ch)
        rho = random_density(rng)
        lhs = bloch_vector(apply_channel(ch, rho))
        rhs = aff.T @ bloch_vector(rho) + aff.t
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_choi_detects_non_cp_maps():
    # Any Kraus set is CP by construction, so scaling K1 can only break the
    # trace condition; the positivity side of the check is exercised with
    # the Choi matrix of the transpose map, the canonical positive non-CP map.
    ch = builtin_channel("AD", 0.5)
    corrupted = KrausChannel((ch.ops[0], 1.3 * ch.ops[1]), "scaled")
    report = validate_channel(corrupted)
    assert not report.ok
    assert report.trace_residual > 1e-2
    assert report.min_choi_eig >= -1e-10

    transpose_choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            transpose_choi += np.kron(e, e.T)
    assert np.linalg.eigvalsh(transpose_choi).min() < -1e-6


def test_affine_image_stays_in_unit_ball():
    for kind in ChannelKind:
        for lam in (0.0, 0.4, 1.0):
            assert to_affine(builtin_channel(kind, lam)).image_in_unit_ball()
    assert not AffineRep(T=1.2 * np.eye(3), t=np.zeros(3)).image_in_unit_ball()


def test_channel_json_round_trip():
    ch = builtin_channel("BPF", 0.3, label="bpf-third")
    back = channel_from_json(channel_to_json(ch))
    assert back.label == "bpf-third"
    assert len(back.ops) == len(ch.ops)
    for a, b in zip(back.ops, ch.ops):
        assert np.allclose(a, b)


# Kraus-sum definitions, kept here as the reference for the transfer-matrix forms.


def _kraus_image(ch, op):
    return sum(k @ op @ dagger(k) for k in ch.ops)


def _kraus_choi(ch):
    units = [np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2)]
    return sum(np.kron(e, _kraus_image(ch, e)) for e in units)


def _kraus_affine(ch):
    T = np.array([[0.5 * np.trace(si @ _kraus_image(ch, sj)).real for sj in PAULIS] for si in PAULIS])
    t = np.array([0.5 * np.trace(si @ _kraus_image(ch, ID2)).real for si in PAULIS])
    return T, t


def _kraus_trace_residual(ch):
    return np.linalg.norm(sum(dagger(k) @ k for k in ch.ops) - ID2)


def _reference_channels():
    rng = np.random.default_rng(12)
    named = [builtin_channel(kind, lam) for kind in ChannelKind for lam in (0.0, 0.3, 0.5, 1.0)]
    return named + [random_channel(rng, rank) for rank in (1, 2, 3, 4) for _ in range(5)]


@pytest.mark.parametrize("ch", _reference_channels(), ids=lambda ch: ch.label)
def test_transfer_forms_match_kraus_sums(ch):
    rng = np.random.default_rng(13)
    for _ in range(5):
        rho = random_density(rng)
        assert np.abs(apply_channel(ch, rho) - _kraus_image(ch, rho)).max() <= 1e-12
    assert np.abs(to_choi(ch) - _kraus_choi(ch)).max() <= 1e-12
    T, t = _kraus_affine(ch)
    aff = to_affine(ch)
    assert np.abs(aff.T - T).max() <= 1e-12
    assert np.abs(aff.t - t).max() <= 1e-12
    report = validate_channel(ch)
    assert report.ok
    assert abs(report.trace_residual - _kraus_trace_residual(ch)) <= 1e-12
    assert abs(report.min_choi_eig - np.linalg.eigvalsh(_kraus_choi(ch)).min()) <= 1e-12


def test_transfer_acts_on_row_major_vec():
    rng = np.random.default_rng(14)
    for rank in (1, 2, 3, 4):
        ch = random_channel(rng, rank)
        S = transfer(ch)
        assert S.shape == (4, 4)
        # Any operator, not only a state: S is the linear map itself.
        op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.abs(S @ op.reshape(4) - _kraus_image(ch, op).reshape(4)).max() <= 1e-12


def test_validate_trace_residual_matches_kraus_sum_off_tp():
    for ch in (KrausChannel((np.diag([1.0, 1.1]),), "stretch"),
               KrausChannel((builtin_channel("AD", 0.5).ops[0],), "half"),
               KrausChannel((np.array([[0.0, 1.0], [0.3, 0.0]]), 0.5j * ID2), "skew")):
        report = validate_channel(ch)
        assert not report.ok
        assert abs(report.trace_residual - _kraus_trace_residual(ch)) <= 1e-12
