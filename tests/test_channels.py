import math

import numpy as np
import pytest

from conftest import random_channel, random_density, random_kraus_pair_channel
from qchansim.channels import (
    ChannelKind,
    KrausChannel,
    CHOI_EIG_TOL,
    TRACE_TOL,
    CPTPReport,
    apply_channel,
    builtin_channel,
    channel_from_json,
    channel_to_json,
    to_affine,
    to_choi,
    transfer,
    validate_channel,
)
from qchansim.decompose import fit_plan, plan_to_channel
from qchansim.matops import ID2, PAULIS, bloch_vector, dagger, density_from_bloch, frob_dist

H = np.array([1.0, 0.0], dtype=complex)
V = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def proj(psi):
    return np.outer(psi, psi.conj())


def reference_report(ch, least) -> CPTPReport:
    """validate_channel's report written out from to_choi and a least eigenvalue: the trace residual is the hypot of
    the real and imaginary parts of Tr_out J - I, row-major."""
    d = np.einsum("iaja->ij", to_choi(ch).reshape(2, 2, 2, 2)) - ID2
    residual, least = math.hypot(*np.stack([d.real, d.imag], axis=-1).ravel().tolist()), float(least)
    return CPTPReport(residual, least, residual <= TRACE_TOL and least >= -CHOI_EIG_TOL)


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


def test_trace_residual_is_the_norm_of_tr_out_j_minus_identity_within_an_ulp():
    # The report reads the eight entries of J it needs as Python numbers; numpy's norm sums the same squares in
    # another order.  The fit benchmark's corpus, the named channels and Kraus sets rounded to 9 digits, as a
    # hand-written Kraus file would be.
    rng = np.random.default_rng(2008)
    channels = [random_channel(rng, rank) for rank, count in zip((1, 2, 3, 4), (8, 8, 6, 6)) for _ in range(count)]
    channels += [builtin_channel(kind, lam) for kind in ChannelKind for lam in np.linspace(0.0, 1.0, 11)]
    channels += [KrausChannel(tuple(np.round(k, 9) for k in random_channel(np.random.default_rng(10000 + i), 3).ops))
                 for i in range(20)]
    for ch in channels:
        j = to_choi(ch)
        expected = np.linalg.norm(j[::2, ::2] + j[1::2, 1::2] - ID2)
        assert abs(validate_channel(ch).trace_residual - expected) <= np.spacing(expected), ch.label


def test_validate_and_fit_plan_take_one_eigenvalue_call_each(monkeypatch):
    # validate_channel makes one eigvalsh for four or more operators and none below four, where J has rank < 4 and
    # min_choi_eig is 0.  fit_plan makes none for its verdict: J is positive semidefinite, so it is the trace
    # residual's.  A stage-one fit of at most two operators reads their pair with no eigh, and a trace-preserving split
    # of rank 3 and 4 proves its skip of stage one and splits its own operators with none.  The rest make one eigh, of
    # the trace-preserving projection, for the skip test and both stages: a six-operator channel within reach of stage
    # one, and a two-operator file rounded to 9 digits that reaches the split (the 40 files of
    # test_fit_plan_scores_one_plan_at_stage_one_on_rounded_two_kraus_files, i = 1).
    near = random_channel(np.random.default_rng(37), 2)
    cases = [(random_channel(np.random.default_rng(50 + rank), rank), 0 if rank <= 2 else 1) for rank in (1, 2, 3, 4)]
    cases += [(KrausChannel(tuple(np.sqrt(1.0 - 1e-13) * k for k in near.ops)
                            + tuple(np.sqrt(1e-13) / 2.0 * s for s in (ID2, *PAULIS))), 0),
              (KrausChannel(tuple(np.round(k, 9) for k in random_channel(np.random.default_rng(64001), 2).ops)), 1)]
    counts = {}

    def counting(name, function):
        def wrapper(a):
            counts[name] += 1
            return function(a)
        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for ch, starts_used in cases:
        counts.update(eigvalsh=0, eigh=0)
        assert validate_channel(ch).ok and counts == {"eigvalsh": int(len(ch.ops) >= 4), "eigh": 0}
        counts.update(eigvalsh=0)
        assert fit_plan(ch).starts_used == starts_used
        assert counts == {"eigvalsh": 0, "eigh": int(len(ch.ops) > 4 or starts_used > 0 and len(ch.ops) <= 2)}


def test_fit_plan_refuses_exactly_what_validate_channel_refuses():
    # fit_plan's verdict is the trace residual's alone; validate_channel's also asks for min_choi_eig >= -1e-8.  They
    # agree because J = sum vec K vec K^dag is positive semidefinite for every Kraus set.  Seeded sets of 1-6
    # operators: trace preserving, scaled so that the trace residual |s^2 - 1| sqrt 2 lands just below and just above
    # TRACE_TOL, and not trace preserving at all; then the two overflowing channels and the one near overflow.
    rng = np.random.default_rng(7100)
    channels, scaled = [], []
    for n in range(1, 7):
        for _ in range(20):
            ch = random_channel(rng, n)
            channels.append(ch)
            for side in (-1.0, 1.0):
                for margin in (0.99, 1.01):
                    s = np.sqrt(1.0 + side * margin * TRACE_TOL / np.sqrt(2.0))
                    scaled.append((KrausChannel(tuple(s * k for k in ch.ops)), margin < 1.0))
            ops = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
            channels.append(KrausChannel(tuple(ops * rng.uniform(0.1, 1.0))))
    channels += [KrausChannel((1e160 * ID2,)), KrausChannel((np.diag([1e160, 0.0]), np.diag([0.0, 1.0]))),
                 KrausChannel((1.3e154 * ID2,))]
    for ch, below in scaled:
        assert (validate_channel(ch).trace_residual <= TRACE_TOL) == below
    accepted = 0
    for ch in channels + [ch for ch, _ in scaled]:
        report = validate_channel(ch)
        if report.ok:
            accepted += 1
            assert report.min_choi_eig >= -1e-14
            fit_plan(ch)
        else:
            with pytest.raises(ValueError, match="requires a CPTP channel"):
                fit_plan(ch)
    assert accepted == 120 + 2 * 120


def test_validate_reports_an_overflowing_transfer_matrix_without_an_eigenvalue_call(monkeypatch):
    # Kraus entries of 1e160 are finite, but their products overflow the transfer matrix to inf.  The report says so
    # without LAPACK, which would warn and fail on it, and fit_plan refuses the channel.
    def no_eigvalsh(_):
        raise AssertionError("no eigenvalue solver on a matrix that is not finite")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    for ch in (KrausChannel((1e160 * ID2,), "huge"), KrausChannel((np.diag([1e160, 0.0]), np.diag([0.0, 1.0])))):
        report = validate_channel(ch)
        assert not report.ok and report.trace_residual == np.inf and np.isnan(report.min_choi_eig)
        with pytest.raises(ValueError, match="requires a CPTP channel"):
            fit_plan(ch)


def test_validate_makes_no_linalg_call_below_four_operators(monkeypatch):
    # J = sum_k vec K_k vec K_k^dag has rank at most the number of operators, so below four its least eigenvalue is 0
    # and validate_channel reports exactly that, with no eigh, eigvalsh, qr, svd or det.  The verdict is the one that
    # eigvalsh's round-off gives: the named channels on a 0.01 grid of lambda, seeded sets of 1-3 operators, the
    # same scaled off trace preservation, and a stretch.
    channels = [builtin_channel(kind, lam) for kind in ChannelKind for lam in np.linspace(0.0, 1.0, 101)]
    rng = np.random.default_rng(7300)
    for n in (1, 2, 3):
        for _ in range(10):
            ch = random_channel(rng, n)
            channels += [ch, KrausChannel(tuple(1.001 * k for k in ch.ops))]
    channels.append(KrausChannel((np.diag([1.0, 1.1]),), "stretch"))
    expected = [reference_report(ch, np.linalg.eigvalsh(to_choi(ch))[0]).ok for ch in channels]

    def no_call(*args, **kwargs):
        raise AssertionError("numpy.linalg call")

    for name in ("eigh", "eigvalsh", "qr", "svd", "det"):
        monkeypatch.setattr(np.linalg, name, no_call)
    for ch, ok in zip(channels, expected):
        report = validate_channel(ch)
        assert report.min_choi_eig == 0.0 and report.ok == ok, ch.label
    assert sum(expected) == 505 + 30


def test_validate_reports_a_finite_transfer_matrix_near_overflow():
    # Entries of 1.3e154 keep the transfer matrix finite near 1.7e308, where J + J^dag would overflow; J is exactly
    # Hermitian, so its eigenvalues are computed without that sum, and no numpy warning is raised.
    report = validate_channel(KrausChannel((1.3e154 * ID2,), "near overflow"))
    assert not report.ok and report.trace_residual == np.inf and report.min_choi_eig == 0.0


def test_validate_and_fit_plan_give_the_forms_of_separate_calls_bit_for_bit():
    # J against the Gram product sum_k vec K_k vec K_k^dag of the column-major vecs and S against
    # sum_k K_k (x) conj(K_k), both written here; the report against one written from J and eigvalsh of its Hermitian
    # part J / 2 + (J / 2)^dag, or the eigenvalue 0 below four operators; fit_plan's residual against the Choi distance
    # of separate calls, so its own J has to_choi's bits too.  The fit benchmark's corpus, the 55 named channel /
    # lambda pairs, seeded Kraus sets of Choi rank 1-4, a set of five operators and entries of 1.3e154, whose J is
    # finite near the largest float.
    rng = np.random.default_rng(2008)
    channels = [random_channel(rng, rank) for rank, count in zip((1, 2, 3, 4), (8, 8, 6, 6)) for _ in range(count)]
    channels += [builtin_channel(kind, lam) for kind in ChannelKind for lam in np.linspace(0.0, 1.0, 11)]
    channels += [random_channel(np.random.default_rng(70000 + 100 * rank + i), rank)
                 for rank in (1, 2, 3, 4) for i in range(25)]
    channels += [random_channel(np.random.default_rng(70500), 5),
                 KrausChannel((1.3e154 * ID2,), "near overflow"),
                 KrausChannel((1.3e154 * np.array([[0.6, 0.8j], [0.0, 0.0]]),
                               1.3e154 * np.array([[0.0, 0.0], [0.8, 0.6]])))]
    fitted = 0
    for ch in channels:
        ops = np.array(ch.ops)
        vecs = ops.swapaxes(1, 2).reshape(-1, 4)
        j_ref = np.einsum("ki,kj->ij", vecs, vecs.conj())
        s_ref = np.einsum("kac,kbd->abcd", ops, ops.conj()).reshape(4, 4)
        j, half = to_choi(ch), j_ref / 2.0
        assert j.tobytes() == j_ref.tobytes() and np.array_equal(j, j.conj().T), ch.label  # exactly Hermitian
        assert transfer(ch).tobytes() == s_ref.tobytes(), ch.label
        report = validate_channel(ch)
        least = np.linalg.eigvalsh(half + half.conj().T)[0] if len(ch.ops) >= 4 else 0.0
        assert report == reference_report(ch, least), ch.label
        if report.ok:
            fit = fit_plan(ch)
            assert fit.residual == frob_dist(to_choi(plan_to_channel(fit.plan)), to_choi(ch)), ch.label
            fitted += 1
    assert fitted == len(channels) - 2


def test_channel_keeps_its_own_read_only_operators_and_choi_matrix():
    # A write to the caller's arrays after the channel is built changes none of its forms, its report or its fit; its
    # operators and its Choi matrix are read-only, so a write to them raises.
    ops = [np.diag([1.0, np.sqrt(0.5)]).astype(complex), np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]], dtype=complex)]
    ch = KrausChannel(tuple(ops), "AD(lambda=0.5)")
    before = (validate_channel(ch), to_choi(ch).tobytes(), transfer(ch).tobytes(), fit_plan(ch).residual)
    ops[0][0, 0] = 5.0
    ops[1][0, 1] = -2.0j
    after = (validate_channel(ch), to_choi(ch).tobytes(), transfer(ch).tobytes(), fit_plan(ch).residual)
    assert after == before and before[0].ok
    for m in (*ch.ops, to_choi(ch)):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5.0
    assert "_choi" not in repr(ch)


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


@pytest.mark.parametrize("rho, message", [
    (np.eye(3) / 3.0, r"expected a 2x2 matrix, got shape \(3, 3\)"),
    (np.array([ID2 / 2.0] * 3), r"expected one matrix, not a stack of shape \(3, 2, 2\)"),
])
def test_apply_rejects_a_non_qubit_or_stacked_state_in_one_line(rho, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_channel(builtin_channel("AD", 0.5), rho)


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


def test_channel_json_round_trip():
    ch = KrausChannel(builtin_channel("BPF", 0.3).ops, "bpf-third")
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
