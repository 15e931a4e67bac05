import itertools
import json
import warnings

import numpy as np
import pytest

from conftest import random_channel, random_kraus_pair_channel
from qchansim.channels import (
    AffineRep,
    ChannelKind,
    KrausChannel,
    affine_from_transfer,
    builtin_channel,
    to_affine,
    to_choi,
    transfer,
    validate_channel,
)
from qchansim.circuit import compile_plan
from qchansim.decompose import (
    AngleNuMu,
    DecompositionPlan,
    NotQuasiExtremeError,
    QuasiExtremeBranch,
    FIT_TARGET_RESIDUAL,
    U_BPF,
    FIT_MAX_STARTS,
    FIT_SEED,
    _branch_from_entries,
    _kraus_split,
    _plan_choi,
    _solve_psd3,
    _start_frames,
    _single_branch_candidates,
    branch_from_nu_mu,
    closed_form_plan,
    extract_nu_mu,
    fit_plan,
    gammas_from_angles,
    kraus_from_angles,
    plan_from_json,
    plan_to_channel,
    plan_to_json,
    wrap_angle,
)
from qchansim.matops import ID2, PAULIS, PAULI_Z, frob_dist, svd3
from qchansim.optics import EulerAngles, su2_from_euler, su2_from_rotation

PI = np.pi

# Tabulated decomposition parameters (alpha, beta, gamma1, gamma2) per lambda.
TABLE_AD_PD = {
    0.0: (0.0, 0.0, PI / 2, -PI / 2),
    0.25: (PI / 6, 0.0, PI / 3, -PI / 3),
    0.5: (PI / 4, 0.0, PI / 4, -PI / 4),
    0.75: (PI / 3, 0.0, PI / 6, -PI / 6),
    1.0: (PI / 2, 0.0, 0.0, 0.0),
}
TABLE_BF = {
    0.0: (0.0, 0.0, PI / 2, -PI / 2),
    0.25: (PI / 6, PI / 6, PI / 2, -PI / 6),
    0.5: (PI / 4, PI / 4, PI / 2, 0.0),
    0.75: (PI / 3, PI / 3, PI / 2, PI / 6),
    1.0: (PI / 2, PI / 2, PI / 2, PI / 2),
}
ROW_PF_FLIP = (PI, 0.0, -PI / 2, PI / 2)
ROW_IDENTITY = (0.0, 0.0, PI / 2, -PI / 2)
ROW_BPF_FLIP = (PI / 2, PI / 2, PI / 2, PI / 2)
LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def assert_branch_row(branch, row, atol=1e-12):
    assert branch.alpha == pytest.approx(row[0], abs=atol)
    assert branch.beta == pytest.approx(row[1], abs=atol)
    assert branch.gamma1 == pytest.approx(row[2], abs=atol)
    assert branch.gamma2 == pytest.approx(row[3], abs=atol)


def test_kraus_from_angles_examples():
    k0, k1 = kraus_from_angles(0.0, 0.0)
    assert np.allclose(k0, ID2) and np.allclose(k1, 0.0)
    k0, k1 = kraus_from_angles(PI / 2, 0.0)
    assert np.allclose(k0, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(k1, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
    k0, k1 = kraus_from_angles(PI, 0.0)
    assert np.allclose(k0, PAULI_Z, atol=1e-12)
    assert np.allclose(k1, 0.0, atol=1e-12)


def test_kraus_from_angles_trace_preserving():
    rng = np.random.default_rng(30)
    angles = rng.uniform(-PI, PI, (200, 2))
    stacked = kraus_from_angles(angles[:, 0], angles[:, 1])
    for i, (alpha, beta) in enumerate(angles):
        k0, k1 = kraus_from_angles(alpha, beta)
        acc = k0.conj().T @ k0 + k1.conj().T @ k1
        assert np.linalg.norm(acc - ID2) <= 1e-12
        # A stacked call gives the same pairs as one call per angle pair.
        assert np.abs(stacked[0][i] - k0).max() <= 1e-15 and np.abs(stacked[1][i] - k1).max() <= 1e-15


def test_kraus_pair_is_kraus_from_angles_bit_for_bit():
    # One construction for a branch and for a stack of angles, with numpy's cos and sin and every zero +0.
    grid = np.array([0.0, PI / 2, -PI / 2, PI, -PI, 0.3, -2.1, 1e-300])
    alpha, beta = (a.ravel() for a in np.meshgrid(grid, grid))
    stacked = kraus_from_angles(alpha, beta)
    for i, (a, b) in enumerate(zip(alpha, beta)):
        assert stacked[:, i].tobytes() == kraus_from_angles(a, b).tobytes()
        for conditional_x in (True, False):
            pair = QuasiExtremeBranch(alpha=a, beta=b, U=ID2, Uprime=ID2, conditional_x=conditional_x).kraus_pair()
            k1 = [[0.0, np.sin(a)], [np.sin(b), 0.0]] if conditional_x else [[np.sin(b), 0.0], [0.0, np.sin(a)]]
            expected = np.array([[[np.cos(b), 0.0], [0.0, np.cos(a)]], k1], dtype=complex)
            assert pair.tobytes() == expected.tobytes(), (a, b, conditional_x)
            if conditional_x:
                assert pair.tobytes() == kraus_from_angles(a, b).tobytes()


def test_branches_hold_read_only_copies_and_shared_constants_are_read_only():
    # A branch that stored the caller's array would hand out matops.ID2 as from_alpha_beta(...).U, and a write to it
    # would change every later plan.
    shared = [ID2, *PAULIS, U_BPF]
    branches = [QuasiExtremeBranch.from_alpha_beta(0.1, 0.2), closed_form_plan("BPF", 0.5).branch_a]
    for m in shared + [b.U for b in branches] + [b.Uprime for b in branches]:
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5.0
    assert not any(np.shares_memory(b.U, m) for b in branches for m in shared)
    u = su2_from_euler(EulerAngles(0.1, 0.2, 0.3))
    branch = QuasiExtremeBranch.from_alpha_beta(0.1, 0.2, U=u)
    u[0, 0] = 5.0  # the caller's array stays writeable; the branch keeps the unitary it checked
    assert abs(branch.U[0, 0]) <= 1.0
    assert closed_form_plan("AD", 0.5).branch_a.U.tobytes() == np.eye(2, dtype=complex).tobytes()


def test_gammas_from_angles_examples():
    assert gammas_from_angles(PI / 6, 0.0) == pytest.approx((PI / 3, -PI / 3))
    assert gammas_from_angles(PI / 4, PI / 4) == pytest.approx((PI / 2, 0.0))
    assert gammas_from_angles(PI / 2, PI / 2) == pytest.approx((PI / 2, PI / 2))


def test_gammas_consistency_identities():
    rng = np.random.default_rng(31)
    for _ in range(200):
        alpha, beta = rng.uniform(-PI, PI, size=2)
        g1, g2 = gammas_from_angles(alpha, beta)
        assert (g1 + g2) / 2.0 == pytest.approx(beta, abs=1e-12)
        assert (g1 - g2) / 2.0 == pytest.approx(PI / 2 - alpha, abs=1e-12)


@pytest.mark.parametrize("kind", ["AD", "PD"])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_table_amplitude_and_phase_damping(kind, lam):
    plan = closed_form_plan(kind, lam)
    assert plan.p == 1.0 and plan.branch_b is None
    assert_branch_row(plan.branch_a, TABLE_AD_PD[lam])
    assert np.allclose(plan.branch_a.U, ID2) and np.allclose(plan.branch_a.Uprime, ID2)
    assert plan.branch_a.conditional_x == (kind == "AD")


@pytest.mark.parametrize("lam", LAMBDAS)
def test_table_bit_flip(lam):
    plan = closed_form_plan("BF", lam)
    assert plan.p == 1.0 and plan.branch_b is None
    assert_branch_row(plan.branch_a, TABLE_BF[lam])


@pytest.mark.parametrize("lam", LAMBDAS)
def test_table_phase_flip(lam):
    plan = closed_form_plan("PF", lam)
    assert plan.p == pytest.approx(lam)
    assert_branch_row(plan.branch_a, ROW_PF_FLIP)
    assert_branch_row(plan.branch_b, ROW_IDENTITY)
    for br in (plan.branch_a, plan.branch_b):
        assert np.allclose(br.U, ID2) and np.allclose(br.Uprime, ID2)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_table_bit_phase_flip(lam):
    # The flip branch carries the weight lambda and the diag(-i, i) dressing;
    # the identity branch always gets gamma2 = -pi/2, and its weight
    # vanishes at lam = 1.
    plan = closed_form_plan("BPF", lam)
    assert plan.p == pytest.approx(lam)
    assert_branch_row(plan.branch_a, ROW_BPF_FLIP)
    assert np.allclose(plan.branch_a.U, U_BPF)
    assert np.allclose(plan.branch_a.Uprime, ID2)
    assert_branch_row(plan.branch_b, ROW_IDENTITY)


def test_closed_form_rejects_bad_lambda():
    with pytest.raises(ValueError):
        closed_form_plan("AD", 1.2)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("lam", LAMBDAS)
def test_plan_channel_matches_builtin_choi(kind, lam):
    plan = closed_form_plan(kind, lam)
    d = frob_dist(to_choi(plan_to_channel(plan)), to_choi(builtin_channel(kind, lam)))
    assert d <= 1e-10
    assert validate_channel(plan_to_channel(plan)).ok


def test_identity_plan_gives_identity_channel():
    plan = DecompositionPlan(QuasiExtremeBranch.from_alpha_beta(0.0, 0.0), None, 1.0)
    ch = plan_to_channel(plan)
    assert len(ch.ops) == 1
    assert np.allclose(ch.ops[0], ID2)


def test_branch_rejects_nonunitary_dressing():
    with pytest.raises(ValueError):
        QuasiExtremeBranch.from_alpha_beta(0.3, 0.1, U=1.5 * ID2)


def test_branch_rejects_inconsistent_gammas():
    # The gammas follow from (alpha, beta); only a plan read from JSON can contradict them.
    text = plan_to_json(DecompositionPlan(QuasiExtremeBranch.from_alpha_beta(0.3, 0.0), None, 1.0))
    payload = json.loads(text)
    for key in ("gamma1", "gamma2"):
        tampered = json.loads(text)
        tampered["branches"][0][key] += 1e-6
        with pytest.raises(ValueError, match="gamma angles inconsistent"):
            plan_from_json(json.dumps(tampered))
    payload["branches"][0]["gamma1"] += 2.0 * PI
    assert plan_from_json(json.dumps(payload)).branch_a.gamma1 == pytest.approx(PI / 2.0 - 0.3)


def test_plan_requires_second_branch_below_unit_weight():
    with pytest.raises(ValueError):
        DecompositionPlan(QuasiExtremeBranch.from_alpha_beta(0.0, 0.0), None, 0.5)


def test_wrap_angle_edges():
    assert wrap_angle(PI) == pytest.approx(PI)
    assert wrap_angle(-PI) == pytest.approx(PI)
    assert wrap_angle(3 * PI) == pytest.approx(PI)
    assert wrap_angle(0.3 - 2 * PI) == pytest.approx(0.3)


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_extract_nu_mu_amplitude_damping(lam):
    nm = extract_nu_mu(to_affine(builtin_channel("AD", lam)))
    expected = np.arcsin(np.sqrt(lam))
    assert nm.nu == pytest.approx(expected, abs=1e-10)
    assert nm.mu == pytest.approx(expected, abs=1e-10)


def test_extract_nu_mu_identity():
    nm = extract_nu_mu(to_affine(builtin_channel("AD", 0.0)))
    assert nm.nu == pytest.approx(0.0, abs=1e-12)
    assert nm.mu == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_extract_nu_mu_rejects_phase_damping(lam):
    with pytest.raises(NotQuasiExtremeError):
        extract_nu_mu(to_affine(builtin_channel("PD", lam)))


def test_extract_nu_mu_round_trip():
    rng = np.random.default_rng(32)
    for _ in range(200):
        nm = AngleNuMu(nu=rng.uniform(0.0, PI), mu=rng.uniform(-PI, PI))
        branch = branch_from_nu_mu(nm)
        aff = to_affine(plan_to_channel(DecompositionPlan(branch, None, 1.0)))
        back = extract_nu_mu(aff)
        assert back.nu == pytest.approx(nm.nu, abs=1e-8)
        assert abs(wrap_angle(back.mu - nm.mu)) <= 1e-8


def _random_branch(rng, conditional_x=True):
    return QuasiExtremeBranch.from_alpha_beta(
        rng.uniform(-PI, PI),
        rng.uniform(-PI, PI),
        U=su2_from_euler(EulerAngles(*rng.uniform(-PI, PI, 3))),
        Uprime=su2_from_euler(EulerAngles(*rng.uniform(-PI, PI, 3))),
        conditional_x=conditional_x,
    )


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_fit_plan_recovers_builtins(kind):
    # Every named channel has Choi rank <= 2, so stage one fits it in closed form, to round-off.
    for lam in np.linspace(0.0, 1.0, 11):
        result = fit_plan(builtin_channel(kind, lam))
        assert result.starts_used == 0
        assert result.residual <= 1e-12


def test_fit_plan_recovers_random_quasiextreme():
    rng = np.random.default_rng(33)
    for _ in range(10):
        plan = DecompositionPlan(_random_branch(rng), None, 1.0)
        result = fit_plan(plan_to_channel(plan))
        assert result.residual <= 1e-8


def test_fit_plan_idempotent_on_random_plan():
    rng = np.random.default_rng(34)
    plan = DecompositionPlan(_random_branch(rng), _random_branch(rng), p=0.315)
    result = fit_plan(plan_to_channel(plan))
    assert result.converged
    assert result.residual <= 1e-8


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fit_plan_handles_every_choi_rank(rank):
    ch = random_channel(np.random.default_rng(40 + rank), rank)
    result = fit_plan(ch)
    assert result.converged
    assert result.residual <= 1e-9
    # Ranks 1-2 end in the closed-form SVD stage, ranks 3-4 on the first split start.
    assert result.starts_used == (0 if rank <= 2 else 1)
    assert np.abs(compile_plan(result.plan) - transfer(ch)).max() <= 1e-8
    # A second fit in the same process returns the identical plan.
    assert plan_to_json(fit_plan(ch).plan) == plan_to_json(result.plan)


def test_fit_plan_rejects_non_cptp():
    with pytest.raises(ValueError):
        fit_plan(KrausChannel((np.diag([1.0, 1.1]),), "bad"))


def test_fit_plan_reports_choi_distance():
    ch = random_kraus_pair_channel(np.random.default_rng(36))
    result = fit_plan(ch)
    recomputed = frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch))
    assert result.residual == pytest.approx(recomputed, abs=1e-12)


def test_fit_plan_residual_describes_the_returned_plan(monkeypatch):
    import qchansim.decompose as decompose

    for rank in (3, 4):
        ch = random_channel(np.random.default_rng(35), rank)
        result = fit_plan(ch)
        assert result.starts_used == 1
        assert result.residual == frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch))
    # A split weighted 1 - 1e-14: the returned plan drops branch b, and the residual is that of the returned plan.
    split = decompose._kraus_split
    monkeypatch.setattr(decompose, "_kraus_split", lambda kraus, rng: (1.0 - 1e-14, *split(kraus, rng)[1:]))
    result = fit_plan(ch)
    assert result.plan.branch_b is None
    assert result.residual == frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch))


def test_fit_plan_fits_random_rank3_channels_from_the_first_start():
    for i in range(20):
        result = fit_plan(random_channel(np.random.default_rng(10000 + i), 3))
        assert result.residual <= FIT_TARGET_RESIDUAL and result.starts_used == 1, i


_FULLY_DEPOLARIZING = KrausChannel(tuple(0.5 * s for s in (ID2, *PAULIS)), "fully depolarizing")


@pytest.mark.parametrize("kind", ["rank 3", "rank 4", "fully depolarizing"])
def test_kraus_split_halves_are_trace_preserving(kind):
    if kind == "fully depolarizing":
        channels = [_FULLY_DEPOLARIZING]
    else:
        rank = int(kind[-1])
        channels = [random_channel(np.random.default_rng(7000 + 10 * rank + i), rank) for i in range(20)]
    for ch in channels:
        kraus = np.concatenate([np.asarray(ch.ops), np.zeros((4 - len(ch.ops), 2, 2))])  # a rank-3 set padded to four
        p, pair_a, pair_b = _kraus_split(kraus, next(_start_frames(0)))
        for pair in (pair_a, pair_b):
            assert frob_dist(np.einsum("kba,kbc->ac", pair.conj(), pair), ID2) <= 1e-13, ch.label
        # The halves, weighted by p and 1 - p, are the channel itself.
        halves = [transfer(KrausChannel(tuple(pair))) for pair in (pair_a, pair_b)]
        assert frob_dist(p * halves[0] + (1.0 - p) * halves[1], transfer(ch)) <= 1e-13, ch.label


def test_kraus_split_frame_stays_unitary():
    # vec L = F^T vec K for the frame F = [Y Z], so F is read back from the halves; the polar update keeps it unitary
    # without a re-orthonormalisation, and the halves it returns solve g_k = Tr(Y^dag B_k Y) = 0 to 4 eps.
    for i in range(20):
        kraus = np.asarray(random_channel(np.random.default_rng(7400 + i), 4).ops)
        p, pair_a, pair_b = _kraus_split(kraus, next(_start_frames(i)))
        mixed = np.concatenate([np.sqrt(p) * pair_a, np.sqrt(1.0 - p) * pair_b])
        frame = np.linalg.solve(kraus.reshape(4, 4).T, mixed.reshape(4, 4).T)
        assert np.abs(frame.conj().T @ frame - np.eye(4)).max() <= 1e-14, i
        g = [np.trace(s @ np.einsum("kba,kbc->ac", mixed[:2].conj(), mixed[:2])).real for s in PAULIS]
        assert np.linalg.norm(g) <= 4.0 * np.finfo(float).eps, i


def test_kraus_split_gives_up_where_the_newton_step_is_singular():
    # The completely dephasing channel padded to four operators has B_x = B_y = 0, so the step's 3x3 normal equations
    # are singular at every plane, with |g| far from 0: the start fails, and fit_plan would draw another.
    kraus = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2))], dtype=complex)
    assert _kraus_split(kraus, next(_start_frames(0))) is None


def test_kraus_split_finishes_a_start_that_converges_to_a_singular_solution():
    # The fully depolarizing channel in 20 random Kraus frames.  Its equations lose rank at the solution, so the normal
    # equations turn singular at round-off near it: set 13 does on its fourth step, at |g| = 8e-12.  There the step
    # leaves out the null direction, and the start finishes.
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        kraus = np.einsum("ij,jab->iab", v, np.array([ID2, *PAULIS])) / 2.0
        p, pair_a, pair_b = _kraus_split(kraus, next(_start_frames(i)))
        for pair in (pair_a, pair_b):
            assert frob_dist(np.einsum("kba,kbc->ac", pair.conj(), pair), ID2) <= 1e-13, i
        halves = [transfer(KrausChannel(tuple(pair))) for pair in (pair_a, pair_b)]
        assert frob_dist(p * halves[0] + (1.0 - p) * halves[1], transfer(_FULLY_DEPOLARIZING)) <= 1e-13, i


def test_solve_psd3_matches_numpy_and_leaves_out_null_directions():
    rng = np.random.default_rng(17)
    for n in range(200):
        m = rng.standard_normal((3, 8)) * rng.uniform(0.1, 1.0, (3, 1))  # the shape of the split's real Jacobian
        a, r = m @ m.T, rng.standard_normal(3)
        x, left = _solve_psd3(a.tolist(), r.tolist())
        expected = np.linalg.solve(a, r)
        assert left == 0 and np.linalg.norm(np.subtract(x, expected)) <= 1e-12 * np.linalg.norm(expected), n
    # A pivot at round-off ends the elimination; the unknowns left are 0.
    assert _solve_psd3([[4.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1e-20]], [2.0, 1.0, 1.0]) == ([0.5, 0.0, 0.0], 2)
    v = [1.0, 2.0, -1.0]
    x, left = _solve_psd3([[vi * vj for vj in v] for vi in v], [3.0, 6.0, -3.0])  # rank 1, r in its range
    assert left == 2 and np.allclose(np.outer(v, v) @ x, [3.0, 6.0, -3.0], atol=1e-15)
    assert _solve_psd3(np.zeros((3, 3)).tolist(), [1.0, 1.0, 1.0]) == ([0.0, 0.0, 0.0], 3)


def test_fit_plan_first_start_is_precomputed_and_later_starts_continue_the_seeded_stream(monkeypatch):
    import qchansim.decompose as decompose

    rng = np.random.default_rng(FIT_SEED)
    expected = [np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)), mode="complete")[0]
                for _ in range(2)]
    first = decompose._first_frame()  # drawn on first use, once per process
    assert first.tobytes() == expected[0].tobytes() and decompose._first_frame() is first
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 0.0
    frames, split = [], decompose._kraus_split

    def first_start_fails(kraus, frame):
        frames.append(np.array(frame))
        return None if len(frames) == 1 else split(kraus, frame)

    monkeypatch.setattr(decompose, "_kraus_split", first_start_fails)
    result = fit_plan(random_channel(np.random.default_rng(35), 3))
    assert result.starts_used == 2 and result.residual <= FIT_TARGET_RESIDUAL
    assert [f.tobytes() for f in frames] == [f.tobytes() for f in expected]


def _rotated(pair, rng):
    u, v = (random_channel(rng, 1).ops[0] for _ in range(2))
    return KrausChannel(tuple(u @ k @ v for k in pair))


@pytest.mark.parametrize("kind", ["reset", "T-rank-1"])
def test_stage_one_recognises_two_kraus_channels_with_repeated_singular_values(kind):
    # A rotated reset has T = 0 and a rotated nu = pi/2 branch T = diag(0, cos mu, 0), so the SVD frame is
    # arbitrary where the displacement lies; the scan finds these branches only after the frame is turned.
    rng = np.random.default_rng(80 if kind == "reset" else 81)
    if kind == "reset":
        channels = [_rotated(kraus_from_angles(PI / 2, 0.0), rng) for _ in range(10)]
    else:
        channels = [_rotated(kraus_from_angles((mu + PI / 2) / 2, (mu - PI / 2) / 2), rng)
                    for mu in rng.uniform(-PI, PI, 10)]
    for ch in channels:
        result = fit_plan(ch)
        assert result.starts_used == 0 and result.residual <= 1e-14


@pytest.mark.parametrize("dropped", range(4))
def test_fit_plan_fits_rotated_three_pauli_mixtures(dropped):
    # A mixture of three Paulis has Choi rank 3, and its T repeats a |singular value| wherever two weights agree;
    # rotated on both sides, as in the probe's degenerate corpus, it is fitted by the split.
    rng = np.random.default_rng(90 + dropped)
    paulis = [s for k, s in enumerate((ID2, *PAULIS)) if k != dropped]
    for weights in (np.full(3, 1.0 / 3.0), np.array([0.5, 0.25, 0.25]), rng.dirichlet(np.ones(3))):
        ch = _rotated([np.sqrt(w) * s for w, s in zip(weights, paulis)], rng)
        result = fit_plan(ch)
        # An exactly unital half whose first stage-one candidate misses it gets a later candidate, not a new start.
        assert result.residual <= FIT_TARGET_RESIDUAL and result.starts_used == 1
        assert frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch)) <= 1e-9


def test_fit_plan_without_a_split_returns_no_plan(monkeypatch):
    import qchansim.decompose as decompose

    monkeypatch.setattr(decompose, "_kraus_split", lambda kraus, rng: None)
    result = fit_plan(random_channel(np.random.default_rng(35), 3))
    assert result.plan is None and result.residual == np.inf and not result.converged
    assert result.starts_used == FIT_MAX_STARTS


def _depolarized(ch, eps, label=""):
    """(1 - eps) of ``ch`` plus eps of the fully depolarizing channel."""
    ops = [np.sqrt(1.0 - eps) * k for k in ch.ops] + [np.sqrt(eps) / 2.0 * s for s in (ID2, *PAULIS)]
    return KrausChannel(tuple(ops), label)


def _near_extreme(i, eps):
    """(1 - eps) of a random Choi-rank-2 channel plus eps of the fully depolarizing channel."""
    return _depolarized(random_channel(np.random.default_rng(30000 + i), 2), eps, f"near-extreme {i}, eps {eps:g}")


# The near-extreme channels that the former 17-parameter fitter left above CONVERGED_RESIDUAL, by eps.
_LM_UNCONVERGED = {1e-5: [38, 49, 64, 65, 73, 75, 96], 1e-6: [25, 38, 42, 49, 64, 65, 73, 75, 81, 96],
                   1e-7: [49, 56, 64, 75, 84, 96]}


def test_fit_plan_converges_over_every_choi_rank():
    channels = [random_channel(np.random.default_rng(6000 + 100 * rank + i), rank, f"rank {rank}, {i}")
                for rank in (1, 2, 3, 4) for i in range(20)]
    channels += [_near_extreme(i, 1e-2) for i in range(10)] + [_near_extreme(i, 1e-4) for i in range(30)]
    for ch in channels:
        result = fit_plan(ch)
        assert result.residual <= FIT_TARGET_RESIDUAL, ch.label
        assert frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch)) <= 1e-9, ch.label


@pytest.mark.parametrize("eps, i", [(eps, i) for eps, indices in _LM_UNCONVERGED.items() for i in indices])
def test_fit_plan_reaches_the_target_on_the_former_fitters_misses(eps, i):
    ch = _near_extreme(i, eps)
    result = fit_plan(ch)
    assert result.converged and result.residual <= FIT_TARGET_RESIDUAL
    assert frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch)) <= 1e-9


@pytest.mark.parametrize("rank", [3, 4])
def test_fit_plan_converges_on_a_kraus_set_rounded_to_nine_digits(rank):
    # Rounding leaves sum K^dag K = I + O(1e-9), within the CPTP check; no trace-preserving plan is closer to the
    # target than that, and the first start that reproduces the renormalised Kraus set ends the search.
    ch = random_channel(np.random.default_rng(10000 if rank == 3 else 20000), rank)
    rounded = KrausChannel(tuple(np.round(k, 9) for k in ch.ops))
    result = fit_plan(rounded)
    assert result.converged and result.starts_used == 1
    assert result.residual <= 1e-8


@pytest.mark.parametrize("rank", [3, 4])
def test_fit_plan_reaches_the_trace_preservation_floor_on_rounded_kraus_files(rank):
    # A Kraus set rounded to 9 digits is off trace preservation by delta = ||Tr_out J - I||, and no trace-preserving
    # plan is nearer than delta / sqrt(2) (the projection onto Tr_out J = I); the fit lands within 10% of that floor.
    for i in range(10):
        ch = random_channel(np.random.default_rng((10000 if rank == 3 else 20000) + i), rank)
        rounded = KrausChannel(tuple(np.round(k, 9) for k in ch.ops))
        floor = validate_channel(rounded).trace_residual / np.sqrt(2.0)
        result = fit_plan(rounded)
        assert floor * (1.0 - 1e-6) <= result.residual <= 1.1 * floor, i


def test_plan_json_round_trip():
    rng = np.random.default_rng(38)
    plans = [closed_form_plan(kind, lam) for kind in ChannelKind for lam in np.linspace(0.0, 1.0, 11)]
    plans += [DecompositionPlan(_random_branch(rng), _random_branch(rng, conditional_x=bool(rng.integers(2))),
                                rng.uniform(0.0, 1.0)) for _ in range(20)]
    for plan in plans:
        text = plan_to_json(plan)
        assert plan_to_json(plan_from_json(text)) == text


def test_fit_plan_stage_one_stops_at_first_exact_candidate(monkeypatch):
    import qchansim.decompose as decompose

    calls = []
    plan_choi = decompose._plan_choi

    def counting_plan_choi(plan):
        calls.append(plan)
        return plan_choi(plan)

    # Every candidate is scored through the plan's Choi matrix.
    monkeypatch.setattr(decompose, "_plan_choi", counting_plan_choi)
    ch = random_kraus_pair_channel(np.random.default_rng(37))
    result = fit_plan(ch)
    assert result.starts_used == 0 and result.residual <= 1e-9
    assert len(calls) == 1


def test_fit_plan_skips_stage_one_where_no_two_kraus_plan_is_close_enough(monkeypatch):
    import qchansim.decompose as decompose

    # A stage-one candidate has Choi rank <= 2, so it is at least the target's two smallest |eigenvalues| away.
    scanned = []

    def recording_candidates(s):
        scanned.append(affine_from_transfer(s))
        return _single_branch_candidates(s)

    monkeypatch.setattr(decompose, "_single_branch_candidates", recording_candidates)
    # The split scans its two halves, never the target's own affine map.
    for rank in (3, 4):
        for i in range(5):
            ch = random_channel(np.random.default_rng(50 + 10 * rank + i), rank)
            scanned.clear()
            assert fit_plan(ch).starts_used >= 1
            target = to_affine(ch)
            assert len(scanned) == 2
            assert not any(np.allclose(aff.T, target.T) and np.allclose(aff.t, target.t) for aff in scanned)
    scanned.clear()
    # 1e-13 of the fully depolarizing channel keeps a rank-2 channel within reach of stage one.
    result = fit_plan(_depolarized(random_kraus_pair_channel(np.random.default_rng(37)), 1e-13))
    assert result.starts_used == 0 and result.residual <= FIT_TARGET_RESIDUAL
    assert len(scanned) == 1


def _matrix_form_first_candidate(s):
    """The first stage-one branch as 3x3 matrix products give it: the signed SVD of T, the proper signed permutations
    P and sign matrices S in the scan's order, U = su2(L P) and U' = su2((R P S)^T); for frames that need no turn."""
    aff = affine_from_transfer(s)
    left, sv, right = svd3(aff.T)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            p = np.zeros((3, 3))
            p[list(perm), [0, 1, 2]] = signs
            if np.linalg.det(p) < 0:
                continue
            for d in ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)):
                q = p @ np.diag(d)
                try:
                    nm = extract_nu_mu(AffineRep(T=p.T @ np.diag(sv) @ q, t=p.T @ (left.T @ aff.t)))
                except NotQuasiExtremeError:
                    continue
                return branch_from_nu_mu(nm, U=su2_from_rotation(left @ p), Uprime=su2_from_rotation((right @ q).T))
    return None


def test_stage_one_on_floats_gives_the_matrix_form_branch_bit_for_bit():
    # Random rank-1/2 channels, so the frame needs no turn; the float scan reads the same LAPACK frames.  300 of
    # them, because L^T t summed in Python instead of numpy moves the branch of only 4 of these by an ulp.
    for i in range(300):
        s = transfer(random_channel(np.random.default_rng(800 + i), 2 - i % 2))
        branch, reference = next(_single_branch_candidates(s)), _matrix_form_first_candidate(s)
        assert (branch.alpha, branch.beta, branch.conditional_x) == (reference.alpha, reference.beta, True)
        assert np.array_equal(branch.U, reference.U) and np.array_equal(branch.Uprime, reference.Uprime)
        assert not branch.U.flags.writeable and not branch.Uprime.flags.writeable


def test_stage_one_rejects_a_transfer_matrix_with_nan_without_a_numpy_warning():
    s = transfer(random_kraus_pair_channel(np.random.default_rng(39))).copy()
    s[1, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            next(_single_branch_candidates(s))


def test_branch_from_entries_is_the_public_constructor_with_its_checks():
    u = su2_from_euler(EulerAngles(0.1, 0.2, 0.3))
    up = su2_from_euler(EulerAngles(-0.4, 1.1, 2.0))
    branch = _branch_from_entries(7.0, -0.2, u.ravel().tolist(), up.ravel().tolist())
    reference = QuasiExtremeBranch.from_alpha_beta(7.0, -0.2, U=u, Uprime=up)
    assert (branch.alpha, branch.beta, branch.conditional_x) == (reference.alpha, reference.beta, True)
    assert np.array_equal(branch.U, u) and np.array_equal(branch.Uprime, up)
    assert not branch.U.flags.writeable and not branch.Uprime.flags.writeable
    assert (branch.gamma1, branch.gamma2) == (reference.gamma1, reference.gamma2)
    for bad in (1.5 * u, np.where(np.eye(2, dtype=bool), np.nan, u), np.where(np.eye(2, dtype=bool), np.inf, u)):
        with pytest.raises(ValueError):
            QuasiExtremeBranch.from_alpha_beta(0.1, 0.2, U=u, Uprime=bad)
        with pytest.raises(ValueError, match="unitary"):
            _branch_from_entries(0.1, 0.2, u.ravel().tolist(), bad.ravel().tolist())


def test_plan_choi_is_to_choi_of_plan_to_channel_bit_for_bit():
    rng = np.random.default_rng(41)
    plans = [closed_form_plan(kind, lam) for kind in ChannelKind for lam in np.linspace(0.0, 1.0, 11)]
    plans += [DecompositionPlan(_random_branch(rng, conditional_x=bool(rng.integers(2))),
                                _random_branch(rng, conditional_x=bool(rng.integers(2))), rng.uniform(0.0, 1.0))
              for _ in range(40)]
    plans += [DecompositionPlan(_random_branch(rng, conditional_x=bool(i % 2)), None, 1.0) for i in range(10)]
    for plan in plans:
        assert np.array_equal(_plan_choi(plan), to_choi(plan_to_channel(plan)))
    # The Kraus set is sqrt(w) U K_i U' over both branches, without its zero operators.
    for plan in plans[-50:]:
        expected = [np.sqrt(w) * (b.U @ k @ b.Uprime)
                    for b, w in ((plan.branch_a, plan.p), (plan.branch_b, 1.0 - plan.p)) if b is not None
                    for k in b.kraus_pair()]
        assert np.allclose(plan_to_channel(plan).ops, expected, rtol=0.0, atol=1e-15)
    assert len(plan_to_channel(closed_form_plan("AD", 0.0)).ops) == 1
