import json

import numpy as np
import pytest

from conftest import random_channel, random_kraus_pair_channel
from qchansim.channels import ChannelKind, KrausChannel, builtin_channel, to_affine, to_choi, transfer, validate_channel
from qchansim.circuit import compile_plan
from qchansim.decompose import (
    LM_STOP_RESIDUAL,
    AngleNuMu,
    DecompositionPlan,
    NotQuasiExtremeError,
    QuasiExtremeBranch,
    FIT_TARGET_RESIDUAL,
    U_BPF,
    _affine_residual,
    _damped_step_solver,
    _levenberg_marquardt,
    _null_table,
    _plan_from_params,
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
from qchansim.matops import ID2, PAULIS, PAULI_Z, frob_dist
from qchansim.optics import EulerAngles, su2_from_euler

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
    for lam in (0.25, 0.5, 0.75):
        result = fit_plan(builtin_channel(kind, lam))
        assert result.converged
        assert result.residual <= 1e-8


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
    # Ranks 1-2 end in the closed-form SVD stage, ranks 3-4 on the first LM start.
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

    # An LM end point with p = 1 - 1e-14, so the returned plan drops branch b.
    def near_single_branch(x, target, nulls):
        return np.concatenate([x[:4], [PI / 2 - 1e-7], x[5:]])

    monkeypatch.setattr(decompose, "_levenberg_marquardt", near_single_branch)
    ch = random_channel(np.random.default_rng(35), 3)
    result = fit_plan(ch)
    assert result.plan.branch_b is None
    assert result.residual == frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch))


def _count_kernel_calls(monkeypatch) -> list:
    """Wrap decompose._affine_residual; each call appends its point to the returned list."""
    import qchansim.decompose as decompose

    calls = []

    def counting_residual(x, target, nulls):
        calls.append(x)
        return _affine_residual(x, target, nulls)

    monkeypatch.setattr(decompose, "_affine_residual", counting_residual)
    return calls


def test_fit_plan_converges_quadratically_toward_a_singular_solution(monkeypatch):
    # The plan's Choi weight on this rank-3 channel's null vector vanishes quadratically at every solution, so
    # the 12 affine rows alone have a singular Jacobian there and the LM took 322 kernel calls at linear speed.
    # The null rows are linear in the distance: the first start converges quadratically.
    calls = _count_kernel_calls(monkeypatch)
    result = fit_plan(random_channel(np.random.default_rng(1011), 3))
    assert result.residual <= 1e-9 and result.starts_used == 1
    assert len(calls) <= 30


def test_fit_plan_fits_random_rank3_channels_from_the_first_start(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    for i in range(20):
        calls.clear()
        result = fit_plan(random_channel(np.random.default_rng(10000 + i), 3))
        assert result.residual <= FIT_TARGET_RESIDUAL and result.starts_used == 1, i
        assert len(calls) <= 40, i


@pytest.mark.parametrize("delta, rows", [(1e-13, 20), (1e-11, 12)])
def test_fit_plan_adds_null_rows_for_choi_eigenvalues_below_the_stop_residual(monkeypatch, delta, rows):
    import qchansim.decompose as decompose

    # delta of the fully depolarizing channel lifts the rank-3 Choi null eigenvalue to about delta / 2.
    sizes = []

    def recording_residual(x, target, nulls):
        sizes.append(len(target))
        return _affine_residual(x, target, nulls)

    monkeypatch.setattr(decompose, "_affine_residual", recording_residual)
    for i in range(3):
        ch = _depolarized(random_channel(np.random.default_rng(10000 + i), 3), delta)
        assert fit_plan(ch).residual <= FIT_TARGET_RESIDUAL, i
    assert set(sizes) == {rows}


@pytest.mark.parametrize("rows, smallest", [(32, None), (20, None), (12, None), (32, 1e-6), (20, 1e-6), (12, 1e-6)],
                         ids=["32", "20", "12", "32-1e-06", "20-1e-06", "12-1e-06"])
@pytest.mark.parametrize("lam", [1e3, 1.0, 1e-3])
def test_damped_step_matches_lstsq(lam, rows, smallest):
    rng = np.random.default_rng(41)
    jac = rng.standard_normal((rows, 12)) @ rng.standard_normal((12, 17))
    if smallest is not None:  # J keeps rank 12, with its smallest singular value set to 1e-6
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        jac = (u[:, :12] * np.append(s[:11], smallest)) @ vt[:12]
    f = rng.standard_normal(rows)
    damping = np.diag(np.linalg.norm(jac, axis=0))
    expected = np.linalg.lstsq(np.vstack([jac, np.sqrt(lam) * damping]), np.concatenate([-f, np.zeros(17)]),
                               rcond=None)[0]
    step = _damped_step_solver(jac, f)(lam)
    # The normal equations lose up to cond(G + lam I) eps <= 17 eps / lam, 4e-12 at lam = 1e-3 (measured <= 3e-13).
    assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("lam", [0.0, 1e-300])
@pytest.mark.parametrize("rank", [4, 3])
def test_damped_step_is_finite_and_descends_where_the_gram_matrix_is_singular(lam, rank):
    # At p = 0 (theta = 0) branch a's columns vanish: the 12- and the 20-row Jacobian have 9 and 8 zero columns.
    ch = random_channel(np.random.default_rng(46), rank)
    vectors = np.linalg.eigh(to_choi(ch))[1][:, :4 - rank]
    target = np.concatenate([_affine_rows(ch), np.zeros(32 - 8 * rank)])
    x = np.random.default_rng(50).uniform(-PI, PI, 17)
    x[4] = 0.0
    f, jac = _affine_residual(x, target, _null_table(vectors))
    assert jac.shape == (44 - 8 * rank, 17) and np.linalg.matrix_rank(jac) < 12
    with np.errstate(all="raise"):
        step = _damped_step_solver(jac, f)(lam)
    assert np.isfinite(step).all()
    assert np.linalg.norm(jac @ step + f) <= np.linalg.norm(f)


def _reference_choi_residuals(xs, target):
    """The residual built from kraus_from_angles and su2_from_euler, one call per factor."""
    n = len(xs)
    p = np.sin(xs[:, 4]) ** 2
    k = np.stack(kraus_from_angles(xs[:, [0, 2]], xs[:, [1, 3]]), axis=2)
    u = su2_from_euler(EulerAngles(*np.moveaxis(xs[:, 5:].reshape(n, 2, 2, 3), -1, 0)))
    m = np.einsum("ns,nsab,nskbc,nscd->nskad", np.sqrt(np.stack([p, 1.0 - p], axis=1)), u[:, :, 0], k, u[:, :, 1])
    diff = np.einsum("nskai,nskbj->niajb", m, m.conj()).reshape(n, 4, 4) - target
    return np.concatenate([diff.real.reshape(n, 16), diff.imag.reshape(n, 16)], axis=1)


def _affine_rows(ch) -> np.ndarray:
    """[t | T] of a channel's Bloch map, row-major: the order of _affine_residual."""
    aff = to_affine(ch)
    return np.hstack([aff.t[:, None], aff.T]).ravel()


_NO_NULLS = np.zeros((0, 64))


def _central_differences(x, target, nulls, h=1e-5):
    return np.transpose([(_affine_residual(x + h * e, target, nulls)[0] - _affine_residual(x - h * e, target, nulls)[0])
                         / (2 * h) for e in np.eye(17)])


def _kernel_points(seed):
    """50 parameter vectors with angles up to +-20 pi; every third has p = 0, every third p = 1."""
    xs = np.random.default_rng(seed).uniform(-20 * PI, 20 * PI, (50, 17))
    xs[1::3, 4], xs[2::3, 4] = 0.0, PI / 2
    return xs


def test_affine_residual_is_the_plans_bloch_map_difference():
    ch = random_channel(np.random.default_rng(44), 4)
    target = _affine_rows(ch)
    for x in _kernel_points(45):
        f, _ = _affine_residual(x, target, _NO_NULLS)
        plan_channel = plan_to_channel(_plan_from_params(x))
        assert np.abs(f - (_affine_rows(plan_channel) - target)).max() <= 1e-14
        # ||Choi - Choi*||_F of the per-factor construction is the norm of the 12 reals.
        choi = _reference_choi_residuals(x[None], to_choi(ch))[0]
        assert abs(np.linalg.norm(f) - np.linalg.norm(choi)) <= 1e-12


def test_affine_residual_jacobian_matches_central_differences():
    target = _affine_rows(random_channel(np.random.default_rng(46), 3))
    for x in _kernel_points(47):
        _, jac = _affine_residual(x, target, _NO_NULLS)
        assert np.abs(jac - _central_differences(x, target, _NO_NULLS)).max() <= 1e-8


def _plan_null_rows(x, vectors):
    """Re and Im of Tr(W_n M) = <v_n|vec M> for the Kraus operators M of plan_to_channel, in the kernel's order."""
    plan = _plan_from_params(x)
    ops = iter(plan_to_channel(plan).ops)
    # plan_to_channel weighs branch a by |sin theta| and branch b by |cos theta|, and drops a branch of weight 0.
    signs = np.sign([np.sin(x[4]), np.cos(x[4])])
    m = np.array([[sign * next(ops) if weight > 0.0 else np.zeros((2, 2)) for _ in range(2)]
                  for sign, weight in zip(signs, (plan.p, 1.0 - plan.p))])
    overlaps = m.swapaxes(-1, -2).reshape(2, 2, 4) @ vectors.conj()  # vec M[2 i + a] = M[a, i], as in to_choi
    return np.stack([overlaps.real, overlaps.imag]).transpose(0, 3, 2, 1).ravel()


@pytest.mark.parametrize("rank", [3, 2])
def test_null_rows_are_the_plans_kraus_overlaps_with_exact_columns(rank):
    vectors = np.linalg.eigh(to_choi(random_channel(np.random.default_rng(48), rank)))[1][:, :4 - rank]
    nulls = _null_table(vectors)
    target = np.concatenate([_affine_rows(random_channel(np.random.default_rng(46), 3)), np.zeros(32 - 8 * rank)])
    for x in _kernel_points(49):
        f, jac = _affine_residual(x, target, nulls)
        assert f.shape == (44 - 8 * rank,) and jac.shape == (44 - 8 * rank, 17)
        # The affine rows are those of the kernel without null rows, bit for bit.
        f_affine, jac_affine = _affine_residual(x, target[:12], _NO_NULLS)
        assert np.array_equal(f[:12], f_affine) and np.array_equal(jac[:12], jac_affine)
        assert np.abs(f[12:] - _plan_null_rows(x, vectors)).max() <= 1e-14
        assert np.abs(jac[12:] - _central_differences(x, target, nulls)[12:]).max() <= 1e-8


def test_levenberg_marquardt_trial_brings_its_jacobian(monkeypatch):
    import qchansim.decompose as decompose

    points, returned, solved = [], [], []

    def recording_residual(x, target, nulls):
        points.append(x.tobytes())
        returned.append(_affine_residual(x, target, nulls))
        return returned[-1]

    def recording_solver(jac, f):
        solved.append((f, jac))
        return _damped_step_solver(jac, f)

    monkeypatch.setattr(decompose, "_affine_residual", recording_residual)
    monkeypatch.setattr(decompose, "_damped_step_solver", recording_solver)
    result = fit_plan(random_channel(np.random.default_rng(43), 3))
    assert result.starts_used == 1 and result.residual <= 1e-9
    # Each step is solved from the residual and Jacobian of one kernel call: the start's, then each accepted
    # trial's.  No point is evaluated twice, so no Jacobian is recomputed.
    assert len(solved) > 1 and solved[0][1] is returned[0][1]
    assert all(any(f is r and jac is j for r, j in returned) for f, jac in solved)
    assert len(set(points)) == len(points)


def test_levenberg_marquardt_returns_a_converged_start_at_once(monkeypatch):
    x = np.random.default_rng(42).uniform(-PI, PI, 17)
    target = _affine_rows(plan_to_channel(_plan_from_params(x)))
    calls = _count_kernel_calls(monkeypatch)
    assert np.array_equal(_levenberg_marquardt(x, target, _NO_NULLS), x)
    assert len(calls) == 1


@pytest.mark.parametrize("shrink", [0.99, 0.9])
def test_levenberg_marquardt_stops_at_target_or_stall(monkeypatch, shrink):
    import qchansim.decompose as decompose

    # Every trial is accepted and scales |f| by `shrink`; the Jacobian is any finite matrix.
    norms = []

    def shrinking_residual(x, target, nulls):
        norms.append(shrink ** len(norms))
        return np.full(12, norms[-1] / np.sqrt(12.0)), np.zeros((12, 17))

    monkeypatch.setattr(decompose, "_affine_residual", shrinking_residual)
    _levenberg_marquardt(np.zeros(17), None, None)
    if shrink ** 10 > 0.5:
        assert len(norms) == 11  # the start, then 10 accepted steps that did not halve |f|
    else:
        assert norms[-1] <= LM_STOP_RESIDUAL < norms[-2]


def _depolarized(ch, eps, label=""):
    """(1 - eps) of ``ch`` plus eps of the fully depolarizing channel."""
    ops = [np.sqrt(1.0 - eps) * k for k in ch.ops] + [np.sqrt(eps) / 2.0 * s for s in (ID2, *PAULIS)]
    return KrausChannel(tuple(ops), label)


def _near_extreme(i, eps):
    """(1 - eps) of a random Choi-rank-2 channel plus eps of the fully depolarizing channel."""
    return _depolarized(random_channel(np.random.default_rng(30000 + i), 2), eps, f"near-extreme {i}, eps {eps:g}")


def test_fit_plan_converges_over_every_choi_rank():
    channels = [random_channel(np.random.default_rng(6000 + 100 * rank + i), rank, f"rank {rank}, {i}")
                for rank in (1, 2, 3, 4) for i in range(20)]
    channels += [_near_extreme(i, 1e-2) for i in range(10)] + [_near_extreme(i, 1e-4) for i in range(30)]
    for ch in channels:
        result = fit_plan(ch)
        assert result.residual <= FIT_TARGET_RESIDUAL, ch.label
        assert frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch)) <= 1e-9, ch.label


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

    def counting_plan_to_channel(plan):
        calls.append(plan)
        return plan_to_channel(plan)

    monkeypatch.setattr(decompose, "plan_to_channel", counting_plan_to_channel)
    ch = random_kraus_pair_channel(np.random.default_rng(37))
    result = fit_plan(ch)
    assert result.starts_used == 0 and result.residual <= 1e-9
    assert len(calls) == 1


def test_fit_plan_skips_stage_one_where_no_two_kraus_plan_is_close_enough(monkeypatch):
    import qchansim.decompose as decompose

    # A stage-one candidate has Choi rank <= 2, so it is at least the target's two smallest |eigenvalues| away.
    scanned = []

    def recording_candidates(aff):
        scanned.append(aff)
        return _single_branch_candidates(aff)

    monkeypatch.setattr(decompose, "_single_branch_candidates", recording_candidates)
    for rank in (3, 4):
        for i in range(5):
            assert fit_plan(random_channel(np.random.default_rng(50 + 10 * rank + i), rank)).starts_used >= 1
    assert scanned == []
    # 1e-13 of the fully depolarizing channel keeps a rank-2 channel within reach of stage one.
    result = fit_plan(_depolarized(random_kraus_pair_channel(np.random.default_rng(37)), 1e-13))
    assert result.starts_used == 0 and result.residual <= FIT_TARGET_RESIDUAL
    assert len(scanned) == 1
