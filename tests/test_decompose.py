import json
import re

import numpy as np
import pytest

from conftest import haar_unitary, random_channel, random_kraus_pair_channel
from qchansim.channels import (
    ChannelKind,
    KrausChannel,
    _tp_defect,
    builtin_channel,
    to_affine,
    to_choi,
    transfer,
    validate_channel,
)
from qchansim.circuit import compile_plan
from qchansim.decompose import (
    DecompositionPlan,
    QuasiExtremeBranch,
    FIT_ROUNDOFF_RESIDUAL,
    FIT_TARGET_RESIDUAL,
    U_BPF,
    _DIRAC,
    _SIGMAS,
    _dirac_frame,
    _kraus_split,
    _null_vector,
    _offdiagonal_frame,
    _pair_branch,
    _plan_choi,
    _project,
    _stage_one_out_of_reach,
    closed_form_plan,
    fit_plan,
    gammas_from_angles,
    kraus_from_angles,
    plan_from_json,
    plan_to_channel,
    plan_to_json,
    wrap_angle,
)
from qchansim.matops import ID2, PAULIS, PAULI_Z, frob_dist, unitarity_residual
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
    # A stretched dressing, and one with a NaN or an infinite entry, fail the unitarity check on either side.
    u = su2_from_euler(EulerAngles(0.1, 0.2, 0.3))
    for bad in (1.5 * u, np.where(np.eye(2, dtype=bool), np.nan, u), np.where(np.eye(2, dtype=bool), np.inf, u),
                np.where(np.eye(2, dtype=bool), -np.inf, u)):
        for dressings in ({"U": bad}, {"Uprime": bad}, {"U": u, "Uprime": bad}):
            with pytest.raises(ValueError, match="unitary within 1e-10"):
                QuasiExtremeBranch.from_alpha_beta(0.3, 0.1, **dressings)


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


def _tampered_plan(change) -> str:
    """The JSON of a two-branch BPF plan after ``change`` edits its payload in place."""
    payload = json.loads(plan_to_json(closed_form_plan("BPF", 0.3)))
    change(payload)
    return json.dumps(payload)


@pytest.mark.parametrize("text, message", [
    (_tampered_plan(lambda d: d.__setitem__("branches", d["branches"] * 3)), "one or two branch objects"),
    (_tampered_plan(lambda d: d.__setitem__("branches", [])), "one or two branch objects"),
    (_tampered_plan(lambda d: d["branches"].__setitem__(1, 5)), "one or two branch objects"),
    ("[1, 2]", "one or two branch objects"),
    (_tampered_plan(lambda d: d.pop("branches")), "one or two branch objects"),
    (_tampered_plan(lambda d: d.pop("p")), "p must be a finite number, got None"),
    (_tampered_plan(lambda d: d.__setitem__("p", "1")), "p must be a finite number, got '1'"),
    (_tampered_plan(lambda d: d.__setitem__("p", True)), "p must be a finite number, got True"),
    (_tampered_plan(lambda d: d.__setitem__("p", float("nan"))), "p must be a finite number, got nan"),
    (_tampered_plan(lambda d: d["branches"][0].pop("alpha")), "alpha must be a finite number, got None"),
    (_tampered_plan(lambda d: d["branches"][1].__setitem__("beta", "x")), "beta must be a finite number, got 'x'"),
    (_tampered_plan(lambda d: d["branches"][0].__setitem__("alpha", float("inf"))),
     "alpha must be a finite number, got inf"),
    (_tampered_plan(lambda d: d["branches"][0].__setitem__("gamma1", float("nan"))),
     "gamma1 must be a finite number, got nan"),
    (_tampered_plan(lambda d: d["branches"][1].pop("gamma2")), "gamma2 must be a finite number, got None"),
    (_tampered_plan(lambda d: d["branches"][0].__setitem__("conditional_x", "yes")),
     "conditional_x must be true or false, got 'yes'"),
    (_tampered_plan(lambda d: d["branches"][0].pop("conditional_x")), "conditional_x must be true or false, got None"),
], ids=["six-branches", "no-branches", "branch-a-number", "a-list", "branches-missing", "p-missing", "p-a-string",
        "p-a-bool", "p-nan", "alpha-missing", "beta-a-string", "alpha-inf", "gamma1-nan", "gamma2-missing",
        "conditional-x-a-string", "conditional-x-missing"])
def test_plan_from_json_rejects_a_malformed_plan_with_one_value_error(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        plan_from_json(text)


@pytest.mark.parametrize("alpha, beta", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)])
def test_branch_rejects_non_finite_angles(alpha, beta):
    # wrap_angle keeps a NaN and turns an infinity into one; plan_to_json would then write the non-JSON token NaN.
    with pytest.raises(ValueError, match="branch angles must be finite"):
        QuasiExtremeBranch.from_alpha_beta(alpha, beta)
    with pytest.raises(ValueError, match="branch angles must be finite"):
        QuasiExtremeBranch(alpha, beta, ID2, ID2)


@pytest.mark.parametrize("flag", ["no", None, 1, 0.0, np.array(True)])
def test_branch_takes_only_a_bool_conditional_x(flag):
    # A string used to be kept: plan_to_json then wrote a file that plan_from_json rejects, and gates_for_branch
    # emitted CONDX for "no".
    with pytest.raises(ValueError, match=re.escape(f"conditional_x must be true or false, got {flag!r}")):
        QuasiExtremeBranch.from_alpha_beta(0.3, 0.2, conditional_x=flag)


@pytest.mark.parametrize("flag", [True, False, np.bool_(True), np.bool_(False)])
def test_branch_stores_a_numpy_bool_conditional_x_as_bool(flag):
    branch = QuasiExtremeBranch(0.3, 0.2, ID2, ID2, flag)
    assert type(branch.conditional_x) is bool and branch.conditional_x == flag
    assert plan_from_json(plan_to_json(DecompositionPlan(branch, None, 1.0))).branch_a == branch


_BRANCH = QuasiExtremeBranch.from_alpha_beta(0.3, 0.2)


@pytest.mark.parametrize("branch_a, branch_b", [(None, None), ("AD", None), (ID2, None), (_BRANCH, ID2),
                                                (_BRANCH, (_BRANCH,))],
                         ids=["none", "a-string", "an-array", "b-an-array", "b-a-tuple"])
def test_plan_takes_only_branches(branch_a, branch_b):
    with pytest.raises(ValueError, match="^expected a QuasiExtremeBranch and a QuasiExtremeBranch or None, got "):
        DecompositionPlan(branch_a, branch_b, 1.0)


def test_plan_requires_second_branch_below_unit_weight():
    with pytest.raises(ValueError):
        DecompositionPlan(QuasiExtremeBranch.from_alpha_beta(0.0, 0.0), None, 0.5)


def test_wrap_angle_edges():
    assert wrap_angle(PI) == pytest.approx(PI)
    assert wrap_angle(-PI) == pytest.approx(PI)
    assert wrap_angle(3 * PI) == pytest.approx(PI)
    assert wrap_angle(0.3 - 2 * PI) == pytest.approx(0.3)


def _assert_quasiextreme_form(ch, alpha, beta):
    # The module docstring's form, with nu = alpha - beta and mu = alpha + beta.
    nu, mu = alpha - beta, alpha + beta
    aff = to_affine(ch)
    assert np.abs(aff.T - np.diag([np.cos(nu), np.cos(mu), np.cos(nu) * np.cos(mu)])).max() <= 1e-12
    assert np.abs(aff.t - [0.0, 0.0, np.sin(nu) * np.sin(mu)]).max() <= 1e-12


def test_bare_branch_distorts_the_bloch_ball_in_the_quasiextreme_form():
    rng = np.random.default_rng(32)
    for _ in range(200):
        alpha, beta = rng.uniform(-PI, PI, 2)
        branch = QuasiExtremeBranch.from_alpha_beta(alpha, beta)
        _assert_quasiextreme_form(plan_to_channel(DecompositionPlan(branch, None, 1.0)), alpha, beta)
        _assert_quasiextreme_form(KrausChannel(tuple(kraus_from_angles(alpha, beta))), alpha, beta)


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.9])
def test_amplitude_damping_is_the_bare_branch_in_the_quasiextreme_form(lam):
    # alpha = arcsin(sqrt(lam)), beta = 0, so nu = mu = arcsin(sqrt(lam)).
    _assert_quasiextreme_form(builtin_channel("AD", lam), np.arcsin(np.sqrt(lam)), 0.0)


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_phase_damping_is_no_bare_branch_but_one_dressed_branch(lam):
    # PD keeps T_zz = 1 while T_xx T_yy = 1 - lam, so no bare branch has its affine form ...
    aff = to_affine(builtin_channel("PD", lam))
    assert aff.T[2, 2] - aff.T[0, 0] * aff.T[1, 1] == pytest.approx(lam, abs=1e-12)
    # ... but it has two Kraus operators, so stage one reads it as one dressed branch.
    result = fit_plan(builtin_channel("PD", lam))
    assert result.starts_used == 0 and result.plan.branch_b is None and result.plan.p == 1.0
    assert result.residual <= FIT_ROUNDOFF_RESIDUAL


def test_to_affine_of_a_unitary_is_a_proper_rotation():
    rng = np.random.default_rng(25)
    for _ in range(200):
        aff = to_affine(KrausChannel((haar_unitary(rng),)))
        assert np.abs(aff.T @ aff.T.T - np.eye(3)).max() <= 1e-12
        assert np.linalg.det(aff.T) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(aff.t).max() <= 1e-12


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
    # Ranks 1-2 end in stage one, read off the Kraus pair in closed form, ranks 3-4 in the split.
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


def test_fit_plan_residual_describes_the_returned_plan():
    for rank in (3, 4):
        ch = random_channel(np.random.default_rng(35), rank)
        result = fit_plan(ch)
        assert result.starts_used == 1
        assert result.residual == frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch))


def test_fit_plan_fits_random_rank3_channels_from_the_first_start():
    for i in range(20):
        result = fit_plan(random_channel(np.random.default_rng(10000 + i), 3))
        assert result.residual <= FIT_TARGET_RESIDUAL and result.starts_used == 1, i


_FULLY_DEPOLARIZING = KrausChannel(tuple(0.5 * s for s in (ID2, *PAULIS)), "fully depolarizing")


def _kraus_split_inputs(kind):
    """(channel, its Kraus set of four) pairs for :func:`test_kraus_split_halves_are_trace_preserving`."""
    if kind == "fully depolarizing":  # in its Pauli frame and 20 random Kraus frames
        frames = [np.eye(4)] + [np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
                                for rng in map(np.random.default_rng, range(100, 120))]
        return [(_FULLY_DEPOLARIZING, np.einsum("ij,jab->iab", v, np.array([ID2, *PAULIS])) / 2.0) for v in frames]
    if kind == "completely dephasing":  # padded to four operators
        ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        return [(KrausChannel(tuple(ops)), np.array(ops + [np.zeros((2, 2))] * 2, dtype=complex))]
    rank = int(kind[-1])
    channels = [random_channel(np.random.default_rng(7000 + 10 * rank + i), rank) for i in range(20)]
    return [(ch, np.concatenate([np.asarray(ch.ops), np.zeros((4 - rank, 2, 2))])) for ch in channels]


@pytest.mark.parametrize("kind", ["rank 3", "rank 4", "fully depolarizing", "completely dephasing"])
def test_kraus_split_halves_are_trace_preserving(kind):
    # The fully depolarizing channel has M = 0 and the padded completely dephasing set B_x = B_y = 0; both split
    # exactly.  Whichever plane Y of the frame a half spans, P = Y Y^dag solves Tr(P B_k) = delta_k0, with
    # B_k[i, j] = Tr(sigma_k K_i^dag K_j) summed here term by term.
    for n, (ch, kraus) in enumerate(_kraus_split_inputs(kind)):
        frame, halves = _kraus_split(kraus)
        for half in halves:
            assert frob_dist(np.einsum("kba,kbc->ac", half.conj(), half), ID2) <= 1e-13, n
        mix = 0.5 * transfer(KrausChannel(tuple(halves[0]))) + 0.5 * transfer(KrausChannel(tuple(halves[1])))
        assert frob_dist(mix, transfer(ch)) <= 1e-13, n
        b = np.array([[[np.trace(s @ ki.conj().T @ kj) for kj in kraus] for ki in kraus] for s in (ID2, *PAULIS)])
        for y in (frame[:, :2], frame[:, 2:]):
            traces = [np.trace(y @ y.conj().T @ bk) for bk in b]
            assert np.abs(np.subtract(traces, [1.0, 0.0, 0.0, 0.0])).max() <= 1e-13, n


@pytest.mark.parametrize("kind", ["rank 3", "rank 4", "fully depolarizing", "completely dephasing"])
def test_kraus_split_frame_stays_unitary(kind):
    # The frame is the eigenvector matrix of R, unitary to round-off, and the halves are sqrt 2 times the Kraus set
    # read in it: vec L = sqrt 2 F^T vec K, so K = F^* L / sqrt 2 recovers the set operator by operator.
    for n, (_, kraus) in enumerate(_kraus_split_inputs(kind)):
        frame, halves = _kraus_split(kraus)
        assert frame.shape == (4, 4) and halves.shape == (2, 2, 2, 2), n
        assert np.abs(frame.conj().T @ frame - np.eye(4)).max() <= 1e-14, n
        recovered = np.einsum("ia,abc->ibc", frame.conj(), halves.reshape(4, 2, 2)) / np.sqrt(2.0)
        assert np.abs(recovered - kraus).max() <= 1e-14, n


def test_null_vector_reads_the_signed_minors_and_keeps_qr_where_they_vanish(monkeypatch):
    # An M of rank 4 and of the split's scale takes its null vector from its five signed 4x4 minors with no QR: n_g is
    # (-1)^g det(M without column g), normalised, so a wrong Laplace sign would leave M n off zero and reach the QR.
    # Where the minors vanish (M = 0, a zero row as for a Pauli channel in its Pauli frame, rank 3) or lose digits
    # (rank 4 within 1e-10 of rank 3), the null vector is the QR's: one call, and M n within round-off of zero.
    qr, qr_calls = np.linalg.qr, []

    def counting_qr(a, mode):
        qr_calls.append(mode)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    rng = np.random.default_rng(4100)
    for i in range(200):  # singular values in [0.1, 2], as for the split of a trace-preserving set
        u, _, vt = np.linalg.svd(rng.standard_normal((4, 5)), full_matrices=False)
        m = (u * rng.uniform(0.1, 2.0, 4)) @ vt
        n = _null_vector(m)
        minors = [(-1) ** g * np.linalg.det(np.delete(m, g, axis=1)) for g in range(5)]
        assert qr_calls == [] and abs(np.linalg.norm(n) - 1.0) <= 1e-15, i
        assert np.abs(m @ n).max() <= 1e-15 and np.allclose(n, minors / np.linalg.norm(minors), rtol=0.0,
                                                           atol=1e-13), i
    zero_row = rng.standard_normal((4, 5))
    zero_row[3] = 0.0
    u, _, vt = np.linalg.svd(rng.standard_normal((4, 5)), full_matrices=False)
    deficient = [np.zeros((4, 5)), zero_row, rng.standard_normal((4, 3)) @ rng.standard_normal((3, 5)),
                 (u * [1.0, 0.7, 0.4, 1e-10]) @ vt]
    for i, m in enumerate(deficient):
        qr_calls.clear()
        n = _null_vector(m)
        assert qr_calls == ["complete"] and abs(np.linalg.norm(n) - 1.0) <= 1e-15, i
        assert np.abs(m @ n).max() <= 1e-15, i


def test_dirac_matrices_make_every_unit_combination_a_reflection_with_two_plus_one_eigenvalues():
    # The split rests on the five Gamma_g being Hermitian and pairwise anticommuting with Gamma_g^2 = I: then
    # R = sum n_g Gamma_g squares to |n|^2 I and is traceless, so (I + R) / 2 is a rank-2 projector for a unit n.
    assert _DIRAC.shape == (5, 4, 4) and np.array_equal(_SIGMAS, np.array([ID2, *PAULIS]))
    for g, gamma_g in enumerate(_DIRAC):
        assert np.array_equal(gamma_g, gamma_g.conj().T) and np.trace(gamma_g) == 0, g
        for h, gamma_h in enumerate(_DIRAC):
            assert np.array_equal(gamma_g @ gamma_h + gamma_h @ gamma_g, 2.0 * (g == h) * np.eye(4)), (g, h)
    rng = np.random.default_rng(5)
    for i in range(20):
        n = rng.standard_normal(5)
        r = np.einsum("g,gij->ij", n / np.linalg.norm(n), _DIRAC)
        assert np.allclose(np.linalg.eigvalsh(r), [-1.0, -1.0, 1.0, 1.0], rtol=0.0, atol=1e-14), i
    # The split reads R's eigenframe in closed form: unitary, with R F = F diag(-1, -1, 1, 1).  Besides random unit n,
    # the inputs are the edges of the two 2x2 eigenvector choices: +-e_g, n in the (n_1, n_2) plane (m = 0), n_5 < 0,
    # c = n_1 + i n_2 = 0, and n within 1e-4 to 1e-12 of +-e_g, where the wrong choice of form cancels.
    plane = np.zeros((24, 5))
    plane[:, 0], plane[:, 1] = np.cos(np.arange(24) * PI / 12), np.sin(np.arange(24) * PI / 12)
    below, real = rng.standard_normal((2, 200, 5))
    below[:, 4] = -np.abs(below[:, 4])
    real[:, :2] = 0.0
    axes = np.concatenate([np.eye(5), -np.eye(5)])
    near = np.concatenate([axes + eps * rng.standard_normal((10, 5)) for eps in (1e-4, 1e-8, 1e-12)])
    units = np.concatenate([rng.standard_normal((1000, 5)), axes, plane, below, real, near])
    for i, n in enumerate(units / np.linalg.norm(units, axis=1, keepdims=True)):
        frame = _dirac_frame(*n.tolist())
        assert np.abs(frame.conj().T @ frame - np.eye(4)).max() <= 1e-14, i
        r = np.einsum("g,gij->ij", n, _DIRAC)
        assert np.abs(r @ frame - frame * [-1.0, -1.0, 1.0, 1.0]).max() <= 1e-14, i


@pytest.mark.parametrize("rank", [3, 4])
def test_fit_plan_split_is_an_equal_mix_of_two_quasiextreme_branches(rank):
    for i in range(10):
        ch = random_channel(np.random.default_rng(7200 + 10 * rank + i), rank)
        result = fit_plan(ch)
        plan = result.plan
        assert result.starts_used == 1 and plan.p == 0.5 and plan.branch_b is not None, i
        for branch in (plan.branch_a, plan.branch_b):
            choi = _plan_choi(DecompositionPlan(branch, None, 1.0))
            assert np.linalg.eigvalsh(choi)[:2].max() <= 1e-13, i  # Choi rank <= 2: a two-Kraus branch
            half = to_choi(KrausChannel(tuple(branch.kraus_pair())))
            assert frob_dist(np.einsum("iaja->ij", half.reshape(2, 2, 2, 2)), ID2) <= 1e-13, i
        assert result.residual <= 1e-13, i


def _pauli_channel(weights):
    return KrausChannel(tuple(np.sqrt(w) * s for w, s in zip(weights, (ID2, *PAULIS)) if w > 0.0))


def _generalized_amplitude_damping(g, n):
    return KrausChannel((np.sqrt(1.0 - n) * np.diag([1.0, np.sqrt(1.0 - g)]),
                         np.sqrt(1.0 - n) * np.array([[0.0, np.sqrt(g)], [0.0, 0.0]]),
                         np.sqrt(n) * np.diag([np.sqrt(1.0 - g), 1.0]),
                         np.sqrt(n) * np.array([[0.0, 0.0], [np.sqrt(g), 0.0]])))


@pytest.mark.parametrize("ch", [
    _generalized_amplitude_damping(0.3, 0.4),
    _pauli_channel([0.7, 0.1, 0.1, 0.1]),
    _pauli_channel([0.4, 0.3, 0.2, 0.1]),
    _pauli_channel([0.5, 0.25, 0.25, 0.0]),
], ids=["GAD", "depolarizing", "Pauli", "three Paulis"])
def test_fit_plan_splits_named_full_rank_channels_to_round_off(ch):
    result = fit_plan(ch)
    assert result.starts_used == 1 and result.plan.p == 0.5
    assert result.residual <= FIT_ROUNDOFF_RESIDUAL
    assert frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch)) <= FIT_ROUNDOFF_RESIDUAL


def _rotated(pair, rng):
    u, v = (random_channel(rng, 1).ops[0] for _ in range(2))
    return KrausChannel(tuple(u @ k @ v for k in pair))


@pytest.mark.parametrize("kind", ["reset", "T-rank-1"])
def test_stage_one_recognises_two_kraus_channels_with_repeated_singular_values(kind):
    # A rotated reset has T = 0 and a rotated nu = pi/2 branch T = diag(0, cos mu, 0): a repeated singular value,
    # so no SVD frame of T fixes where the displacement lies.  The closed form reads them off the Kraus pair.
    rng = np.random.default_rng(80 if kind == "reset" else 81)
    if kind == "reset":
        channels = [_rotated(kraus_from_angles(PI / 2, 0.0), rng) for _ in range(10)]
    else:
        channels = [_rotated(kraus_from_angles((mu + PI / 2) / 2, (mu - PI / 2) / 2), rng)
                    for mu in rng.uniform(-PI, PI, 10)]
    for ch in channels:
        result = fit_plan(ch)
        assert result.starts_used == 0 and result.residual <= 1e-14


def _mixed_and_dressed(pair, rng):
    """V-mixed pair (sum_a V[k, a] U K_a U')_k of a Kraus pair K, for random unitaries U, U' and V."""
    u, up, v = (random_channel(rng, 1).ops[0] for _ in range(3))
    dressed = np.array([u @ k @ up for k in pair])
    return np.einsum("ka,aij->kij", v, dressed)


def _special_angles(rng):
    """(alpha, beta) where a two-Kraus frame is arbitrary or ill-determined: unital alpha = +-beta, T-rank-1
    alpha - beta = +-pi/2, resets, rank-1 unitaries, the grid alpha, beta in {0, pi/4, pi/2}, and complete dephasing
    approached off the unital line."""
    q = PI / 4
    angles = [(a, b) for a in (0.0, q, 2 * q) for b in (0.0, q, 2 * q)]
    angles += [(a, s * a) for a in rng.uniform(-PI, PI, 10) for s in (1.0, -1.0)]
    angles += [(b + s * PI / 2, b) for b in rng.uniform(-PI, PI, 10) for s in (1.0, -1.0)]
    angles += [(PI / 2, 0.0), (0.0, PI / 2), (-PI / 2, 0.0), (0.0, 0.0), (PI / 2, PI / 2), (PI, 0.0)]
    angles += [(q + d1, q + d2) for d1 in (1e-10, -1e-7, 1e-4) for d2 in (0.0, 2e-10, -3e-8, 1e-5)]
    return angles


def test_offdiagonal_frame_is_an_su2_frame_that_makes_q_sigma_offdiagonal():
    # A = I and B = q . sigma, with Im q at 1e-16 to 1e-2 rad from Re q (either the longer, lengths 1e-3 to 1e3), and
    # q exactly parallel to a real vector or 0.  (c, w) gives the SU(2) frame [[c, -conj w], [w, c]] with
    # c >= 1/sqrt 2, in which q . sigma is off-diagonal within 1e-15 |q|, plus the part of the shorter of Re q and
    # Im q normal to the longer where that part is round-off (at most 16 eps |q| here), as the frame then takes a
    # fixed normal.
    rng = np.random.default_rng(1414)
    qs = [np.zeros(3, dtype=complex)]
    for theta in np.logspace(-16, -2, 29):
        for _ in range(100):
            e1, p = rng.normal(size=(2, 3))
            e1 /= np.linalg.norm(e1)
            p -= (p @ e1) * e1
            p /= np.linalg.norm(p)
            (r1, r2), swap = 10.0 ** rng.uniform(-3.0, 3.0, size=2), bool(rng.integers(2))
            pair = (r1 * e1, r2 * (np.cos(theta) * e1 + np.sin(theta) * p))
            qs.append(pair[swap] + 1j * pair[not swap])
    for e1 in rng.normal(size=(100, 3)):
        qs += [e1 * z for z in (1.0, 1j, 1.0 + 2.0j, -0.5 + 4.0j)]  # Re q and Im q exactly parallel
    for q in qs:
        b = np.einsum("k,kij->ij", q, np.array(PAULIS))
        c, w = _offdiagonal_frame(1.0 + 0j, 0j, 0j, 1.0 + 0j, *b.ravel().tolist())
        u = np.array([[c, -np.conj(w)], [w, c]])
        d = np.diag(u.conj().T @ b @ u)
        assert isinstance(c, float) and c >= np.sqrt(0.5) and abs(c * c + abs(w) ** 2 - 1.0) <= 1e-15, q
        longer = max(np.linalg.norm(q.real), np.linalg.norm(q.imag))
        b_perp = np.linalg.norm(np.cross(q.real, q.imag)) / longer if longer else 0.0
        fallback = b_perp if b_perp <= 32 * np.finfo(float).eps * np.linalg.norm(q) else 0.0
        assert np.abs(d).max() <= 1e-15 * np.linalg.norm(q) + fallback, q


def test_degenerate_frames_and_branches_hold_under_last_bit_changes():
    # Pairs whose frames are arbitrary: complete dephasing and the unital line (Re q parallel to Im q), resets and
    # T-rank-1 pairs (N_1 adj N_0 = 0), unitary pairs (q = 0), bare (where components of e1 or n tie) and under random
    # Kraus mixes and dressings.  Moving each entry by up to 3 ulps moves neither frame of _offdiagonal_frame, nor
    # any angle or dressing entry of _pair_branch, by more than 1e-12: the fixed normal and zero phase are taken,
    # not the round-off's direction.
    rng = np.random.default_rng(2828)
    angles = [(PI / 4, PI / 4), (PI / 4, -PI / 4), (PI / 2, 0.0), (0.0, PI / 2), (0.0, 0.0), (PI / 2, PI / 2)]
    angles += [(a, s * a) for a in rng.uniform(-PI, PI, 4) for s in (1.0, -1.0)]
    angles += [(b + s * PI / 2, b) for b in rng.uniform(-PI, PI, 4) for s in (1.0, -1.0)]
    pairs = [kraus_from_angles(a, b) for a, b in angles]
    pairs += [np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), np.array([ID2, PAULI_Z]) / np.sqrt(2.0)]
    pairs += [_mixed_and_dressed(pair, rng) for pair in pairs for _ in range(10)]

    def frames_and_branch(pair):
        l0, l1, l2, l3, m0, m1, m2, m3 = entries = pair.ravel().tolist()
        branch = _pair_branch(entries)
        return np.array([*_offdiagonal_frame(*entries), *_offdiagonal_frame(l0, l1, m0, m1, l2, l3, m2, m3),
                         branch.alpha, branch.beta, *branch.U.ravel(), *branch.Uprime.ravel()])

    for n, pair in enumerate(pairs):
        reference = frames_and_branch(pair)
        for _ in range(10):
            ulps = rng.integers(-3, 4, size=(2, *pair.shape))
            moved = pair + ulps[0] * np.spacing(pair.real) + 1j * ulps[1] * np.spacing(pair.imag)
            assert np.abs(frames_and_branch(moved) - reference).max() <= 1e-12, n


def test_pair_branch_reproduces_random_and_special_kraus_pairs():
    # Seeded property test of the closed form: 1,000 random trace-preserving pairs (an isometry cut in two), then
    # special angles under 20 random Kraus mixes and dressings each.  The dressings are unitary within 1e-12 and the
    # branch reproduces the pair's Choi matrix within 1e-13.
    rng = np.random.default_rng(2020)
    pairs = [np.array(random_channel(rng, 2).ops) for _ in range(1000)]
    pairs += [_mixed_and_dressed(kraus_from_angles(a, b), rng) for a, b in _special_angles(rng) for _ in range(20)]
    assert len(pairs) >= 2000
    for n, pair in enumerate(pairs):
        branch = _pair_branch(pair.ravel().tolist())
        assert unitarity_residual(branch.U) <= 1e-12 and unitarity_residual(branch.Uprime) <= 1e-12, n
        choi = to_choi(KrausChannel(tuple(pair)))
        assert frob_dist(_plan_choi(DecompositionPlan(branch, None, 1.0)), choi) <= 1e-13, n


def test_fit_plan_fits_two_kraus_channels_at_and_near_complete_dephasing():
    # Where the Kraus Gram matrix and sum L L^dag are both flat or nearly so (alpha, beta at or near pi/4), no
    # eigenvector fixes a frame; the closed form's frames come from products that a Kraus mix only scales.
    rng = np.random.default_rng(2021)
    for d1, d2 in [(0.0, 0.0), (0.0, PI / 2), (1e-10, 0.0), (-1e-6, -3e-8), (1e-10, 1e-6), (1e-4, 2e-10)]:
        for _ in range(5):
            ch = KrausChannel(tuple(_mixed_and_dressed(kraus_from_angles(PI / 4 + d1, PI / 4 + d2), rng)))
            result = fit_plan(ch)
            assert result.starts_used == 0 and result.residual <= 1e-13, (d1, d2)


@pytest.mark.parametrize("dropped", range(4))
def test_fit_plan_fits_rotated_three_pauli_mixtures(dropped):
    # A mixture of three Paulis has Choi rank 3, and its T repeats a |singular value| wherever two weights agree;
    # rotated on both sides, as in the probe's degenerate corpus, it is fitted by the split.
    rng = np.random.default_rng(90 + dropped)
    paulis = [s for k, s in enumerate((ID2, *PAULIS)) if k != dropped]
    for weights in (np.full(3, 1.0 / 3.0), np.array([0.5, 0.25, 0.25]), rng.dirichlet(np.ones(3))):
        ch = _rotated([np.sqrt(w) * s for w, s in zip(weights, paulis)], rng)
        result = fit_plan(ch)
        assert result.residual <= FIT_TARGET_RESIDUAL and result.starts_used == 1
        assert frob_dist(to_choi(plan_to_channel(result.plan)), to_choi(ch)) <= 1e-9


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
    # target than that, and the split reproduces the renormalised Kraus set.
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


def test_fit_plan_scores_one_plan_at_stage_one_on_rounded_two_kraus_files(monkeypatch):
    import qchansim.decompose as decompose

    # A rank-1/2 Kraus set rounded to 9 digits is off trace preservation by about 1e-9.  Stage one scores one plan,
    # that of its pair, and keeps it within FIT_TARGET_RESIDUAL; else the split scores one more and ends near the floor.
    calls = []
    plan_choi = decompose._plan_choi

    def counting_plan_choi(plan):
        calls.append(plan)
        return plan_choi(plan)

    monkeypatch.setattr(decompose, "_plan_choi", counting_plan_choi)
    for i in range(40):
        ch = random_channel(np.random.default_rng(64000 + i), 1 + i % 2)
        rounded = KrausChannel(tuple(np.round(k, 9) for k in ch.ops))
        floor = validate_channel(rounded).trace_residual / np.sqrt(2.0)
        calls.clear()
        result = fit_plan(rounded)
        assert result.starts_used <= 1 and len(calls) == 1 + result.starts_used, i
        assert result.residual <= max(FIT_TARGET_RESIDUAL, 2.0 * floor), i


def test_rounded_two_kraus_splits_exceed_the_floor_by_what_the_projection_clips():
    # The split's plan P is trace preserving and J' (the projection of J onto that affine subspace) is J's nearest
    # point there, so ||P - J||^2 = ||J - J'||^2 + ||P - J'||^2, with ||J - J'|| the floor.  P is also positive
    # semidefinite, so ||P - J'|| is at least the norm of the negative eigenvalues of J' that the split clips, and the
    # renormalisation after the clip keeps it within twice their mass: a file whose J' clips nothing lands on its
    # floor.  The rounded two-Kraus files that reach the split (33 of the 40).
    split = 0
    for i in range(40):
        ch = random_channel(np.random.default_rng(64000 + i), 1 + i % 2)
        rounded = KrausChannel(tuple(np.round(k, 9) for k in ch.ops))
        result = fit_plan(rounded)
        if result.starts_used == 0:
            continue
        split += 1
        rows = to_choi(rounded).tolist()
        defect, trace_residual = _tp_defect(rows)
        eigenvalues = np.linalg.eigvalsh(np.array(_project(rows, defect)))
        floor, off = trace_residual / np.sqrt(2.0), frob_dist(_plan_choi(result.plan), np.array(rows))
        clipped = np.minimum(eigenvalues, 0.0)
        assert abs(result.residual ** 2 - floor ** 2 - off ** 2) <= 1e-5 * floor ** 2, i
        assert np.linalg.norm(clipped) * (1.0 - 1e-6) <= off <= 2.0 * -clipped.sum() + 1e-3 * floor, (i, off / floor)
    assert split == 33


def test_plan_json_round_trip():
    rng = np.random.default_rng(38)
    plans = [closed_form_plan(kind, lam) for kind in ChannelKind for lam in np.linspace(0.0, 1.0, 11)]
    plans += [DecompositionPlan(_random_branch(rng), _random_branch(rng, conditional_x=bool(rng.integers(2))),
                                rng.uniform(0.0, 1.0)) for _ in range(20)]
    for plan in plans:
        text = plan_to_json(plan)
        assert plan_to_json(plan_from_json(text)) == text


def test_fit_plan_keeps_a_split_plan_that_misses_by_less_than_the_target(monkeypatch):
    import qchansim.decompose as decompose

    # The first half's closed form is given alpha off by 1e-10: a plan that misses the target by less than
    # FIT_TARGET_RESIDUAL but more than round-off.  It is kept, with no further read.
    pair_branch, calls = decompose._pair_branch, []

    def closed_form_with_a_near_miss_first(pair):
        calls.append(pair)
        branch = pair_branch(pair)
        if len(calls) == 1:
            return QuasiExtremeBranch.from_alpha_beta(branch.alpha + 1e-10, branch.beta, U=branch.U,
                                                      Uprime=branch.Uprime)
        return branch

    monkeypatch.setattr(decompose, "_pair_branch", closed_form_with_a_near_miss_first)
    for rank in (3, 4):
        ch = random_channel(np.random.default_rng(10000 * rank), rank)
        calls.clear()
        result = fit_plan(ch)
        assert len(calls) == 2 and result.starts_used == 1
        assert decompose.FIT_ROUNDOFF_RESIDUAL < result.residual < FIT_TARGET_RESIDUAL


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
    read = []

    def recording_pair_branch(pair):
        read.append(to_choi(KrausChannel(tuple(np.array(pair).reshape(2, 2, 2)))))
        return _pair_branch(pair)

    monkeypatch.setattr(decompose, "_pair_branch", recording_pair_branch)
    # The split reads its two halves, never a pair of the target's own.
    for rank in (3, 4):
        for i in range(5):
            ch = random_channel(np.random.default_rng(50 + 10 * rank + i), rank)
            read.clear()
            assert fit_plan(ch).starts_used >= 1
            assert len(read) == 2
            assert not any(np.allclose(choi, to_choi(ch)) for choi in read)
    read.clear()
    # 1e-13 of the fully depolarizing channel keeps a rank-2 channel within reach of stage one: its top two Choi
    # eigenvectors are the pair.
    ch = _depolarized(random_kraus_pair_channel(np.random.default_rng(37)), 1e-13)
    result = fit_plan(ch)
    assert result.starts_used == 0 and result.residual <= FIT_TARGET_RESIDUAL
    assert len(read) == 1 and frob_dist(read[0], to_choi(ch)) <= 1e-12


def _near_the_skip_threshold(ops_a, ops_b, ratio):
    """(1 - delta) of the two-Kraus channel ``ops_a`` plus delta of ``ops_b`` (one or two operators), exactly trace
    preserving, with delta set so that the root-sum-square of the two smallest eigenvalues of J' is ``ratio`` times
    FIT_TARGET_RESIDUAL; and J''s rows and eigenvalues."""
    delta = 1e-9
    for _ in range(4):  # that root-sum-square grows about linearly in delta
        ch = KrausChannel(tuple(np.sqrt(1.0 - delta) * k for k in ops_a) + tuple(np.sqrt(delta) * k for k in ops_b))
        rows = to_choi(ch).tolist()
        rows = _project(rows, _tp_defect(rows)[0])
        eigenvalues = np.linalg.eigvalsh(np.array(rows))
        delta *= ratio * FIT_TARGET_RESIDUAL / np.hypot(*sorted(np.abs(eigenvalues))[:2])
    return ch, rows, eigenvalues


def test_stage_one_skip_at_its_threshold_matches_the_eigh_decision(monkeypatch):
    import qchansim.decompose as decompose

    # Exactly trace-preserving sets of three and four operators whose two smallest eigenvalues of J' have a
    # root-sum-square of 0.5-16 times FIT_TARGET_RESIDUAL = t.  Stage one is tried exactly where that is at most t;
    # the closed-form skip (from e2 and e3) claims none of those and proves the skip from 8 t on; and the plan and
    # stage marker are those of the eigh decision alone, bit for bit.  At 0.5 t stage one keeps its plan; from 0.9 t
    # on its plan misses, or it is skipped, and the split serves.
    scored = []
    plan_choi = decompose._plan_choi

    def counting_plan_choi(plan):
        scored.append(plan)
        return plan_choi(plan)

    monkeypatch.setattr(decompose, "_plan_choi", counting_plan_choi)
    for n_b in (1, 2):
        for seed in range(3):
            rng = np.random.default_rng(4200 + 10 * n_b + seed)
            ops_a, ops_b = random_channel(rng, 2).ops, random_channel(rng, n_b).ops
            for ratio in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 4.0, 8.0, 16.0):
                ch, rows, eigenvalues = _near_the_skip_threshold(ops_a, ops_b, ratio)
                tries = np.hypot(*sorted(np.abs(eigenvalues))[:2]) <= FIT_TARGET_RESIDUAL
                assert len(ch.ops) == 2 + n_b and validate_channel(ch).trace_residual <= FIT_ROUNDOFF_RESIDUAL
                assert tries == (ratio < 1.0) and _stage_one_out_of_reach(rows) == (ratio >= 8.0), (n_b, seed, ratio)
                scored.clear()
                result = fit_plan(ch)
                tried = result.starts_used == 0 or len(scored) == 2
                assert tried == tries and result.starts_used == (ratio > 0.5), (n_b, seed, ratio)
                with monkeypatch.context() as eigh_only:
                    eigh_only.setattr(decompose, "_stage_one_out_of_reach", lambda rows: False)
                    reference = fit_plan(ch)
                assert (result.starts_used, result.residual) == (reference.starts_used, reference.residual)
                assert plan_to_json(result.plan) == plan_to_json(reference.plan), (n_b, seed, ratio)


def _fit_corpus(rank):
    """The channels of one Choi rank in the ``fit`` benchmark corpus (perfbench/inputs.py ``fit_corpus``: seed 2008,
    ranks 1-4 drawn 8/8/6/6 in turn from one stream)."""
    rng = np.random.default_rng(2008)
    by_rank = {r: [random_channel(rng, r) for _ in range(count)] for r, count in zip((1, 2, 3, 4), (8, 8, 6, 6))}
    return by_rank[rank]


def test_stage_one_gives_each_half_the_branch_of_its_own_closed_form(monkeypatch):
    import qchansim.decompose as decompose

    # The halves of the 12 rank-3/4 fit-corpus channels and of the convergence probe's rank3 and rank4 corpora.  Each
    # half is read once, in closed form; its branch reproduces the half to round-off, and the same pair read again
    # gives the same branch, bit for bit.
    halves, branches = [], []

    def recording_pair_branch(pair):
        halves.append(list(pair))
        branches.append(_pair_branch(pair))
        return branches[-1]

    monkeypatch.setattr(decompose, "_pair_branch", recording_pair_branch)
    channels = _fit_corpus(3) + _fit_corpus(4)
    channels += [random_channel(np.random.default_rng(10000 + i), 3) for i in range(100)]
    channels += [random_channel(np.random.default_rng(20000 + i), 4) for i in range(100)]
    for n, ch in enumerate(channels):
        halves.clear()
        branches.clear()
        plan = fit_plan(ch).plan
        assert len(halves) == 2 and {id(plan.branch_a), id(plan.branch_b)} == set(map(id, branches)), n
        for half, branch in zip(halves, branches):
            choi = to_choi(KrausChannel(tuple(np.array(half).reshape(2, 2, 2))))
            assert frob_dist(_plan_choi(DecompositionPlan(branch, None, 1.0)), choi) <= 1e-13, n
            again = _pair_branch(half)
            assert (branch.alpha, branch.beta) == (again.alpha, again.beta), n
            assert np.array_equal(branch.U, again.U) and np.array_equal(branch.Uprime, again.Uprime), n


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fit_plan_makes_no_svd_call(monkeypatch, rank):
    import qchansim.channels as channels

    # Every branch comes from the closed form of its Kraus pair: no SVD and no transfer matrix.  A trace-preserving
    # split of three or four operators proves its skip of stage one and reads M's null vector off its minors, so it
    # makes no eigh and no QR either (R's eigenframe is in closed form), and neither does a fit of at most two.
    ch, calls = random_channel(np.random.default_rng(40 + rank), rank), []

    def recording(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    for name in ("svd", "eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    for name in ("transfer", "pauli_transfer"):
        monkeypatch.setattr(channels, name, lambda *args, name=name: calls.append(name))
    result = fit_plan(ch)
    assert calls == []
    assert result.starts_used == (0 if rank <= 2 else 1) and result.residual <= 1e-13


def test_fit_plan_of_a_trace_preserving_three_or_four_operator_set_makes_no_linalg_call(monkeypatch):
    # Far from rank 2, the skip of stage one is proven from e2 and e3 of J', the split takes the set's own operators,
    # and M has rank 4, so its null vector is read off its minors: no eigh, eigvalsh, qr, svd or det.  The split is an
    # equal mix that reproduces the target to round-off.
    channels = [random_channel(np.random.default_rng(4300 + 10 * rank + i), rank) for rank in (3, 4) for i in range(20)]
    channels += _fit_corpus(3) + _fit_corpus(4)

    def no_call(*args, **kwargs):
        raise AssertionError("numpy.linalg call")

    for name in ("eigh", "eigvalsh", "qr", "svd", "det"):
        monkeypatch.setattr(np.linalg, name, no_call)
    for i, ch in enumerate(channels):
        result = fit_plan(ch)
        assert result.starts_used == 1 and result.plan.p == 0.5 and result.residual <= 1e-14, i


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
