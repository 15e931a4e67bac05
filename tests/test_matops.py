import warnings

import numpy as np
import pytest

from conftest import haar_unitary, random_density, random_pure
from qchansim.matops import (
    ID2,
    PAULI_X,
    PAULI_Z,
    Q0,
    assert_density_matrix,
    bloch_vector,
    dagger,
    density_from_bloch,
    phase_invariant_distance,
)


def test_dagger_examples():
    assert np.allclose(dagger(ID2), ID2)
    assert np.allclose(dagger(Q0), np.diag([1.0, -1.0j]))
    k1 = np.array([[0.0, 0.5], [0.0, 0.0]])  # AD Kraus K1 at lam = 0.25
    assert np.allclose(dagger(k1), np.array([[0.0, 0.0], [0.5, 0.0]]))


def test_phase_invariant_distance_examples():
    assert phase_invariant_distance(ID2, ID2) == pytest.approx(0.0, abs=1e-12)
    assert phase_invariant_distance(ID2, -ID2) == pytest.approx(0.0, abs=1e-12)
    # Tr(sigma_x) = 0, so the closed form gives sqrt(2 * 2 - 0) = 2.
    assert phase_invariant_distance(ID2, PAULI_X) == pytest.approx(2.0, abs=1e-12)


def test_phase_invariant_distance_kills_global_phase():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = haar_unitary(rng)
        phi = rng.uniform(-np.pi, np.pi)
        assert phase_invariant_distance(u, np.exp(1j * phi) * u) <= 1e-10


def test_phase_invariant_distance_is_the_minimum_over_global_phases():
    # Against a scan of 3600 phases, refined at its best point by the closed form sqrt(2 d - 2 |Tr(u^dag v)|).
    rng = np.random.default_rng(2)
    phis = np.linspace(-np.pi, np.pi, 3600, endpoint=False)
    for _ in range(50):
        u, v = haar_unitary(rng), haar_unitary(rng)
        scan = np.linalg.norm(u[None] - np.exp(1j * phis)[:, None, None] * v[None], axis=(1, 2)).min()
        got = phase_invariant_distance(u, v)
        assert got == pytest.approx(np.sqrt(max(4.0 - 2.0 * abs(np.trace(u.conj().T @ v)), 0.0)), abs=1e-12)
        assert got <= scan + 1e-12 and scan - got <= 2e-3


def test_phase_invariant_distance_rejects_nonunitary():
    with pytest.raises(ValueError):
        phase_invariant_distance(ID2, 1.1 * ID2)


def test_bloch_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        r = rng.uniform(-1.0, 1.0, size=3)
        r *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(r), 1e-12)
        assert np.allclose(bloch_vector(density_from_bloch(r)), r, atol=1e-12)


def test_density_from_bloch_rejects_long_vectors():
    with pytest.raises(ValueError):
        density_from_bloch([1.0, 1.0, 0.0])


def test_finite_check_accepts_noncontiguous_views():
    u = np.array([[0.6 + 0.8j, 0.0], [0.0, 1.0]], dtype=complex)
    assert phase_invariant_distance(dagger(u), u.conj().T) <= 1e-12
    with pytest.raises(ValueError):
        assert_density_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))


def _reference_check(rho, tol=1e-8):
    """The density check in its eigenvalue form, the reference for the closed form: the message kind it raises
    for a state or a stack, or None."""
    rho = np.asarray(rho, dtype=complex)
    rho_dag = rho.conj().swapaxes(-1, -2)
    if np.linalg.norm(rho - rho_dag, axis=(-2, -1)).max() > tol:
        return "Hermitian"
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if abs(trace.real - 1.0).max() > tol or abs(trace.imag).max() > tol:
        return "unit trace"
    if np.linalg.eigvalsh((rho + rho_dag) / 2.0).min() < -tol:
        return "negative eigenvalue"
    return None


def _checked_kind(rho, tol=1e-8):
    """The message kind that assert_density_matrix raises for ``rho``, or None if it accepts it."""
    try:
        assert_density_matrix(rho, tol=tol)
    except ValueError as err:
        return next(kind for kind in ("Hermitian", "unit trace", "negative eigenvalue") if kind in str(err))
    return None


def _anti_hermitian(rho, size, rng):
    """``rho`` plus a traceless anti-Hermitian part, so that ||rho - rho^dag||_F = size."""
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = 1j * (h + h.conj().T)
    a -= np.trace(a) / 2.0 * np.eye(2)
    return rho + size / (2.0 * np.linalg.norm(a)) * a


def _negative_eigenvalue(rho, size, rng):
    """``rho`` with its least eigenvalue moved to -size and the trace kept, by shifting weight to the other one."""
    w, v = np.linalg.eigh(rho)
    shift = size + w[0]
    return rho - shift * np.outer(v[:, 0], v[:, 0].conj()) + shift * np.outer(v[:, 1], v[:, 1].conj())


_DEFECTS = {
    "anti-Hermitian part": _anti_hermitian,
    "real trace above": lambda rho, size, rng: rho * (1.0 + size),
    "real trace below": lambda rho, size, rng: rho * (1.0 - size),
    "imaginary trace": lambda rho, size, rng: rho + 1j * size / 2.0 * np.eye(2),
    "negative eigenvalue": _negative_eigenvalue,
}


def test_stacked_density_check_rejects_exactly_one_bad_member():
    rng = np.random.default_rng(5)
    stack = np.array([density_from_bloch(r * rng.uniform(0.0, 1.0) / np.linalg.norm(r))
                      for r in rng.standard_normal((6, 3))])
    assert np.array_equal(assert_density_matrix(stack), stack)
    assert bloch_vector(stack).shape == (6, 3)
    bad_members = [
        ("Hermitian", np.array([[0.5, 0.3], [0.0, 0.5]])),
        ("unit trace", np.diag([0.6, 0.5])),
        ("negative eigenvalue", np.array([[0.5, 0.7], [0.7, 0.5]])),
    ]
    # Members at twice the default tolerance, one per defect of _DEFECTS, each with the reference's message kind.
    for defect in _DEFECTS.values():
        bad = defect(stack[2], 2.0 * 1e-8, np.random.default_rng(6))
        bad_members.append((_reference_check(bad), bad))
    for message, bad in bad_members:
        for index in (0, 3, 5):
            corrupted = stack.copy()
            corrupted[index] = bad
            with pytest.raises(ValueError, match=message):
                assert_density_matrix(corrupted)
            with pytest.raises(ValueError, match=message):
                assert_density_matrix(corrupted.reshape(2, 3, 2, 2))


def test_qubit_check_in_closed_form_agrees_with_the_eigenvalue_form():
    # 300 pure and 300 full-rank states, each clean and with every defect at 0.5x and 2x the tolerance, at the default
    # tolerance and at 1e-9: the closed form gives the verdict and the message kind of one eigvalsh of the Hermitian
    # part, for each state alone and for stacks of 50.  Defects at 0.9x and 1.1x pin each term's weight as well.  A
    # clean state returns as the coerced array.
    rng = np.random.default_rng(2501)
    states = [random_pure(rng) for _ in range(300)] + [random_density(rng) for _ in range(300)]
    seen = set()
    for tol in (1e-8, 1e-9):
        cases = [(rho, None) for rho in states]
        cases += [(defect(rho, factor * tol, rng), (name, factor))
                  for rho in states for name, defect in _DEFECTS.items() for factor in (0.5, 0.9, 1.1, 2.0)]
        for rho, case in cases:
            expected = _reference_check(rho, tol)
            assert _checked_kind(rho, tol) == expected, (tol, case)
            seen.add((case, expected))
        clean = np.array(states)
        assert np.array_equal(assert_density_matrix(clean, tol=tol), clean)
        for start in range(0, len(cases), 50):
            stack = np.array([rho for rho, _ in cases[start:start + 50]])
            assert _checked_kind(stack, tol) == _reference_check(stack, tol), (tol, start)
    # Every defect passes at half the tolerance and fails at twice it; an imaginary trace is caught first as an
    # anti-Hermitian diagonal, as by the reference.
    assert {kind for case, kind in seen if case is not None and case[1] == 0.5} == {None}
    assert {case[0]: kind for case, kind in seen if case is not None and case[1] == 2.0} == {
        "anti-Hermitian part": "Hermitian", "real trace above": "unit trace", "real trace below": "unit trace",
        "imaginary trace": "Hermitian", "negative eigenvalue": "negative eigenvalue"}
    assert {kind for case, kind in seen if case is None} == {None}


@pytest.mark.parametrize("entries, message", [
    ([[1e200, 0.0], [0.0, 1.0]], "unit trace"),
    ([[0.5, 1e200], [1e200, 0.5]], "negative eigenvalue -1e\\+200"),
    ([[0.5, 1e200j], [-1e200j, 0.5]], "negative eigenvalue -1e\\+200"),
    ([[0.5, 1e200], [0.0, 0.5]], "Hermitian"),
    ([[1e200j, 0.0], [0.0, 1.0]], "Hermitian"),
    ([[-1e200, 1e200 + 1e200j], [1e200 - 1e200j, 1e200]], "unit trace"),
    ([[0.5, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 0.5]], "negative eigenvalue -inf"),
    ([[1.7e308 + 1.7e308j, 1.7e308 - 1.7e308j], [-1.7e308 + 1.7e308j, -1.7e308 - 1.7e308j]], "Hermitian"),
])
def test_qubit_check_of_huge_entries_raises_without_a_numpy_warning(entries, message):
    # Squares of entries of 1e200 overflow, and so do sums of entries near the largest float; the closed form reads
    # hypot and abs of rho / 8, so it raises its own message alone, for a state and for a stack with that member.
    rho = np.array(entries, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (rho, np.array([np.eye(2) / 2.0, rho])):
            with pytest.raises(ValueError, match=message):
                assert_density_matrix(value)


def test_density_check_takes_eigvalsh_for_other_sizes_only(monkeypatch):
    # A 2x2 state or stack takes no eigenvalue call; a 4x4 state takes one, and its verdict is the reference's.
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    assert_density_matrix(ID2 / 2.0)
    assert_density_matrix(np.array([ID2 / 2.0] * 3), dim=2)
    assert calls == []
    rho4 = np.kron(ID2 / 2.0, np.diag([1.0, 0.0]))
    assert np.array_equal(assert_density_matrix(rho4, dim=4), rho4)
    bad4 = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue -0.1"):
        assert_density_matrix(bad4)
    assert calls == [(4, 4), (4, 4)]
    assert _reference_check(bad4) == "negative eigenvalue"


def test_density_check_rejects_a_stack_only_where_one_state_is_asked_for():
    stack = np.array([ID2 / 2.0] * 3)
    assert np.array_equal(assert_density_matrix(stack), stack)
    with pytest.raises(ValueError, match=r"^expected one matrix, not a stack of shape \(3, 2, 2\)$"):
        assert_density_matrix(stack, stack=False)
    with pytest.raises(ValueError, match=r"^expected a 2x2 matrix, got shape \(3, 3\)$"):
        assert_density_matrix(np.eye(3) / 3.0, dim=2)
