import numpy as np
import pytest

from conftest import haar_unitary
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


def test_stacked_density_check_rejects_exactly_one_bad_member():
    rng = np.random.default_rng(5)
    stack = np.array([density_from_bloch(r * rng.uniform(0.0, 1.0) / np.linalg.norm(r))
                      for r in rng.standard_normal((6, 3))])
    assert np.array_equal(assert_density_matrix(stack), stack)
    assert bloch_vector(stack).shape == (6, 3)
    bad_members = {
        "Hermitian": np.array([[0.5, 0.3], [0.0, 0.5]]),
        "unit trace": np.diag([0.6, 0.5]),
        "negative eigenvalue": np.array([[0.5, 0.7], [0.7, 0.5]]),
    }
    for message, bad in bad_members.items():
        for index in (0, 3, 5):
            corrupted = stack.copy()
            corrupted[index] = bad
            with pytest.raises(ValueError, match=message):
                assert_density_matrix(corrupted)
            with pytest.raises(ValueError, match=message):
                assert_density_matrix(corrupted.reshape(2, 3, 2, 2))
