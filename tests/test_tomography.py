import numpy as np
import pytest

from conftest import haar_unitary, random_density, random_pure
from qchansim.circuit import NoiseParams
from qchansim.matops import ID2, assert_density_matrix, bloch_vector, dagger, density_from_bloch
from qchansim.tomography import (
    Basis,
    DarkBasisError,
    TomographyRecord,
    _port_a_probabilities,
    coherence,
    fidelity,
    forward_intensities,
    reconstruct,
    reconstruction_to_json,
)

KET_H = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET_V = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

# Port-A analyzer states per basis: |H>, |+>, |L>.
PORT_A_STATES = {
    Basis.HV: np.array([1.0, 0.0], dtype=complex),
    Basis.DA: np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    Basis.LR: np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
}


def test_settings_project_on_named_states():
    rng = np.random.default_rng(50)
    for _ in range(50):
        rho = random_density(rng)
        rec = forward_intensities(rho)
        for basis, pair in zip(Basis, (rec.hv, rec.da, rec.lr)):
            ket = PORT_A_STATES[basis]
            direct = float(np.real(ket.conj() @ rho @ ket))
            assert pair[0] == pytest.approx(direct, abs=1e-12)
            assert pair[1] == pytest.approx(1.0 - direct, abs=1e-12)


def test_forward_intensities_h_state():
    rec = forward_intensities(KET_H)
    assert rec.hv == pytest.approx((1.0, 0.0), abs=1e-12)
    assert rec.da == pytest.approx((0.5, 0.5), abs=1e-12)
    assert rec.lr == pytest.approx((0.5, 0.5), abs=1e-12)


def test_forward_intensities_plus_state():
    rec = forward_intensities(PLUS)
    assert rec.da == pytest.approx((1.0, 0.0), abs=1e-12)
    assert rec.hv == pytest.approx((0.5, 0.5), abs=1e-12)


def test_forward_intensities_partial_mix():
    rec = forward_intensities(density_from_bloch([0.0, 0.0, 0.6]))
    assert rec.hv == pytest.approx((0.8, 0.2), abs=1e-12)


def test_probabilities_ratios():
    rec = TomographyRecord(hv=(1.0, 0.0), da=(3.0, 1.0), lr=(2.0, 2.0))
    # P_A per basis in Basis order; reconstruct takes P_B = 1 - P_A.
    hv, da, lr = _port_a_probabilities(rec)
    assert (hv, 1.0 - hv) == pytest.approx((1.0, 0.0))
    assert (da, 1.0 - da) == pytest.approx((0.75, 0.25))
    assert lr + (1.0 - lr) == 1.0


def test_probabilities_rejects_dark_basis():
    rec = TomographyRecord(hv=(0.0, 0.0), da=(1.0, 0.0), lr=(1.0, 0.0))
    with pytest.raises(DarkBasisError, match="basis HV"):
        _port_a_probabilities(rec)
    with pytest.raises(DarkBasisError, match="basis HV"):
        reconstruct(rec)


def test_reconstruct_cardinal_states():
    rec = reconstruct(forward_intensities(KET_V))
    assert np.allclose(rec.bloch, [0.0, 0.0, -1.0], atol=1e-12)
    rec = reconstruct(forward_intensities(PLUS))
    assert np.allclose(rec.bloch, [1.0, 0.0, 0.0], atol=1e-12)
    assert not rec.clamped


def test_reconstruct_round_trip_random_states():
    rng = np.random.default_rng(51)
    for _ in range(1000):
        rho = random_density(rng)
        rec = reconstruct(forward_intensities(rho))
        assert np.linalg.norm(rec.bloch - bloch_vector(rho)) <= 1e-12


def test_reconstruct_clamps_unphysical_records():
    rec = reconstruct(TomographyRecord(hv=(1.0, 0.0), da=(1.0, 0.0), lr=(1.0, 0.0)))
    assert rec.clamped
    assert np.linalg.norm(rec.bloch) <= 1.0
    assert rec.purity == pytest.approx(1.0)


def test_reconstruction_purity_is_trace_of_rho_squared():
    rec = reconstruct(forward_intensities(density_from_bloch([0.0, 0.0, 0.6])))
    assert rec.purity == pytest.approx(0.68, abs=1e-12)
    rng = np.random.default_rng(57)
    for _ in range(50):
        rec = reconstruct(forward_intensities(random_density(rng)))
        assert rec.purity == pytest.approx(np.trace(rec.rho @ rec.rho).real, abs=1e-12)


def test_noisy_reconstruction_never_leaves_ball():
    rng = np.random.default_rng(52)
    for seed in range(200):
        noise = NoiseParams(visibility=1.0, intensity_sigma=0.05, rng_seed=seed)
        rec = reconstruct(forward_intensities(random_density(rng), noise=noise))
        assert np.linalg.norm(rec.bloch) <= 1.0 + 1e-12


def test_fidelity_examples():
    rho = random_density(np.random.default_rng(53))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(KET_H, KET_V) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(PLUS, ID2 / 2.0) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetry_and_unitary_invariance():
    rng = np.random.default_rng(54)
    for _ in range(50):
        rho, sigma = random_density(rng), random_density(rng)
        f = fidelity(rho, sigma)
        assert f == pytest.approx(fidelity(sigma, rho), abs=1e-9)
        u = haar_unitary(rng)
        assert fidelity(u @ rho @ dagger(u), u @ sigma @ dagger(u)) == pytest.approx(f, abs=1e-9)
        assert 0.0 <= f <= 1.0


def test_fidelity_rejects_invalid_input():
    with pytest.raises(ValueError):
        fidelity(np.eye(2), KET_H)
    with pytest.raises(ValueError):
        fidelity(np.eye(4) / 4.0, np.eye(4) / 4.0)


def _uhlmann_reference(rho, sigma):
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 from two Hermitian eigensolves."""
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    w_inner = np.linalg.eigvalsh(sqrt_rho @ sigma @ sqrt_rho)
    return min(max(float(np.sum(np.sqrt(np.clip(w_inner, 0.0, None))) ** 2), 0.0), 1.0)


def test_fidelity_closed_form_matches_uhlmann_reference():
    rng = np.random.default_rng(58)
    for _ in range(1000):
        rho, sigma = random_density(rng), random_density(rng)
        assert abs(fidelity(rho, sigma) - _uhlmann_reference(rho, sigma)) <= 1e-12
    # With a pure argument the reference takes the square root of a
    # round-off eigenvalue, so it is itself only good to about 1e-8.
    for _ in range(1000):
        pure, mixed = random_pure(rng), random_density(rng)
        assert abs(fidelity(pure, mixed) - _uhlmann_reference(pure, mixed)) <= 1e-7
        assert abs(fidelity(mixed, pure) - _uhlmann_reference(mixed, pure)) <= 1e-7


def test_coherence_examples():
    pair = coherence(PLUS)
    assert pair.c_l1 == pytest.approx(1.0, abs=1e-12)
    assert pair.c_max == pytest.approx(1.0, abs=1e-12)
    pair = coherence(KET_V)
    assert pair.c_l1 == pytest.approx(0.0, abs=1e-12)
    assert pair.c_max == pytest.approx(1.0, abs=1e-12)
    pair = coherence(ID2 / 2.0)
    assert pair.c_l1 == pytest.approx(0.0, abs=1e-12)
    assert pair.c_max == pytest.approx(0.0, abs=1e-12)


def test_coherence_matches_bloch_formulas():
    rng = np.random.default_rng(55)
    for _ in range(200):
        rho = random_density(rng)
        r = bloch_vector(rho)
        pair = coherence(rho)
        assert pair.c_l1 == pytest.approx(np.hypot(r[0], r[1]), abs=1e-12)
        assert pair.c_max == pytest.approx(np.linalg.norm(r), abs=1e-12)
        assert pair.c_l1 <= pair.c_max + 1e-9


def test_coherence_invariances():
    rng = np.random.default_rng(56)
    for _ in range(100):
        rho = random_density(rng)
        base = coherence(rho)
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        diag_u = np.diag([np.exp(1j * a), np.exp(1j * b)])
        assert coherence(diag_u @ rho @ dagger(diag_u)).c_l1 == pytest.approx(base.c_l1, abs=1e-12)
        u = haar_unitary(rng)
        assert coherence(u @ rho @ dagger(u)).c_max == pytest.approx(base.c_max, abs=1e-12)


def test_reconstruction_json_fields():
    import json

    rec = reconstruct(forward_intensities(KET_V))
    payload = json.loads(reconstruction_to_json(rec))
    assert set(payload) == {"rho", "bloch", "purity", "clamped"}
    assert payload["clamped"] is False
    assert payload["bloch"] == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)


def test_intensity_noise_is_seed_deterministic():
    noise = NoiseParams(visibility=1.0, intensity_sigma=0.02, rng_seed=5)
    a = forward_intensities(PLUS, noise=noise)
    b = forward_intensities(PLUS, noise=noise)
    assert a == b
    c = forward_intensities(PLUS, noise=NoiseParams(intensity_sigma=0.02, rng_seed=6))
    assert a != c


def test_reconstruct_flags_clamp_only_beyond_round_off():
    # r = (2 eps, 0, 1): eps = 5e-8 leaves the norm 5e-15 above 1, eps = 1e-5 leaves it 2e-10 above.
    for eps, flagged in ((5e-8, False), (1e-5, True)):
        rec = reconstruct(TomographyRecord(hv=(1.0, 0.0), da=(0.5 + eps, 0.5 - eps), lr=(0.5, 0.5)))
        assert rec.clamped is flagged
        assert np.linalg.norm(rec.bloch) <= 1.0


def test_stacked_tomography_matches_per_point_calls():
    rng = np.random.default_rng(59)
    states = np.array([random_density(rng) for _ in range(8)] + [random_pure(rng) for _ in range(4)])
    others = np.array([random_density(rng) for _ in range(12)])
    noise = NoiseParams(visibility=1.0, intensity_sigma=0.05, rng_seed=30)
    for row_noise in (None, noise):
        record = forward_intensities(states, noise=row_noise)
        recon = reconstruct(record)
        fids = fidelity(recon.rho, others)
        coh = coherence(recon.rho)
        for i, rho in enumerate(states):
            # Member i of a noisy stack draws from rng_seed + i.
            seeded = None if row_noise is None else NoiseParams(intensity_sigma=0.05, rng_seed=30 + i)
            single = forward_intensities(rho, noise=seeded)
            for stacked_pair, pair in zip((record.hv, record.da, record.lr), (single.hv, single.da, single.lr)):
                assert np.abs(stacked_pair[i] - pair).max() <= 1e-14
            member = recon[i]
            expected = reconstruct(single)
            assert np.abs(member.rho - expected.rho).max() <= 1e-14
            assert member.purity == pytest.approx(expected.purity, abs=1e-14)
            assert member.clamped is expected.clamped
            assert fids[i] == pytest.approx(fidelity(expected.rho, others[i]), abs=1e-14)
            pair = coherence(expected.rho)
            assert (coh.c_l1[i], coh.c_max[i]) == pytest.approx((pair.c_l1, pair.c_max), abs=1e-14)


def test_stacked_probabilities_name_the_first_dark_basis():
    lit = np.array([[1.0, 0.0], [0.5, 0.5]])
    dark = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DarkBasisError, match="basis DA"):
        _port_a_probabilities(TomographyRecord(hv=lit, da=dark, lr=dark))
    pa = _port_a_probabilities(TomographyRecord(hv=lit, da=lit, lr=lit))
    assert np.array_equal(pa[:, 1], [1.0, 0.5])  # DA is column 1 in Basis order


def test_empty_stacks_are_rejected_with_one_line():
    # A stack with no members has no state to check or measure: each entry point rejects it with its own one-line
    # ValueError, not numpy's complaint about reducing a zero-size array.
    empty = np.zeros((0, 2, 2))
    one = np.array([random_density(np.random.default_rng(60))])
    calls = [lambda: assert_density_matrix(empty), lambda: forward_intensities(empty), lambda: fidelity(empty, empty),
             lambda: fidelity(one, empty), lambda: coherence(empty)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^expected at least one density matrix, got shape \(0, 2, 2\)$"):
            call()


def test_the_largest_intensity_sigma_runs_without_a_numpy_warning():
    # 1e308 used to overflow sigma z in forward_intensities; warnings are errors here, so one would fail the test.
    lit = 0
    for seed in range(40):
        record = forward_intensities(PLUS, NoiseParams(intensity_sigma=1e300, rng_seed=seed))
        intensities = np.array([record.hv, record.da, record.lr])
        assert np.isfinite(intensities).all() and np.isfinite(intensities.sum(axis=-1)).all()
        try:
            bloch = reconstruct(record).bloch
        except DarkBasisError:
            continue
        assert np.isfinite(bloch).all()
        lit += 1
    assert lit > 0
