import numpy as np

from qchansim import KrausChannel


def haar_unitary(rng):
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_density(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng):
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_kraus_pair_channel(rng, label="random"):
    return random_channel(rng, 2, label)


def random_channel(rng, rank, label="random"):
    # A (2 rank) x 2 isometry cut into `rank` 2x2 blocks is trace preserving
    # and, generically, has Choi rank `rank`.
    z = rng.standard_normal((2 * rank, 2)) + 1j * rng.standard_normal((2 * rank, 2))
    q, _ = np.linalg.qr(z)
    return KrausChannel(tuple(q[2 * i : 2 * i + 2] for i in range(rank)), label)
