"""Seeded inputs for the workloads.

The same ``--seed`` gives the same inputs.  Each workload draws from its own
stream, ``default_rng([seed, stream])``, so adding draws to one workload
never shifts another's inputs.
"""

from __future__ import annotations

import numpy as np

SWEEP_STREAM = 1
FIT_STREAM = 2
CLI_STREAM = 3

# The fitter corpus is drawn once from this fixed seed, not from --seed.
# One LM-stage (rank 3) fit takes 0.4 s to 9 s depending on the channel, so
# a corpus redrawn per seed moves fit throughput by 20-50 % between seeds
# (bootstrap over measured fit times), far beyond any usable bound; the
# per-seed part of ``fit`` is the verification states.
FIT_CORPUS_SEED = 2008
# Channels per Choi rank 1, 2, 3, 4 in one pass over the corpus.  With only
# three rank-3 channels, one whose LM time flips between 0.5 s and 3 s from
# call to call set the whole workload's throughput; six per LM rank dilute it.
FIT_RANK_MIX = (8, 8, 6, 6)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def random_pure(rng) -> np.ndarray:
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_density(rng) -> np.ndarray:
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def input_states(rng, n_pure: int = 4, n_mixed: int = 4) -> list:
    """Pure states first, then full-rank mixed states."""
    return [random_pure(rng) for _ in range(n_pure)] + [random_density(rng) for _ in range(n_mixed)]


def lambda_grid(rng, n_interior: int = 9) -> list:
    """Both endpoints (where branches and Kraus operators drop out) plus
    sorted uniform interior points."""
    return [0.0] + sorted(float(x) for x in rng.uniform(0.0, 1.0, n_interior)) + [1.0]


def random_kraus_ops(rng, rank: int) -> tuple:
    """Kraus operators of a random CPTP channel of Choi rank ``rank``.

    A random 2r x 2 isometry (QR of a complex Gaussian matrix) sliced into
    r blocks satisfies sum K^dag K = I exactly.
    """
    z = rng.standard_normal((2 * rank, 2)) + 1j * rng.standard_normal((2 * rank, 2))
    q, _ = np.linalg.qr(z)
    return tuple(q[2 * i:2 * i + 2, :] for i in range(rank))


def fit_corpus() -> list:
    """(rank, Kraus ops) pairs, ranks interleaved 1, 2, 3, 4, 1, 2, ..."""
    rng = np.random.default_rng(FIT_CORPUS_SEED)
    by_rank = {rank: [random_kraus_ops(rng, rank) for _ in range(count)]
               for rank, count in zip((1, 2, 3, 4), FIT_RANK_MIX)}
    corpus = []
    while any(by_rank.values()):
        for rank in (1, 2, 3, 4):
            if by_rank[rank]:
                corpus.append((rank, by_rank[rank].pop(0)))
    return corpus
