import numpy as np
import pytest

from qfcodes.linalg import reduce_symmetric


def known_rank_stack(p, n, count, rng):
    """Matrices L^T D L with L unit upper-triangular and D a random mix of zero,
    nonzero diagonal and hyperbolic [[0, a], [a, 0]] blocks; returns the stack,
    the number of pivots in D and disc(D)."""
    mats, ranks, discs = [], [], []
    for _ in range(count):
        D = np.zeros((n, n), dtype=np.int64)
        rank, disc, k = 0, 1, 0
        while k < n:
            kind = rng.integers(0, 3) if k + 1 < n else rng.integers(0, 2)
            if kind == 1:
                d = int(rng.integers(1, p))
                D[k, k] = d
                rank, disc, k = rank + 1, disc * d % p, k + 1
            elif kind == 2:
                a = int(rng.integers(1, p))
                D[k, k + 1] = D[k + 1, k] = a
                rank, disc, k = rank + 2, disc * -a * a % p, k + 2
            else:
                k += 1
        L = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
        L *= rng.random((n, n)) < 0.7  # random zeros above the diagonal
        np.fill_diagonal(L, 1)
        mats.append(L.T @ D @ L % p)
        ranks.append(rank)
        discs.append(disc)
    return np.array(mats), np.array(ranks), np.array(discs)


@pytest.mark.parametrize("p", [2, 3, 5, 131, 191])
def test_known_rank_discriminant_and_kernel(p):
    rng = np.random.default_rng(p)
    for n in (1, 2, 5, 8):
        mats, ranks, discs = known_rank_stack(p, n, 60, rng)
        red = reduce_symmetric(mats, p, kernel=True)
        assert np.array_equal(red.rank, ranks)
        for b in range(len(mats)):
            # disc / disc(D) is a square: its quadratic character is 1
            ratio = int(red.disc[b]) * pow(int(discs[b]), -1, p) % p
            assert pow(ratio, (p - 1) // 2, p) == 1
            if p != 2 and ranks[b] % 2 == 0:
                u = (-1) ** int(ranks[b] // 2) * int(discs[b]) % p
                assert red.etas()[b] == (1 if pow(u, (p - 1) // 2, p) == 1 else -1)
            K = red.kernel(b).astype(np.int64)
            assert K.shape == (n, n - ranks[b])
            assert not (mats[b] @ K % p).any()
        # a batch gives what each matrix gives alone
        alone = [reduce_symmetric(mats[b:b + 1], p) for b in range(0, len(mats), 7)]
        assert [int(r.rank[0]) for r in alone] == ranks[::7].tolist()
        assert [int(r.disc[0]) for r in alone] == red.disc[::7].tolist()


def test_zero_matrices():
    red = reduce_symmetric(np.zeros((3, 4, 4), dtype=np.int64), 3, kernel=True)
    assert red.rank.tolist() == [0, 0, 0] and red.disc.tolist() == [1, 1, 1]
    assert np.array_equal(red.kernel(1), np.eye(4))
