import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfcodes import gf, linalg, quadform
from qfcodes.linpoly import LinearizedPoly
from qfcodes.linalg import reduce_symmetric

from element_order import lin_eval_table, reduce_symmetric_batched


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
        # a batch gives what each matrix gives alone, kernel basis included
        alone = [reduce_symmetric(mats[b:b + 1], p, kernel=True) for b in range(0, len(mats), 7)]
        assert [int(r.rank[0]) for r in alone] == ranks[::7].tolist()
        assert [int(r.disc[0]) for r in alone] == red.disc[::7].tolist()
        assert all(np.array_equal(r.basis[0], P) for r, P in zip(alone, red.basis[::7]))


def test_zero_matrices():
    red = reduce_symmetric(np.zeros((3, 4, 4), dtype=np.int64), 3, kernel=True)
    assert red.rank.tolist() == [0, 0, 0] and red.disc.tolist() == [1, 1, 1]
    assert np.array_equal(red.kernel(1), np.eye(4))


def test_inverse_table_built_once_per_p():
    linalg._inv_table.cache_clear()
    rng = np.random.default_rng(5)
    for _ in range(3):
        for p in (5, 191):
            a = rng.integers(0, p, (4, 6, 6))
            reduce_symmetric(a + a.transpose(0, 2, 1), p)
    info = linalg._inv_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
    inv = linalg._inv_table(191)
    assert not inv.flags.writeable
    assert all(v * int(inv[v]) % 191 == 1 for v in range(1, 191))
    # the Fermat power v^(p-2) against pow(v, -1, p)
    assert linalg._inv_table(2).tolist() == [0, 1]
    assert linalg._inv_table(65521).tolist() == [0] + [pow(v, -1, 65521) for v in range(1, 65521)]


def refuse_one_matrix_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("a kernel reduction reached the one-matrix route")
    monkeypatch.setattr(linalg, "_reduce_one", refuse)


def test_one_matrix_route_only_without_kernel(monkeypatch):
    # the Python route gives rank and disc; P and the kernel come from the batched loop
    rng = np.random.default_rng(9)
    mats, ranks, _ = known_rank_stack(5, 6, 1, rng)
    calls = []
    reduce_one = linalg._reduce_one
    monkeypatch.setattr(linalg, "_reduce_one", lambda *a: calls.append(a) or reduce_one(*a))
    red = reduce_symmetric(mats, 5)
    assert len(calls) == 1 and red.rank.tolist() == ranks.tolist() and red.basis is None
    refuse_one_matrix_route(monkeypatch)
    red = reduce_symmetric(mats, 5, kernel=True)
    assert red.rank.tolist() == ranks.tolist() and red.basis.shape == (1, 6, 6)
    assert not (mats[0] @ red.kernel().astype(np.int64) % 5).any()


def counted_profile(Q):
    """(rank, type) of a p = 2 form by brute force, no reduction: the radical is
    {y : Q(y) = 0, Q(x + y) = Q(x) for all x}, the type solved from N_Q(0)."""
    ctx, q, m = Q.ctx, Q.q, Q.m
    xs = np.arange(ctx.order, dtype=np.int64)
    values = ctx.symbols(Q.s).trace_sym[ctx.v_mul(xs, lin_eval_table(ctx, Q.R))]
    shifted = values[ctx.v_add(xs[:, None], xs[None, :])]  # [x, y] -> Q(x + y)
    radical = int(np.count_nonzero((values == 0) & (shifted == values[:, None]).all(axis=0)))
    r = m - round(np.log(radical) / np.log(q))
    assert q ** (m - r) == radical
    if r % 2:
        return r, 0
    eps = (int(np.count_nonzero(values == 0)) - q ** (m - 1)) // ((q - 1) * q ** (m - r // 2 - 1))
    return r, eps


@pytest.mark.parametrize("p,s,m", [(2, 1, 4), (2, 2, 4), (2, 1, 6)])
def test_p2_one_form_profiles_take_the_batched_loop(p, s, m, monkeypatch):
    # a p = 2 profile reads the kernel, so one form is a one-matrix kernel stack:
    # the zero form, tr(x^3), tr(alpha x^3) and seeded one- to three-term forms
    refuse_one_matrix_route(monkeypatch)
    ctx = gf.get_field(p, s * m)
    rng = np.random.default_rng(13 * s + m)
    cases = [((1,), (0,)), ((1,), (1,)), ((1,), (ctx.alpha,))]
    for k in (1, 2, 2, 3, 3, 3):
        exps = tuple(sorted(rng.choice(m, min(k, m), replace=False).tolist()))
        cases.append((exps, tuple(rng.integers(0, ctx.order, len(exps)).tolist())))
    seen = set()
    for exps, coeffs in cases:
        Q = quadform.QuadForm(ctx, s, m, LinearizedPoly(exps, coeffs, s))
        r, eps = counted_profile(Q)
        if r % 2:
            with pytest.raises(quadform.RankError, match=f"got {r}$"):
                quadform.profile(Q)
            continue
        assert quadform.profile(Q) == quadform.QuadFormProfile(rank=r, type=eps)
        seen.add((r, eps))
    assert len(seen) >= 3


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 191]), n=st.integers(0, 10), count=st.integers(2, 4),
       density=st.sampled_from([0.0, 0.2, 0.6, 1.0]), alternating=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_matrix_route_equals_its_batched_row(p, n, count, density, alternating, seed):
    # a one-matrix stack is reduced in Python integers without a kernel, by the
    # batched loop with one; density 0 gives zero matrices, a zero diagonal
    # hyperbolic pivots
    rng = np.random.default_rng(seed)
    u = np.triu(rng.integers(0, p, (count, n, n)) * (rng.random((count, n, n)) < density),
                int(alternating))
    mats = u + np.triu(u, 1).transpose(0, 2, 1)
    for kernel in (False, True):
        assert_one_matrix_route_equals_batch(mats, p, kernel)


def assert_one_matrix_route_equals_batch(mats, p, kernel):
    batch = reduce_symmetric(mats, p, kernel=kernel)
    for b in range(len(mats)):
        one = reduce_symmetric(mats[b:b + 1], p, kernel=kernel)
        assert one.rank.dtype == one.disc.dtype == batch.rank.dtype == batch.disc.dtype
        assert (one.rank.tolist(), one.disc.tolist()) == ([batch.rank[b]], [batch.disc[b]])
        if kernel:
            assert one.basis.dtype == batch.basis.dtype
            assert np.array_equal(one.basis[0], batch.basis[b])
        else:
            assert one.basis is None


@pytest.mark.parametrize("p,m,count", [(3, 8, 2000), (2, 8, 300)])
def test_one_matrix_route_on_form_grams(p, m, count):
    # the Grams of the l3l pair queries at (3, 8, 1), and of p = 2 forms,
    # whose profiles read the kernel (all hyperbolic pivots): seeded pairs of
    # <x^p, x^{p^3}>, zeros included
    ctx = gf.get_field(p, m)
    coeffs = np.random.default_rng(m * p).integers(0, ctx.order, (count, 2))
    coeffs[:4] = [[0, 0], [0, 1], [1, 0], [1, 1]]
    grams = quadform.form_grams(ctx, 1, coeffs, (1, 3))
    assert len(np.unique(reduce_symmetric(grams, p).rank)) > 2
    for kernel in (False, True):
        assert_one_matrix_route_equals_batch(grams, p, kernel)


def test_one_form_profile_builds_no_inverse_table():
    # one form_profiles row is a one-matrix stack, reduced without the table
    linalg._inv_table.cache_clear()
    ctx = gf.get_field(7, 2)
    assert quadform.form_profiles(ctx, 1, [[ctx.alpha]], (0,))[0].tolist() == [2]
    assert linalg._inv_table.cache_info().misses == 0


def low_rank(p, n, kind, rng):
    """One symmetric n x n matrix mod p: "zero", "one" (c v v^T, done after one
    1x1 pivot), "pair" (u w^T + w u^T, zero diagonal at p = 2, done after one
    hyperbolic pivot when it is nonzero), "sparse" (zero diagonal, a few
    entries) or "full" (dense random)."""
    if kind == "zero":
        return np.zeros((n, n), dtype=np.int64)
    if kind == "one":
        v = rng.integers(0, p, n)
        return int(rng.integers(1, p)) * np.outer(v, v) % p
    if kind == "pair":
        u, w = rng.integers(0, p, (2, n))
        return (np.outer(u, w) + np.outer(w, u)) % p
    u = np.triu(rng.integers(0, p, (n, n)), int(kind == "sparse"))
    if kind == "sparse":
        u *= rng.random((n, n)) < 0.15
    return (u + np.triu(u, 1).T) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 4093])
def test_active_set_equals_the_batched_reference(p):
    # stacks of 2 and 3 whose matrices finish after one step, after a few, or
    # reach full rank, zero diagonals among them, and stacks that all finish
    # early: the active set pivots as the loop that keeps every matrix does
    rng = np.random.default_rng(p)
    kinds = ["zero", "one", "pair", "sparse", "full"]
    early = ["zero", "one", "pair"]
    for n in range(1, 13):
        for count in (2, 3):
            for pool in (kinds, kinds, kinds, early):
                mats = np.array([low_rank(p, n, rng.choice(pool), rng) for _ in range(count)])
                for kernel in (False, True):
                    new = reduce_symmetric(mats, p, kernel=kernel)
                    ref = reduce_symmetric_batched(mats, p, kernel=kernel)
                    assert new.rank.tolist() == ref.rank.tolist()
                    assert new.disc.tolist() == ref.disc.tolist()
                    if kernel:
                        assert new.basis.dtype == ref.basis.dtype
                        assert np.array_equal(new.basis, ref.basis)


@pytest.mark.parametrize("p,m,count", [(3, 8, 6561), (5, 4, 625)])
def test_active_set_on_witness_grams(p, m, count):
    # the witness search's stack (column gamma_1 = 1 against every gamma_2):
    # most matrices reach full rank, the rest leave the stack a step or more early
    ctx = gf.get_field(p, m)
    rows = np.column_stack([np.arange(count), np.ones(count, dtype=np.int64)])
    grams = quadform.form_grams(ctx, 1, rows, (1, 3))
    for kernel in (False, True):
        new = reduce_symmetric(grams, p, kernel=kernel)
        ref = reduce_symmetric_batched(grams, p, kernel=kernel)
        assert len(np.unique(ref.rank)) > 2
        assert np.array_equal(new.rank, ref.rank) and np.array_equal(new.disc, ref.disc)
        if kernel:
            assert np.array_equal(new.basis, ref.basis)
