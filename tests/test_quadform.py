from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfcodes import gf, quadform, spectra
from qfcodes.linpoly import FamilySpec
from qfcodes.spectra import CodeSpec
from qfcodes.verify import GRID
from qfcodes.linpoly import LinearizedPoly
from qfcodes.quadform import QuadForm, RankError


def form(p, s, m, exps, coeffs):
    return QuadForm(gf.get_field(p, s * m), s, m, LinearizedPoly(exps, coeffs, s))


def test_zero_form():
    Q = form(2, 1, 4, (1,), (0,))
    assert quadform.rank(Q) == 0
    assert Q.reduction().kernel().shape[1] == 4  # ker B is the whole field


def test_f16_cubic_form():
    # Q(x) = tr_{16/2}(x^3): rank 2, type -1
    Q = form(2, 1, 4, (1,), (1,))
    ctx = Q.ctx
    V = [int(y) for y in ctx.pvec @ Q.reduction().kernel()]
    assert len(V) == 2
    assert quadform.rank(Q) == 2
    assert quadform.type_of(Q, 2) == -1
    # ker B is the radical here, and really invariant: Q(v)=0 and Q(x+v)=Q(x)
    span = set()
    for c1 in range(2):
        for c2 in range(2):
            v = 0
            if c1:
                v = ctx.add(v, V[0])
            if c2:
                v = ctx.add(v, V[1])
            span.add(v)
    assert len(span) == 4  # |V| = q^{m-r} = 4
    for v in span:
        assert Q.value_sym(v) == 0
        for x in range(16):
            assert Q.value_sym(ctx.add(x, v)) == Q.value_sym(x)


def test_f16_noncube_form():
    ctx = gf.get_field(2, 4)
    Q = form(2, 1, 4, (1,), (ctx.alpha,))
    assert quadform.rank(Q) == 4
    assert quadform.type_of(Q, 4) == 1


def test_count_and_sum_values():
    Q = form(2, 1, 4, (1,), (1,))
    H = quadform._beta_histogram(Q)
    assert H[0, 0] == 4  # 2^3 - 1*1*2^2
    assert 2 * H[0, 0] - 16 == -8  # S = q N - q^m
    # sum over xi of N equals q^m
    assert H[5].sum() == 16


def test_exp_sum_distribution_example():
    Q = form(2, 1, 4, (1,), (1,))
    dist = quadform._sum_frequencies(Q, quadform._beta_histogram(Q), 0)
    assert dist == {0: 12, -8: 1, 8: 3}


def test_full_rank_no_zero_sum():
    ctx = gf.get_field(2, 4)
    Q = form(2, 1, 4, (1,), (ctx.alpha,))
    dist = quadform._sum_frequencies(Q, quadform._beta_histogram(Q), 0)
    assert 0 not in dist  # q^m - q^r = 0 at full rank


@pytest.mark.parametrize("p,s,m,ell", [(2, 1, 4, 1), (3, 1, 4, 1), (2, 2, 4, 1), (5, 1, 4, 1)])
def test_sum_distribution_verification(p, s, m, ell):
    ctx = gf.get_field(p, s * m)
    seen_branches = set()
    for g in ctx.exp[: ctx.mult_order]:
        from qfcodes.klapper import classify_monomial
        cls = classify_monomial(ctx, s, m, int(g), ell)
        if cls.branch in seen_branches:
            continue
        seen_branches.add(cls.branch)
        Q = form(p, s, m, (ell,), (int(g),))
        rep = quadform.verify_sum_distribution(Q)
        assert rep.ok, rep.mismatches


def test_count_distributions_odd_char():
    Q = form(3, 1, 4, (1,), (1,))
    r = quadform.rank(Q)
    eps = quadform.type_of(Q, r)
    ctx = Q.ctx
    sy = ctx.symbols(1)
    for xi_sym in range(3):
        obs = quadform.n_distribution(Q, xi_sym)
        exp = quadform.expected_count_distribution(3, 4, r, eps, xi_is_zero=(xi_sym == 0))
        assert obs == exp


def test_type_routes_agree_everywhere_f81():
    ctx = gf.get_field(3, 4)
    for g in ctx.exp[: ctx.mult_order]:
        Q = form(3, 1, 4, (1,), (int(g),))
        r = quadform.rank(Q)
        assert quadform.type_by_count(Q, r) == quadform.type_by_discriminant(Q, r)


def test_odd_rank_rejected():
    # tr_{2^4/2}(x * x) = tr(x^2) has rank 1 (it is a linear functional squared)
    Q = form(2, 1, 4, (0,), (1,))
    r = quadform.rank(Q)
    assert r % 2 == 1
    with pytest.raises(RankError):
        quadform.type_of(Q, r)
    with pytest.raises(RankError):
        quadform.verify_sum_distribution(Q)


def test_rank0_type_rejected():
    Q = form(2, 1, 4, (1,), (0,))
    with pytest.raises(RankError):
        quadform.type_of(Q, 0)


def test_beta_class_counts_rank0():
    # zero form: only the "major" class with the single beta = 0
    counts = quadform.beta_class_counts(3, 2, 0, 1, b_zero=True)
    assert counts == {"null": 8, "major": 1, "minor": 0}


def test_exp_sum_identity_random():
    ctx = gf.get_field(3, 4)
    Q = form(3, 1, 4, (1,), (ctx.alpha,))
    sy = ctx.symbols(1)
    H = quadform._beta_histogram(Q)
    xs = np.arange(81, dtype=np.int64)
    rng = np.random.default_rng(2)
    for _ in range(10):
        beta = int(rng.integers(0, 81))
        b_sym = int(rng.integers(0, 3))
        # N_{Q,beta}(-b) by a direct count over x
        tr_b = sy.trace_sym[ctx.v_mul(np.full(81, beta, dtype=np.int64), xs)]
        n = int(np.count_nonzero(sy.add[Q.sym_table(), tr_b] == sy.neg[b_sym]))
        assert H[beta, sy.neg[b_sym]] == n
        s = 3 * n - 81
        assert s in quadform._sum_frequencies(Q, H, b_sym)


def direct_histograms(ctx, s, f):
    """H[b, beta, c] by walking every beta and counting f + tr(beta x) = c."""
    sy = ctx.symbols(s)
    xs = np.arange(ctx.order, dtype=np.int64)
    out = np.zeros((f.shape[0], ctx.order, sy.q), dtype=np.int64)
    for beta in range(ctx.order):
        tr_b = sy.trace_sym[ctx.v_mul(np.full(ctx.order, beta, dtype=np.int64), xs)]
        for b, row in enumerate(f):
            for x in range(ctx.order):
                out[b, beta, sy.add[row[x], tr_b[x]]] += 1
    return out


@pytest.mark.parametrize("p,s,m", sorted({(p, s, m) for p, s, m, _ in GRID}))
def test_value_histograms_match_direct_count(p, s, m):
    ctx = gf.get_field(p, s * m)
    q = p ** s
    rng = np.random.default_rng(p * 1000 + s * 100 + m)
    f = rng.integers(0, q, size=(2, ctx.order)).astype(np.int16)
    if ctx.order > 64:
        # the direct count is a Python loop: check a sample of beta rows exactly
        betas = np.sort(rng.choice(ctx.order, 48, replace=False))
        H = quadform.value_histograms(ctx, s, f)
        sy = ctx.symbols(s)
        xs = np.arange(ctx.order, dtype=np.int64)
        for beta in betas:
            tr_b = sy.trace_sym[ctx.v_mul(np.full(ctx.order, beta, dtype=np.int64), xs)]
            for b in range(2):
                want = np.bincount(sy.add[f[b], tr_b], minlength=q)
                assert np.array_equal(H[b, beta], want)
        assert (H.sum(axis=2) == ctx.order).all()
    else:
        assert np.array_equal(quadform.value_histograms(ctx, s, f), direct_histograms(ctx, s, f))


@pytest.mark.parametrize("p,s,m", [(3, 1, 4), (2, 2, 4), (2, 1, 6)])
def test_value_histograms_match_brute_oracle(p, s, m):
    # the brute chunk enumerates every (gamma, beta) word of variant 1 directly;
    # its symbol compositions are the kernel's histograms less the x = 0 entry
    ctx = gf.get_field(p, s * m)
    q = p ** s
    _, comps = spectra._brute_chunk(ctx, CodeSpec(FamilySpec(p, s, m, (1,)), "1"), True,
                                    0, ctx.order)
    gammas = np.arange(ctx.order, dtype=np.int64)
    f = ctx.symbols(s).trace_sym[ctx.v_mul(gammas[:, None], ctx.power_table(q + 1)[None, :])]
    H = quadform.value_histograms(ctx, s, f)
    H[:, :, 0] -= 1
    assert Counter(map(tuple, H.reshape(-1, q).tolist())) == comps


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), s=st.integers(1, 2), m=st.integers(1, 4),
       rows=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_value_histograms_property(p, s, m, rows, seed):
    if p ** (s * m) > 256:
        m = 1
    ctx = gf.get_field(p, s * m)
    f = np.random.default_rng(seed).integers(0, p ** s, size=(rows, ctx.order)).astype(np.int16)
    assert np.array_equal(quadform.value_histograms(ctx, s, f), direct_histograms(ctx, s, f))


def test_value_histograms_rejects_oversized_tables():
    ctx = gf.get_field(2, 16)
    with pytest.raises(ValueError):
        quadform.value_histograms(ctx, 16, np.zeros((1, ctx.order), dtype=np.int16))
