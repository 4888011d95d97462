from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfcodes import gf, quadform, spectra
from qfcodes.linalg import reduce_symmetric
from qfcodes.klapper import rank_distribution_monomial
from qfcodes.linpoly import FamilySpec, family_coeffs
from qfcodes.spectra import CodeSpec
from qfcodes.verify import GRID
from qfcodes.linpoly import LinearizedPoly, lin_eval, lin_eval_table
from qfcodes.quadform import QuadForm, QuadFormProfile, RankError


def form(p, s, m, exps, coeffs):
    return QuadForm(gf.get_field(p, s * m), s, m, LinearizedPoly(exps, coeffs, s))


def gram_kernel(Q):
    """ker of tr_{q/p} B as field elements, from the reduction of form_grams."""
    gram = quadform.form_grams(Q.ctx, Q.s, [Q.R.coeffs], Q.R.q_exponents)
    return [int(y) for y in Q.ctx.pvec @ reduce_symmetric(gram, Q.ctx.p, kernel=True).kernel()]


def test_zero_form():
    Q = form(2, 1, 4, (1,), (0,))
    assert quadform.profile(Q) == QuadFormProfile(rank=0, type=None)
    assert len(gram_kernel(Q)) == 4  # ker B is the whole field


def test_f16_cubic_form():
    # Q(x) = tr_{16/2}(x^3): rank 2, type -1
    Q = form(2, 1, 4, (1,), (1,))
    ctx = Q.ctx
    V = gram_kernel(Q)
    assert len(V) == 2
    assert quadform.profile(Q) == QuadFormProfile(rank=2, type=-1)
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
    assert quadform.profile(Q) == QuadFormProfile(rank=4, type=1)


def scalar_gram(Q):
    """tr_{q/p} B(t^i, t^j) entry by entry, from scalar evaluations R(t^j)."""
    ctx = Q.ctx
    tr = ctx.symbols(1).trace_sym
    basis = ctx.pvec.tolist()
    R = [lin_eval(ctx, Q.R, b) for b in basis]
    return np.array([[(int(tr[ctx.mul(a, Rb)]) + int(tr[ctx.mul(b, Ra)])) % ctx.p
                      for b, Rb in zip(basis, R)] for a, Ra in zip(basis, R)])


@pytest.mark.parametrize("p,s,m", [(2, 1, 4), (2, 2, 4), (3, 2, 2), (5, 1, 4), (3, 1, 8)])
def test_gram_and_table_match_scalar_evaluation(p, s, m):
    # one-, two- and three-term R, with zero coefficients, and the zero R
    ctx = gf.get_field(p, s * m)
    rng = np.random.default_rng(7 * p + s * m)
    cases = [((1,), (0,))]
    for k in (1, 2, 3, 3):
        exps = tuple(sorted(rng.choice(m, min(k, m), replace=False).tolist()))
        coeffs = rng.integers(1, ctx.order, len(exps)).tolist()
        if k == 3:
            coeffs[int(rng.integers(0, len(exps)))] = 0
        cases.append((exps, tuple(coeffs)))
    for exps, coeffs in cases:
        Q = form(p, s, m, exps, coeffs)
        assert np.array_equal(quadform.form_grams(ctx, s, [coeffs], exps)[0], scalar_gram(Q))
        assert Q.sym_table().tolist() == [Q.value_sym(x) for x in range(ctx.order)]


def reference_profile(ctx, s, exps, coeffs):
    """(rank, type) of one form from scalar evaluations: the rank from the radical
    {y in ker B : Q(y) = 0} counted over ker B of scalar_gram, the type from the
    zero count of a lin_eval table; type 0 at rank 0 or odd rank."""
    p, m, q = ctx.p, ctx.n // s, ctx.p ** s
    Q = form(p, s, m, exps, coeffs)
    basis = [int(y) for y in ctx.pvec @ reduce_symmetric(scalar_gram(Q)[None], p,
                                                          kernel=True).kernel()]
    kernel = {0}
    for y in basis:
        kernel = {ctx.add(v, ctx.mul(c, y)) for v in kernel for c in range(p)}
    radical = sum(Q.value_sym(y) == 0 for y in kernel)
    r = m - round(np.log(radical) / np.log(q))
    assert q ** (m - r) == radical
    xs = np.arange(ctx.order, dtype=np.int64)
    values = ctx.symbols(s).trace_sym[ctx.v_mul(xs, lin_eval_table(ctx, Q.R))]
    n0 = int(np.count_nonzero(values == 0))
    if r == 0 or r % 2:
        return r, 0
    eps = (n0 - q ** (m - 1)) // ((q - 1) * q ** (m - r // 2 - 1))
    assert eps in (1, -1)
    return r, eps


@pytest.mark.parametrize("p,s,m", [(2, 1, 4), (2, 2, 4), (3, 2, 2), (5, 1, 4), (3, 1, 6)])
def test_form_profiles_match_scalar_reference(p, s, m):
    # random multi-term stacks with zero rows and zero coefficients, every
    # exponent set of size 1..3
    ctx = gf.get_field(p, s * m)
    rng = np.random.default_rng(11 * p + s * m)
    for k in (1, 2, 3):
        exps = tuple(sorted(rng.choice(m, min(k, m), replace=False).tolist()))
        coeffs = rng.integers(0, ctx.order, (12, len(exps)))
        coeffs[rng.random(coeffs.shape) < 0.2] = 0
        coeffs[0] = 0
        ref = [reference_profile(ctx, s, exps, tuple(row)) for row in coeffs.tolist()]
        even = [i for i, (r, _) in enumerate(ref) if r % 2 == 0]
        rank, eps = quadform.form_profiles(ctx, s, coeffs[even], exps)
        assert list(zip(rank.tolist(), eps.tolist())) == [ref[i] for i in even]
        for i in set(range(len(ref))) - set(even):
            with pytest.raises(RankError, match=f"even rank only, got {ref[i][0]}"):
                quadform.form_profiles(ctx, s, coeffs[i:i + 1], exps)
        if p != 2:
            no_count = quadform.form_profiles(ctx, s, coeffs[even], exps, count=False)
            assert np.array_equal(no_count[0], rank) and np.array_equal(no_count[1], eps)


@pytest.mark.parametrize("p,s,m", [(2, 1, 6), (3, 1, 4)])
def test_form_profiles_blocks_split_mid_stack(p, s, m, monkeypatch):
    ctx = gf.get_field(p, s * m)
    gammas = ctx.exp[: ctx.mult_order, None]
    whole = quadform.form_profiles(ctx, s, gammas, (1,))
    # three forms per block, so the last block is partial
    monkeypatch.setattr(quadform, "PROFILE_CELLS", 3 * (ctx.n ** 2 + ctx.order))
    split = quadform.form_profiles(ctx, s, gammas, (1,))
    assert np.array_equal(whole[0], split[0]) and np.array_equal(whole[1], split[1])


def test_form_profiles_report_the_first_failing_row(monkeypatch):
    # tr(a x^2 + b x^3) at rows of rank 4, 3 and 1; one block, or one row per block
    ctx = gf.get_field(2, 4)
    rows = [[0, ctx.alpha], [2, 1], [1, 0]]
    for cells in (quadform.PROFILE_CELLS, ctx.n ** 2 + ctx.order):
        monkeypatch.setattr(quadform, "PROFILE_CELLS", cells)
        with pytest.raises(RankError, match="got 3$"):
            quadform.form_profiles(ctx, 1, rows, (0, 1))


def direct_tally(ctx, fam, count):
    """(rank, type) over every family_coeffs row, one form_profiles call."""
    rows = family_coeffs(ctx, fam, 0, ctx.order ** len(fam.exponents))
    rank, eps = quadform.form_profiles(ctx, fam.s, rows, fam.exponents, count)
    return Counter((r, e or None) for r, e in zip(rank.tolist(), eps.tolist()))


# (family, count): the 5^8 forms of span:0,2 at (5,1,4) take the discriminant
# route alone, as the two-monomial tally does
TALLY_FAMILIES = ([(FamilySpec(p, s, m, (ell,)), True) for p, s, m, ell in GRID]
                  + [(FamilySpec(2, 1, 4, (1, 3)), True), (FamilySpec(2, 1, 6, (1, 3)), True),
                     (FamilySpec(3, 1, 4, (0, 2)), True), (FamilySpec(5, 1, 4, (0, 2)), False)])


@pytest.mark.parametrize("fam,count", TALLY_FAMILIES, ids=str)
def test_tally_profiles_equals_direct_count(fam, count):
    ctx = gf.get_field(fam.p, fam.n)
    tally = quadform.tally_profiles(ctx, fam, count)
    assert tally == dict(direct_tally(ctx, fam, count))
    assert sum(tally.values()) == fam.q ** (fam.m * len(fam.exponents))
    # ranks descending, +1 before -1, rank 0 (type None) last
    assert list(tally) == sorted(tally, key=lambda k: (-k[0], -(k[1] or 0)))


@pytest.mark.parametrize("p,s,m,ell", GRID)
def test_tally_profiles_mono_closed_form(p, s, m, ell):
    tally = quadform.tally_profiles(gf.get_field(p, s * m), FamilySpec(p, s, m, (ell,)))
    expected = rank_distribution_monomial(p ** s, m, ell).as_dict() | {(0, None): 1}
    assert list(tally.items()) == list(expected.items())


def test_tally_profiles_chunks_tails(monkeypatch):
    # tails in chunks of 5 rows, and one form per form_profiles block
    fam = FamilySpec(2, 1, 4, (1, 3))
    ctx = gf.get_field(2, 4)
    whole = quadform.tally_profiles(ctx, fam)
    monkeypatch.setattr(quadform, "PROFILE_CELLS", 5)
    assert quadform.tally_profiles(ctx, fam) == whole


def test_tally_profiles_empty_family_is_the_zero_form():
    assert quadform.tally_profiles(gf.get_field(3, 4), FamilySpec(3, 1, 4, ())) == {(0, None): 1}


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
    prof = quadform.profile(Q)
    r, eps = prof.rank, prof.type
    for xi_sym in range(3):
        obs = quadform.n_distribution(Q, xi_sym)
        exp = quadform.expected_count_distribution(3, 4, r, eps, xi_is_zero=(xi_sym == 0))
        assert obs == exp


def test_type_routes_agree_everywhere_f81():
    # count=True checks the zero count against the discriminant on every row
    ctx = gf.get_field(3, 4)
    gammas = ctx.exp[: ctx.mult_order, None]
    counted = quadform.form_profiles(ctx, 1, gammas, (1,))
    by_disc = quadform.form_profiles(ctx, 1, gammas, (1,), count=False)
    assert np.array_equal(counted[0], by_disc[0]) and np.array_equal(counted[1], by_disc[1])
    assert set(counted[1].tolist()) == {1, -1}


def test_odd_rank_rejected():
    # tr_{2^4/2}(x * x) = tr(x^2) has rank 1 (it is a linear functional squared)
    Q = form(2, 1, 4, (0,), (1,))
    with pytest.raises(RankError, match="even rank only, got 1"):
        quadform.profile(Q)
    with pytest.raises(RankError):
        quadform.verify_sum_distribution(Q)


def test_rank0_type_rejected():
    # the zero form carries no type flag: type 0 in the arrays, None in a profile
    Q = form(2, 1, 4, (1,), (0,))
    rank, eps = quadform.form_profiles(Q.ctx, 1, [[0]], (1,))
    assert (rank.tolist(), eps.tolist()) == ([0], [0])
    assert quadform.profile(Q).type is None


def test_beta_class_counts_rank0():
    # zero form: only the "major" class with the single beta = 0
    counts = quadform.beta_class_counts(3, 2, 0, 1, b_zero=True)
    assert counts == {"null": 8, "major": 1, "minor": 0}


def exp_sum_class_value_fraction(q, m, r, eps, beta_class):
    """Independent route: the class value evaluated in Fraction arithmetic."""
    if beta_class == "null":
        return 0
    dev = Fraction(q) ** (m - r // 2)
    return int(eps * (q - 1) * dev) if beta_class == "major" else int(-eps * dev)


def test_exp_sum_class_value_matches_fraction_route():
    n = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for m in range(1, 11):
            for r in range(0, 2 * m + 1, 2):
                for eps in (1, -1):
                    for cls in quadform.BETA_CLASSES:
                        value = quadform.exp_sum_class_value(q, m, r, eps, cls)
                        assert type(value) is int
                        assert value == exp_sum_class_value_fraction(q, m, r, eps, cls)
                        n += 1
    assert n == 3510
    # past r = 2m the value would need a negative power of q
    with pytest.raises(RankError):
        quadform.exp_sum_class_value(3, 2, 6, 1, "major")


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
