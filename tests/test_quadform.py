from collections import Counter
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfcodes import gf, klapper, quadform, spectra
from qfcodes.linalg import Reduction, reduce_symmetric
from qfcodes.klapper import rank_distribution_monomial
from qfcodes.linpoly import FamilySpec, family_coeffs
from qfcodes.spectra import CodeSpec
from qfcodes.verify import GRID
from qfcodes.linpoly import LinearizedPoly, lin_eval
from qfcodes.quadform import QuadForm, QuadFormProfile, RankError

from element_order import lin_eval_table


def form(p, s, m, exps, coeffs):
    return QuadForm(gf.get_field(p, s * m), s, m, LinearizedPoly(exps, coeffs, s))


def gram_kernel(Q):
    """ker of tr_{q/p} B as field elements, from the reduction of form_grams."""
    gram = quadform.form_grams(Q.ctx, Q.s, [Q.R.coeffs], Q.R.q_exponents)
    return [int(y) for y in Q.ctx.pvec @ reduce_symmetric(gram, Q.ctx.p, kernel=True).kernel()]


def test_zero_form():
    Q = form(2, 1, 4, (1,), (0,))
    assert quadform.profile(Q) == QuadFormProfile(rank=0, type=1)
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
        # the form_symbols row, column k at alpha^k; the form is 0 at x = 0
        terms, powers = quadform.form_terms(Q.R, p ** s)
        row = quadform.form_symbols(ctx, s, [terms], powers)[0]
        assert row.tolist() == [Q.value_sym(ctx.alpha_pow(k)) for k in range(ctx.mult_order)]
        assert Q.value_sym(0) == 0


@pytest.mark.parametrize("p,s,m", [(3, 1, 4), (2, 2, 4), (5, 1, 4)])
def test_form_grams_constant_column_block_matches_rows(p, s, m):
    # a block whose lead (or tail) coefficient is constant, as on tally orbit rows and
    # witness rows, or a zero constant: the block equals its rows' form_grams one by one
    ctx = gf.get_field(p, s * m)
    ls = (1, 2)
    rng = np.random.default_rng(p + s * m)
    varying = rng.integers(0, ctx.order, 9)
    for const in (ctx.alpha_pow(5), 0):
        for rows in (np.column_stack([np.full(9, const), varying]),
                     np.column_stack([varying, np.full(9, const)]),
                     np.full((9, 2), const)):
            grams = quadform.form_grams(ctx, s, rows, ls)
            for row, gram in zip(rows, grams):
                assert np.array_equal(gram, quadform.form_grams(ctx, s, row[None, :], ls)[0])
                Q = form(p, s, m, ls, tuple(row.tolist()))
                assert np.array_equal(gram, scalar_gram(Q))


def reference_profile(ctx, s, exps, coeffs):
    """(rank, type) of one form from scalar evaluations: the rank from the radical
    {y in ker B : Q(y) = 0} counted over ker B of scalar_gram, the type from the
    zero count of a lin_eval table; type 0 at odd rank."""
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
    if r % 2:
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
    monkeypatch.setattr(gf, "BLOCK_CELLS", 3 * (ctx.n ** 2 + ctx.order))
    split = quadform.form_profiles(ctx, s, gammas, (1,))
    assert np.array_equal(whole[0], split[0]) and np.array_equal(whole[1], split[1])


def test_form_profiles_report_the_first_failing_row(monkeypatch):
    # tr(a x^2 + b x^3) at rows of rank 4, 3 and 1; one block, or one row per block
    ctx = gf.get_field(2, 4)
    rows = [[0, ctx.alpha], [2, 1], [1, 0]]
    for cells in (gf.BLOCK_CELLS, ctx.n ** 2 + ctx.order):
        monkeypatch.setattr(gf, "BLOCK_CELLS", cells)
        with pytest.raises(RankError, match="got 3$"):
            quadform.form_profiles(ctx, 1, rows, (0, 1))


def test_form_profiles_refuses_char_2_past_count_limit(monkeypatch):
    # p = 2 reads the type from the zero count alone, so a field past the limit is refused
    monkeypatch.setattr(quadform, "COUNT_LIMIT", 8)
    with pytest.raises(RankError, match="too large for the characteristic-2 counting route"):
        quadform.profile(form(2, 1, 4, (1,), (1,)))


def test_form_profiles_refuses_a_zero_count_of_neither_type(monkeypatch):
    # tr(x^4) over F_81 has rank 2, type -1: 9 zeros; one zero less fits neither type
    real = quadform.form_symbols

    def one_zero_less(*args, **kwargs):
        syms = real(*args, **kwargs)
        syms[0, np.flatnonzero(syms[0] == 0)[0]] = 1
        return syms

    monkeypatch.setattr(quadform, "form_symbols", one_zero_less)
    with pytest.raises(RankError, match="zero count 8 matches neither type at rank 2"):
        quadform.profile(form(3, 1, 4, (1,), (1,)))


def test_form_profiles_refuses_disagreeing_routes(monkeypatch):
    real = Reduction.etas
    monkeypatch.setattr(Reduction, "etas", lambda red: -real(red))
    with pytest.raises(RankError, match="discriminant route disagrees with counting route"):
        quadform.profile(form(3, 1, 4, (1,), (1,)))


def direct_tally(ctx, fam, count):
    """(rank, type) over every family_coeffs row, one form_profiles call."""
    rows = family_coeffs(ctx, fam, 0, ctx.order ** len(fam.exponents))
    rank, eps = quadform.form_profiles(ctx, fam.s, rows, fam.exponents, count)
    return Counter(zip(rank.tolist(), eps.tolist()))


# (family, count): the 5^8 forms of span:0,2 at (5,1,4) take the discriminant
# route alone, as the two-monomial tally does
TALLY_FAMILIES = ([(FamilySpec(p, s, m, (ell,)), True) for p, s, m, ell in GRID]
                  + [(FamilySpec(2, 1, 4, (1, 3)), True), (FamilySpec(2, 1, 6, (1, 3)), True),
                     (FamilySpec(3, 1, 4, (0, 2)), True), (FamilySpec(5, 1, 4, (0, 2)), False),
                     (FamilySpec(2, 2, 4, (1, 3)), True), (FamilySpec(2, 1, 8, (1, 3)), True),
                     pytest.param(FamilySpec(2, 1, 6, (1, 3, 5)), True, marks=pytest.mark.slow),
                     (FamilySpec(43, 1, 2, (1,)), True)])


@pytest.mark.parametrize("fam,count", TALLY_FAMILIES, ids=str)
def test_tally_profiles_equals_direct_count(fam, count):
    ctx = gf.get_field(fam.p, fam.n)
    tally = quadform.tally_profiles(ctx, fam, count)
    assert (tally.q, tally.m) == (fam.q, fam.m)
    assert tally.as_dict() == dict(direct_tally(ctx, fam, count))
    assert sum(c for _, _, c in tally.counts) == fam.q ** (fam.m * len(fam.exponents))
    # ranks descending, +1 before -1, the zero form's (0, +1) last
    assert [(r, e) for r, e, _ in tally.counts] == sorted(tally.as_dict(), reverse=True)
    assert tally.counts[-1][:2] == (0, 1)


@pytest.mark.parametrize("p,s,m,ell", GRID)
def test_symbol_zero_count_matches_form_table(p, s, m, ell):
    # zero counts are 1 (x = 0) plus the zero symbols of form_symbols; an
    # element-indexed table from lin_eval_table must count the same, with or
    # without beta
    ctx, q = gf.get_field(p, s * m), p ** s
    assert ctx.order <= quadform.COUNT_LIMIT  # form_profiles takes the counting route
    rng = np.random.default_rng(p * 1000 + s * 100 + m * 10 + ell)
    gammas = np.vstack([[0], rng.integers(1, ctx.order, (12, 1))])  # the zero form first
    rows = np.hstack([np.vstack([gammas, gammas]),
                      np.vstack([np.zeros_like(gammas), rng.integers(1, ctx.order, (13, 1))])])
    xs = np.arange(ctx.order, dtype=np.int64)
    tr = ctx.symbols(s).trace_sym
    n0 = np.array([np.count_nonzero(tr[ctx.v_add(
        ctx.v_mul(xs, lin_eval_table(ctx, LinearizedPoly((ell,), (gamma,), s))),
        ctx.v_mul(np.full(ctx.order, beta, dtype=np.int64), xs))] == 0)
        for gamma, beta in rows.tolist()])
    syms = quadform.form_symbols(ctx, s, rows, (q ** ell + 1, 1))
    assert np.array_equal(n0, 1 + np.count_nonzero(syms == 0, axis=1))
    # form_profiles(count=True) solves (p = 2) or checks (odd p) the type from
    # that count; it must be the type the element-indexed count gives
    rank, eps = quadform.form_profiles(ctx, s, gammas, (ell,), count=True)
    expected = [q ** (m - 1) + e * (q - 1) * q ** (m - 1 - r // 2)
                for r, e in zip(rank.tolist(), eps.tolist())]
    assert n0[:len(gammas)].tolist() == expected


@pytest.mark.parametrize("p,s,m,ell", GRID)
def test_tally_profiles_mono_closed_form(p, s, m, ell):
    tally = quadform.tally_profiles(gf.get_field(p, s * m), FamilySpec(p, s, m, (ell,)))
    assert tally == rank_distribution_monomial(p ** s, m, ell)


def test_tally_profiles_chunks_tails(monkeypatch):
    # tails in chunks of 5 rows, and one form per form_profiles block
    fam = FamilySpec(2, 1, 4, (1, 3))
    ctx = gf.get_field(2, 4)
    whole = quadform.tally_profiles(ctx, fam)
    monkeypatch.setattr(gf, "BLOCK_CELLS", 5)
    assert quadform.tally_profiles(ctx, fam) == whole


@pytest.mark.parametrize("fam", [FamilySpec(3, 1, 4, (1, 3)), FamilySpec(2, 2, 4, (1, 3)),
                                 FamilySpec(2, 1, 6, (1, 3, 5)), FamilySpec(43, 1, 2, (1,))],
                         ids=str)
def test_orbit_rows_weigh_every_row_once_in_int64(fam):
    ctx = gf.get_field(fam.p, fam.n)
    chunks = list(quadform.orbit_rows(ctx, fam))
    rows = np.vstack([r for r, _ in chunks])
    assert all(w.dtype == np.int64 and len(w) == len(r) and (w > 0).all() for r, w in chunks)
    assert sum(int(w.sum()) for _, w in chunks) == ctx.order ** len(fam.exponents) - 1
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert rows.any(axis=1).all()  # the zero row is tally_profiles' own


def test_orbit_rows_refuse_weights_that_miss_the_rows(monkeypatch):
    # one action dropped from each lead's group: the orbit-stabiliser weights
    # no longer add up to the lead's rows, and the tally stops before returning
    real = quadform._lead_orbits
    monkeypatch.setattr(quadform, "_lead_orbits", lambda *args: [
        (r, rows, acts[:-1] or acts) for r, rows, acts in real(*args)])
    with pytest.raises(klapper.HypothesisError, match="orbit weights add up to"):
        quadform.tally_profiles(gf.get_field(3, 4), FamilySpec(3, 1, 4, (1, 3)), count=False)


def test_tally_profiles_profiles_one_row_per_frobenius_orbit(monkeypatch):
    # (3,8,1): 3 336 nonzero rows, one per Frobenius x (x -> cx) orbit, in two
    # form_profiles calls, where the x -> cx orbit classes alone took 26 248 rows
    real, seen = quadform.form_profiles, []

    def spy(ctx, s, coeffs, ls, count=True):
        seen.append(list(map(tuple, np.asarray(coeffs).tolist())))
        return real(ctx, s, coeffs, ls, count)

    monkeypatch.setattr(quadform, "form_profiles", spy)
    tally = klapper.tally_l3l_profiles(gf.get_field(3, 8), 1)
    assert tally == klapper.rank_distribution_l3l(3, 8, 1)
    rows = [row for call in seen for row in call]
    assert len(seen) == 2 and len(rows) == len(set(rows)) == 3336
    assert (0, 0) not in rows


def test_tally_profiles_empty_family_is_the_zero_form():
    tally = quadform.tally_profiles(gf.get_field(3, 4), FamilySpec(3, 1, 4, ()))
    assert (tally.q, tally.m, tally.counts) == (3, 4, ((0, 1, 1),))


def test_count_and_sum_values():
    Q = form(2, 1, 4, (1,), (1,))
    H = Q.histogram
    assert H[0, 0] == 4  # 2^3 - 1*1*2^2
    assert 2 * H[0, 0] - 16 == -8  # S = q N - q^m
    # sum over xi of N equals q^m
    assert H[5].sum() == 16


def sum_frequencies(Q, b_sym):
    """S_{Q,b}(beta) = q N_{Q,beta}(-b) - q^m tallied over beta, straight from the histogram."""
    target = Q.ctx.symbols(Q.s).neg[b_sym]
    return quadform.frequencies(Q.q * Q.histogram[:, target] - Q.ctx.order)


def test_exp_sum_distribution_example():
    Q = form(2, 1, 4, (1,), (1,))
    dist = sum_frequencies(Q, 0)
    assert dist == {0: 12, -8: 1, 8: 3}


def test_full_rank_no_zero_sum():
    ctx = gf.get_field(2, 4)
    Q = form(2, 1, 4, (1,), (ctx.alpha,))
    dist = sum_frequencies(Q, 0)
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


def test_one_histogram_per_form(monkeypatch):
    # the sum table and every xi's count table read one cached histogram
    calls = []
    real = quadform.value_histograms

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(quadform, "value_histograms", counting)
    Q = form(5, 1, 4, (1,), (1,))
    assert quadform.verify_sum_distribution(Q).ok
    for xi_sym in range(5):
        quadform.n_distribution(Q, xi_sym)
    assert len(calls) == 1


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
    # the zero form has type +1 in the arrays and in a profile: N_Q(0) = q^m
    # is the type +1 zero count at rank 0
    Q = form(2, 1, 4, (1,), (0,))
    rank, eps = quadform.form_profiles(Q.ctx, 1, [[0]], (1,))
    assert (rank.tolist(), eps.tolist()) == ([0], [1])
    assert quadform.profile(Q).type == 1


def test_rank0_is_type_plus_one_on_every_route():
    # the zero row by the counting and the discriminant routes, p = 2 inside
    # and past COUNT_LIMIT, and s = 2; then profile() on the same form
    for p, s, m, count in [(3, 1, 4, True), (3, 1, 4, False), (2, 1, 4, True),
                           (2, 1, 18, True), (2, 2, 4, True)]:
        ctx = gf.get_field(p, s * m)
        assert (ctx.order <= quadform.COUNT_LIMIT) == (m != 18)
        rank, eps = quadform.form_profiles(ctx, s, [[0, 0]], (0, 1), count=count)
        assert (rank.tolist(), eps.tolist()) == ([0], [1])
        assert quadform.profile(form(p, s, m, (1,), (0,))) == QuadFormProfile(rank=0, type=1)
    tally = quadform.tally_profiles(gf.get_field(3, 4), FamilySpec(3, 1, 4, ()))
    assert tally.counts == ((0, 1, 1),)
    # at m = 2, l = 1 the special power class has rank m - 2(m,l) = 0 and
    # type -eps_l = +1, as form_profiles finds on every gamma
    for p in (2, 3, 5, 7):
        ctx = gf.get_field(p, 2)
        gammas = ctx.exp[: ctx.mult_order]
        rank, eps = quadform.form_profiles(ctx, 1, gammas[:, None], (1,))
        classes = [klapper.classify_monomial(ctx, 1, 2, g, 1) for g in gammas.tolist()]
        assert [(c.rank, c.type) for c in classes] == list(zip(rank.tolist(), eps.tolist()))
        assert (0, 1) in {(c.rank, c.type) for c in classes}


def test_value_rows_rank0():
    # the zero form: beta = 0 puts all q^m values at 0, every other beta is flat
    assert quadform.value_rows(3, 2, 0, 1) == (((9, 0, 0), 1), ((3, 3, 3), 8))


def value_rows_fraction(q, m, r, eps):
    """Independent route: {row: count} from N-bar in Fraction arithmetic, beta = 0's row apart.

    For beta in W^perp the row is c -> q^{m-r} N-bar(c + a), a taking each
    value N-bar(a) times; N-bar(c) = q^{r-1} + eps nu(c) q^{r/2-1} depends
    only on whether c = 0, so the row peaking at c0 = -a stands for N-bar(c0).
    """
    def nbar(c_is_zero):
        return Fraction(q) ** (r - 1) + eps * (q - 1 if c_is_zero else -1) * Fraction(q) ** (r // 2 - 1)

    rows = Counter({(Fraction(q) ** (m - 1),) * q: q ** m - q ** r})
    for c0 in range(q):
        rows[tuple(q ** (m - r) * nbar(c == c0) for c in range(q))] += nbar(c0 == 0)
    beta0 = tuple(q ** (m - r) * nbar(c == 0) for c in range(q))
    assert all(v.denominator == 1 for row, cnt in rows.items() for v in (*row, cnt))
    return {tuple(map(int, row)): int(cnt) for row, cnt in rows.items() if cnt}, tuple(map(int, beta0))


def test_value_rows_matches_fraction_route():
    n = 0
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13)
    for q in qs:
        for m in range(1, 11):
            for r in range(0, m + 1, 2):
                for eps in (1, -1) if r else (1,):
                    rows = quadform.value_rows(q, m, r, eps)
                    assert all(type(v) is int for row, cnt in rows for v in (*row, cnt))
                    assert sum(cnt for _, cnt in rows) == q ** m
                    assert all(sum(row) == q ** m for row, _ in rows)
                    assert (dict(rows), rows[0][0]) == value_rows_fraction(q, m, r, eps)
                    n += 1
    assert n == 540
    for q in qs:
        # odd rank, rank past m, and a rank-0 form of type -1 have no rows
        for args in [(q, 4, 3, 1), (q, 4, 1, -1), (q, 2, 4, 1), (q, 3, 4, -1), (q, 4, 0, -1)]:
            with pytest.raises(RankError):
                quadform.value_rows(*args)


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_value_rows_match_histogram_rows(p, s):
    # random one- and two-term spans: the histogram's row multiset is
    # value_rows of the form's (rank, type), and its beta = 0 row comes first
    q = p ** s
    rng = np.random.default_rng(3100 + 10 * p + s)
    matched = 0
    for m in range(2, 7):
        if q ** (m + 1) > 1 << 17:
            break
        ctx = gf.get_field(p, s * m)
        for _ in range(8):
            exps = tuple(sorted(rng.choice(m, size=int(rng.integers(1, 3)), replace=False).tolist()))
            Q = form(p, s, m, exps, tuple(int(c) for c in rng.integers(1, ctx.order, len(exps))))
            try:
                prof = quadform.profile(Q)
            except RankError:  # odd rank
                continue
            rows = quadform.value_rows(q, m, prof.rank, prof.type)
            keys, counts = np.unique(Q.histogram, axis=0, return_counts=True)
            assert dict(zip(map(tuple, keys.tolist()), counts.tolist())) == dict(rows)
            assert tuple(Q.histogram[0].tolist()) == rows[0][0]
            matched += 1
    assert matched >= 4


@pytest.mark.parametrize("p,s,m,ell", [(2, 1, 4, 1), (2, 1, 8, 1), (2, 2, 4, 1), (3, 1, 4, 1)])
def test_sum_distribution_sees_a_flipped_type(p, s, m, ell, monkeypatch):
    # at q = 2 the row multisets of both types agree; the beta = 0 row tells them apart
    real = quadform.profile
    monkeypatch.setattr(quadform, "profile",
                        lambda Q: QuadFormProfile(real(Q).rank, -real(Q).type))
    ctx = gf.get_field(p, s * m)
    branches = {klapper.classify_monomial(ctx, s, m, int(g), ell).branch: int(g)
                for g in ctx.exp[: ctx.mult_order]}
    for g in branches.values():
        assert not quadform.verify_sum_distribution(form(p, s, m, (ell,), (g,))).ok


def test_exp_sum_identity_random():
    ctx = gf.get_field(3, 4)
    Q = form(3, 1, 4, (1,), (ctx.alpha,))
    sy = ctx.symbols(1)
    H = Q.histogram
    xs = np.arange(81, dtype=np.int64)
    values = sy.trace_sym[ctx.v_mul(xs, lin_eval_table(ctx, Q.R))]  # Q in element order
    rng = np.random.default_rng(2)
    for _ in range(10):
        beta = int(rng.integers(0, 81))
        b_sym = int(rng.integers(0, 3))
        # N_{Q,beta}(-b) by a direct count over x
        tr_b = sy.trace_sym[ctx.v_mul(np.full(81, beta, dtype=np.int64), xs)]
        n = int(np.count_nonzero(sy.add[values, tr_b] == sy.neg[b_sym]))
        assert H[beta, sy.neg[b_sym]] == n
        s = 3 * n - 81
        assert s in sum_frequencies(Q, b_sym)


def element_tables(ctx, f):
    """Log-order rows f (column k at alpha^k) as element-indexed tables, 0 at x = 0."""
    out = np.zeros((f.shape[0], ctx.order), dtype=f.dtype)
    out[:, ctx.exp[: ctx.mult_order]] = f
    return out


def direct_histograms(ctx, s, f):
    """H[b, beta, c] by walking every beta and counting f + tr(beta x) = c over every x."""
    sy = ctx.symbols(s)
    xs = np.arange(ctx.order, dtype=np.int64)
    tables = element_tables(ctx, f)
    out = np.zeros((f.shape[0], ctx.order, sy.q), dtype=np.int64)
    for beta in range(ctx.order):
        tr_b = sy.trace_sym[ctx.v_mul(np.full(ctx.order, beta, dtype=np.int64), xs)]
        for b, row in enumerate(tables):
            for x in range(ctx.order):
                out[b, beta, sy.add[row[x], tr_b[x]]] += 1
    return out


@pytest.mark.parametrize("p,s,m", sorted({(p, s, m) for p, s, m, _ in GRID}))
def test_value_histograms_match_direct_count(p, s, m):
    ctx = gf.get_field(p, s * m)
    q = p ** s
    rng = np.random.default_rng(p * 1000 + s * 100 + m)
    f = rng.integers(0, q, size=(2, ctx.mult_order)).astype(np.int16)
    if ctx.order > 64:
        # the direct count is a Python loop: check a sample of beta rows exactly
        betas = np.sort(rng.choice(ctx.order, 48, replace=False))
        H = quadform.value_histograms(ctx, s, f)
        sy = ctx.symbols(s)
        xs = np.arange(ctx.order, dtype=np.int64)
        tables = element_tables(ctx, f)
        for beta in betas:
            tr_b = sy.trace_sym[ctx.v_mul(np.full(ctx.order, beta, dtype=np.int64), xs)]
            for b in range(2):
                want = np.bincount(sy.add[tables[b], tr_b], minlength=q)
                assert np.array_equal(H[b, beta], want)
        assert (H.sum(axis=2) == ctx.order).all()
    else:
        assert np.array_equal(quadform.value_histograms(ctx, s, f), direct_histograms(ctx, s, f))


@pytest.mark.parametrize("p,s,m", [(3, 1, 4), (2, 2, 4), (2, 1, 6)])
def test_value_histograms_match_brute_oracle(p, s, m):
    # build_codeword gives every (gamma, beta) word of variant 1 one word at a time;
    # its symbol compositions are the kernel's histograms less the x = 0 entry
    ctx = gf.get_field(p, s * m)
    q = p ** s
    spec = CodeSpec(FamilySpec(p, s, m, (1,)), "1")
    comps = Counter(tuple(np.bincount(spectra.build_codeword(ctx, spec, R, beta),
                                      minlength=q).tolist())
                    for R in (LinearizedPoly((1,), (gamma,), s) for gamma in range(ctx.order))
                    for beta in range(ctx.order))
    gammas = np.arange(ctx.order, dtype=np.int64)
    powers = ctx.power_table(q + 1)[ctx.exp[: ctx.mult_order]]  # x^{q+1} at x = alpha^k
    f = ctx.symbols(s).trace_sym[ctx.v_mul(gammas[:, None], powers[None, :])]
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
    f = np.random.default_rng(seed).integers(0, p ** s, size=(rows, ctx.mult_order))
    f = f.astype(np.int16)
    assert np.array_equal(quadform.value_histograms(ctx, s, f), direct_histograms(ctx, s, f))


def assert_sampled_rows_exact(ctx, s, f, H, n_betas):
    """H's rows at beta = 0 and n_betas sampled betas, recounted exactly for every form."""
    sy = ctx.symbols(s)
    q = sy.q
    tables = element_tables(ctx, f)
    xs = np.arange(ctx.order, dtype=np.int64)
    rng = np.random.default_rng(ctx.order * len(f))
    betas = np.union1d([0], rng.choice(ctx.order, min(n_betas, ctx.order), replace=False))
    offsets = np.arange(len(f))[:, None] * q
    for beta in betas:
        tr_b = sy.trace_sym[ctx.v_mul(np.full(ctx.order, beta, dtype=np.int64), xs)]
        want = np.bincount((offsets + sy.plus(tables, tr_b)).ravel(), minlength=len(f) * q)
        assert np.array_equal(H[:, beta], want.reshape(-1, q)), beta
    assert H.shape == (len(f), ctx.order, q)
    assert (H.sum(axis=2) == ctx.order).all()


def histogram_rows(ctx, q, B, seed):
    """B symbol rows: the zero form (a count of q^m at beta = 0), then random rows."""
    f = np.random.default_rng(seed).integers(0, q, size=(B, ctx.mult_order)).astype(np.int16)
    f[0] = 0
    return f


# every batch size whose B q^{m+1} histogram cells stay within 2^23: all but B = 300 at
# (43, 1, 2), which would hold 2^24.5
BATCH_CASES = [(p, s, m, B) for p, s, m in sorted({(p, s, m) for p, s, m, _ in GRID}
                                                  | {(3, 2, 2), (2, 3, 2), (5, 2, 2), (43, 1, 2)})
               for B in (1, 5, 300) if B * p ** (s * m + s) <= 1 << 23]


@pytest.mark.parametrize("p,s,m,B", BATCH_CASES)
def test_value_histograms_batches_match_recount(p, s, m, B):
    ctx = gf.get_field(p, s * m)
    q = p ** s
    f = histogram_rows(ctx, q, B, p * 1000 + s * 100 + m + B)
    H = quadform.value_histograms(ctx, s, f)
    if ctx.order <= 64 and B <= 5:
        assert np.array_equal(H, direct_histograms(ctx, s, f))
    else:
        assert_sampled_rows_exact(ctx, s, f, H, 24)
    # each form's histograms do not depend on the batch around it
    assert np.array_equal(H[-1:], quadform.value_histograms(ctx, s, f[-1:]))


@pytest.mark.parametrize("p,n,dtype", [(3, 4, np.int8), (3, 9, np.int16), (2, 15, np.int32)],
                         ids=["int8-81", "int16-19683", "int32-32768"])
def test_value_histograms_count_dtype_edge(p, n, dtype):
    # q^m = 81 counts in int8, 19683 < 2^15 in int16, 2^15 in int32, from the first
    # write to the returned array; the zero form's beta = 0 row holds q^m, the largest
    # count, at c = 0, and QuadForm.histogram widens its one row to int64
    ctx = gf.get_field(p, n)
    f = histogram_rows(ctx, p, 3, n)
    H = quadform.value_histograms(ctx, 1, f)
    assert H.dtype == dtype
    assert H[0, 0, 0] == ctx.order
    assert_sampled_rows_exact(ctx, 1, f, H, 6)
    Q = QuadForm(ctx, 1, n, LinearizedPoly((0,), (0,), 1))
    assert Q.histogram.dtype == np.int64 and Q.histogram.flags.c_contiguous
    assert np.array_equal(Q.histogram, H[0])


def test_value_histograms_m1_builds_no_cubic_shift_table():
    # at m = 1, q^2 = 65536 histogram cells pass the cell bound, but a q x q x q
    # shift table would hold 2^24 entries: each y gathers its own (q, q) slice
    ctx = gf.get_field(2, 8)
    Q = form(2, 8, 1, (0,), (ctx.alpha_pow(5),))  # Q(x) = alpha^5 x^2
    sy = ctx.symbols(8)
    tracemalloc.start()
    try:
        H = Q.histogram
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    xs = np.arange(ctx.order, dtype=np.int64)
    values = sy.trace_sym[ctx.v_mul(xs, lin_eval_table(ctx, Q.R))]  # Q in element order
    for beta in range(ctx.order):
        tr_b = sy.trace_sym[ctx.v_mul(np.full(ctx.order, beta, dtype=np.int64), xs)]
        assert np.array_equal(H[beta], np.bincount(sy.add[values, tr_b], minlength=sy.q)), beta


def test_value_histograms_rejects_oversized_tables():
    ctx = gf.get_field(2, 16)
    with pytest.raises(ValueError):
        quadform.value_histograms(ctx, 16, np.zeros((1, ctx.mult_order), dtype=np.int16))
