import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from qfcodes import gf, klapper, quadform
from qfcodes.klapper import HypothesisError
from qfcodes.linalg import reduce_symmetric
from qfcodes.linpoly import LinearizedPoly
from qfcodes.quadform import QuadForm


def test_classify_examples():
    F16 = gf.get_field(2, 4)
    cls = klapper.classify_monomial(F16, 1, 4, 1, 1)
    assert (cls.rank, cls.type) == (2, -1)
    F81 = gf.get_field(3, 4)
    cls = klapper.classify_monomial(F81, 1, 4, F81.alpha, 1)  # t = 1 is generic
    assert (cls.rank, cls.type) == (4, 1)
    F9 = gf.get_field(3, 2)
    cls = klapper.classify_monomial(F9, 1, 2, F9.alpha_pow(2), 1)  # t = 2 = L/2 mod 4
    assert (cls.rank, cls.type) == (0, 1)


def test_classify_errors():
    F16 = gf.get_field(2, 4)
    with pytest.raises(HypothesisError):
        klapper.classify_monomial(F16, 1, 4, 0, 1)
    F8 = gf.get_field(2, 3)
    with pytest.raises(HypothesisError):
        klapper.classify_monomial(F8, 1, 3, 1, 1)  # m_l odd


def _classify_agrees_with_profile(ctx, s, m, ell, gammas):
    for g in gammas:
        cls = klapper.classify_monomial(ctx, s, m, int(g), ell)
        prof = quadform.profile(QuadForm(ctx, s, m, LinearizedPoly((ell,), (int(g),), s)))
        assert (cls.rank, cls.type) == (prof.rank, prof.type)


@pytest.mark.parametrize("p,s,m,ell", [(2, 1, 4, 1), (3, 1, 4, 1), (2, 1, 6, 1),
                                       (3, 2, 2, 1), (5, 2, 2, 1), (3, 3, 2, 1)])
def test_classify_agrees_with_profile(p, s, m, ell):
    ctx = gf.get_field(p, s * m)
    _classify_agrees_with_profile(ctx, s, m, ell, ctx.exp[: ctx.mult_order])


def test_classify_agrees_with_profile_odd_p_sampled():
    # odd p with s > 1 past the exhaustive sizes: 800 gamma of F_{9^4}
    ctx = gf.get_field(3, 8)
    gammas = ctx.exp[np.random.default_rng(31).choice(ctx.mult_order, 800, replace=False)]
    _classify_agrees_with_profile(ctx, 2, 4, 1, gammas)


def test_m_counts():
    assert klapper.m_counts(2, 8, 1) == (85, 170)
    assert klapper.m_counts(3, 4, 1) == (20, 60)
    assert klapper.m_counts(2, 8, 2) == (51, 204)
    # exhaustive power count oracle for (3,4,1)
    F81 = gf.get_field(3, 4)
    powers = {F81.pow(int(g), 4) for g in F81.exp[:80]}
    assert len(powers) == 20


def test_gcd_identity_grid():
    for (q, m, ell) in [(2, 4, 1), (2, 6, 1), (2, 8, 1), (2, 8, 2), (3, 4, 1),
                        (4, 4, 1), (5, 4, 1), (3, 8, 1)]:
        assert klapper.gcd_identity(q, m, ell)


def test_rank_distribution_monomial():
    d = klapper.rank_distribution_monomial(2, 8, 1)
    assert (d.q, d.m, d.counts) == (2, 8, ((8, 1, 170), (6, -1, 85), (0, 1, 1)))
    d = klapper.rank_distribution_monomial(2, 4, 1)
    assert (d.q, d.m, d.counts) == (2, 4, ((4, 1, 10), (2, -1, 5), (0, 1, 1)))
    d = klapper.rank_distribution_monomial(3, 4, 1)
    assert (d.q, d.m, d.counts) == (3, 4, ((4, 1, 60), (2, -1, 20), (0, 1, 1)))
    with pytest.raises(HypothesisError):
        klapper.rank_distribution_monomial(2, 4, 2)  # l < m/2 violated


def test_rank_distribution_monomial_exhaustive_oracle():
    ctx = gf.get_field(2, 4)
    tally = {(0, 1): 1}  # R = 0
    for g in ctx.exp[:15]:
        cls = klapper.classify_monomial(ctx, 1, 4, int(g), 1)
        key = (cls.rank, cls.type)
        tally[key] = tally.get(key, 0) + 1
    assert tally == klapper.rank_distribution_monomial(2, 4, 1).as_dict()


def test_l3l_constants():
    fs = klapper.l3l_constants(3, 8, 1)
    assert sum(fs) == 3 ** 16 - 1
    assert all(f >= 0 for f in fs)
    # frozen from the exhaustive radical sweep over all 3^16 pairs
    assert fs == (31084560, 11512800, 447720, 1640)
    dist = klapper.rank_distribution_l3l(3, 8, 1)
    assert dist.counts == ((8, 1, fs[0]), (6, -1, fs[1]), (4, 1, fs[2]), (2, -1, fs[3]),
                           (0, 1, 1))


def l3l_constants_fraction(p, m, ell):
    """Independent route: the four multiplicities evaluated in Fraction arithmetic."""
    d = gcd(m, ell)
    e = klapper.eps_ell(m, ell)
    P = Fraction(p)
    denom = P ** (6 * d) + P ** (5 * d) - P ** (4 * d) + P ** (2 * d) - P ** d - 1
    half, threehalf = Fraction(m, 2), Fraction(3 * m, 2)
    alt = sum((-1) ** (i + 1) * P ** (i * d) for i in range(6))
    f0 = (P ** (2 * m + 6 * d) - P ** (2 * m + 4 * d) - P ** (2 * m + d)
          + P ** (m + 4 * d) + P ** (m + d) - P ** (6 * d)
          + e * (P ** (threehalf + 5 * d) - P ** (threehalf + 4 * d)
                 - P ** (half + 5 * d) + P ** (half + 4 * d))) / denom
    f1 = (P ** (2 * m - 2 * d) * (P ** (7 * d) - P ** (2 * d) - 1)
          + P ** (m - 2 * d) * (P ** (5 * d) - P ** (6 * d) + P ** (2 * d) + 1)
          - P ** (3 * d) * (P ** (2 * d) - P ** d + 1)
          - e * (P ** threehalf - P ** half) * alt) / denom
    f2 = (P ** (2 * m - 3 * d) * (P ** (5 * d) + P ** d - 1)
          - P ** (m - 3 * d) * (P ** (6 * d) + P ** (4 * d) + P ** d - 1)
          + P ** d * (P ** (2 * d) - P ** d + 1)
          + e * (P ** (threehalf - 2 * d) - P ** (half - 2 * d)) * alt) / denom
    f3 = (P ** (2 * m - 3 * d) - P ** m - P ** (m - 3 * d) + 1
          - e * (P ** (threehalf - d) - P ** (threehalf - 2 * d)
                 - P ** (half - d) + P ** (half - 2 * d))) / denom
    assert all(f.denominator == 1 and f >= 0 for f in (f0, f1, f2, f3))
    return tuple(int(f) for f in (f0, f1, f2, f3))


def test_l3l_constants_match_fraction_route():
    triples = [(p, m, ell) for p in (3, 5, 7, 11, 13) for m in range(2, 31, 2)
               for ell in range(1, m) if m > 6 * ell and (m // gcd(m, ell)) % 2 == 0]
    assert len(triples) == 110
    for p, m, ell in triples:
        assert klapper.l3l_constants(p, m, ell) == l3l_constants_fraction(p, m, ell), (p, m, ell)


def test_l3l_errors():
    with pytest.raises(HypothesisError):
        klapper.l3l_constants(2, 8, 1)
    with pytest.raises(HypothesisError):
        klapper.l3l_constants(3, 6, 1)  # m > 6l violated
    with pytest.raises(HypothesisError):
        klapper.l3l_constants(3, 7, 1)  # m_l odd


def test_pair_sweep_small_field_vs_scalar():
    # the sweep machinery works on any odd-p field with even m; on F_81 the
    # general quadform route (zero count cross-checked by discriminant), run
    # on every g1 of the d + 1 orbit-representative rows and weighted by
    # orbit size, gives the whole (rank, type) tally
    ctx = gf.get_field(3, 4)
    N = ctx.mult_order
    d = gcd(N, 3 + 1)
    expected = Counter()
    for weight, g2 in zip([1] + [N // d] * d, [0] + [int(g) for g in ctx.exp[:d]]):
        for g1 in range(ctx.order):
            prof = klapper.l3l_pair_profile(ctx, 1, g1, g2)
            expected[(prof.rank, prof.type)] += weight
    profiles = klapper.tally_l3l_profiles(ctx, 1)
    assert sum(c for _, _, c in profiles.counts) == 3 ** 8
    assert profiles.counts == tuple((r, t, expected[r, t])
                                    for r, t in sorted(expected, reverse=True))


def test_pair_sweep_workers_match():
    ctx = gf.get_field(3, 4)
    assert klapper.tally_l3l_ranks(ctx, 1, workers=1) == \
        klapper.tally_l3l_ranks(ctx, 1, workers=2)


@pytest.mark.parametrize("p,m", [(3, 4), (5, 4)])
def test_orbit_tally_matches_direct_nullity(p, m):
    # every pair's rank and type by direct reduction of its Gram matrix, against
    # the tally taken on orbit representatives
    ctx = gf.get_field(p, m)
    g = np.arange(ctx.order)
    pairs = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)  # [g2, g1]
    red = reduce_symmetric(quadform.form_grams(ctx, 1, pairs, (1, 3)), p)
    direct = Counter(zip(red.rank.tolist(), red.etas().tolist()))
    profiles = klapper.tally_l3l_profiles(ctx, 1)
    assert profiles.as_dict() == dict(direct)
    ranks = Counter()
    for r, _, c in profiles.counts:
        ranks[r] += c
    assert klapper.tally_l3l_ranks(ctx, 1) == dict(ranks)


def test_tally_reaches_beyond_the_old_sweep():
    # 3^20 pairs; checks the closed-form multiplicities and types at (3,10,1),
    # holding one block of Gram matrices at a time
    ctx = gf.get_field(3, 10)
    ctx.symbols(1)
    tracemalloc.start()
    try:
        profiles = klapper.tally_l3l_profiles(ctx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profiles == klapper.rank_distribution_l3l(3, 10, 1)
    assert peak < 16 * 2 ** 20


@pytest.mark.slow
@pytest.mark.parametrize("p,m", [(5, 8), (3, 12)])
def test_orbit_tally_reaches_the_closed_form(p, m):
    # 5^16 and 3^24 pairs, out of reach of the x -> cx orbit classes alone
    tally = klapper.tally_l3l_profiles(gf.get_field(p, m), 1)
    assert tally == klapper.rank_distribution_l3l(p, m, 1)


@pytest.mark.parametrize("p", [3, 67, 131, pytest.param(191, marks=pytest.mark.slow)])
def test_tally_m2_closed_form(p):
    # at m = 2, l = 1: Q(x) = tr(c) N(x) with c = g1 + g2, so rank 0 iff tr(c) = 0
    assert klapper.tally_l3l_ranks(gf.get_field(p, 2), 1) == {0: p ** 3, 2: p ** 4 - p ** 3}


def test_tally_guards():
    ctx = gf.get_field(3, 4)
    with pytest.raises(ValueError):
        klapper.tally_l3l_ranks(ctx, 1, workers=0)
    with pytest.raises(HypothesisError):
        klapper.tally_l3l_profiles(gf.get_field(2, 8), 1)


def test_fast_profile_matches_general():
    ctx = gf.get_field(3, 4)
    rng = np.random.default_rng(13)
    for _ in range(40):
        g1, g2 = int(rng.integers(0, 81)), int(rng.integers(0, 81))
        if (g1, g2) == (0, 0):
            continue
        fast = klapper.l3l_pair_profile_fast(ctx, 1, g1, g2)
        full = klapper.l3l_pair_profile(ctx, 1, g1, g2)
        assert (fast.rank, fast.type) == (full.rank, full.type)


def test_eps_ell():
    assert klapper.eps_ell(8, 1) == 1    # m_l = 8, half even
    assert klapper.eps_ell(6, 1) == -1   # m_l = 6, half odd
    assert klapper.eps_ell(4, 2) == -1   # m_l = 2, half odd
    with pytest.raises(HypothesisError):
        klapper.eps_ell(5, 1)
