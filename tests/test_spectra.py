import multiprocessing
import tracemalloc
from collections import Counter
from functools import lru_cache
from math import gcd

import numpy as np
import pytest

from qfcodes import gf, klapper, quadform, spectra
from qfcodes.klapper import HypothesisError
from qfcodes.linpoly import FamilySpec, LinearizedPoly, family_coeffs
from qfcodes.spectra import (BudgetError, CodeSpec, Spectrum, brute_spectrum,
                             build_codeword, cwe, dimension_oracle,
                             divisibility_report, predict_general,
                             predict_l3l, predict_monomial,
                             predict_monomial_long, weight_from_profile)
from qfcodes.verify import GRID

GRID_SMALL = [(2, 1, 4, 1), (2, 1, 6, 1), (3, 1, 4, 1)]


def fam_of(p, s, m, ell):
    return FamilySpec(p, s, m, (ell,))


# -- frozen reference values -------------------------------------------------------

def test_shortened_281():
    pred = predict_monomial(2, 8, 1, "base")
    assert pred.params.as_list() == [85, 8, 40]
    assert pred.spectrum.weights == {0: 1, 40: 170, 48: 85}
    assert pred.full_spectrum.weights == {0: 1, 120: 170, 144: 85}
    pred0 = predict_monomial(2, 8, 1, "0")
    assert pred0.params.as_list() == [85, 9, 37]
    assert pred0.spectrum.weights == {0: 1, 37: 85, 40: 170, 45: 170, 48: 85, 85: 1}


def test_full_length_281():
    p1 = predict_monomial_long(2, 8, 1, "1")
    assert p1.params.as_list() == [255, 16, 112]
    assert p1.spectrum.weights == {0: 1, 112: 3060, 120: 23120, 128: 16575,
                                   136: 20400, 144: 2380}
    p2 = predict_monomial_long(2, 8, 1, "2")
    assert p2.params.as_list() == [255, 17, 111]
    assert p2.spectrum.weights == {
        0: 1, 111: 2380, 112: 3060, 119: 20400, 120: 23120, 127: 16575,
        128: 16575, 135: 23120, 136: 20400, 143: 3060, 144: 2380, 255: 1}


def test_341_prediction_matches_brute():
    # shortened weights at (3,4,1) are 12 and 18
    pred = predict_monomial(3, 4, 1, "base")
    assert pred.params.as_list() == [20, 4, 12]
    assert pred.spectrum.weights == {0: 1, 12: 60, 18: 20}
    ctx = gf.get_field(3, 4)
    res = brute_spectrum(ctx, CodeSpec(fam_of(3, 1, 4, 1), "base", shortened=True))
    assert res.spectrum.weights == pred.spectrum.weights


@pytest.mark.parametrize("p,s,m,ell", GRID_SMALL)
@pytest.mark.parametrize("variant", spectra.VARIANTS)
def test_brute_equals_predict(p, s, m, ell, variant):
    ctx = gf.get_field(p, s * m)
    q = p ** s
    fam = fam_of(p, s, m, ell)
    if variant in ("base", "0"):
        pred = predict_monomial(q, m, ell, variant)
        res = brute_spectrum(ctx, CodeSpec(fam, variant, shortened=True))
    else:
        pred = predict_monomial_long(q, m, ell, variant)
        res = brute_spectrum(ctx, CodeSpec(fam, variant))
    assert res.spectrum.weights == pred.spectrum.weights
    assert res.params.as_list() == pred.params.as_list()
    assert res.injective


def test_brute_equals_predict_nonprime_q():
    # q = 4 (s = 2) exercises the subfield symbol machinery
    ctx = gf.get_field(2, 8)
    fam = fam_of(2, 2, 4, 1)
    pred = predict_monomial(4, 4, 1, "base")
    res = brute_spectrum(ctx, CodeSpec(fam, "base", shortened=True))
    assert res.spectrum.weights == pred.spectrum.weights
    pred1 = predict_monomial_long(4, 4, 1, "1")
    res1 = brute_spectrum(ctx, CodeSpec(fam, "1"))
    assert res1.spectrum.weights == pred1.spectrum.weights
    assert res1.params.as_list() == [255, 8, 176]


def test_workers_match_single_process():
    ctx = gf.get_field(2, 6)
    spec = CodeSpec(fam_of(2, 1, 6, 1), "2")
    a = brute_spectrum(ctx, spec, collect_compositions=True, workers=1)
    b = brute_spectrum(ctx, spec, collect_compositions=True, workers=2)
    assert a == b


def test_brute_workers_validated_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("brute_spectrum started a process pool")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    ctx = gf.get_field(2, 6)
    spec = CodeSpec(fam_of(2, 1, 6, 1), "2")
    for bad in (0, -4):
        with pytest.raises(ValueError):
            brute_spectrum(ctx, spec, workers=bad)
    serial = brute_spectrum(ctx, spec, workers=1)
    for workers in (2, 3, 100000):
        assert brute_spectrum(ctx, spec, workers=workers) == serial
    assert brute_spectrum(ctx, CodeSpec(fam_of(2, 1, 6, 1), "base"), workers=100000).injective


# -- the block kernel ------------------------------------------------------------------

def family_members(ctx, fam):
    """Every polynomial of the family, one per row of family_coeffs."""
    rows = family_coeffs(ctx, fam, 0, ctx.order ** len(fam.exponents))
    return [LinearizedPoly(fam.exponents, tuple(row), fam.s) for row in rows.tolist()]


@lru_cache(maxsize=None)
def _per_word_tally(p, s, m, exponents, with_beta, shortened):
    """Weight histograms (b = 0, every b) and b = 0 compositions, one word at a time.

    build_codeword gives the word of every (R, beta); the constant b is added
    through the symbol table, as build_codeword adds it.
    """
    ctx, q = gf.get_field(p, s * m), p ** s
    spec = CodeSpec(FamilySpec(p, s, m, exponents), "2" if with_beta else "0",
                    shortened=shortened)
    add = ctx.symbols(s).add
    n = len(build_codeword(ctx, spec, LinearizedPoly(exponents, (0,) * len(exponents), s)))
    hist_b0, hist_all, comps = np.zeros(n + 1, np.int64), np.zeros(n + 1, np.int64), Counter()
    for R in family_members(ctx, spec.family):
        for beta in range(ctx.order) if with_beta else (0,):
            word = build_codeword(ctx, spec, R, beta)
            comps[tuple(np.bincount(word, minlength=q).tolist())] += 1
            hist_b0[np.count_nonzero(word)] += 1
            np.add.at(hist_all, np.count_nonzero(add[:, word], axis=1), 1)
    return hist_b0, hist_all, comps


KERNEL_FIELDS = [(2, 1, 4, (1,)), (3, 1, 4, (1,)), (2, 2, 4, (1,))]
KERNEL_CASES = ([(*f, v, False) for f in KERNEL_FIELDS for v in spectra.VARIANTS]
                + [(*f, v, True) for f in KERNEL_FIELDS for v in ("base", "0")]
                + [(2, 1, 4, (1, 3), v, False) for v in spectra.VARIANTS])


@pytest.mark.parametrize("p,s,m,exponents,variant,shortened", KERNEL_CASES)
def test_block_kernel_matches_per_word_reference(monkeypatch, p, s, m, exponents, variant,
                                                 shortened):
    ctx = gf.get_field(p, s * m)
    spec = CodeSpec(FamilySpec(p, s, m, exponents), variant, shortened=shortened)
    # on the full-length codes, caps this small give blocks of 7 or 7q forms and
    # x-tiles of 7 coordinates, which divide neither the form count nor n; the
    # split point falls mid-block
    monkeypatch.setattr(spectra, "_BLOCK_CELLS", 7 * ctx.order * p ** s)
    n_forms = ctx.order ** len(exponents)
    mid = n_forms // 2 + 1
    parts = [spectra._brute_chunk(ctx, spec, True, lo, hi)
             for lo, hi in ((0, mid), (mid, n_forms))]
    hist_b0, hist_all, want_comps = _per_word_tally(p, s, m, exponents,
                                                    variant in ("1", "2"), shortened)
    want_hist = hist_all if variant in ("0", "2") else hist_b0
    assert np.array_equal(parts[0][0] + parts[1][0], want_hist)
    assert Counter(parts[0][1]) + Counter(parts[1][1]) == want_comps
    hist, comps = spectra._brute_chunk(ctx, spec, False, 0, n_forms)
    assert np.array_equal(hist, want_hist) and comps == {}


def test_block_kernel_keeps_the_non_injective_span_count(monkeypatch):
    # span:1,3 at (2,1,4) counts coefficient indices, not codewords: k = 8, A_0 = 16
    monkeypatch.setattr(spectra, "_BLOCK_CELLS", 7 * 16 * 2)
    res = brute_spectrum(gf.get_field(2, 4), CodeSpec(FamilySpec(2, 1, 4, (1, 3)), "base"))
    assert res.params.k == 8
    assert res.spectrum.weights[0] == 16
    assert res.distinct_words == 16


def test_brute_working_set_is_capped_at_large_q():
    # (31,1,2) variant 1 fits the default budget: 961^2 words of length 960
    ctx = gf.get_field(31, 2)
    fam = fam_of(31, 1, 2, 1)
    spec = CodeSpec(fam, "1")
    build_codeword(ctx, spec, LinearizedPoly((1,), (1,), 1), beta=1)  # the field's lazy tables
    tracemalloc.start()
    try:
        res = brute_spectrum(ctx, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    # the beta-sweep kernel route: word (gamma, beta) has weight n - (H[gamma, beta, 0] - 1).
    # x -> cx permutes the coordinates and maps (gamma, beta) to (gamma c^32, beta c), so
    # gamma = 0 and one gamma per coset of the 30 32nd powers, alpha^0..alpha^31, suffice
    n = ctx.mult_order
    gammas = np.array([0] + [ctx.alpha_pow(j) for j in range(32)], dtype=np.int64)
    tables = ctx.symbols(1).trace_sym[ctx.v_mul(gammas[:, None], ctx.power_table(32))]
    H = quadform.value_histograms(ctx, 1, tables)
    orbit = np.array([1] + [30] * 32)[:, None]
    want = np.bincount((n - (H[:, :, 0] - 1)).ravel(),
                       weights=np.broadcast_to(orbit, H.shape[:2]).ravel(), minlength=n + 1)
    assert res.spectrum.weights == {w: int(c) for w, c in enumerate(want) if c}


def test_float_exactness_guard_raises(monkeypatch):
    monkeypatch.setattr(spectra, "_F32_EXACT", 15)
    ctx = gf.get_field(2, 4)
    for variant in ("1", "2"):
        with pytest.raises(OverflowError):
            brute_spectrum(ctx, CodeSpec(fam_of(2, 1, 4, 1), variant))
    monkeypatch.setattr(spectra, "_F32_EXACT", 16)
    res = brute_spectrum(ctx, CodeSpec(fam_of(2, 1, 4, 1), "1"))
    assert res.spectrum.weights == predict_monomial_long(2, 4, 1, "1").spectrum.weights


@pytest.mark.parametrize("p,m,exponents,variant,expected,distinct", [
    (2, 4, (1, 3), "base", 256, 16),
    (3, 4, (1, 2), "1", 531441, 59049),
])
def test_brute_non_injective(p, m, exponents, variant, expected, distinct):
    res = brute_spectrum(gf.get_field(p, m), CodeSpec(FamilySpec(p, 1, m, exponents), variant))
    assert res.injective is False
    assert res.expected_words == expected
    assert res.distinct_words == distinct
    assert res.spectrum.weights[0] == expected // distinct


@pytest.mark.parametrize("exponents,variant", [((1, 3), "base"), ((1, 3), "2"), ((1,), "2")])
def test_distinct_words_equal_a_direct_count(exponents, variant):
    # oracle: build every word and count the distinct ones
    ctx = gf.get_field(2, 4)
    fam = FamilySpec(2, 1, 4, exponents)
    spec = CodeSpec(fam, variant)
    betas = range(16) if variant in ("1", "2") else (0,)
    bs = range(2) if variant in ("0", "2") else (0,)
    words = {build_codeword(ctx, spec, R, beta, b).tobytes()
             for R in family_members(ctx, fam) for beta in betas for b in bs}
    assert brute_spectrum(ctx, spec).distinct_words == len(words)


# -- codewords --------------------------------------------------------------------

def test_build_codeword_basics():
    ctx = gf.get_field(2, 4)
    fam = fam_of(2, 1, 4, 1)
    zero = LinearizedPoly((1,), (0,), 1)
    w = build_codeword(ctx, CodeSpec(fam, "base"), zero)
    assert not w.any() and len(w) == 15
    wb = build_codeword(ctx, CodeSpec(fam, "0"), zero, b_sym=1)
    assert int((wb != 0).sum()) == 15  # constant word has full weight
    short = build_codeword(ctx, CodeSpec(fam, "base", shortened=True),
                           LinearizedPoly((1,), (1,), 1))
    assert len(short) == 5
    assert int((short != 0).sum()) in (2, 4)


def _codeword_by_power_tables(ctx, spec, R, beta, b):
    # reference: the power-table + v_mul assembly, every term added, zeros included
    fam = spec.family
    sy = ctx.symbols(fam.s)
    n = ctx.mult_order
    if spec.shortened:
        n //= fam.q ** gcd(fam.m, fam.exponents[0]) + 1
    xs = ctx.exp[:n]
    syms = np.zeros(n, dtype=np.int16)
    for l, c in zip(R.q_exponents, R.coeffs):
        pt = ctx.power_table(fam.q ** l + 1)[xs]
        syms = sy.add[syms, sy.trace_sym[ctx.v_mul(np.full(n, c, dtype=np.int64), pt)]]
    syms = sy.add[syms, sy.trace_sym[ctx.v_mul(np.full(n, beta, dtype=np.int64), xs)]]
    return sy.add[syms, np.full(n, b, dtype=np.int16)]


@pytest.mark.parametrize("p,s,m,ell", GRID)
def test_build_codeword_matches_power_tables(p, s, m, ell):
    ctx = gf.get_field(p, s * m)
    fam = fam_of(p, s, m, ell)
    specs = [CodeSpec(fam, v, shortened=True) for v in ("base", "0")]
    specs += [CodeSpec(fam, v) for v in spectra.VARIANTS]
    rng = np.random.default_rng(p * 100 + m)
    for spec in specs:
        for trial in range(6):
            c = 0 if trial == 0 else int(rng.integers(1, ctx.order))
            beta = int(rng.integers(trial > 1, ctx.order)) if spec.variant in ("1", "2") else 0
            b = int(rng.integers(0, fam.q)) if spec.variant in ("0", "2") else 0
            R = LinearizedPoly((ell,), (c,), s)
            assert np.array_equal(build_codeword(ctx, spec, R, beta, b),
                                  _codeword_by_power_tables(ctx, spec, R, beta, b))


def test_l3l_codeword_matches_power_tables():
    ctx = gf.get_field(3, 8)
    spec = CodeSpec(FamilySpec(3, 1, 8, (1, 3)), "2")
    rng = np.random.default_rng(38)
    for trial in range(24):
        g1, g2, beta = (int(v) for v in rng.integers(1, ctx.order, 3))
        g1 = 0 if trial % 4 == 1 else g1
        g2 = 0 if trial % 4 == 2 else g2
        beta = 0 if trial % 3 == 0 else beta
        R = klapper.l3l_poly(ctx, 1, g1, g2)
        b = int(rng.integers(0, 3))
        assert np.array_equal(build_codeword(ctx, spec, R, beta, b),
                              _codeword_by_power_tables(ctx, spec, R, beta, b))


def test_shortened_word_concatenates_to_full():
    ctx = gf.get_field(2, 8)
    fam = fam_of(2, 1, 8, 1)
    gamma = ctx.alpha_pow(11)
    R = LinearizedPoly((1,), (gamma,), 1)
    short = build_codeword(ctx, CodeSpec(fam, "base", shortened=True), R)
    full = build_codeword(ctx, CodeSpec(fam, "base"), R)
    assert np.array_equal(full, np.tile(short, 3))
    assert int((full != 0).sum()) == 3 * int((short != 0).sum())


def test_variant_argument_gates():
    ctx = gf.get_field(2, 4)
    fam = fam_of(2, 1, 4, 1)
    R = LinearizedPoly((1,), (1,), 1)
    with pytest.raises(ValueError):
        build_codeword(ctx, CodeSpec(fam, "base"), R, beta=3)
    with pytest.raises(ValueError):
        build_codeword(ctx, CodeSpec(fam, "1"), R, b_sym=1)
    with pytest.raises(ValueError):
        CodeSpec(fam, "1", shortened=True)


# -- the shared row machinery ------------------------------------------------------

def test_weight_from_profile_values():
    assert weight_from_profile(2, 4, 2, -1, True, "major") == 12
    assert weight_from_profile(2, 4, 2, -1, True, "null") == 8
    # generic b != 0 at full rank
    assert weight_from_profile(2, 4, 4, 1, False, "null") == 7
    with pytest.raises(HypothesisError):
        weight_from_profile(2, 4, 0, 1, True, "major")
    with pytest.raises(HypothesisError):
        weight_from_profile(2, 4, 3, 1, True, "major")


def test_predict_general_empty_family():
    dist = klapper.RankDistribution(q=2, m=4, counts=())
    spec = predict_general(2, 4, dist, "base")
    assert spec.weights == {0: 1}


def test_predict_general_rejects_odd_rank():
    dist = klapper.RankDistribution(q=2, m=4, counts=((3, 1, 15),))
    with pytest.raises(HypothesisError):
        predict_general(2, 4, dist, "base")


def test_symmetric_spectra_q2():
    # variants 0 and 2 contain the all-ones word for q = 2
    for variant in ("0", "2"):
        if variant == "0":
            spec = predict_monomial(2, 8, 1, variant).spectrum
        else:
            spec = predict_monomial_long(2, 8, 1, variant).spectrum
        n = spec.n
        assert all(spec.weights.get(n - w, 0) == a for w, a in spec.weights.items())


def test_no_weights_outside_closed_rows():
    # every nonzero brute weight appears among the predicted rows
    ctx = gf.get_field(3, 4)
    fam = fam_of(3, 1, 4, 1)
    res = brute_spectrum(ctx, CodeSpec(fam, "2"))
    pred = predict_monomial_long(3, 4, 1, "2")
    assert set(res.spectrum.weights) == set(pred.spectrum.weights)


# -- l3l ---------------------------------------------------------------------------

def test_predict_l3l_dimensions_and_distances():
    for variant, k in (("base", 16), ("0", 17), ("1", 24), ("2", 25)):
        pred = predict_l3l(3, 8, 1, variant)
        assert pred.params.k == k
        assert pred.spectrum.total() == 3 ** k
    assert predict_l3l(3, 8, 1, "base").params.d == 3888
    assert predict_l3l(3, 8, 1, "0").params.d == 3644
    assert predict_l3l(3, 8, 1, "1").params.d == 3645
    assert predict_l3l(3, 8, 1, "2").params.d == 3644  # d-hat = d when half m_l even
    assert predict_l3l(3, 8, 1, "base").spectrum.weights == {
        0: 1, 3888: 447720, 4320: 31084560, 4536: 11512800, 5832: 1640}


def test_predict_l3l_row_counts():
    # 4 / 9 / 9 / 19 distinct nonzero weights
    assert len(predict_l3l(3, 8, 1, "base").spectrum.weights) - 1 == 4
    assert len(predict_l3l(3, 8, 1, "0").spectrum.weights) - 1 == 9
    assert len(predict_l3l(3, 8, 1, "1").spectrum.weights) - 1 == 9
    assert len(predict_l3l(3, 8, 1, "2").spectrum.weights) - 1 == 19


# -- complete weight enumerator ----------------------------------------------------

def test_cwe_collapses_to_weight_enumerator_q2():
    ctx = gf.get_field(2, 4)
    dist = klapper.rank_distribution_monomial(2, 4, 1)
    res = cwe(ctx, CodeSpec(fam_of(2, 1, 4, 1), "base", shortened=True), dist)
    assert [(t.coeff, t.z0_exp, t.zrest_exp) for t in res.terms] == \
        [(1, 5, 0), (10, 3, 2), (5, 1, 4)]
    assert res.balanced_verified and res.brute_match


def test_cwe_f81_closed_form_exponents():
    from fractions import Fraction
    q, m, ell = 3, 4, 1
    dist = klapper.rank_distribution_monomial(q, m, ell)
    ctx = gf.get_field(3, 4)
    res = cwe(ctx, CodeSpec(fam_of(3, 1, 4, 1), "base", shortened=True), dist)
    assert res.balanced_verified and res.brute_match
    # oracle: the closed-form exponents, evaluated exactly (delta=1, D=4,
    # half m_l even so the leading sign is +)
    n, D, delta, half = 20, 4, 1, 2
    lead = Fraction((q - 1) * q ** (m - 1), D)
    a0 = n - lead * (1 + Fraction(q) ** (delta - half))
    a1 = Fraction(q ** (m - 1), D) * (1 + Fraction(q) ** (delta - half))
    ap0 = n - lead * (1 - Fraction(q) ** (-half))
    ap1 = Fraction(q ** (m - 1), D) * (1 - Fraction(q) ** (-half))
    terms = {(t.coeff, t.z0_exp, t.zrest_exp) for t in res.terms}
    assert (20, int(a0), int(a1)) in terms
    assert (60, int(ap0), int(ap1)) in terms


def test_cwe_over_budget_skips_the_brute_check():
    ctx = gf.get_field(2, 4)
    dist = klapper.rank_distribution_monomial(2, 4, 1)
    res = cwe(ctx, CodeSpec(fam_of(2, 1, 4, 1), "base", shortened=True), dist, budget=1)
    assert res.balanced_verified is None and res.brute_match is None
    assert [(t.coeff, t.z0_exp, t.zrest_exp) for t in res.terms] == \
        [(1, 5, 0), (10, 3, 2), (5, 1, 4)]


def test_cwe_unbalanced_impossible_on_grid():
    ctx = gf.get_field(2, 6)
    dist = klapper.rank_distribution_monomial(2, 6, 1)
    res = cwe(ctx, CodeSpec(fam_of(2, 1, 6, 1), "base", shortened=True), dist)
    assert res.balanced_verified


# -- reports and oracles ------------------------------------------------------------

def test_divisibility_reports():
    full = predict_monomial(2, 8, 1, "base").full_spectrum
    rep = divisibility_report(full, 2, 8, [8, 6], "base")
    assert rep["ok"] and rep["divisor"] == 8
    v1 = predict_monomial_long(2, 8, 1, "1").spectrum
    rep1 = divisibility_report(v1, 2, 8, [8, 6], "1")
    assert rep1["ok"] and rep1["divisor"] == 8
    empty = Spectrum(n=5, q=2, weights={0: 1})
    assert divisibility_report(empty, 2, 4, [4], "base")["ok"]


def test_dimension_oracle():
    assert dimension_oracle(2, 8, [1, 3]) == 16
    assert dimension_oracle(2, 8, [1, 3, 9]) == 24
    assert dimension_oracle(2, 8, [1]) == 8
    with pytest.raises(HypothesisError):
        dimension_oracle(2, 4, [3, 12])  # 12 lies in the coset of 3
    with pytest.raises(HypothesisError):
        dimension_oracle(2, 6, [9])  # coset size 3 != 6


def test_budget_gate():
    ctx = gf.get_field(2, 8)
    with pytest.raises(BudgetError):
        brute_spectrum(ctx, CodeSpec(fam_of(2, 1, 8, 1), "2"), budget=1000)


def test_spectrum_dim_rejects_non_powers():
    s = Spectrum(n=5, q=2, weights={0: 1, 2: 2})
    with pytest.raises(ValueError):
        s.dim()


def test_spectrum_dim_exact_for_huge_totals():
    assert Spectrum(n=1200, q=2, weights={0: 2 ** 1100}).dim() == 1100
    assert Spectrum(n=1200, q=3, weights={0: 1, 5: 3 ** 700 - 1}).dim() == 700
    with pytest.raises(ValueError):
        Spectrum(n=1200, q=2, weights={0: 2 ** 1100 + 1}).dim()


def test_l3l_cwe_composition_spotcheck():
    # sampled pair-family codewords over F_{3^8} have the balanced composition
    # (a_i, b_i, b_i) predicted for their rank class
    from qfcodes.spectra import cwe_predicted
    ctx = gf.get_field(3, 8)
    dist = klapper.rank_distribution_l3l(3, 8, 1)
    terms = {t.coeff: (t.z0_exp, t.zrest_exp) for t in cwe_predicted(3, 8, dist)}
    by_rank = {r: terms[c] for r, _, c in dist.counts}
    spec = CodeSpec(FamilySpec(3, 1, 8, (1, 3)), "base")
    rng = np.random.default_rng(31)
    for _ in range(12):
        g1, g2 = int(rng.integers(1, 6561)), int(rng.integers(0, 6561))
        prof = klapper.l3l_pair_profile_fast(ctx, 1, g1, g2)
        syms = build_codeword(ctx, spec, klapper.l3l_poly(ctx, 1, g1, g2))
        comp = np.bincount(syms, minlength=3)
        a, b = by_rank[prof.rank]
        assert tuple(comp) == (a, b, b)
