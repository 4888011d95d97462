import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from functools import lru_cache
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from qfcodes import gf, klapper, quadform, spectra
from qfcodes.klapper import HypothesisError
from qfcodes.linpoly import FamilySpec, LinearizedPoly, family_coeffs
from qfcodes.spectra import (BudgetError, CodeSpec, Spectrum, brute_spectrum,
                             build_codeword, cwe, predict_general,
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


def test_uneven_image_count_raises_under_optimize():
    # an A_0 that does not divide the word count is a raised error, not an
    # assert, so `python -O` keeps the check
    code = """
import numpy as np
from qfcodes import gf, spectra
from qfcodes.klapper import HypothesisError
from qfcodes.linpoly import FamilySpec
hist = np.zeros(16, dtype=np.int64)
hist[0], hist[8] = 3, 13  # 16 words, A_0 = 3
spectra._brute_chunk = lambda *args: (hist, {})
spec = spectra.CodeSpec(FamilySpec(2, 1, 4, (1,)))
try:
    spectra.brute_spectrum(gf.get_field(2, 4), spec)
except HypothesisError as exc:
    raise SystemExit(0 if "equally often" in str(exc) else 2)
raise SystemExit(1)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


KERNEL_FIELDS = [(2, 1, 4, (1,)), (3, 1, 4, (1,)), (2, 2, 4, (1,)), (5, 1, 2, (1,))]


def kernel_cases(fields):
    return ([(*f, v, False) for f in fields for v in spectra.VARIANTS]
            + [(*f, v, True) for f in fields for v in ("base", "0")])


# (5,1,2), an odd q >= 5 whose kernel counts are int8 (q^m = 25), comes after the
# two-exponent family, so that the earlier cases keep their ids
KERNEL_CASES = (kernel_cases(KERNEL_FIELDS[:3])
                + [(2, 1, 4, (1, 3), v, False) for v in spectra.VARIANTS]
                + kernel_cases(KERNEL_FIELDS[3:]))


@pytest.mark.parametrize("p,s,m,exponents,variant,shortened", KERNEL_CASES)
def test_block_kernel_matches_per_word_reference(monkeypatch, p, s, m, exponents, variant,
                                                 shortened):
    ctx = gf.get_field(p, s * m)
    spec = CodeSpec(FamilySpec(p, s, m, exponents), variant, shortened=shortened)
    # a cap this small gives the beta variants blocks of 7 forms (7 kernel tables
    # of q^m q cells), which do not divide the form count, so the last block is partial
    monkeypatch.setattr(gf, "BLOCK_CELLS", 7 * ctx.order * p ** s)
    hist_b0, hist_all, want_comps = _per_word_tally(p, s, m, exponents,
                                                    variant in ("1", "2"), shortened)
    want_hist = hist_all if variant in ("0", "2") else hist_b0
    hist, comps = spectra._brute_chunk(ctx, spec, True)
    assert np.array_equal(hist, want_hist) and Counter(comps) == want_comps
    hist, comps = spectra._brute_chunk(ctx, spec, False)
    assert np.array_equal(hist, want_hist) and comps == {}


def test_block_kernel_keeps_the_non_injective_span_count(monkeypatch):
    # span:1,3 at (2,1,4) hits each of its 16 codewords from 16 coefficient indices;
    # the spectrum counts codewords: k = 4, A_0 = 1
    monkeypatch.setattr(gf, "BLOCK_CELLS", 7 * 16 * 2)
    res = brute_spectrum(gf.get_field(2, 4), CodeSpec(FamilySpec(2, 1, 4, (1, 3)), "base"))
    assert res.params.k == 4
    assert res.spectrum.weights[0] == 1
    assert res.spectrum.total() == res.distinct_words == 16
    assert res.expected_words == 256


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
    powers = ctx.power_table(32)[ctx.exp[:n]]  # x^32 at x = alpha^k, the kernel's order
    tables = ctx.symbols(1).trace_sym[ctx.v_mul(gammas[:, None], powers[None, :])]
    H = quadform.value_histograms(ctx, 1, tables)
    orbit = np.array([1] + [30] * 32)[:, None]
    want = np.bincount((n - (H[:, :, 0] - 1)).ravel(),
                       weights=np.broadcast_to(orbit, H.shape[:2]).ravel(), minlength=n + 1)
    # tr(gamma x^32) = N(x) tr(gamma) vanishes for the 31 gammas of trace 0: each word
    # has 31 indices, and the spectrum counts words
    assert want[0] == 31 and not (want % 31).any()
    assert res.spectrum.weights == {w: int(c) // 31 for w, c in enumerate(want) if c}


def test_beta_brute_refuses_a_kernel_table_past_the_cap(monkeypatch):
    # a (2,1,4) kernel table holds 16 x 2 = 32 cells: the beta variants are refused
    # under a cap of 31 before the first block is enumerated, and run at 32
    ctx = gf.get_field(2, 4)
    blocks = []
    real = spectra.family_coeffs
    monkeypatch.setattr(spectra, "family_coeffs", lambda *a: blocks.append(a) or real(*a))
    monkeypatch.setattr(quadform, "HISTOGRAM_CELLS", 31)
    for variant in ("1", "2"):
        with pytest.raises(ValueError, match="32 histogram cells per table exceed 31"):
            brute_spectrum(ctx, CodeSpec(fam_of(2, 1, 4, 1), variant))
    assert blocks == []
    # the base/0 bincount path never builds a kernel table
    res = brute_spectrum(ctx, CodeSpec(fam_of(2, 1, 4, 1), "0", shortened=True))
    assert res.spectrum.weights == predict_monomial(2, 4, 1, "0").spectrum.weights
    monkeypatch.setattr(quadform, "HISTOGRAM_CELLS", 32)
    for variant in ("1", "2"):
        res = brute_spectrum(ctx, CodeSpec(fam_of(2, 1, 4, 1), variant))
        assert res.spectrum.weights == predict_monomial_long(2, 4, 1, variant).spectrum.weights


def test_beta_brute_working_set_at_5_4():
    # (5,1,4) variant 2: the beta blocks hold kernel tables in int16 counts
    ctx = gf.get_field(5, 4)
    spec = CodeSpec(fam_of(5, 1, 4, 1), "2")
    # the field's lazy tables, the kernel's among them
    build_codeword(ctx, spec, LinearizedPoly((1,), (1,), 1), beta=1)
    quadform.value_histograms(ctx, 1, np.zeros((1, ctx.mult_order), dtype=np.int8))
    tracemalloc.start()
    try:
        res = brute_spectrum(ctx, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert res.spectrum.weights == predict_monomial_long(5, 4, 1, "2").spectrum.weights


@pytest.mark.parametrize("p,m,exponents,variant,expected,distinct", [
    (2, 4, (1, 3), "base", 256, 16),
    (3, 4, (1, 2), "1", 531441, 59049),
])
def test_brute_non_injective(p, m, exponents, variant, expected, distinct):
    res = brute_spectrum(gf.get_field(p, m), CodeSpec(FamilySpec(p, 1, m, exponents), variant))
    assert res.injective is False
    assert res.expected_words == expected
    assert res.distinct_words == distinct
    # every word is hit expected // distinct times; the spectrum counts each once
    assert res.spectrum.weights[0] == 1
    assert res.spectrum.total() == distinct
    assert p ** res.params.k == distinct


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


@pytest.mark.parametrize("p,s,m,exponents,variant,shortened", [
    (2, 1, 8, (1,), "0", True),     # shortened, constant term only
    (2, 2, 4, (1,), "2", False),    # s = 2
    (3, 1, 4, (1, 3), "2", False),  # two-term forms, as in the l3l pair queries
])
def test_cached_form_word_is_safe_to_reuse(p, s, m, exponents, variant, shortened):
    # several (beta, b) draws per R, alternating two R's and two contexts of
    # one field; each word is scribbled on before the next one is built
    ctxs = [gf.FieldCtx(p, s * m), gf.FieldCtx(p, s * m)]
    spec = CodeSpec(FamilySpec(p, s, m, exponents), variant, shortened=shortened)
    q, order = p ** s, ctxs[0].order
    rng = np.random.default_rng(p * 1000 + s * 100 + m)
    Rs = [LinearizedPoly(exponents, tuple(int(c) for c in rng.integers(1, order, len(exponents))),
                         s) for _ in range(2)]
    with_beta, with_b = variant in ("1", "2"), variant in ("0", "2")
    for _ in range(2):
        for ctx in ctxs:
            for R in Rs:
                draws = [(0, 0)] + [(int(rng.integers(1, order)) if with_beta else 0,
                                     int(rng.integers(0, q)) if with_b else 0)
                                    for _ in range(4)] + [(0, 0)]
                for beta, b in draws:
                    word = build_codeword(ctx, spec, R, beta, b)
                    assert word.flags.writeable
                    assert np.array_equal(word, _codeword_by_power_tables(ctx, spec, R, beta, b))
                    word[:] = (word + 1) % q


def test_words_of_one_form_evaluate_its_terms_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return quadform.form_symbols(*args, **kwargs)

    monkeypatch.setattr(spectra, "form_symbols", counted)
    spectra._form_word.cache_clear()
    ctx = gf.get_field(3, 8)
    spec = CodeSpec(FamilySpec(3, 1, 8, (1, 3)), "2")
    R = klapper.l3l_poly(ctx, 1, 5, 7)
    for k in range(8):
        build_codeword(ctx, spec, R, beta=k * 37 % ctx.order, b_sym=k % 3)
    assert len(calls) == 1
    build_codeword(ctx, spec, klapper.l3l_poly(ctx, 1, 7, 5))
    assert len(calls) == 2


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
    dist = quadform.RankDistribution(q=2, m=4, counts=((0, 1, 1),))
    spec = predict_general(dist, "base")
    assert spec.weights == {0: 1}


def test_predict_general_rejects_odd_rank():
    dist = quadform.RankDistribution(q=2, m=4, counts=((3, 1, 15), (0, 1, 1)))
    with pytest.raises(HypothesisError):
        predict_general(dist, "base")


@pytest.mark.parametrize("row", [(0, -1, 1), (0, 1, 2)])
def test_predict_general_rank0_row_is_the_zero_form(row):
    # rank 0 is R = 0 alone, with type +1
    dist = quadform.RankDistribution(q=2, m=4, counts=((4, 1, 10), (2, -1, 5), row))
    with pytest.raises(HypothesisError, match="rank 0"):
        predict_general(dist, "base")


def reference_general(dist, variant):
    """predict_general's weights cell by cell: q^m - 1 - row[k] + [k = 0] for every
    column k read (all for variants 0 and 2, column 0 for base and 1) of every
    value_rows row read (all for variants 1 and 2, beta = 0's for base and 0)."""
    q, m = dist.q, dist.m
    weights = {}
    for r, e, cnt in dist.counts:
        table = quadform.value_rows(q, m, r, e)
        for row, c in table if variant in ("1", "2") else ((table[0][0], 1),):
            for k, v in enumerate(row if variant in ("0", "2") else row[:1]):
                w = q ** m - 1 - v + (k == 0)
                weights[w] = weights.get(w, 0) + cnt * c
    return weights


GENERAL_DISTS = ([(q, m, ell) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 43)
                  for m in range(2, 9, 2) for ell in range(1, m // 2)
                  if (m // gcd(m, ell)) % 2 == 0]
                 + [("l3l", p, m, ell) for p, m, ell in ((3, 8, 1), (5, 8, 1), (3, 10, 1))])


@pytest.mark.parametrize("case", GENERAL_DISTS, ids=str)
def test_predict_general_equals_the_cell_tally(case):
    # column 1 stands for every nonzero column: same weights, same key order
    if case[0] == "l3l":
        dist = klapper.rank_distribution_l3l(*case[1:])
    else:
        dist = klapper.rank_distribution_monomial(*case)
    for variant in spectra.VARIANTS:
        want = reference_general(dist, variant)
        assert list(predict_general(dist, variant).weights.items()) == list(want.items())


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


MONO_SWEEP = [(q, m, ell) for q in (2, 3, 4, 5, 9) for m in range(4, 15, 2)
              for ell in range(1, (m + 1) // 2) if (m // gcd(m, ell)) % 2 == 0]
L3L_SWEEP = [(p, m, ell) for p in (3, 5, 7, 11) for m in range(8, 27, 2)
             for ell in range(1, 4) if m > 6 * ell and (m // gcd(m, ell)) % 2 == 0]


def test_monomial_dimension_oracle():
    # k is read off the assembled table; the stated dimensions must come out
    for q, m, ell in MONO_SWEEP:
        for variant, k in (("base", m), ("0", m + 1)):
            assert predict_monomial(q, m, ell, variant).params.k == k, (q, m, ell, variant)
        for variant, k in (("1", 2 * m), ("2", 2 * m + 1)):
            assert predict_monomial_long(q, m, ell, variant).params.k == k, (q, m, ell, variant)


def test_l3l_dimension_oracle():
    for p, m, ell in L3L_SWEEP:
        for variant, k in (("base", 2 * m), ("0", 2 * m + 1), ("1", 3 * m), ("2", 3 * m + 1)):
            assert predict_l3l(p, m, ell, variant).params.k == k, (p, m, ell, variant)


@pytest.mark.parametrize("predictor,q,m,variant", [
    (predict_l3l, 3, 8, "0"), (predict_l3l, 3, 8, "2"),
    (predict_monomial, 3, 4, "base"), (predict_monomial, 3, 4, "0"),
    (predict_monomial_long, 3, 4, "1"), (predict_monomial_long, 3, 4, "2"),
], ids=["0", "2", "mono-base", "mono-0", "long-1", "long-2"])
def test_predict_l3l_distance_disagreement_raises(monkeypatch, predictor, q, m, variant):
    # every stated distance, the monomial ones too, is checked in spectra.predict:
    # one that misses the table minimum raises, and warns nothing
    monkeypatch.setattr(spectra, "eps_ell", lambda m, ell: -klapper.eps_ell(m, ell))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HypothesisError, match="disagrees with table minimum"):
            predictor(q, m, 1, variant)


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


def test_cwe_rejects_a_distribution_of_another_field():
    # the (2,1,4) distribution totals 16 forms; the (2,1,8,1) code has 256 words
    ctx = gf.get_field(2, 8)
    spec = CodeSpec(fam_of(2, 1, 8, 1), "base", shortened=True)
    with pytest.raises(ValueError, match=r"\(q, m\) = \(2, 4\), the code \(2, 8\)"):
        cwe(ctx, spec, klapper.rank_distribution_monomial(2, 4, 1), budget=0)
    res = cwe(ctx, spec, klapper.rank_distribution_monomial(2, 8, 1), budget=0)
    assert sum(t.coeff for t in res.terms) == 2 ** 8


def test_cwe_unbalanced_impossible_on_grid():
    ctx = gf.get_field(2, 6)
    dist = klapper.rank_distribution_monomial(2, 6, 1)
    res = cwe(ctx, CodeSpec(fam_of(2, 1, 6, 1), "base", shortened=True), dist)
    assert res.balanced_verified


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
    terms = {t.coeff: (t.z0_exp, t.zrest_exp) for t in cwe_predicted(dist)}
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
