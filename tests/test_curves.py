import itertools
import tracemalloc

import numpy as np
import pytest

from qfcodes import curves, gf, klapper
from qfcodes.curves import CurveSpec
from qfcodes.klapper import HypothesisError
from qfcodes.linalg import reduce_symmetric
from qfcodes.linpoly import LinearizedPoly


def curve(p, m, ell, gamma, beta=0):
    ctx = gf.get_field(p, m)
    return CurveSpec(ctx, LinearizedPoly((ell,), (gamma,), 1), beta)


def test_elliptic_examples_f16():
    c = curve(2, 4, 1, 1)
    assert curves.count_points(c) == 9
    assert curves.count_points_by_solutions(c) == 9
    assert curves.genus(c) == 1
    assert curves.hasse_weil(c) == (9, 25)
    assert curves.optimality_status(c).status == "minimal"
    ctx = c.ctx
    for beta in (1, ctx.alpha_pow(5), ctx.alpha_pow(10)):
        cb = curve(2, 4, 1, 1, beta)
        assert curves.count_points(cb) == 25
        assert curves.optimality_status(cb).status == "maximal"


def test_interior_curve():
    ctx = gf.get_field(2, 4)
    # gamma not a cube: rank 4, v=1 != 0 so no beta can be optimal
    c = curve(2, 4, 1, ctx.alpha)
    rep = curves.optimality_status(c)
    assert rep.status == "interior"
    assert rep.hw_lo < rep.points < rep.hw_hi


def test_degenerate_r0():
    ctx = gf.get_field(2, 4)
    zero = CurveSpec(ctx, LinearizedPoly((1,), (0,), 1), 0)
    assert curves.count_points(zero) == 2 ** 5 + 1
    with pytest.raises(HypothesisError):
        curves.genus(zero)


def test_genus_formula():
    assert curves.genus(curve(3, 8, 3, 1)) == 27  # deg R = 27
    assert curves.genus(curve(5, 4, 1, 1)) == 10  # deg R = 5


def test_hasse_weil_values():
    assert curves.hasse_weil(curve(3, 8, 3, 1)) == (2188, 10936)
    assert curves.hasse_weil(curve(2, 8, 1, 1)) == (225, 289)


def test_point_routes_agree_random():
    # one- and two-term R (a coefficient may be 0), beta = 0 included
    rng = np.random.default_rng(17)
    for p, m in ((3, 4), (2, 6), (79, 2)):
        ctx = gf.get_field(p, m)
        for i in range(15):
            g1, g2 = (int(v) for v in rng.integers(1, ctx.order, 2))
            beta = 0 if i == 0 else int(rng.integers(0, ctx.order))
            R = LinearizedPoly((1,), (g1,), 1) if i % 2 else \
                LinearizedPoly((0, 1), (g2 * (i % 3 != 0), g1), 1)
            spec = CurveSpec(ctx, R, beta)
            assert curves.count_points(spec) == curves.count_points_by_solutions(spec)


def test_scan_f16():
    scan = curves.scan_monomial(gf.get_field(2, 4), 1)
    by = scan.by_branch()
    assert {(s.n_minimal, s.n_maximal) for s in by["residue"]} == {(1, 3)}
    assert {(s.n_minimal, s.n_maximal) for s in by["nonresidue"]} == {(0, 0)}
    # residue class: point counts 9 once, 25 three times, 17 for the rest
    assert by["residue"][0].point_tally == {9: 1, 17: 12, 25: 3}


def test_scan_341():
    scan = curves.scan_monomial(gf.get_field(3, 4), 1)
    by = scan.by_branch()
    assert len(by["t0"]) == 20
    assert {(s.n_minimal, s.n_maximal) for s in by["t0"]} == {(1, 0)}
    assert {(s.n_minimal, s.n_maximal) for s in by["generic"]} == {(0, 0)}
    assert curves.optimal_beta_counts(3, 4, 1)[0] == 1


def test_scan_degenerate_rank0():
    # (3,2,1): the t = L/2 class collapses to the zero form; beta = 0 attains
    # the upper endpoint (a maximal genus-3 curve with 28 points over F_9)
    scan = curves.scan_monomial(gf.get_field(3, 2), 1)
    by = scan.by_branch()
    assert {tuple(sorted(s.point_tally.items())) for s in by["thalf"]} == \
        {((10, 8), (28, 1))}
    assert {(s.n_minimal, s.n_maximal) for s in by["thalf"]} == {(0, 1)}


def test_scan_custom_gammas():
    ctx = gf.get_field(3, 6)
    qual = [int(g) for g in ctx.exp[:8]]
    scan = curves.scan_monomial(ctx, 1, gammas=qual)
    assert len(scan.scans) == 8


def test_optimal_beta_count_values():
    assert curves.optimal_beta_counts(3, 6, 1) == (21, 33)
    assert curves.optimal_beta_counts(2, 4, 1) == (1, 3)
    with pytest.raises(HypothesisError):
        curves.optimal_beta_counts(3, 4, 3)


def test_witness_not_found_with_zero_budget():
    ctx = gf.get_field(3, 8)
    rep = curves.l3l_optimal_witness(ctx, 1, pair_budget=0)
    assert not rep.found and rep.pairs_checked == 0


def test_witness_full_search():
    ctx = gf.get_field(3, 8)
    rep = curves.l3l_optimal_witness(ctx, 1)
    assert rep.found
    assert rep.report.status == "minimal"
    assert rep.report.points == 2188 == rep.solution_count
    assert rep.report.hw_lo == 2188
    assert rep.observed_betas == rep.expected_betas == 1
    assert rep.report.genus == 27


def test_witness_beyond_the_old_sweep():
    # the q^m x q^m beta sweep would need a 59049 x 59048 matrix here
    rep = curves.l3l_optimal_witness(gf.get_field(3, 10), 1)
    assert rep.found
    assert rep.solution_count == rep.report.points
    assert rep.report.points in (rep.report.hw_lo, rep.report.hw_hi)
    assert rep.observed_betas == rep.expected_betas


def test_witness_traced_peak():
    ctx = gf.get_field(3, 8)
    ctx.symbols(1)
    tracemalloc.start()
    try:
        rep = curves.l3l_optimal_witness(ctx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.found
    assert peak < 64 * 2 ** 20


def test_witness_rejects_negative_budget():
    with pytest.raises(ValueError):
        curves.l3l_optimal_witness(gf.get_field(3, 8), 1, pair_budget=-5)


def test_scan_mismatch_names_gamma(monkeypatch):
    ctx = gf.get_field(3, 4)
    gamma = ctx.alpha_pow(7)
    monkeypatch.setattr(curves, "expected_point_multiset", lambda p, m, r, eps: {0: ctx.order})
    with pytest.raises(curves.CurveCountError, match=f"gamma={gamma} "):
        curves.scan_monomial(ctx, 1, gammas=[gamma])


def test_scan_checks_every_gamma(monkeypatch):
    # a disagreement on the last gamma of the last batch still raises
    ctx = gf.get_field(3, 6)
    gammas = [int(g) for g in ctx.exp[: ctx.mult_order]]
    real = curves.expected_point_multiset
    seen = []

    def spy(p, m, r, eps):
        seen.append((r, eps))
        return real(p, m, r, eps) if len(seen) < len(gammas) else {}

    monkeypatch.setattr(curves, "SCAN_CELLS", 3 ** 7 * 100)  # several batches
    monkeypatch.setattr(curves, "expected_point_multiset", spy)
    with pytest.raises(curves.CurveCountError, match=f"gamma={gammas[-1]} "):
        curves.scan_monomial(ctx, 1, gammas=gammas)
    assert len(seen) == len(gammas)


def test_witness_rejects_bad_parameters():
    with pytest.raises(HypothesisError):
        curves.l3l_optimal_witness(gf.get_field(3, 6), 1)  # m > 6l fails
    with pytest.raises(HypothesisError):
        curves.l3l_optimal_witness(gf.get_field(2, 8), 1)  # p must be odd


def test_batched_nullity_matches_scalar():
    rng = np.random.default_rng(23)
    for p in (3, 5):
        mats = rng.integers(0, p, size=(200, 6, 6))
        mats = (mats + mats.transpose(0, 2, 1)) % p
        out = 6 - reduce_symmetric(mats, p).rank
        vecs = np.array(list(itertools.product(range(p), repeat=6))).T
        for i in range(0, 200, 17):
            basis = reduce_symmetric(mats[i:i + 1], p, kernel=True).kernel()
            assert int(out[i]) == basis.shape[1]
            # the kernel has p^nullity vectors, counted exhaustively
            assert p ** int(out[i]) == int(((mats[i] @ vecs) % p == 0).all(axis=0).sum())


def test_curve_spec_validation():
    ctx = gf.get_field(2, 8)
    with pytest.raises(Exception):
        CurveSpec(ctx, LinearizedPoly((1,), (1,), 2), 0)  # s must be 1


def test_interior_is_strict_for_generic_class():
    # rank-m forms have v != (m-r)/2, so no beta is ever optimal
    scan = curves.scan_monomial(gf.get_field(3, 4), 1,
                                gammas=[gf.get_field(3, 4).alpha])
    s = scan.scans[0]
    assert s.classification.rank == 4
    assert (s.n_minimal, s.n_maximal) == (0, 0)


def test_dual_route_status_agreement_sweeps():
    # optimality_status cross-checks the endpoint route against the weight
    # class route internally; drive it across whole beta sweeps
    ctx = gf.get_field(2, 4)
    for g in ctx.exp[:15]:
        R = LinearizedPoly((1,), (int(g),), 1)
        for beta in range(16):
            curves.optimality_status(CurveSpec(ctx, R, beta))
    ctx81 = gf.get_field(3, 4)
    rng = np.random.default_rng(41)
    for _ in range(120):
        g = int(rng.integers(1, 81))
        beta = int(rng.integers(0, 81))
        curves.optimality_status(CurveSpec(ctx81, LinearizedPoly((1,), (g,), 1), beta))
