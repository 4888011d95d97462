import collections
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qfcodes import curves, gf, klapper, quadform
from qfcodes.curves import CurveSpec
from qfcodes.klapper import HypothesisError
from qfcodes.linalg import reduce_symmetric
from qfcodes.linpoly import LinearizedPoly
from qfcodes.quadform import QuadForm, QuadFormProfile
from qfcodes.verify import GRID

from element_order import count_points_element_order, lin_eval_table


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


def test_genus_needs_degree_prime_to_p():
    # p = 2, R = x: xR(x) + beta x = x^2 + beta x has even degree
    with pytest.raises(HypothesisError, match="prime to p"):
        curves.genus(curve(2, 4, 0, 1))


def test_optimal_betas_out_of_scope():
    with pytest.raises(HypothesisError, match="even extension degrees"):
        curves.optimal_betas(3, 3, 1, 2, 1)


def test_closed_form_checks_hold_under_optimize():
    # the checks are raised errors, not asserts, so `python -O` keeps them
    code = """
from qfcodes import curves, gf, spectra
from qfcodes.curves import CurveSpec
from qfcodes.klapper import HypothesisError
from qfcodes.linpoly import LinearizedPoly
calls = (lambda: curves.genus(CurveSpec(gf.get_field(2, 4), LinearizedPoly((0,), (1,), 1), 0)),
         lambda: curves.optimal_betas(3, 3, 1, 2, 1),
         lambda: spectra.weight_from_profile(3, 4, 3, 1, True, "major"))
for call in calls:
    try:
        call()
    except HypothesisError:
        continue
    raise SystemExit(1)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("p,s,m,ell", GRID)
def test_trace_zero_count_matches_form_table(p, s, m, ell):
    # count_points reads the zero symbols of form_symbols (x = 0 adding 1); an
    # element-indexed table from lin_eval_table must count the same
    ctx = gf.get_field(p, s * m)
    rng = np.random.default_rng(p * 1000 + s * 100 + m * 10 + ell)
    pairs = [(0, 0), (0, int(rng.integers(1, ctx.order)))]
    pairs += [(int(g), int(b) * (k % 2)) for k, (g, b) in
              enumerate(rng.integers(1, ctx.order, (10, 2)))]
    xs = np.arange(ctx.order, dtype=np.int64)
    tr = ctx.symbols(1).trace_sym
    for gamma, beta in pairs:
        spec = CurveSpec(ctx, LinearizedPoly((ell,), (gamma,), 1), beta)
        values = ctx.v_add(ctx.v_mul(xs, lin_eval_table(ctx, spec.R)),
                           ctx.v_mul(np.full(ctx.order, beta, dtype=np.int64), xs))
        assert curves.count_points(spec) == 1 + p * np.count_nonzero(tr[values] == 0)


def test_hasse_weil_values():
    assert curves.hasse_weil(curve(3, 8, 3, 1)) == (2188, 10936)
    assert curves.hasse_weil(curve(2, 8, 1, 1)) == (225, 289)


def _assert_point_routes_agree(spec):
    # the trace count, the (x, y) recount over x = alpha^k and the element-order
    # formula x (lin_eval_table(R) + beta)
    want = count_points_element_order(spec.ctx, spec.R, spec.beta)
    assert curves.count_points(spec) == want, spec
    assert curves.count_points_by_solutions(spec) == want, spec


def test_point_routes_agree_random():
    # one- and two-term R (a coefficient may be 0), beta = 0 and R = 0 included, on
    # every field of the benchmark's curve point set and two of characteristic 2
    rng = np.random.default_rng(17)
    fields = ((3, 4), (2, 6), (79, 2), (17, 2), (23, 2), (31, 2), (37, 2), (43, 2), (7, 4),
              (53, 2), (59, 2), (61, 2), (67, 2), (71, 2), (73, 2), (3, 8), (2, 8))
    for p, m in fields:
        ctx = gf.get_field(p, m)
        for i in range(15):
            g1, g2 = (int(v) for v in rng.integers(1, ctx.order, 2))
            beta = 0 if i == 0 else int(rng.integers(0, ctx.order))
            R = LinearizedPoly((1,), (g1,), 1) if i % 2 else \
                LinearizedPoly((0, 1), (g2 * (i % 3 != 0), g1), 1)
            _assert_point_routes_agree(CurveSpec(ctx, R, beta))
        zero = LinearizedPoly((1,), (0,), 1)
        _assert_point_routes_agree(CurveSpec(ctx, zero, int(rng.integers(1, ctx.order))))
        # one gamma per power class (gamma and gamma c^{p+1} share one), each with
        # beta = 0, a random beta and the first beta at each Hasse-Weil endpoint it reaches
        reps = {}
        for j in range(p + 1):
            g = ctx.alpha_pow(j)
            reps.setdefault(klapper.classify_monomial(ctx, 1, m, g, 1).branch, g)
        lo, hi = curves.hasse_weil(curve(p, m, 1, 1))
        reached = set()
        for g in reps.values():
            R = LinearizedPoly((1,), (g,), 1)
            points = 1 + p * QuadForm(ctx, 1, m, R).histogram[:, 0]
            ends = [int(np.argmax(points == end)) for end in (lo, hi) if (points == end).any()]
            reached |= {int(points[b]) for b in ends}
            for beta in [0, int(rng.integers(1, ctx.order))] + ends:
                _assert_point_routes_agree(CurveSpec(ctx, R, beta))
        assert reached, (p, m)  # every one of these fields has an optimal monomial curve
    # the two-term witness pair R = x^3 + x^27 at (3,8,1): its optimal beta and four others
    wit = curves.l3l_optimal_witness(gf.get_field(3, 8), 1)
    for beta in [wit.beta] + rng.integers(0, 3 ** 8, 4).tolist():
        _assert_point_routes_agree(CurveSpec(wit.curve.ctx, wit.curve.R, beta))


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
    assert curves.optimal_betas(3, 4, 1, 2, -1) == (1, 0)


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
    # the type decides the endpoint for odd p; p = 2 reaches both
    assert curves.optimal_betas(3, 6, 1, 4, -1) == (21, 0)
    assert curves.optimal_betas(3, 6, 1, 4, 1) == (0, 33)
    assert curves.optimal_betas(2, 4, 1, 2, 1) == (1, 3)
    with pytest.raises(HypothesisError):
        curves.optimal_betas(3, 5, 1, 4, 1)


@pytest.mark.parametrize("p,m,ell", [(2, 4, 1), (3, 4, 1), (3, 6, 1), (5, 4, 1),
                                     (3, 2, 1), (3, 4, 2), (5, 2, 3)])
def test_optimal_betas_match_every_scan(p, m, ell):
    # (3,2,1), (3,4,2) and (5,2,3) have l >= m/2: rank 0 forms, or none at an endpoint
    for s in curves.scan_monomial(gf.get_field(p, m), ell).scans:
        cls = s.classification
        assert (s.n_minimal, s.n_maximal) == curves.optimal_betas(p, m, ell, cls.rank, cls.type)


def test_optimality_status_checks_the_type():
    # a t0 gamma at (3,4,1) has rank 2 and type -1: one beta reaches the lower endpoint
    ctx = gf.get_field(3, 4)
    scan = curves.scan_monomial(ctx, 1)
    gamma = next(s.gamma for s in scan.scans if s.classification.branch == "t0")
    R = LinearizedPoly((1,), (gamma,), 1)
    points = 1 + 3 * QuadForm(ctx, 1, 4, R).histogram[:, 0]
    spec = CurveSpec(ctx, R, int(np.flatnonzero(points == 28)[0]))
    assert curves.optimality_status(spec).status == "minimal"
    assert curves.optimality_status(spec, QuadFormProfile(2, -1)).status == "minimal"
    with pytest.raises(curves.CurveCountError, match="no beta reaches it"):
        curves.optimality_status(spec, QuadFormProfile(2, 1))


def test_interior_curve_is_not_profiled(monkeypatch):
    def no_profile(Q):
        raise AssertionError("an interior curve was profiled")

    monkeypatch.setattr(curves, "qf_profile", no_profile)
    for p, m, ell, gamma, beta in ((2, 4, 1, 2, 0), (3, 4, 1, 2, 5), (2, 6, 2, 1, 0)):
        rep = curves.optimality_status(curve(p, m, ell, gamma, beta))
        assert rep.status == "interior"
    with pytest.raises(AssertionError, match="profiled"):  # an endpoint still is
        curves.optimality_status(curve(2, 4, 1, 1))


def test_witness_not_found_with_zero_budget():
    ctx = gf.get_field(3, 8)
    rep = curves.l3l_optimal_witness(ctx, 1, pair_budget=0)
    assert not rep.found and rep.pairs_checked == 0


def test_witness_skips_the_monomial_row():
    # g1 = 0 leaves a monomial, never of rank m - 6l: the search starts at g1 = 1,
    # so two pairs reach the witness (1, 1)
    ctx = gf.get_field(3, 8)
    rep = curves.l3l_optimal_witness(ctx, 1, pair_budget=2)
    assert rep.found and rep.pairs_checked == 2
    assert (rep.gamma1, rep.gamma2, rep.beta) == (1, 1, 0)


def test_witness_full_search():
    ctx = gf.get_field(3, 8)
    rep = curves.l3l_optimal_witness(ctx, 1)
    assert rep.found and rep.pairs_checked == ctx.order
    assert rep.report.status == "minimal"
    assert rep.report.points == 2188 == rep.solution_count
    assert rep.report.hw_lo == 2188
    assert rep.observed_betas == rep.expected_betas == 1
    assert rep.report.genus == 27


@pytest.mark.slow
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
    # a wrong prediction for the class of the last gamma raises at that class's first
    # gamma, over several batches; each class is predicted a bounded number of times,
    # not once per gamma
    ctx = gf.get_field(3, 6)
    gammas = [int(g) for g in ctx.exp[: ctx.mult_order]]
    classes = [klapper.classify_monomial(ctx, 1, 6, g, 1) for g in gammas]
    bad = classes[-1].rank, classes[-1].type
    first = next(g for g, c in zip(gammas, classes) if (c.rank, c.type) == bad)
    real = curves.expected_point_multiset
    seen = []

    def spy(p, m, r, eps):
        seen.append((r, eps))
        points = dict(real(p, m, r, eps))
        if (r, eps) == bad:  # move one beta to the next count, keeping the total
            lo = min(points)
            points[lo] -= 1
            points[lo + p] = points.get(lo + p, 0) + 1
        return points

    monkeypatch.setattr(gf, "BLOCK_CELLS", 3 ** 7 * 100)  # several batches
    monkeypatch.setattr(curves, "expected_point_multiset", spy)
    with pytest.raises(curves.CurveCountError, match=f"^gamma={first} "):
        curves.scan_monomial(ctx, 1, gammas=gammas)
    assert 0 < max(collections.Counter(seen).values()) <= 2


@pytest.mark.parametrize("p,m", [(3, 6), (5, 4)])
def test_scan_records_share_their_class_prediction(p, m):
    scan = curves.scan_monomial(gf.get_field(p, m), 1)
    classes = {(s.classification.rank, s.classification.type) for s in scan.scans}
    assert len({id(s.point_tally) for s in scan.scans}) == len(classes)


def test_scan_report_retains_little():
    # the 728 records of the (3,6,1) scan share their two classes' tallies
    ctx = gf.get_field(3, 6)
    curves.scan_monomial(ctx, 1, gammas=[1])  # the field's lazy tables
    tracemalloc.start()
    try:
        scan = curves.scan_monomial(ctx, 1)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(scan.scans) == ctx.mult_order
    assert retained < 384 * 2 ** 10


def fault_histograms(monkeypatch, faults):
    """Make value_histograms add 1 to cell (beta, c = 0) of the gammas at the given
    positions of the scan, counting rows across batches."""
    real = curves.value_histograms
    seen = [0]

    def faulty(ctx, s, f):
        H = real(ctx, s, f)
        for pos, beta in faults:
            if seen[0] <= pos < seen[0] + len(f):
                H[pos - seen[0], beta, 0] += 1
        seen[0] += len(f)
        return H

    monkeypatch.setattr(curves, "value_histograms", faulty)


def test_scan_observed_fault_names_last_gamma(monkeypatch):
    # one wrong histogram cell on the last gamma of the last batch still raises
    ctx = gf.get_field(3, 6)
    gammas = [int(g) for g in ctx.exp[: ctx.mult_order]]
    monkeypatch.setattr(gf, "BLOCK_CELLS", 3 ** 7 * 100)  # several batches
    fault_histograms(monkeypatch, [(len(gammas) - 1, 17)])
    with pytest.raises(curves.CurveCountError, match=f"^gamma={gammas[-1]} "):
        curves.scan_monomial(ctx, 1, gammas=gammas)


def test_scan_observed_faults_name_first_gamma(monkeypatch):
    # two faulty gammas in one batch: the scan names the earlier one
    ctx = gf.get_field(5, 4)
    gammas = [int(g) for g in ctx.exp[: ctx.mult_order]]
    fault_histograms(monkeypatch, [(40, 0), (9, ctx.order - 1)])
    with pytest.raises(curves.CurveCountError, match=f"^gamma={gammas[9]} "):
        curves.scan_monomial(ctx, 1, gammas=gammas)


@pytest.mark.parametrize("p,m,ell", [(2, 4, 1), (3, 4, 1), (2, 6, 1), (5, 4, 1), (3, 6, 1)])
def test_scan_tallies_match_per_gamma_histograms(monkeypatch, p, m, ell):
    # the batched check against a per-gamma tally of each gamma's own histogram
    ctx = gf.get_field(p, m)
    monkeypatch.setattr(gf, "BLOCK_CELLS", ctx.order * p * 7)  # batches of 7
    scan = curves.scan_monomial(ctx, ell)
    assert [s.gamma for s in scan.scans] == [int(g) for g in ctx.exp[: ctx.mult_order]]
    lo, hi = curves.hasse_weil(curve(p, m, ell, 1))
    for s in scan.scans:
        Q = QuadForm(ctx, 1, m, LinearizedPoly((ell,), (s.gamma,), 1))
        tally = quadform.frequencies(1 + p * Q.histogram[:, 0])
        assert s.point_tally == tally
        assert list(s.point_tally) == sorted(tally)
        assert (s.n_minimal, s.n_maximal) == (tally.get(lo, 0), tally.get(hi, 0))


def test_scan_compact_counts_at_43_2(monkeypatch):
    # q^m = 1849 counts in int16, while a thalf gamma (the zero form) reaches
    # #C = 1 + 43 * 1849 = 79508 at beta = 0, past int16: a seeded subset of gammas
    # from both branches against a per-gamma tally of each gamma's own histogram
    ctx = gf.get_field(43, 2)
    by_branch = {}
    for g in ctx.exp[: ctx.mult_order].tolist():
        by_branch.setdefault(klapper.classify_monomial(ctx, 1, 2, g, 1).branch, []).append(g)
    assert sorted(by_branch) == ["generic", "thalf"]
    rng = np.random.default_rng(4302)
    gammas = sorted(int(g) for gs in by_branch.values() for g in rng.choice(gs, 6, replace=False))
    real = curves.value_histograms
    dtypes = []

    def spy(ctx, s, f):
        H = real(ctx, s, f)
        dtypes.append(H.dtype)
        return H

    monkeypatch.setattr(curves, "value_histograms", spy)
    monkeypatch.setattr(gf, "BLOCK_CELLS", ctx.order * 43 * 5)  # batches of 5
    scan = curves.scan_monomial(ctx, 1, gammas=gammas)
    assert dtypes == [np.int16] * 3
    assert [s.gamma for s in scan.scans] == gammas
    for s in scan.scans:
        Q = QuadForm(ctx, 1, 2, LinearizedPoly((1,), (s.gamma,), 1))
        assert s.point_tally == quadform.frequencies(1 + 43 * Q.histogram[:, 0])
    assert max(max(s.point_tally) for s in scan.scans) == 1 + 43 * 1849


@pytest.mark.parametrize("p,m", [(5, 4), (3, 6)])
def test_scan_working_set_is_bounded(p, m):
    # a batch holds three compact-count buffers, not an int64 bincount and int64 counts
    ctx = gf.get_field(p, m)
    curves.scan_monomial(ctx, 1, gammas=[1])  # the field's lazy tables
    tracemalloc.start()
    try:
        scan = curves.scan_monomial(ctx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan.scans) == ctx.mult_order
    assert peak < 8 * 2 ** 20


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
    # optimality_status checks every endpoint count against optimal_betas
    # of the form's profile; drive it across whole beta sweeps
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
