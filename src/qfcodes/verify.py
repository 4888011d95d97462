"""The acceptance grid: every check the package promises, as one runnable suite.

Each criterion returns a CriterionResult with JSON-able details and its
elapsed time; run_all executes the grid twice and adds a byte-identity
determinism criterion over the canonical JSON (timings are reported in the
text log only, never in the JSON).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import curves, klapper, linalg, quadform, spectra
from .gf import block_rows, get_field
from .linpoly import FamilySpec, LinearizedPoly
from .quadform import QuadForm
from .spectra import CodeSpec, DEFAULT_BUDGET

GRID = ((2, 1, 4, 1), (2, 1, 6, 1), (2, 1, 8, 1), (2, 1, 8, 2),
        (3, 1, 4, 1), (2, 2, 4, 1), (5, 1, 4, 1))  # (p, s, m, ell)

SAMPLE_SEED = 0x5EED_C0DE


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    mode: str = "full"            # full / sampled / skipped
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0
    time_limit: float | None = None

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        mode = "" if self.mode == "full" else f" [{self.mode}]"
        return f"{mark} {self.cid:2d} {self.name}{mode} ({self.elapsed:.2f}s)"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _spec_items(spec: spectra.Spectrum) -> list[list[int]]:
    return [[int(w), int(a)] for w, a in spec.sorted_items()]


def _timed(cid, name, limit, fn) -> CriterionResult:
    t0 = time.monotonic()
    try:
        passed, mode, details = fn()
    except spectra.BudgetError as exc:
        return CriterionResult(cid, name, False, "skipped",
                               {"budget_exceeded": str(exc)},
                               time.monotonic() - t0, limit)
    except Exception as exc:  # a raised check is a failed criterion, not a crash
        return CriterionResult(cid, name, False, "full",
                               {"error": f"{type(exc).__name__}: {exc}"},
                               time.monotonic() - t0, limit)
    elapsed = time.monotonic() - t0
    if limit is not None and elapsed > limit:
        passed = False
        details["time_limit_exceeded"] = True
    return CriterionResult(cid, name, passed, mode, _jsonable(details), elapsed, limit)


# -- criteria -------------------------------------------------------------------

def criterion_1(budget: int) -> CriterionResult:
    def run():
        ctx = get_field(2, 8)
        fam = FamilySpec(2, 1, 8, (1,))
        details, ok = {}, True
        for variant, want in (("base", [85, 8, 40]), ("0", [85, 9, 37])):
            pred = spectra.predict_monomial(2, 8, 1, variant)
            res = spectra.brute_spectrum(ctx, CodeSpec(fam, variant, shortened=True), budget)
            match = (pred.spectrum.weights == res.spectrum.weights
                     and pred.params.as_list() == want == res.params.as_list())
            ok &= match and res.injective
            details[f"variant_{variant}"] = {"params": res.params.as_list(), "match": match}
        pred_full = spectra.predict_monomial(2, 8, 1, "base").full_spectrum
        res_full = spectra.brute_spectrum(ctx, CodeSpec(fam, "base"), budget)
        full_ok = (pred_full.weights == res_full.spectrum.weights ==
                   {0: 1, 120: 170, 144: 85})
        ok &= full_ok
        details["full_length"] = {"spectrum": _spec_items(res_full.spectrum),
                                  "match": full_ok,
                                  "note": "printed enumerator weights are full-length "
                                          "(3x the shortened weights)"}
        return ok, "full", details
    return _timed(1, "shortened codes at (2,8,1): [85,8,40] and [85,9,37]", 1.0, run)


def criterion_2(budget: int) -> CriterionResult:
    def run():
        ctx = get_field(2, 8)
        fam = FamilySpec(2, 1, 8, (1,))
        want1 = {0: 1, 112: 3060, 120: 23120, 128: 16575, 136: 20400, 144: 2380}
        details, ok = {}, True
        for variant, want_params, want in (("1", [255, 16, 112], want1),
                                           ("2", [255, 17, 111], None)):
            pred = spectra.predict_monomial_long(2, 8, 1, variant)
            res = spectra.brute_spectrum(ctx, CodeSpec(fam, variant), budget)
            match = pred.spectrum.weights == res.spectrum.weights
            if want:
                match &= res.spectrum.weights == want
            match &= pred.params.as_list() == want_params == res.params.as_list()
            ok &= match and res.injective
            details[f"variant_{variant}"] = {"params": res.params.as_list(),
                                             "weights": len(res.spectrum.weights) - 1,
                                             "match": match}
        return ok, "full", details
    return _timed(2, "full-length codes at (2,8,1): [255,16,112] and [255,17,111]", 10.0, run)


def criterion_3(budget: int) -> CriterionResult:
    def run():
        details, ok = {}, True
        for (p, s, m, ell) in GRID:
            ctx = get_field(p, s * m)
            q = p ** s
            fam = FamilySpec(p, s, m, (ell,))
            point = {}
            for variant in spectra.VARIANTS:
                shortened = variant in ("base", "0")
                predict = spectra.predict_monomial if shortened else spectra.predict_monomial_long
                pred = predict(q, m, ell, variant)
                res = spectra.brute_spectrum(ctx, CodeSpec(fam, variant, shortened=shortened),
                                             budget)
                match = (pred.spectrum.weights == res.spectrum.weights
                         and pred.params.as_list() == res.params.as_list()
                         and res.injective)
                ok &= match
                point[variant] = match
            details[f"q{q}m{m}l{ell}"] = point
        return ok, "full", details
    return _timed(3, "brute = predicted spectra on the whole grid, all variants", 300.0, run)


def criterion_4(budget: int) -> CriterionResult:
    def run():
        details, ok = {}, True
        for (p, s, m, ell) in GRID:
            ctx = get_field(p, s * m)
            gammas = ctx.exp[: ctx.mult_order]
            ranks, types = quadform.form_profiles(ctx, s, gammas[:, None], (ell,))
            bad = []
            for g, r, t in zip(gammas.tolist(), ranks.tolist(), types.tolist()):
                cls = klapper.classify_monomial(ctx, s, m, g, ell)
                if (cls.rank, cls.type) != (r, t):
                    bad.append(g)
            ok &= not bad
            details[f"q{p**s}m{m}l{ell}"] = {"gammas": int(ctx.mult_order), "mismatches": bad}
        return ok, "full", details
    return _timed(4, "closed-form classification agrees with radical/type everywhere", 60.0, run)


def _branch_representatives(ctx, s, m, ell) -> dict[str, int]:
    reps: dict[str, int] = {}
    for g in ctx.exp[: ctx.mult_order]:
        cls = klapper.classify_monomial(ctx, s, m, int(g), ell)
        if cls.branch not in reps:
            reps[cls.branch] = int(g)
    return reps


def criterion_5(budget: int) -> CriterionResult:
    def run():
        details, ok = {}, True
        for (p, s, m, ell) in GRID:
            ctx = get_field(p, s * m)
            q = p ** s
            point = {}
            for branch, g in _branch_representatives(ctx, s, m, ell).items():
                Q = QuadForm(ctx, s, m, LinearizedPoly((ell,), (g,), s))
                rep = quadform.verify_sum_distribution(Q)
                l21 = True
                for xi_sym in range(q):
                    obs = quadform.n_distribution(Q, xi_sym)
                    exp = quadform.expected_count_distribution(q, m, rep.rank, rep.type,
                                                    xi_is_zero=(xi_sym == 0))
                    l21 &= obs == exp
                ok &= rep.ok and l21
                point[branch] = {"sum_table": rep.ok, "count_table": l21}
            details[f"q{q}m{m}l{ell}"] = point
        return ok, "full", details
    return _timed(5, "beta-sweep sum/count distributions match the closed forms", 120.0, run)


def criterion_6(budget: int) -> CriterionResult:
    p, m, ell = 3, 8, 1

    def run():
        ctx = get_field(p, m)
        fs = klapper.l3l_constants(p, m, ell)
        details: dict = {"closed_form": list(fs)}
        sweep_work = (ctx.order ** 2) * 3  # rough scale of the per-pair check
        mode = "full"
        if sweep_work > budget:
            mode = "sampled"
            details["note"] = "budget below the exhaustive sweep; ran sampled checks only"
        else:
            profiles = klapper.tally_l3l_profiles(ctx, ell)
            tally = {}  # the rank marginal
            for r, _, c in profiles.counts:
                tally[r] = tally.get(r, 0) + c
            expected = {m - 2 * j: fs[j] for j in range(4)} | {0: 1}
            details["tally"] = {str(k): v for k, v in sorted(tally.items())}
            if tally != expected:
                return False, mode, details
            # fast profile route must agree with the general quadform route
            rng = np.random.default_rng(SAMPLE_SEED)
            routes_ok = True
            for _ in range(40):
                g1, g2 = int(rng.integers(1, ctx.order)), int(rng.integers(0, ctx.order))
                fast = klapper.l3l_pair_profile_fast(ctx, ell, g1, g2)
                full = klapper.l3l_pair_profile(ctx, ell, g1, g2)
                routes_ok &= (fast.rank, fast.type) == (full.rank, full.type)
            details["profile_routes_agree"] = routes_ok
            # every pair's type, exhaustively: rank m - 2jd carries (-1)^j eps_l
            type_ok = routes_ok and profiles == klapper.rank_distribution_l3l(p, m, ell)
            details["types_per_rank"] = type_ok
            if not type_ok:
                return False, mode, details

        # frequency-sum identities for all four variants
        dims_ok = True
        for variant, kk in (("base", 2 * m), ("0", 2 * m + 1), ("1", 3 * m), ("2", 3 * m + 1)):
            pred = spectra.predict_l3l(p, m, ell, variant)
            dims_ok &= pred.spectrum.dim() == kk == pred.params.k
        details["dimension_sums"] = dims_ok

        # sampled codewords vs their bordered forms' weights: 2100 random forms,
        # 5 (beta, b) draws each (scaled down when the budget is tight)
        n_pairs = 2100 if mode == "full" else \
            max(40, min(2100, budget // (5 * ctx.order)))
        rng = np.random.default_rng(SAMPLE_SEED)
        pairs, draws = [], []
        for _ in range(n_pairs):
            g1, g2 = int(rng.integers(0, ctx.order)), int(rng.integers(1, ctx.order))
            pairs.append((g2, g1))
            draws.append([(0, 0)] + [(int(rng.integers(0, ctx.order)), int(rng.integers(0, p)))
                                     for _ in range(4)])
        pairs, draws = np.array(pairs), np.array(draws)
        weights = _sampled_weights(ctx, ell, pairs, draws)
        samples_ok = np.array_equal(weights, _bordered_weights(ctx, ell, pairs, draws))
        details["sampled_codewords"] = {"count": weights.size, "ok": samples_ok}
        return dims_ok and samples_ok, mode, details
    return _timed(6, "exhaustive 3^16 rank tally equals the closed-form multiplicities",
                  900.0, run)


def _sampled_weights(ctx, ell: int, pairs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Weights of the words tr(Q(x) + beta x) + b over x = alpha^k: Q of R = g2 x^{p^l} +
    g1 x^{p^{3l}} per (g2, g1) row of pairs, one (beta, b) draw per column of draws.
    tr(beta alpha^k) = tr(alpha^{log beta + k}), so each beta's row is a slice of trace_pow."""
    sy, exps = ctx.symbols(1), (ctx.p ** ell + 1, ctx.p ** (3 * ell) + 1)
    slices = np.lib.stride_tricks.sliding_window_view(sy.trace_pow, ctx.mult_order)
    weights = np.empty(draws.shape[:2], dtype=np.int64)
    block = block_rows(draws.shape[1] * ctx.mult_order)
    for lo in range(0, len(pairs), block):
        logs, b = ctx.log[draws[lo: lo + block, :, 0]], draws[lo: lo + block, :, 1:]
        base = quadform.form_symbols(ctx, 1, pairs[lo: lo + block], exps)
        traces = slices[logs]
        traces[logs < 0] = 0  # beta = 0
        words = sy.plus(base[:, None, :], traces)
        weights[lo: lo + block] = np.count_nonzero(words != sy.neg[b], axis=2)  # word + b != 0
    return weights


def _bordered_weights(ctx, ell: int, pairs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The same weights from F(x, z) = Q(x) + tr(beta x) z + b z^2 on F_p^{m+1}, p odd.

    F(zx, z) = z^2 (Q(x) + tr(beta x) + b), so the word has N = (N_F(0) - N_Q(0)) / (p-1)
    zeros over all x (x = 0 when b = 0), where a form of rank r on F_p^n has
    N(0) = p^{n-1} + [r even] eta (p-1) p^{n-1-r/2}: one reduction of the F Grams.
    """
    p, m, ls = ctx.p, ctx.n, (ell, 3 * ell)
    ranks, types = quadform.form_profiles(ctx, 1, pairs, ls, count=False)
    n_q = p ** (m - 1) + types * (p - 1) * p ** (m - 1 - ranks // 2)
    logs = ctx.log[draws[:, :, 0].reshape(-1, 1)]
    grams = np.zeros((len(logs), m + 1, m + 1), dtype=np.int64)
    grams[:, :m, :m] = np.repeat(quadform.form_grams(ctx, 1, pairs, ls), draws.shape[1], axis=0)
    grams[:, :m, m] = grams[:, m, :m] = \
        ctx.symbols(1).trace_pow[logs + ctx.log[ctx.pvec]] * (logs >= 0)  # tr(beta t^a)
    grams[:, m, m] = 2 * draws[:, :, 1].ravel()
    red = linalg.reduce_symmetric(grams, p)
    n_f = p ** m + np.where(red.rank % 2, 0, red.etas() * (p - 1) * p ** (m - red.rank // 2))
    zeros = (n_f.reshape(draws.shape[:2]) - n_q[:, None]) // (p - 1)
    return p ** m - 1 - zeros + (draws[:, :, 1] == 0)


def criterion_7(budget: int) -> CriterionResult:
    def run():
        details, ok = {}, True
        for (p, s, m, ell) in GRID:
            ctx = get_field(p, s * m)
            q = p ** s
            gcd_ok = klapper.gcd_identity(q, m, ell)
            M, Mp = klapper.m_counts(q, m, ell)
            xs = ctx.exp[: ctx.mult_order]
            n_powers = len(np.unique(ctx.power_table(q ** ell + 1)[xs]))
            L = q ** gcd(m, ell) + 1
            res_count = int(np.count_nonzero(
                ctx.power_table(ctx.mult_order // L)[xs] == 1))
            point_ok = gcd_ok and n_powers == M and res_count == M and M + Mp == q ** m - 1
            if p != 2:
                neg_count = int(np.count_nonzero(
                    ctx.power_table(ctx.mult_order // L)[xs] == ctx.neg(1)))
                point_ok &= neg_count == M
            ok &= point_ok
            details[f"q{q}m{m}l{ell}"] = {"M": M, "ok": point_ok}
        return ok, "full", details
    return _timed(7, "gcd and power-class counting identities on the grid", 60.0, run)


def criterion_8(budget: int) -> CriterionResult:
    def run():
        ctx = get_field(2, 4)
        R = LinearizedPoly((1,), (1,), 1)
        details, ok = {}, True
        base = curves.CurveSpec(ctx, R, 0)
        ok &= curves.count_points(base) == 9
        ok &= curves.optimality_status(base).status == "minimal"
        maximal_pts = []
        for beta in (1, ctx.alpha_pow(5), ctx.alpha_pow(10)):
            spec = curves.CurveSpec(ctx, R, beta)
            maximal_pts.append(curves.count_points(spec))
            ok &= curves.optimality_status(spec).status == "maximal"
        ok &= maximal_pts == [25, 25, 25]
        details["plain_cubic"] = 9
        details["with_linear_term"] = maximal_pts
        cubes = curves.scan_monomial(ctx, 1).by_branch()["residue"]
        per_gamma = {(s.n_minimal, s.n_maximal) for s in cubes}
        ok &= per_gamma == {(1, 3)}
        details["beta_sweep_per_cube"] = {"minimal": 1, "maximal": 3, "ok": per_gamma == {(1, 3)}}
        return ok, "full", details
    return _timed(8, "the elliptic examples over F_16: 9 points minimal, 25 maximal", 1.0, run)


def criterion_9(budget: int) -> CriterionResult:
    def run():
        details, ok = {}, True
        for (p, m, ell) in ((3, 4, 1), (3, 2, 1), (2, 4, 1), (2, 6, 1)):
            ctx = get_field(p, m)
            scan = curves.scan_monomial(ctx, ell)  # raises on any multiset mismatch
            details[f"p{p}m{m}l{ell}"] = sorted(scan.by_branch())
        return ok, "full", details
    return _timed(9, "point-count multisets of full beta sweeps, all six classes", 60.0, run)


def criterion_10(budget: int) -> CriterionResult:
    def run():
        t0 = curves.scan_monomial(get_field(3, 4), 1).by_branch()["t0"]
        ok4 = {(s.n_minimal, s.n_maximal) for s in t0} == {(1, 0)}
        qual = curves.scan_monomial(get_field(3, 6), 1).by_branch()["thalf"]
        ok6 = {(s.n_minimal, s.n_maximal) for s in qual} == {(0, 33)}
        return ok4 and ok6, "full", {
            "p3m4": {"qualifying_gammas": len(t0), "minimal_each": 1, "ok": ok4},
            "p3m6": {"qualifying_gammas": len(qual), "maximal_each": 33, "ok": ok6}}
    return _timed(10, "optimal-beta counts: 1 minimal at (3,4,1), 33 maximal at (3,6,1)",
                  120.0, run)


def criterion_11(budget: int) -> CriterionResult:
    def run():
        ctx = get_field(3, 8)
        wit = curves.l3l_optimal_witness(ctx, 1)
        ok = (wit.found and wit.report.status == "minimal"
              and wit.report.points == 2188 and wit.solution_count == 2188)
        details = {"gamma1": wit.gamma1, "gamma2": wit.gamma2, "beta": wit.beta,
                   "points": wit.report.points, "status": wit.report.status,
                   "independent_recount": wit.solution_count,
                   "optimal_betas": wit.observed_betas}
        return ok, "full", details
    return _timed(11, "a concrete minimal curve with 2188 points at (3,8,1)", 600.0, run)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11)


def run_grid(budget: int = DEFAULT_BUDGET) -> list[CriterionResult]:
    return [fn(budget) for fn in CRITERIA]


def report_json(results: list[CriterionResult]) -> bytes:
    payload = {
        "criteria": [{"id": r.cid, "name": r.name, "passed": r.passed,
                      "mode": r.mode, "details": r.details} for r in results],
        "all_pass": all(r.passed for r in results),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def run_all(budget: int = DEFAULT_BUDGET, log=lambda line: None) -> tuple[list[CriterionResult], bytes]:
    """Run the grid twice; the determinism criterion byte-compares the reports."""
    first = run_grid(budget)
    for r in first:
        log(r.line())
    second = run_grid(budget)
    identical = report_json(first) == report_json(second)
    det = CriterionResult(12, "two full runs emit byte-identical reports", identical,
                          "full", {"identical": identical})
    log(det.line())
    results = first + [det]
    return results, report_json(results)
