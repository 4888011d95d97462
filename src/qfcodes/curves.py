"""Artin-Schreier curves y^p - y = x R(x) + beta x over F_{p^m}, p prime.

Point counts ride on the additive Hilbert-90 criterion: the affine points
over x lie p-to-1 over {x : tr_{p^m/p}(xR(x) + beta x) = 0}, plus one point
at infinity.  Optimality (Hasse-Weil endpoint) is decided both by comparing
against the genus bound and by the weight class of the attached codeword;
disagreement between the two routes raises.

Every trace-form table here (the single-curve trace count, the per-gamma
scan forms) comes from quadform.form_table, one log-domain gather per term,
and every rank and type (the witness search's pair ranks included) from
quadform.form_profiles.
Sweeps over all beta (scan_monomial, the witness search) read their point
counts from quadform.value_histograms, one exhaustive histogram per form.
count_points_by_solutions stays an independent (x, y) enumeration through
lin_eval_table and the digit tables, and never goes through either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import FieldCtx, FieldError
from .klapper import (HypothesisError, MonomialClassification, classify_monomial, eps_ell,
                      l3l_poly, l3l_pair_profile)
from .linpoly import LinearizedPoly, lin_eval_table
from .quadform import (QuadForm, QuadFormProfile, beta_class_counts, expected_sum_distribution,
                       form_profiles, form_table, form_terms, frequencies,
                       profile as qf_profile, value_histograms)


class CurveCountError(RuntimeError):
    """A sweep tally disagreed with the predicted distribution."""


@dataclass(frozen=True)
class CurveSpec:
    ctx: FieldCtx
    R: LinearizedPoly
    beta: int

    def __post_init__(self):
        if self.R.base_q_degree != 1:
            raise FieldError("curves are defined over prime base fields (s = 1)")

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def m(self) -> int:
        return self.ctx.n

    def v(self) -> int:
        """p-adic valuation of deg R (deg R = p^v)."""
        return self.R.degree_exponent(self.ctx.p)


@dataclass(frozen=True)
class CurveReport:
    points: int
    genus: int
    hw_lo: int
    hw_hi: int
    status: str


def _trace_zero_count(spec: CurveSpec) -> int:
    """#{x in F_{p^m} : tr(x R(x) + beta x) = 0}, including x = 0."""
    coeffs, exps = form_terms(spec.R, spec.p, spec.beta)
    return int(np.count_nonzero(form_table(spec.ctx, 1, [coeffs], exps) == 0))


def count_points(spec: CurveSpec) -> int:
    """#C(F_{p^m}) = 1 + p z including infinity, z the trace-zero count of x R(x) + beta x.

    count_points_by_solutions and the weight-class route of
    optimality_status check it independently.
    """
    return 1 + spec.p * _trace_zero_count(spec)


@lru_cache(maxsize=16)
def _artin_schreier_counts(ctx: FieldCtx) -> np.ndarray:
    """#{y : y^p - y = a} for every field element a (read-only, cached per field)."""
    ys = np.arange(ctx.order, dtype=np.int64)
    hist = np.bincount(ctx.v_add(ctx.frob_table(1), ctx.v_neg(ys)), minlength=ctx.order)
    hist.flags.writeable = False
    return hist


def count_points_by_solutions(spec: CurveSpec) -> int:
    """Independent oracle: enumerate (x, y) solutions of y^p - y = xR(x) + beta x."""
    ctx = spec.ctx
    hist = _artin_schreier_counts(ctx)
    xs = np.arange(ctx.order, dtype=np.int64)
    rhs = ctx.v_mul(xs, lin_eval_table(ctx, spec.R))
    if spec.beta:
        rhs = ctx.v_add(rhs, ctx.v_mul(np.full(ctx.order, spec.beta, dtype=np.int64), xs))
    return int(hist[rhs].sum()) + 1


def genus(spec: CurveSpec) -> int:
    """g = (p-1) p^v / 2 for R != 0 (deg(xR(x)+beta x) = p^v + 1 is prime to p)."""
    if spec.R.is_zero:
        raise HypothesisError("the genus formula needs R != 0")
    g, rest = divmod((spec.p - 1) * spec.p ** spec.v(), 2)
    if rest:  # p = 2 and v = 0: xR(x) + beta x has even degree 2
        raise HypothesisError("the genus formula needs deg(xR(x) + beta x) prime to p")
    return g


def hasse_weil(spec: CurveSpec) -> tuple[int, int]:
    """(lower, upper) genus bound endpoints p^m + 1 -+ (p-1) p^{v + m/2}."""
    if spec.R.is_zero:
        raise HypothesisError("bounds need R != 0")
    if spec.m % 2 != 0:
        raise HypothesisError("only even extension degrees are in scope")
    p, m = spec.p, spec.m
    dev = (p - 1) * p ** (spec.v() + m // 2)
    return p ** m + 1 - dev, p ** m + 1 + dev


def expected_point_multiset(p: int, m: int, r: int, eps: int | None) -> dict[int, int]:
    """Point-count -> number of betas, from the rank/type profile of the form.

    #C = p^m + 1 + S_{Q,0}(beta), so this is quadform.expected_sum_distribution
    at b = 0 mapped value by value; the zero form (rank 0) takes eps = +1.
    """
    table = expected_sum_distribution(p, m, r, 1 if r == 0 else eps, b_zero=True)
    return {p ** m + 1 + S: c for S, c in table.items()}


def optimality_status(spec: CurveSpec, prof: QuadFormProfile | None = None) -> CurveReport:
    """maximal/minimal/interior by endpoint comparison, cross-checked by weight class."""
    p, m = spec.p, spec.m
    pts = count_points(spec)
    lo, hi = hasse_weil(spec)
    if not lo <= pts <= hi:
        raise CurveCountError(f"count {pts} escapes the genus bounds ({lo}, {hi})")
    status = "maximal" if pts == hi else "minimal" if pts == lo else "interior"

    if prof is None:
        prof = qf_profile(QuadForm(spec.ctx, 1, m, spec.R))
    r = prof.rank
    eps_eff = 1 if r == 0 else prof.type
    w = (p ** (m + 1) + 1 - pts) // p
    by_weight = "interior"
    if 2 * spec.v() == m - r:  # endpoints reachable; m is even, so r is even
        base_w = p ** m - p ** (m - 1)
        dev = (p - 1) * p ** (m - r // 2 - 1)
        by_weight = {base_w - dev: "maximal", base_w + dev: "minimal"}.get(w, "interior")
    if by_weight != status:
        raise CurveCountError(f"weight-class route says {by_weight}, "
                              f"endpoints say {status} (w={w}, rank={r}, eps={eps_eff})")
    return CurveReport(points=pts, genus=genus(spec), hw_lo=lo, hw_hi=hi, status=status)


# -- family sweeps ----------------------------------------------------------------

@dataclass
class GammaScan:
    gamma: int
    classification: MonomialClassification
    point_tally: dict[int, int]
    n_maximal: int
    n_minimal: int


@dataclass
class ScanReport:
    ell: int
    scans: list[GammaScan]

    def by_branch(self) -> dict[str, list[GammaScan]]:
        out: dict[str, list[GammaScan]] = {}
        for s in self.scans:
            out.setdefault(s.classification.branch, []).append(s)
        return out


# histogram cells (gammas x p^m x p) one scan_monomial batch may hold
SCAN_CELLS = 1 << 20


def scan_monomial(ctx: FieldCtx, ell: int, gammas: list[int] | None = None) -> ScanReport:
    """Sweep beta for each gamma-class of y^p - y = gamma x^{p^l+1} + beta x.

    Every gamma gets its own exhaustive histogram over all beta, in batches
    of value_histograms calls.  Asserts the exact point-count multiset
    predicted by the form's profile; any mismatch raises with the offending
    gamma.
    """
    p, m = ctx.p, ctx.n
    if m % 2 != 0:
        raise HypothesisError("only even extension degrees are in scope")
    if gammas is None:
        gammas = [int(g) for g in ctx.exp[: ctx.mult_order]]
    scans = []
    batch = max(1, SCAN_CELLS // (ctx.order * p))
    for lo in range(0, len(gammas), batch):
        chunk = gammas[lo: lo + batch]
        forms = form_table(ctx, 1, np.array(chunk)[:, None], (p ** ell + 1,))
        # points = 1 + p #{x : tr(gamma x^{p^l+1} + beta x) = 0}, one row per gamma
        for gamma, points in zip(chunk, 1 + p * value_histograms(ctx, 1, forms)[:, :, 0]):
            scans.append(_scan_gamma(ctx, ell, gamma, points))
    return ScanReport(ell=ell, scans=scans)


def _scan_gamma(ctx: FieldCtx, ell: int, gamma: int, points: np.ndarray) -> GammaScan:
    """Check one gamma's point counts over all beta against its profile's multiset."""
    p, m = ctx.p, ctx.n
    cls = classify_monomial(ctx, 1, m, gamma, ell)
    tally = frequencies(points)
    expected = expected_point_multiset(p, m, cls.rank, cls.type)
    if tally != expected:
        raise CurveCountError(
            f"gamma={gamma} (branch {cls.branch}): observed {sorted(tally.items())}, "
            f"expected {sorted(expected.items())}")
    n_max = n_min = 0
    if 2 * ell == m - cls.rank:  # v = (m-r)/2: endpoints are reachable
        spec0 = CurveSpec(ctx, LinearizedPoly((ell,), (gamma,), 1), 0)
        lo, hi = hasse_weil(spec0)
        n_max = tally.get(hi, 0)
        n_min = tally.get(lo, 0)
    return GammaScan(gamma=gamma, classification=cls, point_tally=tally,
                     n_maximal=n_max, n_minimal=n_min)


def optimal_beta_counts(p: int, m: int, ell: int) -> tuple[int, int]:
    """(minimal, maximal) beta counts per qualifying gamma when l | m."""
    if m % ell != 0:
        raise HypothesisError("l must divide m here")
    if m % 2 != 0:
        raise HypothesisError("only even extension degrees are in scope")
    if 2 * ell >= m:
        raise HypothesisError("l < m/2 is required")
    dev = (p - 1) * p ** (m // 2 - ell - 1)
    return p ** (m - 2 * ell - 1) - dev, p ** (m - 2 * ell - 1) + dev


@dataclass
class WitnessReport:
    found: bool
    pairs_checked: int
    curve: CurveSpec | None = None
    report: CurveReport | None = None
    gamma1: int | None = None
    gamma2: int | None = None
    beta: int | None = None
    expected_betas: int | None = None
    observed_betas: int | None = None
    solution_count: int | None = None


def l3l_optimal_witness(ctx: FieldCtx, ell: int,
                        pair_budget: int | None = None) -> WitnessReport:
    """Search <x^{p^l}, x^{p^{3l}}> for an optimal curve via a rank-(m-6l) form.

    Scans (gamma1, gamma2) in deterministic order, finds the beta realizing
    the extreme weight class, and returns the curve with its point count
    verified independently by (x, y) solution enumeration.
    """
    p, m = ctx.p, ctx.n
    if p == 2:
        raise HypothesisError("the two-monomial witness search targets odd p")
    if m % ell != 0 or (m // ell) % 2 != 0 or m <= 6 * ell:
        raise HypothesisError("need l | m, m/l even and m > 6l")
    target_rank = m - 6 * ell
    e = eps_ell(m, ell)
    eps_form = -e  # rank m-6l carries type (-1)^3 eps_l
    status_target = "maximal" if eps_form == 1 else "minimal"
    if pair_budget is None:
        pair_budget = ctx.order ** 2
    if pair_budget < 0:
        raise ValueError(f"pair_budget must be >= 0, got {pair_budget}")
    g2s = np.arange(ctx.order, dtype=np.int64)
    checked = 0
    hit = None
    for g1 in [0] + [int(v) for v in ctx.exp[: ctx.mult_order]]:
        if checked >= pair_budget:
            break
        take = min(ctx.order, pair_budget - checked)
        rows = np.column_stack([g2s[:take], np.full(take, g1)])
        ranks, _ = form_profiles(ctx, 1, rows, (ell, 3 * ell), count=False)
        checked += take
        hits = np.flatnonzero(ranks == target_rank)
        if len(hits):
            hit = (g1, int(hits[0]))
            break
    if hit is None:
        if checked >= ctx.order ** 2:
            raise CurveCountError("no rank m-6l pair exists: contradicts the existence result")
        return WitnessReport(found=False, pairs_checked=checked)
    g1, g2 = hit
    prof = l3l_pair_profile(ctx, ell, g1, g2)
    if (prof.rank, prof.type) != (target_rank, eps_form):
        raise CurveCountError(f"profile {prof} disagrees with the predicted class")
    R = l3l_poly(ctx, ell, g1, g2)
    # sweep beta for the extreme class
    form = QuadForm(ctx, 1, m, R).sym_table()
    points = 1 + p * value_histograms(ctx, 1, form[None, :])[0, :, 0]
    lo, hi = hasse_weil(CurveSpec(ctx, R, 0))
    target_points = hi if status_target == "maximal" else lo
    hits = np.nonzero(points == target_points)[0]
    expected = beta_class_counts(p, m, target_rank, eps_form, b_zero=True)["major"]
    if len(hits) != expected:
        raise CurveCountError(f"{len(hits)} optimal betas, predicted {expected}")
    beta = int(hits[0])
    curve = CurveSpec(ctx, R, beta)
    report = optimality_status(curve, prof)
    if report.status != status_target or report.points != target_points:
        raise CurveCountError("witness verification failed")
    independent = count_points_by_solutions(curve)
    if independent != report.points:
        raise CurveCountError("solution enumeration disagrees with the trace count")
    return WitnessReport(found=True, pairs_checked=checked, curve=curve, report=report,
                         gamma1=g1, gamma2=g2, beta=beta,
                         expected_betas=expected, observed_betas=int(len(hits)),
                         solution_count=independent)
