"""Artin-Schreier curves y^p - y = x R(x) + beta x over F_{p^m}, p prime.

Point counts ride on the additive Hilbert-90 criterion: the affine points
over x lie p-to-1 over {x : tr_{p^m/p}(xR(x) + beta x) = 0}, plus one point
at infinity.  A count at a Hasse-Weil endpoint is optimal; optimal_betas
reads the betas at each endpoint off the closed-form point multiset, the one
place optimality is decided: optimality_status profiles only a curve at an
endpoint, against it, l3l_optimal_witness reads its target from it, and
scan_monomial reads each (rank, type) class's multiset at the same endpoints.

Every trace-form table here is one log-domain gather per term over
x = alpha^k: the single-curve trace count reads quadform.form_word, the word
its form's profile reads too, and the sweeps over all beta pass
quadform.form_symbols rows to quadform.value_histograms, one exhaustive
histogram per form (scan_monomial
a batch of gammas at a time, whose zero-count rows it sorts once in the
kernel's compact counts and compares with their classes' rows at once, one
prediction per class shared by all of that class's gammas; the witness
search through QuadForm.histogram).
Every rank and type (the witness search's pair ranks included) comes
from quadform.form_profiles.  count_points_by_solutions stays an
independent (x, y) enumeration that reads no trace and goes through
neither: it sums the monomials of xR(x) + beta x at x = alpha^k by exp
gathers and digit additions and reads the y per value off a y^p - y table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .gf import FieldCtx, FieldError, block_rows
from .klapper import (HypothesisError, MonomialClassification, classify_monomial, eps_ell,
                      l3l_poly, l3l_pair_profile)
from .linpoly import LinearizedPoly
from .quadform import (QuadForm, QuadFormProfile, expected_count_distribution, form_profiles,
                       form_symbols, form_word, frequencies, profile as qf_profile,
                       value_histograms)


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
        field = f"F_{self.ctx.p}^{self.ctx.n}"
        for name, c in [("beta", self.beta)] + [("coefficient", c) for c in self.R.coeffs]:
            if not 0 <= c < self.ctx.order:
                raise FieldError(f"{name} {c} is not an element of {field}")

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def m(self) -> int:
        return self.ctx.n

    def v(self) -> int:
        """p-adic valuation of deg R (deg R = p^v)."""
        return self.R.degree_exponent()


@dataclass(frozen=True)
class CurveReport:
    points: int
    genus: int
    hw_lo: int
    hw_hi: int
    status: str


def count_points(spec: CurveSpec) -> int:
    """#C(F_{p^m}) = 1 + p z including infinity, z = #{x : tr(x R(x) + beta x) = 0}.

    count_points_by_solutions checks it independently.
    """
    ctx, N = spec.ctx, spec.ctx.mult_order
    syms = form_word(ctx, 1, spec.R)  # over x = alpha^k; x = 0 adds 1
    if spec.beta:  # tr(beta alpha^k) = tr(alpha^{log beta + k}): a slice, trace_pow holds 2N
        sy, lb = ctx.symbols(1), int(ctx.log[spec.beta])
        syms = sy.plus(sy.trace_pow[lb: lb + N], syms)
    return 1 + spec.p * (1 + int(np.count_nonzero(syms == 0)))


@lru_cache(maxsize=16)
def _artin_schreier_counts(ctx: FieldCtx) -> np.ndarray:
    """#{y : y^p - y = a} for every field element a (read-only, cached per field)."""
    ys = np.arange(ctx.order, dtype=np.int64)
    hist = np.bincount(ctx.v_add(ctx.frob_table(1), ctx.v_neg(ys)), minlength=ctx.order)
    hist.flags.writeable = False
    return hist


def count_points_by_solutions(spec: CurveSpec) -> int:
    """Independent oracle: enumerate (x, y) solutions of y^p - y = x R(x) + beta x.

    At x = alpha^k a term c x^e is exp[log c + (k e mod N)], one gather from a
    slice of exp, and beta x is the slice exp[log beta : log beta + N]; the
    terms add by digits, and x = 0 (right-hand side 0) adds hist[0].
    """
    ctx, N = spec.ctx, spec.ctx.mult_order
    hist = _artin_schreier_counts(ctx)
    terms = [ctx.exp[ctx.log[c]:][ctx.log_power_table(spec.p ** l + 1)]
             for l, c in zip(spec.R.q_exponents, spec.R.coeffs) if c]
    if spec.beta:
        terms.append(ctx.exp[ctx.log[spec.beta]:][:N])
    rhs = reduce(ctx.v_add, terms) if terms else np.zeros(N, dtype=np.int64)
    return int(hist[rhs].sum()) + int(hist[0]) + 1


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
    return _endpoints(spec.p, spec.m, spec.v())


def _endpoints(p: int, m: int, v: int) -> tuple[int, int]:
    if m % 2 != 0:
        raise HypothesisError("only even extension degrees are in scope")
    dev = (p - 1) * p ** (v + m // 2)
    return p ** m + 1 - dev, p ** m + 1 + dev


def expected_point_multiset(p: int, m: int, r: int, eps: int) -> dict[int, int]:
    """Point-count -> number of betas for a form of rank r, type eps: #C = 1 + p N_{Q,beta}(0)
    over column 0 of quadform.value_rows (expected_count_distribution at xi = 0)."""
    return {1 + p * n: c for n, c in expected_count_distribution(p, m, r, eps, True).items()}


def optimal_betas(p: int, m: int, v: int, r: int, eps: int) -> tuple[int, int]:
    """(minimal, maximal) beta counts of y^p - y = xR(x) + beta x, deg R = p^v, Q_R of (r, eps).

    expected_point_multiset read at the endpoints p^m + 1 -+ (p-1) p^{v + m/2}.
    The major class reaches one of them exactly when r = m - 2v (eps gives
    which), and for p = 2 the minor class the other; otherwise both are 0.
    """
    return _endpoint_betas(p, m, v, expected_point_multiset(p, m, r, eps))


def _endpoint_betas(p: int, m: int, v: int, points: dict[int, int]) -> tuple[int, int]:
    """(minimal, maximal) beta counts of a point multiset: its counts at the endpoints."""
    lo, hi = _endpoints(p, m, v)
    return points.get(lo, 0), points.get(hi, 0)


def optimality_status(spec: CurveSpec, prof: QuadFormProfile | None = None) -> CurveReport:
    """maximal/minimal/interior by the genus bounds; a curve at an endpoint raises
    when optimal_betas of its form's profile (or prof) puts no beta there."""
    pts = count_points(spec)
    lo, hi = hasse_weil(spec)
    g = genus(spec)  # the bounds hold only where the genus formula does
    if not lo <= pts <= hi:
        raise CurveCountError(f"count {pts} escapes the genus bounds ({lo}, {hi})")
    status = "maximal" if pts == hi else "minimal" if pts == lo else "interior"
    if status != "interior":
        if prof is None:
            prof = qf_profile(QuadForm(spec.ctx, 1, spec.m, spec.R))
        if not optimal_betas(spec.p, spec.m, spec.v(), prof.rank, prof.type)[pts == hi]:
            raise CurveCountError(f"{status} count {pts}, but no beta reaches it "
                                  f"at rank {prof.rank}, eps {prof.type}")
    return CurveReport(points=pts, genus=g, hw_lo=lo, hw_hi=hi, status=status)


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


def scan_monomial(ctx: FieldCtx, ell: int, gammas: list[int] | None = None) -> ScanReport:
    """Sweep beta for each gamma-class of y^p - y = gamma x^{p^l+1} + beta x.

    Every gamma gets its own exhaustive histogram over all beta, in batches
    of value_histograms calls of at most gf.BLOCK_CELLS cells, and each
    batch's zero counts N_{Q,beta}(0) are sorted once, in the kernel's
    compact dtype.  Everything predicted depends
    only on the (rank, type) of gamma's class, so each class's point-count
    multiset, its sorted row of counts (#C = 1 + p N) and its counts at the
    endpoints are computed once per scan, and every GammaScan of the class
    shares them.  A batch is compared with its class rows at once; a gamma
    whose sorted row differs raises, the first in order, points widened.
    """
    p, m = ctx.p, ctx.n
    _endpoints(p, m, ell)  # raises for odd m
    if ell < 1:
        raise HypothesisError("l must be >= 1")
    if gammas is None:
        gammas = [int(g) for g in ctx.exp[: ctx.mult_order]]
    predicted = {}  # (rank, type) -> (point tally, its sorted row of N, endpoint beta counts)
    scans = []
    batch = block_rows(ctx.order * p)
    for lo in range(0, len(gammas), batch):
        chunk = gammas[lo: lo + batch]
        forms = form_symbols(ctx, 1, np.array(chunk)[:, None], (p ** ell + 1,))
        # N = #{x : tr(gamma x^{p^l+1} + beta x) = 0} for every beta, one sorted row per gamma
        zeros = np.sort(value_histograms(ctx, 1, forms)[:, :, 0], axis=1)
        classes = [classify_monomial(ctx, 1, m, gamma, ell) for gamma in chunk]
        for key in {(cls.rank, cls.type) for cls in classes} - predicted.keys():
            tally = dict(sorted(expected_point_multiset(p, m, *key).items()))
            want = np.repeat([(v - 1) // p for v in tally], list(tally.values()))
            predicted[key] = tally, want.astype(zeros.dtype), _endpoint_betas(p, m, ell, tally)
        rows = [predicted[cls.rank, cls.type] for cls in classes]
        bad = (zeros != np.stack([want for _, want, _ in rows])).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            points = 1 + p * zeros[i].astype(np.int64)
            raise CurveCountError(
                f"gamma={chunk[i]} (branch {classes[i].branch}): observed "
                f"{sorted(frequencies(points).items())}, expected {list(rows[i][0].items())}")
        scans += [GammaScan(gamma=gamma, classification=cls, point_tally=tally,
                            n_maximal=n_max, n_minimal=n_min)
                  for gamma, cls, (tally, _, (n_min, n_max)) in zip(chunk, classes, rows)]
    return ScanReport(ell=ell, scans=scans)


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

    optimal_betas at rank m - 6l, type -eps_l gives the endpoint and its beta
    count.  gamma1-major rows of every gamma2 are profiled up to pair_budget
    pairs; the first hit is re-profiled, swept over beta and recounted by (x, y).
    """
    p, m = ctx.p, ctx.n
    if p == 2:
        raise HypothesisError("the two-monomial witness search targets odd p")
    if ell < 1:
        raise HypothesisError("l must be >= 1")
    if m % ell != 0 or (m // ell) % 2 != 0 or m <= 6 * ell:
        raise HypothesisError("need l | m, m/l even and m > 6l")
    target = (m - 6 * ell, -eps_ell(m, ell))  # rank m-6l carries type (-1)^3 eps_l
    n_min, n_max = optimal_betas(p, m, 3 * ell, *target)  # deg R = p^{3l}
    points = _endpoints(p, m, 3 * ell)[n_max > 0]
    # gamma1 = 0 leaves the monomial gamma2 x^{p^l}, of rank m or m - 2(m,l), never m - 6l
    total = ctx.order * ctx.mult_order
    budget = total if pair_budget is None else pair_budget
    if budget < 0:
        raise ValueError(f"pair_budget must be >= 0, got {budget}")
    for lo in range(0, min(budget, total), ctx.order):
        g1, take = int(ctx.exp[lo // ctx.order]), min(ctx.order, budget - lo)
        rows = np.column_stack([np.arange(take), np.full(take, g1)])
        ranks, _ = form_profiles(ctx, 1, rows, (ell, 3 * ell), count=False)
        hits = np.flatnonzero(ranks == target[0])
        if len(hits):
            g2 = int(hits[0])
            break
    else:
        if budget >= total:
            raise CurveCountError("no rank m-6l pair exists: contradicts the existence result")
        return WitnessReport(found=False, pairs_checked=budget)
    prof = l3l_pair_profile(ctx, ell, g1, g2)
    if (prof.rank, prof.type) != target:
        raise CurveCountError(f"profile {prof} disagrees with the predicted class")
    R = l3l_poly(ctx, ell, g1, g2)
    betas = np.flatnonzero(1 + p * QuadForm(ctx, 1, m, R).histogram[:, 0] == points)
    if len(betas) != n_min + n_max:
        raise CurveCountError(f"{len(betas)} optimal betas, predicted {n_min + n_max}")
    curve = CurveSpec(ctx, R, int(betas[0]))
    report = optimality_status(curve, prof)
    if report.points != points:
        raise CurveCountError("witness verification failed")
    independent = count_points_by_solutions(curve)
    if independent != points:
        raise CurveCountError("solution enumeration disagrees with the trace count")
    return WitnessReport(found=True, pairs_checked=lo + take, curve=curve, report=report,
                         gamma1=g1, gamma2=g2, beta=curve.beta,
                         expected_betas=n_min + n_max, observed_betas=len(betas),
                         solution_count=independent)
