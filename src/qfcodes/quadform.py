"""Quadratic trace forms Q_R(x) = tr_{q^m/q}(x R(x)): rank, type, counts, sums.

Every rank and type in the package comes from form_profiles, which takes a
stack of forms and gives each block of them one congruence reduction
(linalg.reduce_symmetric) of their Gram matrices over F_p of tr_{q/p} B
(form_grams), where B(x,y) = Q(x+y) - Q(x) - Q(y)
and tr_{q/p} B(x, y) = tr_{q^m/p}(x R(y) + y R(x)).  Three exact facts move
the work from F_q to F_p: tr_{q/p} B has s times the F_q rank of B; for odd p
the type is eta_p((-1)^{r_p/2} disc), because Q and tr_{q/p} Q have the same
Gauss sum; and for p = 2, where the radical also needs Q(y) = 0 inside ker B
and Q is additive there, the radical is ker B or a hyperplane of it according
as Q vanishes on a kernel basis or not.  On fields up to COUNT_LIMIT the
type is also solved from the zero count of a value table, and the two
routes must agree.  Exponential sums are integers
(S_{Q,b}(beta) = q N_{Q,beta}(-b) - q^m); no complex arithmetic appears.
Every (rank, type) tally of a whole family comes from tally_profiles, which
profiles one row per x -> cx orbit class of the leading coefficient.

Every trace-form symbol table in the package (Q's values, codewords, curve
counts and scans) comes from form_symbols, one log-domain gather per term,
and every Gram term from gram_exponents, one gather in the digit basis
t^i = p^i.  lin_eval and lin_eval_table stay the independent routes of R.

Every closed-form sweep table (counts here, curve points, code weights) is an
affine image of expected_sum_distribution, the one closed form of S over beta.

Every sweep over all beta goes through value_histograms: an exact
additive-character transform in the group ring Z[F_q] that returns
N_{Q,beta}(c) for all beta and c at once, at m q^{m+2} integer additions per
form instead of the q^{2m} of a (beta, x) grid.  spectra's brute enumeration
keeps the direct grid as the oracle the transform is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .gf import FieldCtx, FieldError, int_dtype
from .linalg import reduce_symmetric
from .linpoly import FamilySpec, LinearizedPoly, family_coeffs, lin_eval

BETA_CLASSES = ("null", "major", "minor")
# largest field on which form_profiles counts zeros (and cross-checks the discriminant)
COUNT_LIMIT = 1 << 16


class RankError(ValueError):
    pass


@dataclass(frozen=True)
class QuadFormProfile:
    rank: int
    type: int | None  # +1 / -1, None when rank 0 (type suppressed)


class QuadForm:
    """Q_R over F_q in m variables, with table-backed evaluation."""

    def __init__(self, ctx: FieldCtx, s: int, m: int, R: LinearizedPoly):
        if ctx.n != s * m:
            raise FieldError("field degree must equal s*m")
        self.ctx = ctx
        self.s = s
        self.m = m
        self.q = ctx.p ** s
        self.R = R
        self._syms: np.ndarray | None = None

    def value_sym(self, x: int) -> int:
        """Q(x) as a canonical F_q symbol."""
        ctx = self.ctx
        return int(ctx.symbols(self.s).trace_sym[ctx.mul(x, lin_eval(ctx, self.R, x))])

    def sym_table(self) -> np.ndarray:
        """Q over every field element, as symbols (cached)."""
        if self._syms is None:
            coeffs, exps = form_terms(self.R, self.q)
            self._syms = form_table(self.ctx, self.s, [coeffs], exps)[0]
        return self._syms


def form_terms(R: LinearizedPoly, q: int, beta: int = 0) -> tuple[list[int], tuple[int, ...]]:
    """(coeffs, exps) with x R(x) + beta x = sum_i c_i x^{e_i}, zero coefficients dropped."""
    terms = [(c, q ** l + 1) for l, c in zip(R.q_exponents, R.coeffs) if c]
    if beta:
        terms.append((beta, 1))
    return [c for c, _ in terms], tuple(e for _, e in terms)


def form_symbols(ctx: FieldCtx, s: int, coeffs, exps: tuple[int, ...],
                 xs: slice = slice(None)) -> np.ndarray:
    """Symbols of sum_i tr_{q^m/q}(c_i x^{e_i}) at x = alpha^k, k in xs: one row per coeffs row.

    coeffs is a (B, len(exps)) array of field elements.  With c = alpha^j a
    term at alpha^k is tr(alpha^{j + (k e mod N)}): one gather from the
    traces of the powers of alpha, with no power table and no product, and
    c = 0 gives a zero row.  The terms add through the flat symbol table.
    """
    sy = ctx.symbols(s)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    out = None
    for c, e in zip(coeffs.T, exps):
        logs = ctx.log[c]
        term = sy.trace_pow[ctx.log_power_table(e)[xs] + logs[:, None]]
        term[logs < 0] = 0
        out = term if out is None else sy.plus(out, term)
    if out is None:
        out = np.zeros((len(coeffs), len(range(ctx.mult_order)[xs])), dtype=sy.trace_pow.dtype)
    return out


def form_table(ctx: FieldCtx, s: int, coeffs, exps: tuple[int, ...]) -> np.ndarray:
    """form_symbols indexed by field element: column x of row b is the form at x, 0 at x = 0."""
    syms = form_symbols(ctx, s, coeffs, exps)
    out = np.zeros((len(syms), ctx.order), dtype=syms.dtype)
    out[:, ctx.exp[: ctx.mult_order]] = syms
    return out


@lru_cache(maxsize=256)
def gram_exponents(ctx: FieldCtx, j: int) -> np.ndarray:
    """e[a, b] = log(t^a (t^b)^{p^j}) mod N in the digit basis t^a = p^a.

    So tr(c t^a (t^b)^{p^j}) = tr(alpha^{log c + e[a, b]}) is one gather of
    the traces of the powers of alpha, for every entry of a Gram term.
    Cached per (field, j), because every one-form profile needs it; callers
    only read it.
    """
    N = ctx.mult_order
    logs = ctx.log[ctx.pvec]
    return (logs[:, None] + logs[None, :] * pow(ctx.p, j, N)) % N


def form_grams(ctx: FieldCtx, s: int, coeffs, ls: tuple[int, ...]) -> np.ndarray:
    """(B, n, n) Gram stacks over F_p of tr_{q/p} B for R = sum_i c_i x^{q^{l_i}}.

    coeffs is a (B, len(ls)) array of field elements, one form per row.
    Entry (a, b) is tr(t^a R(t^b)) + tr(t^b R(t^a)) in the digit basis
    t^a = p^a, and a term c x^{q^l} contributes tr(alpha^{log c + e[a, b]}),
    e = gram_exponents(ctx, s l): one gather per term, c = 0 giving a zero term.
    """
    p, n = ctx.p, ctx.n
    tp = ctx.symbols(1).trace_pow
    logs = ctx.log[np.asarray(coeffs, dtype=np.int64)]
    live = (logs >= 0)[:, :, None, None]
    t = np.zeros((len(logs), n, n), dtype=int_dtype(2 * p * max(1, len(ls))))
    for k, l in enumerate(ls):
        t += tp[logs[:, k, None, None] + gram_exponents(ctx, s * l)] * live[:, k]
    return (t + t.transpose(0, 2, 1)) % p


# Gram and value-table cells one form_profiles block may hold
PROFILE_CELLS = 1 << 16


def form_profiles(ctx: FieldCtx, s: int, coeffs, ls: tuple[int, ...],
                  count: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(rank, type) of Q_R for R = sum_i c_i x^{q^{l_i}}, one per row of a (B, len(ls)) coeffs.

    Each block of forms under PROFILE_CELLS gets one congruence reduction of
    its form_grams.  Odd p: the rank is r_p / s and the type eta_p((-1)^{r_p/2} disc).
    p = 2: ker B is read off the reduction and the radical is ker B or a
    hyperplane of it as Q vanishes on a kernel basis or not (Q by scalar
    lin_eval).  With count (always for p = 2), on fields of order up to
    COUNT_LIMIT, the type is solved from the zero count
    N_Q(0) = q^{m-1} + eps (q-1) q^{m-r/2-1} of a value table, and for odd p
    it must equal the discriminant's.  Returns int arrays; type 0 at rank 0.
    The first failing row raises RankError: odd rank, a zero count of
    neither type, disagreeing routes, or p = 2 past COUNT_LIMIT.
    """
    p, n = ctx.p, ctx.n
    m, q = n // s, p ** s
    coeffs = np.asarray(coeffs, dtype=np.int64)
    counting = (count or p == 2) and ctx.order <= COUNT_LIMIT
    block = max(1, PROFILE_CELLS // (n * n + ctx.order * counting))
    rank = np.empty(len(coeffs), dtype=np.int64)
    eps = np.empty(len(coeffs), dtype=np.int64)
    for lo in range(0, len(coeffs), block):
        rows = coeffs[lo: lo + block]
        red = reduce_symmetric(form_grams(ctx, s, rows, ls), p, kernel=p == 2)
        if p == 2:
            # Q is additive on ker B and Q(c y) = c^2 Q(y), so the radical
            # {y in ker B : Q(y) = 0} is ker B or an F_q-hyperplane of it
            r = m - (n - red.rank) // s
            for b in np.flatnonzero(red.rank < n).tolist():
                Q = QuadForm(ctx, s, m, LinearizedPoly(ls, tuple(rows[b].tolist()), s))
                r[b] += any(Q.value_sym(y) for y in (ctx.pvec @ red.kernel(b)).tolist())
            e = 0  # the zero count gives the type
        else:
            r, e = red.rank // s, red.etas()
        odd = r % 2
        if counting:
            table = form_table(ctx, s, rows, tuple(q ** l + 1 for l in ls))
            n0 = np.count_nonzero(table == 0, axis=1)
            base, dev = q ** (m - 1), (q - 1) * q ** (m - 1 - r // 2)
            if p == 2:
                e = np.where(n0 == base + dev, 1, -1)
            # odd rows are bad already; an even row of positive rank needs its count
            bad = odd | (r > 0) & (n0 != base + e * dev)
        else:
            bad = odd | (r > 0) if p == 2 else odd
        if bad.any():
            i = int(bad.argmax())
            if odd[i]:
                raise RankError(f"type is defined for even rank only, got {r[i]}")
            if not counting:
                raise RankError("field too large for the characteristic-2 counting route")
            if abs(n0[i] - base) != dev[i]:
                raise RankError(f"zero count {n0[i]} matches neither type at rank {r[i]}")
            raise RankError("discriminant route disagrees with counting route")
        rank[lo: lo + block] = r
        eps[lo: lo + block] = np.where(r > 0, e, 0)
    return rank, eps


def tally_profiles(ctx: FieldCtx, fam: FamilySpec,
                   count: bool = True) -> dict[tuple[int, int | None], int]:
    """{(rank, type): multiplicity} over all (q^m)^k coefficient rows of a family.

    x -> cx is an invertible change of variables, so it keeps rank and type,
    and it carries each c_i to c_i c^{q^{l_i}+1}.  With d = gcd(q^m-1, q^{l_j}+1)
    it carries any nonzero c_j to some alpha^r, r < d, scaling each later
    coefficient by a nonzero constant: a bijection of tails.  So among the
    rows whose first nonzero coefficient is c_j, the row c_j = alpha^r with
    every tail from family_coeffs stands for (q^m-1)/d rows.  Tails go to
    form_profiles (with count) in chunks of PROFILE_CELLS rows, the rows
    with more leading zeros first, as in row order.  Ranks descending, type
    +1 before -1; rank-0 rows (the zero row at least) have type None.
    """
    N = ctx.mult_order
    hist = np.zeros(2 * (fam.m + 1), dtype=np.int64)  # index 2 rank + (type == +1)
    hist[0] = 1  # the zero row
    for j in reversed(range(len(fam.exponents))):
        ls = fam.exponents[j:]
        tail = FamilySpec(fam.p, fam.s, fam.m, ls[1:])
        d = gcd(N, fam.q ** ls[0] + 1)
        n_tails = ctx.order ** len(tail.exponents)
        for lo in range(0, n_tails, PROFILE_CELLS):
            tails = family_coeffs(ctx, tail, lo, min(lo + PROFILE_CELLS, n_tails))
            for lead in ctx.exp[:d].tolist():
                rows = np.column_stack([np.full(len(tails), lead), tails])
                rank, eps = form_profiles(ctx, fam.s, rows, ls, count)
                hist += N // d * np.bincount(2 * rank + (eps > 0), minlength=len(hist))
    return {(k // 2, None if k < 2 else 1 if k % 2 else -1): int(hist[k])
            for k in np.flatnonzero(hist)[::-1].tolist()}


def profile(Q: QuadForm) -> QuadFormProfile:
    rank, eps = form_profiles(Q.ctx, Q.s, [Q.R.coeffs], Q.R.q_exponents)
    return QuadFormProfile(rank=int(rank[0]), type=int(eps[0]) or None)


# -- solution counts and exponential sums -------------------------------------

# largest q^m * q cells one symbol table may spread over in value_histograms
HISTOGRAM_CELLS = 1 << 26


def value_histograms(ctx: FieldCtx, s: int, f: np.ndarray) -> np.ndarray:
    """H[b, beta, c] = #{x in F_{q^m} : f[b, x] + tr_{q^m/q}(beta x) = c}, for every beta and c.

    f is a (B, q^m) stack of F_q symbol tables indexed by field element; any
    tables work, not just quadratic ones.  With the coordinates
    c_i(x) = tr(alpha^i x) and beta = sum_i b_i alpha^i, the histograms
    A[c(x), f(x)] += 1 become H by one additive-character stage per
    coordinate in the group ring Z[F_q] (MacWilliams-Sloane ch. 5):
    A'[.., t, .., c] = sum_y A[.., y, .., c - y t].  That is m q^{m+2}
    exact integer additions per table instead of q^{2m}, in O(B q^{m+1})
    memory; callers bound B.  Returns int64 counts of shape (B, q^m, q).
    """
    q, k = ctx.p ** s, ctx.n // s
    cells = ctx.order * q
    if cells > HISTOGRAM_CELLS:
        raise ValueError(f"{cells} histogram cells per table exceed {HISTOGRAM_CELLS}")
    sy = ctx.symbols(s)
    x_index, beta_index = sy.coordinates
    B = f.shape[0]
    flat = np.arange(B, dtype=np.int64)[:, None] * cells + x_index * q + f
    a = np.bincount(flat.ravel(), minlength=B * cells).astype(np.int32)
    # shift[y, t, c] = c - y t
    shift = sy.add[np.arange(q)[None, None, :], sy.neg[sy.mul][:, :, None]]
    for _ in range(k):
        # transform the leading coordinate and rotate it to the back
        a = a.reshape(B, q, -1, q)
        out = np.zeros((B, a.shape[2], q, q), dtype=np.int32)
        for y in range(q):
            out += np.take(a[:, y], shift[y], axis=-1)
        a = out
    return a.reshape(B, ctx.order, q)[:, beta_index, :].astype(np.int64)


def _beta_histogram(Q: QuadForm) -> np.ndarray:
    """H[beta, c] = N_{Q,beta}(c) for every beta and every symbol c."""
    return value_histograms(Q.ctx, Q.s, Q.sym_table()[None, :])[0]


def frequencies(values: np.ndarray) -> dict[int, int]:
    """Value -> number of occurrences in an integer array."""
    return {int(v): int(c) for v, c in zip(*np.unique(values, return_counts=True))}


def _sum_frequencies(Q: QuadForm, hist: np.ndarray, b_sym: int) -> dict[int, int]:
    """S_{Q,b}(beta) = q N_{Q,beta}(-b) - q^m, tallied over beta."""
    target = int(Q.ctx.symbols(Q.s).neg[b_sym])
    return frequencies(Q.q * hist[:, target] - Q.ctx.order)


def n_distribution(Q: QuadForm, xi_sym: int) -> dict[int, int]:
    """Value -> frequency of N_{Q,beta}(xi) over all beta, for one xi symbol."""
    return frequencies(_beta_histogram(Q)[:, xi_sym])


# -- closed-form beta-sweep distributions --------------------------------------

def _require_even_rank(r: int):
    if r < 0 or r % 2 != 0:
        raise RankError(f"even nonnegative rank required, got {r}")


def beta_class_counts(q: int, m: int, r: int, eps: int, b_zero: bool) -> dict[str, int]:
    """How many beta fall in each exponential-sum class, for fixed b (=0 or !=0).

    Evaluated as q times each count, in integers, so the degenerate r = 0
    instance (zero form, eps treated as +1) comes out right.
    """
    _require_even_rank(r)
    h = q ** (r // 2)
    rows = {
        "null": q ** (m + 1) - q ** (r + 1),
        "major": q ** r + eps * (q - 1) * h if b_zero else q ** r - eps * h,
        "minor": (q ** r - eps * h) * (q - 1) if b_zero else q ** (r + 1) - q ** r + eps * h,
    }
    out: dict[str, int] = {}
    for name, scaled in rows.items():
        cnt, rest = divmod(scaled, q)
        if rest or cnt < 0:
            raise RankError(f"non-integral class count for r={r}")
        out[name] = cnt
    return out


def exp_sum_class_value(q: int, m: int, r: int, eps: int, beta_class: str) -> int:
    """The S_{Q,b} value attached to a beta class (independent of b)."""
    _require_even_rank(r)
    if r > 2 * m:
        raise RankError(f"rank {r} exceeds 2m = {2 * m}")
    if beta_class == "null":
        return 0
    dev = q ** (m - r // 2)
    if beta_class == "major":
        return eps * (q - 1) * dev
    if beta_class == "minor":
        return -eps * dev
    raise ValueError(f"unknown beta class {beta_class!r}")


def expected_sum_distribution(q: int, m: int, r: int, eps: int, b_zero: bool) -> dict[int, int]:
    """Closed-form S-value -> frequency table over beta for one b: the BETA_CLASSES
    values exp_sum_class_value, each with beta_class_counts betas."""
    counts = beta_class_counts(q, m, r, eps, b_zero)
    out: dict[int, int] = {}
    for cls in BETA_CLASSES:
        if counts[cls]:
            value = exp_sum_class_value(q, m, r, eps, cls)
            out[value] = out.get(value, 0) + counts[cls]
    return out


def expected_count_distribution(q: int, m: int, r: int, eps: int, xi_is_zero: bool) -> dict[int, int]:
    """Closed-form N_{Q,beta}(xi) value -> frequency over beta, for one xi:
    N_{Q,beta}(xi) = (S_{Q,-xi}(beta) + q^m) / q over the sum table of b = -xi."""
    table = expected_sum_distribution(q, m, r, eps, b_zero=xi_is_zero)
    return {(S + q ** m) // q: c for S, c in table.items()}


@dataclass
class SumDistributionReport:
    ok: bool
    rank: int
    type: int
    mismatches: list[str]


def verify_sum_distribution(Q: QuadForm) -> SumDistributionReport:
    """Tally all beta for b = 0 and each b != 0 from one histogram; compare with the closed forms."""
    prof = profile(Q)
    r, eps = prof.rank, prof.type or 1
    q, m = Q.q, Q.m
    hist = _beta_histogram(Q)
    mismatches = []
    for b_sym in range(q):
        observed = _sum_frequencies(Q, hist, b_sym)
        expected = expected_sum_distribution(q, m, r, eps, b_zero=(b_sym == 0))
        if observed != expected:
            mismatches.append(f"b_sym={b_sym}: observed {sorted(observed.items())}, "
                              f"expected {sorted(expected.items())}")
    return SumDistributionReport(ok=not mismatches, rank=r, type=eps, mismatches=mismatches)
