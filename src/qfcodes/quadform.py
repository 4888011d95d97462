"""Quadratic trace forms Q_R(x) = tr_{q^m/q}(x R(x)): rank, type, counts, sums.

Rank and type come from one congruence reduction (linalg.reduce_symmetric)
of the Gram matrix over F_p of tr_{q/p} B, where B(x,y) = Q(x+y) - Q(x) - Q(y)
and tr_{q/p} B(x, y) = tr_{q^m/p}(x R(y) + y R(x)).  Three exact facts move
the work from F_q to F_p: tr_{q/p} B has s times the F_q rank of B; for odd p
the type is eta_p((-1)^{r_p/2} disc), because Q and tr_{q/p} Q have the same
Gauss sum; and for p = 2, where the radical also needs Q(y) = 0 inside ker B
and Q is additive there, the radical is ker B or a hyperplane of it according
as Q vanishes on a kernel basis or not.  Exponential sums are integers
(S_{Q,b}(beta) = q N_{Q,beta}(-b) - q^m); no complex arithmetic appears.

Every sweep over all beta goes through value_histograms: an exact
additive-character transform in the group ring Z[F_q] that returns
N_{Q,beta}(c) for all beta and c at once, at m q^{m+2} integer additions per
form instead of the q^{2m} of a (beta, x) grid.  spectra's brute enumeration
keeps the direct grid as the oracle the transform is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import FieldCtx, FieldError
from .linalg import Reduction, reduce_symmetric
from .linpoly import LinearizedPoly, lin_eval, lin_eval_table

BETA_CLASSES = ("null", "major", "minor")
# largest field on which type_of counts zeros (and cross-checks the discriminant)
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
        self._reduction: Reduction | None = None

    def value_sym(self, x: int) -> int:
        """Q(x) as a canonical F_q symbol."""
        ctx = self.ctx
        return int(ctx.symbols(self.s).trace_sym[ctx.mul(x, lin_eval(ctx, self.R, x))])

    def sym_table(self) -> np.ndarray:
        """Q over every field element, as symbols (cached)."""
        if self._syms is None:
            ctx = self.ctx
            xs = np.arange(ctx.order, dtype=np.int64)
            self._syms = ctx.symbols(self.s).trace_sym[ctx.v_mul(xs, lin_eval_table(ctx, self.R))]
        return self._syms

    def gram(self) -> np.ndarray:
        """Gram matrix over F_p of tr_{q/p} B in the digit basis p^0, .., p^{n-1}."""
        ctx = self.ctx
        r = np.array([lin_eval(ctx, self.R, int(b)) for b in ctx.pvec], dtype=np.int64)
        t = ctx.symbols(1).trace_sym[ctx.v_mul(ctx.pvec[:, None], r[None, :])].astype(np.int64)
        return (t + t.T) % ctx.p

    def reduction(self) -> Reduction:
        """The congruence reduction of gram() (cached), with the kernel that p = 2 needs."""
        if self._reduction is None:
            p = self.ctx.p
            self._reduction = reduce_symmetric(self.gram()[None], p, kernel=p == 2)
        return self._reduction


def rank(Q: QuadForm) -> int:
    r_p = int(Q.reduction().rank[0])
    if Q.ctx.p != 2:
        return r_p // Q.s
    # char 2: Q is additive on ker B and Q(c y) = c^2 Q(y), so the radical
    # {y in ker B : Q(y) = 0} is ker B or an F_q-hyperplane of it
    kernel = Q.ctx.pvec @ Q.reduction().kernel()
    return Q.m - (Q.ctx.n - r_p) // Q.s + any(Q.value_sym(int(y)) for y in kernel)


def _count_zeros(Q: QuadForm) -> int:
    return int(np.count_nonzero(Q.sym_table() == 0))


def type_by_count(Q: QuadForm, r: int) -> int:
    """Solve N_Q(0) = q^{m-1} + eps (q-1) q^{m-r/2-1} for eps by exhaustive count."""
    q, m = Q.q, Q.m
    n0 = _count_zeros(Q)
    dev = Fraction(q - 1) * Fraction(q) ** (m - r // 2 - 1)
    base = Fraction(q) ** (m - 1)
    if n0 == base + dev:
        return 1
    if n0 == base - dev:
        return -1
    raise RankError(f"zero count {n0} matches neither type at rank {r}")


def type_by_discriminant(Q: QuadForm, r: int) -> int:
    """Odd characteristic: eps = eta_p((-1)^{r_p/2} disc) of tr_{q/p} B, with r_p = s r."""
    if Q.ctx.p == 2:
        raise RankError("discriminant route needs odd characteristic")
    red = Q.reduction()
    r_p = int(red.rank[0])
    if r_p != Q.s * r:
        raise RankError(f"bilinear rank {r_p} over F_p disagrees with quadratic rank {r}")
    return red.eta()


def type_of(Q: QuadForm, r: int) -> int:
    """Type of an even-rank form; counting route, cross-checked by discriminant."""
    if r % 2 != 0:
        raise RankError(f"type is defined for even rank only, got {r}")
    if r == 0:
        raise RankError("rank 0: the zero form carries no type flag")
    if Q.ctx.order <= COUNT_LIMIT:
        eps = type_by_count(Q, r)
        if Q.ctx.p != 2:
            alt = type_by_discriminant(Q, r)
            if alt != eps:
                raise RankError("discriminant route disagrees with counting route")
        return eps
    if Q.ctx.p == 2:
        raise RankError("field too large for the characteristic-2 counting route")
    return type_by_discriminant(Q, r)


def profile(Q: QuadForm) -> QuadFormProfile:
    r = rank(Q)
    return QuadFormProfile(rank=r, type=None if r == 0 else type_of(Q, r))


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


def _frequencies(values: np.ndarray) -> dict[int, int]:
    return {int(v): int(c) for v, c in zip(*np.unique(values, return_counts=True))}


def _sum_frequencies(Q: QuadForm, hist: np.ndarray, b_sym: int) -> dict[int, int]:
    """S_{Q,b}(beta) = q N_{Q,beta}(-b) - q^m, tallied over beta."""
    target = int(Q.ctx.symbols(Q.s).neg[b_sym])
    return _frequencies(Q.q * hist[:, target] - Q.ctx.order)


def n_distribution(Q: QuadForm, xi_sym: int) -> dict[int, int]:
    """Value -> frequency of N_{Q,beta}(xi) over all beta, for one xi symbol."""
    return _frequencies(_beta_histogram(Q)[:, xi_sym])


# -- closed-form beta-sweep distributions --------------------------------------

def _merge(rows: list[tuple[Fraction, Fraction]]) -> dict[int, int]:
    acc: dict[Fraction, Fraction] = {}
    for value, count in rows:
        acc[value] = acc.get(value, Fraction(0)) + count
    out: dict[int, int] = {}
    for value, count in acc.items():
        if count == 0:
            continue
        if value.denominator != 1 or count.denominator != 1 or count < 0:
            raise RankError(f"non-integral row ({value}, {count}): parameters outside hypotheses")
        out[int(value)] = int(count)
    return out


def _require_even_rank(r: int):
    if r < 0 or r % 2 != 0:
        raise RankError(f"even nonnegative rank required, got {r}")


def beta_class_counts(q: int, m: int, r: int, eps: int, b_zero: bool) -> dict[str, int]:
    """How many beta fall in each exponential-sum class, for fixed b (=0 or !=0).

    Evaluated as exact rationals so the degenerate r = 0 instance (zero form,
    eps treated as +1) comes out right.
    """
    _require_even_rank(r)
    qq = Fraction(q)
    rows = {
        "null": qq ** m - qq ** r,
        "major": (qq ** (r - 1) + eps * (qq - 1) * qq ** (Fraction(r, 2) - 1)) if b_zero
        else (qq ** (r - 1) - eps * qq ** (Fraction(r, 2) - 1)),
        "minor": ((qq ** (r - 1) - eps * qq ** (Fraction(r, 2) - 1)) * (qq - 1)) if b_zero
        else (qq ** r - qq ** (r - 1) + eps * qq ** (Fraction(r, 2) - 1)),
    }
    out: dict[str, int] = {}
    for name, cnt in rows.items():
        if cnt.denominator != 1 or cnt < 0:
            raise RankError(f"non-integral class count for r={r}")
        out[name] = int(cnt)
    return out


def exp_sum_class_value(q: int, m: int, r: int, eps: int, beta_class: str) -> int:
    """The S_{Q,b} value attached to a beta class (independent of b)."""
    _require_even_rank(r)
    if beta_class == "null":
        return 0
    dev = Fraction(q) ** (m - Fraction(r, 2))
    if beta_class == "major":
        return int(eps * (q - 1) * dev)
    if beta_class == "minor":
        return int(-eps * dev)
    raise ValueError(f"unknown beta class {beta_class!r}")


def expected_sum_distribution(q: int, m: int, r: int, eps: int, b_zero: bool) -> dict[int, int]:
    """Closed-form S-value -> frequency table for one b."""
    counts = beta_class_counts(q, m, r, eps, b_zero)
    rows = [(Fraction(exp_sum_class_value(q, m, r, eps, cls)), Fraction(counts[cls]))
            for cls in BETA_CLASSES]
    return _merge(rows)


def expected_count_distribution(q: int, m: int, r: int, eps: int, xi_is_zero: bool) -> dict[int, int]:
    """Closed-form N_{Q,beta}(xi) value -> frequency over beta, for one xi.

    The c-classes below enumerate F_q by whether c = 0 and whether xi + c = 0:
    value = q^{m-1} + eps nu(xi+c) q^{m-r/2-1} occurs for
    q^{r-1} + eps nu(c) q^{r/2-1} betas, plus the flat q^{m-1} row.
    nu(0) = q-1 and nu(z) = -1 for z != 0 (the counts sum to q^m only with
    this convention, and direct enumeration confirms it).
    """
    _require_even_rank(r)
    qq = Fraction(q)
    big = qq ** (m - Fraction(r, 2) - 1)
    small = qq ** (Fraction(r, 2) - 1)
    if xi_is_zero:
        classes = [(qq - 1, qq - 1, 1), (-1, -1, q - 1)]
    else:
        classes = [(qq - 1, -1, 1), (-1, qq - 1, 1), (-1, -1, q - 2)]
    rows = [(qq ** (m - 1), qq ** m - qq ** r)]
    for nu_c, nu_shift, mult in classes:
        rows.append((qq ** (m - 1) + eps * nu_shift * big,
                     (qq ** (r - 1) + eps * nu_c * small) * mult))
    return _merge(rows)


@dataclass
class SumDistributionReport:
    ok: bool
    rank: int
    type: int
    mismatches: list[str]


def verify_sum_distribution(Q: QuadForm) -> SumDistributionReport:
    """Tally all beta for b = 0 and each b != 0 from one histogram; compare with the closed forms."""
    r = rank(Q)
    if r % 2 != 0:
        raise RankError("the sum-distribution check needs even rank")
    eps = 1 if r == 0 else type_of(Q, r)
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
