"""Closed-form rank/type data for Q_{gamma,l}(x) = tr_{q^m/q}(gamma x^{q^l+1}).

Classification branches on exponentiation tests only: gamma^{(q^m-1)/L} with
L = q^{(m,l)}+1 equals 1 exactly on the t = 0 (mod L) power class and -1 on
the t = L/2 class, so no discrete logarithm is ever computed.  The module
also carries the rank-multiplicity constants for the one- and two-monomial
families, and an exhaustive rank tally over all (gamma_1, gamma_2) pairs
used to verify the two-monomial constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .gf import FieldCtx, FieldError, _int_dtype, is_prime
from .linalg import reduce_symmetric
from .linpoly import LinearizedPoly
from .quadform import QuadForm, QuadFormProfile, profile as qf_profile


class HypothesisError(ValueError):
    """Raised when parameters fall outside a result's hypotheses."""


def _check_m_ell_even(m: int, ell: int):
    if ell < 1:
        raise HypothesisError("l must be >= 1")
    if (m // gcd(m, ell)) % 2 != 0:
        raise HypothesisError(f"m/(m,l) must be even, got m={m}, l={ell}")


def eps_ell(m: int, ell: int) -> int:
    """(-1)^{m_l/2} with m_l = m/(m,l); defined only for even m_l."""
    _check_m_ell_even(m, ell)
    return -1 if ((m // gcd(m, ell)) // 2) % 2 else 1


def gcd_identity(q: int, m: int, ell: int) -> bool:
    """gcd(q^m-1, q^l+1) == q^{(m,l)}+1, valid whenever m/(m,l) is even."""
    _check_m_ell_even(m, ell)
    return gcd(q ** m - 1, q ** ell + 1) == q ** gcd(m, ell) + 1


@dataclass(frozen=True)
class MonomialClassification:
    gamma: int
    ell: int
    rank: int
    type: int | None        # suppressed for the degenerate rank-0 class
    branch: str             # which power class fired

    def profile(self) -> QuadFormProfile:
        return QuadFormProfile(rank=self.rank, type=self.type)


def classify_monomial(ctx: FieldCtx, s: int, m: int, gamma: int, ell: int) -> MonomialClassification:
    """Rank and type of tr_{q^m/q}(gamma x^{q^l+1}) by the power-class tests."""
    if gamma == 0:
        raise HypothesisError("gamma must be nonzero")
    if ctx.n != s * m:
        raise FieldError("field degree must equal s*m")
    _check_m_ell_even(m, ell)
    q = ctx.p ** s
    delta = gcd(m, ell)
    L = q ** delta + 1
    N = ctx.mult_order
    if N % L != 0:
        raise HypothesisError("q^{(m,l)}+1 must divide q^m-1")
    pr = ctx.pow(gamma, N // L)
    e = eps_ell(m, ell)
    if ctx.p == 2:
        special = pr == 1
        branch = "residue" if special else "nonresidue"
    elif e == 1:
        special = pr == 1
        branch = "t0" if special else "generic"
    else:
        special = pr == ctx.neg(1)
        branch = "thalf" if special else "generic"
    if special:
        r = m - 2 * delta
        return MonomialClassification(gamma, ell, r, None if r == 0 else -e, branch)
    return MonomialClassification(gamma, ell, m, e, branch)


def m_counts(q: int, m: int, ell: int) -> tuple[int, int]:
    """(M, M') = (#powers / #power-class members, complement size)."""
    _check_m_ell_even(m, ell)
    L = q ** gcd(m, ell) + 1
    if (q ** m - 1) % L != 0:
        raise HypothesisError("q^{(m,l)}+1 must divide q^m-1")
    M = (q ** m - 1) // L
    return M, q ** gcd(m, ell) * M


@dataclass(frozen=True)
class RankDistribution:
    """M_{r,eps} multiplicities of nonzero forms in a family (R = 0 implicit)."""

    q: int
    m: int
    counts: tuple[tuple[int, int, int], ...]  # (rank, eps, count), rank descending

    def total(self) -> int:
        return sum(c for _, _, c in self.counts)

    def ranks(self) -> list[int]:
        return sorted({r for r, _, _ in self.counts}, reverse=True)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(r, e): c for r, e, c in self.counts}


def rank_distribution_monomial(q: int, m: int, ell: int) -> RankDistribution:
    """Two-rank distribution of <x^{q^l}>: n q^{(m,l)} forms of rank m, n of rank m-2(m,l)."""
    _check_m_ell_even(m, ell)
    if 2 * ell >= m:
        raise HypothesisError("l < m/2 is required")
    delta = gcd(m, ell)
    n, n_comp = m_counts(q, m, ell)
    e = eps_ell(m, ell)
    return RankDistribution(q=q, m=m, counts=((m, e, n_comp), (m - 2 * delta, -e, n)))


def l3l_constants(p: int, m: int, ell: int) -> tuple[int, int, int, int]:
    """The four rank multiplicities (ranks m, m-2d, m-4d, m-6d) of <x^{p^l}, x^{p^{3l}}>."""
    if not is_prime(p) or p == 2:
        raise HypothesisError("p must be an odd prime")
    _check_m_ell_even(m, ell)
    if m <= 6 * ell:
        raise HypothesisError("m > 6l is required")
    d = gcd(m, ell)
    e = eps_ell(m, ell)
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
    out = []
    for j, f in enumerate((f0, f1, f2, f3)):
        if f.denominator != 1 or f < 0:
            raise HypothesisError(f"rank multiplicity {j} is not a nonnegative integer: {f}")
        out.append(int(f))
    if sum(out) != p ** (2 * m) - 1:
        raise HypothesisError("rank multiplicities do not sum to p^{2m} - 1")
    return tuple(out)


def rank_distribution_l3l(p: int, m: int, ell: int) -> RankDistribution:
    """Distribution over ranks m-2jd, type (-1)^j eps_l, j = 0..3."""
    fs = l3l_constants(p, m, ell)
    d = gcd(m, ell)
    e = eps_ell(m, ell)
    counts = tuple((m - 2 * j * d, (-1) ** j * e, fs[j]) for j in range(4))
    return RankDistribution(q=p, m=m, counts=counts)


# -- exhaustive verification sweep for the two-monomial family ----------------

def l3l_poly(ctx: FieldCtx, ell: int, g1: int, g2: int) -> LinearizedPoly:
    """R(x) = g1 x^{p^{3l}} + g2 x^{p^l} over F_{p^m} (prime base field)."""
    return LinearizedPoly(q_exponents=(ell, 3 * ell), coeffs=(g2, g1), base_q_degree=1)


def l3l_pair_profile(ctx: FieldCtx, ell: int, g1: int, g2: int) -> QuadFormProfile:
    return qf_profile(QuadForm(ctx, 1, ctx.n, l3l_poly(ctx, ell, g1, g2)))


def _gram_exponents(ctx: FieldCtx, L: int) -> np.ndarray:
    """e[i, j] = i + j p^L mod p^m - 1, so tr(g alpha^{e[i, j]}) is a term of the pair Gram."""
    N, ij = ctx.mult_order, np.arange(ctx.n)
    return (ij[:, None] + ij[None, :] * pow(ctx.p, L, N)) % N


def l3l_pair_profile_fast(ctx: FieldCtx, ell: int, g1: int, g2: int) -> QuadFormProfile:
    """Profile from one congruence reduction of the F_p Gram matrix (s = 1 only).

    With E(y) = g y^{p^L} + (g y)^{p^{-L}} summed over (g1, 3l) and (g2, l),
    tr(alpha^i E(alpha^j)) = tr(g alpha^{i + j p^L}) + tr(g alpha^{j + i p^L}),
    so each term is one gather of the trace symbols of the powers of alpha.
    A sweep accelerator; tested to agree with the general quadform route.
    """
    p, m = ctx.p, ctx.n
    if p == 2:
        raise HypothesisError("fast profile targets odd characteristic")
    tp = ctx.symbols(1).trace_pow
    S = np.zeros((m, m), dtype=np.int64)
    for g, L in ((g1, 3 * ell), (g2, ell)):
        if g:
            S += tp[ctx.log[g] + _gram_exponents(ctx, L)]
    red = reduce_symmetric((S + S.T)[None], p)
    rank = int(red.rank[0])
    if rank == 0:
        return QuadFormProfile(rank=0, type=None)
    if rank % 2 != 0:
        raise HypothesisError(f"odd bilinear rank {rank} in the pair family")
    return QuadFormProfile(rank=rank, type=red.eta())


def _pair_grams(ctx: FieldCtx, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-gamma F_p Gram stacks of y -> g y^{p^L} + (g y)^{p^{-L}} for L = 3l and l.

    G[g][i, j] = tr(alpha^i E_g(alpha^j)) is symmetric and linear in g, so the
    Gram of a pair (g1, g2) is G3[g1] + G1[g2] (mod p); row g is indexed by the
    element g.  Column (i, j) over g = alpha^k, k < N, is the contiguous slice
    tr(alpha^{k + e[i, j]}) of the trace symbols.  Entries lie in [0, p), in a
    dtype that holds the sum of two.
    """
    p, m, N = ctx.p, ctx.n, ctx.mult_order
    tp = ctx.symbols(1).trace_pow.astype(_int_dtype(2 * p))

    def build(L: int) -> np.ndarray:
        e = _gram_exponents(ctx, L)
        S = np.empty((N, m, m), dtype=tp.dtype)
        for i in range(m):
            for j in range(m):
                S[:, i, j] = tp[e[i, j]: e[i, j] + N]
        out = np.zeros((ctx.order, m, m), dtype=tp.dtype)
        out[ctx.exp[:N]] = (S + S.transpose(0, 2, 1)) % p
        return out

    return build(3 * ell), build(ell)


# largest p^{2m} for which return_counts may allocate the per-pair array
PAIR_COUNTS_LIMIT = 1 << 26


def tally_l3l_ranks(ctx: FieldCtx, ell: int, workers: int = 1,
                    return_counts: bool = False):
    """Exhaustive rank tally over all (g1, g2) in F_{p^m}^2 by orbit representatives.

    The substitution x -> cx carries Q_{g1,g2} to Q_{g1 c^{p^{3l}+1}, g2 c^{p^l+1}},
    so rank is constant on orbits.  With d = gcd(p^m-1, p^l+1) the rows
    g2 = alpha^r, r < d, meet every orbit with g2 != 0, and each stands for
    (p^m-1)/d rows: c^{p^l+1} = 1 forces c^{p^{3l}+1} = 1 because p^l+1
    divides p^{3l}+1, so the induced permutation of g1 is well defined.  The
    radical nullity of every g1 on those d rows and on g2 = 0 comes from one
    batched congruence reduction of the pair Gram stack per row.

    Returns {rank: multiplicity} covering all p^{2m} pairs (the zero pair
    lands at rank 0).  With return_counts=True also returns the per-pair
    |radical|-1 array (int32) indexed by g1_idx + g2_idx * p^m; that array is
    refused above PAIR_COUNTS_LIMIT pairs.  The sweep runs in this process:
    ``workers`` is checked but no pool is started.
    """
    p, m = ctx.p, ctx.n
    if p == 2:
        raise HypothesisError("the two-monomial family sweep targets odd p")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if return_counts and ctx.order ** 2 > PAIR_COUNTS_LIMIT:
        raise HypothesisError(f"{ctx.order ** 2} per-pair counts exceed the limit "
                              f"{PAIR_COUNTS_LIMIT}")
    N = ctx.mult_order
    d = gcd(N, p ** ell + 1)
    grams3, grams1 = _pair_grams(ctx, ell)
    reps = [0] + [int(g) for g in ctx.exp[:d]]
    nullity = np.stack([m - reduce_symmetric(grams3 + grams1[g2], p).rank for g2 in reps])
    hist = np.zeros(m + 1, dtype=np.int64)
    for weight, row in zip([1] + [N // d] * d, nullity):
        hist += weight * np.bincount(row, minlength=m + 1)
    tally = {m - k: c for k, c in enumerate(hist.tolist()) if c}
    if not return_counts:
        return tally
    # row g2 = alpha^j is row r = j mod d with g1 shifted in log by
    # t (p^{3l}+1), where t (p^l+1)/d = (j-r)/d (mod (p^m-1)/d)
    rep_counts = p ** nullity.astype(np.int32) - 1
    counts = np.empty((ctx.order, ctx.order), dtype=np.int32)  # [g2, g1]
    counts[0] = rep_counts[0]
    inv = pow((p ** ell + 1) // d, -1, N // d)
    lift = (p ** (3 * ell) + 1) % N
    logs = ctx.log[1:]
    chunk = max(1, (1 << 20) // ctx.order)
    for lo in range(0, N, chunk):
        js = np.arange(lo, min(lo + chunk, N), dtype=np.int64)
        rs = js % d
        shifts = ((js - rs) // d * inv % (N // d)) * lift % N
        rows = rep_counts[1 + rs]
        counts[ctx.exp[js], 0] = rows[:, 0]
        counts[ctx.exp[js], 1:] = np.take_along_axis(
            rows, ctx.exp[(logs[None, :] - shifts[:, None]) % N], axis=1)
    return tally, counts.reshape(-1)
