"""Closed-form rank/type data for Q_{gamma,l}(x) = tr_{q^m/q}(gamma x^{q^l+1}).

Classification branches on exponentiation tests only: gamma^{(q^m-1)/L} with
L = q^{(m,l)}+1 equals 1 exactly on the t = 0 (mod L) power class and -1 on
the t = L/2 class, so no discrete logarithm is ever computed.  The module
also carries the rank distributions of the one- and two-monomial families
(zero form included), and an exhaustive (rank, type) tally over all
(gamma_1, gamma_2) pairs, quadform.tally_profiles on one row per Frobenius x
(x -> cx) orbit, that verifies the two-monomial distribution in full, types
included.  Every single pair's rank and type comes from quadform.form_profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .gf import FieldCtx, FieldError, is_prime
from .linpoly import FamilySpec, LinearizedPoly
from .quadform import (HypothesisError, QuadForm, QuadFormProfile, RankDistribution, form_profiles,
                       profile as qf_profile, tally_profiles)


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
    type: int               # +1 for the rank-0 class (m = 2(m,l), so -eps_l = +1)
    branch: str             # which power class fired


def classify_monomial(ctx: FieldCtx, s: int, m: int, gamma: int, ell: int) -> MonomialClassification:
    """Rank and type of tr_{q^m/q}(gamma x^{q^l+1}) by the power-class tests."""
    if gamma == 0:
        raise HypothesisError("gamma must be nonzero")
    if ctx.n != s * m:
        raise FieldError("field degree must equal s*m")
    _check_m_ell_even(m, ell)
    q = ctx.p ** s
    delta = gcd(m, ell)
    pr = ctx.pow(gamma, ctx.mult_order // (q ** delta + 1))
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
        return MonomialClassification(gamma, ell, m - 2 * delta, -e, branch)
    return MonomialClassification(gamma, ell, m, e, branch)


def m_counts(q: int, m: int, ell: int) -> tuple[int, int]:
    """(M, M') = (#powers / #power-class members, complement size)."""
    _check_m_ell_even(m, ell)
    M = (q ** m - 1) // (q ** gcd(m, ell) + 1)
    return M, q ** gcd(m, ell) * M


def rank_distribution_monomial(q: int, m: int, ell: int) -> RankDistribution:
    """Distribution of <x^{q^l}>: n q^{(m,l)} forms of rank m, n of rank m-2(m,l), and R = 0."""
    _check_m_ell_even(m, ell)
    if 2 * ell >= m:
        raise HypothesisError("l < m/2 is required")
    delta = gcd(m, ell)
    n, n_comp = m_counts(q, m, ell)
    e = eps_ell(m, ell)
    return RankDistribution(q=q, m=m, counts=((m, e, n_comp), (m - 2 * delta, -e, n), (0, 1, 1)))


def l3l_constants(p: int, m: int, ell: int) -> tuple[int, int, int, int]:
    """The four rank multiplicities (ranks m, m-2d, m-4d, m-6d) of <x^{p^l}, x^{p^{3l}}>."""
    if not is_prime(p) or p == 2:
        raise HypothesisError("p must be an odd prime")
    _check_m_ell_even(m, ell)
    if m <= 6 * ell:
        raise HypothesisError("m > 6l is required")
    d = gcd(m, ell)
    e = eps_ell(m, ell)
    h = m // 2  # m > 6l >= 6d and m/d even, so every exponent below is >= 0
    denom = p ** (6 * d) + p ** (5 * d) - p ** (4 * d) + p ** (2 * d) - p ** d - 1
    alt = sum((-1) ** (i + 1) * p ** (i * d) for i in range(6))
    n0 = (p ** (2 * m + 6 * d) - p ** (2 * m + 4 * d) - p ** (2 * m + d)
          + p ** (m + 4 * d) + p ** (m + d) - p ** (6 * d)
          + e * (p ** (3 * h + 5 * d) - p ** (3 * h + 4 * d)
                 - p ** (h + 5 * d) + p ** (h + 4 * d)))
    n1 = (p ** (2 * m - 2 * d) * (p ** (7 * d) - p ** (2 * d) - 1)
          + p ** (m - 2 * d) * (p ** (5 * d) - p ** (6 * d) + p ** (2 * d) + 1)
          - p ** (3 * d) * (p ** (2 * d) - p ** d + 1)
          - e * (p ** (3 * h) - p ** h) * alt)
    n2 = (p ** (2 * m - 3 * d) * (p ** (5 * d) + p ** d - 1)
          - p ** (m - 3 * d) * (p ** (6 * d) + p ** (4 * d) + p ** d - 1)
          + p ** d * (p ** (2 * d) - p ** d + 1)
          + e * (p ** (3 * h - 2 * d) - p ** (h - 2 * d)) * alt)
    n3 = (p ** (2 * m - 3 * d) - p ** m - p ** (m - 3 * d) + 1
          - e * (p ** (3 * h - d) - p ** (3 * h - 2 * d)
                 - p ** (h - d) + p ** (h - 2 * d)))
    out = []
    for j, num in enumerate((n0, n1, n2, n3)):
        f, rest = divmod(num, denom)
        if rest or f < 0:
            raise HypothesisError(f"rank multiplicity {j} is not a nonnegative integer: "
                                  f"{num}/{denom}")
        out.append(f)
    if sum(out) != p ** (2 * m) - 1:
        raise HypothesisError("rank multiplicities do not sum to p^{2m} - 1")
    return tuple(out)


def rank_distribution_l3l(p: int, m: int, ell: int) -> RankDistribution:
    """Distribution over ranks m-2jd, type (-1)^j eps_l, j = 0..3, and the zero pair."""
    fs = l3l_constants(p, m, ell)
    d = gcd(m, ell)
    e = eps_ell(m, ell)
    counts = tuple((m - 2 * j * d, (-1) ** j * e, fs[j]) for j in range(4)) + ((0, 1, 1),)
    return RankDistribution(q=p, m=m, counts=counts)


# -- exhaustive verification sweep for the two-monomial family ----------------

def l3l_poly(ctx: FieldCtx, ell: int, g1: int, g2: int) -> LinearizedPoly:
    """R(x) = g1 x^{p^{3l}} + g2 x^{p^l} over F_{p^m} (prime base field)."""
    return LinearizedPoly(q_exponents=(ell, 3 * ell), coeffs=(g2, g1), base_q_degree=1)


def l3l_pair_profile(ctx: FieldCtx, ell: int, g1: int, g2: int) -> QuadFormProfile:
    return qf_profile(QuadForm(ctx, 1, ctx.n, l3l_poly(ctx, ell, g1, g2)))


def l3l_pair_profile_fast(ctx: FieldCtx, ell: int, g1: int, g2: int) -> QuadFormProfile:
    """form_profiles without the zero count, for one pair (s = 1, odd p only).

    Rank and type come from the congruence reduction of the F_p Gram matrix
    alone, the type as the discriminant route's eta; tests check it against
    l3l_pair_profile, which also counts zeros.
    """
    if ctx.p == 2:
        raise HypothesisError("fast profile targets odd characteristic")
    rank, eps = form_profiles(ctx, 1, [[g2, g1]], (ell, 3 * ell), count=False)
    return QuadFormProfile(rank=int(rank[0]), type=int(eps[0]))


def tally_l3l_profiles(ctx: FieldCtx, ell: int) -> RankDistribution:
    """Exhaustive (rank, type) tally over all (g1, g2) in F_{p^m}^2, by the discriminant route.

    quadform.tally_profiles on <x^{p^l}, x^{p^{3l}}>: one pair per orbit of
    (g1, g2) -> (g1^p, g2^p) and x -> cx (c^{p^l+1} = 1 forces c^{p^{3l}+1} = 1).
    All p^{2m} pairs, ranks descending; the zero pair is counted in (0, +1).
    """
    if ctx.p == 2:
        raise HypothesisError("the two-monomial family sweep targets odd p")
    return tally_profiles(ctx, FamilySpec(ctx.p, 1, ctx.n, (ell, 3 * ell)), count=False)


def tally_l3l_ranks(ctx: FieldCtx, ell: int, workers: int = 1) -> dict[int, int]:
    """{rank: multiplicity} over all p^{2m} pairs: the rank marginal of tally_l3l_profiles.

    The sweep runs in this process: ``workers`` is checked but no pool is
    started.  The argument stays because the benchmark workloads pass it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tally: dict[int, int] = {}
    for r, _, c in tally_l3l_profiles(ctx, ell).counts:
        tally[r] = tally.get(r, 0) + c
    return tally
