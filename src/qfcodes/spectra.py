"""Spectra of the trace-form cyclic codes: table predictions and brute force.

Codes are indexed by coordinates x = alpha^0, alpha^1, .., alpha^{q^m-2}
(shortened variants keep the first (q^m-1)/D coordinates).  Variants:
  "base"  words tr(xR(x))
  "0"     plus a constant b in F_q
  "1"     plus a linear term tr(beta x)
  "2"     plus both
All table rows are generated by one shared routine driven by a rank
distribution, so the single- and two-monomial instantiations cannot drift
from the general tables.  Codewords, and the brute oracle's words a block
of forms at a time, are assembled by quadform.form_symbols.  Everything is
exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
import warnings

import numpy as np

from .gf import FieldCtx, FieldError, SymbolSystem, int_log
from .klapper import (HypothesisError, RankDistribution, eps_ell,
                      rank_distribution_l3l, rank_distribution_monomial)
from .linpoly import FamilySpec, LinearizedPoly, family_coeffs
from .quadform import exp_sum_class_value, expected_sum_distribution, form_symbols, form_terms

VARIANTS = ("base", "0", "1", "2")
DEFAULT_BUDGET = 1 << 32


class BudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class CodeSpec:
    family: FamilySpec
    variant: str = "base"
    shortened: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.shortened:
            if len(self.family.exponents) != 1 or self.variant not in ("base", "0"):
                raise ValueError("shortening applies to single-monomial base/0 codes only")


@dataclass(frozen=True)
class Spectrum:
    n: int
    q: int
    weights: dict[int, int]

    def total(self) -> int:
        return sum(self.weights.values())

    def dim(self) -> int:
        total = self.total()
        k = int_log(total, self.q)
        if k is None:
            raise ValueError(f"frequency sum {total} is not a power of {self.q}")
        return k

    def min_distance(self) -> int:
        return min(w for w in self.weights if w > 0)

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.weights.items())

    def scaled_down(self, D: int) -> "Spectrum":
        if self.n % D != 0:
            raise ValueError("length not divisible")
        out = {}
        for w, a in self.weights.items():
            if w % D != 0:
                raise ValueError(f"weight {w} not divisible by {D}")
            out[w // D] = a
        return Spectrum(n=self.n // D, q=self.q, weights=out)


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int

    def as_list(self) -> list[int]:
        return [self.n, self.k, self.d]


# -- the shared table rows -----------------------------------------------------

def _weight(q: int, m: int, S: int, b_zero: bool) -> int:
    """Weight q^m - q^{m-1} - [b != 0] - S/q of a full-length word whose exponential sum is S."""
    if S % q:
        raise HypothesisError(f"exponential sum {S} is not a multiple of q = {q}")
    return q ** m - q ** (m - 1) - (0 if b_zero else 1) - S // q


def weight_from_profile(q: int, m: int, r: int, eps: int, b_zero: bool,
                        beta_class: str) -> int:
    """Codeword weight for a rank-r type-eps form, given the b and beta case."""
    if r <= 0 or r % 2 != 0:
        raise HypothesisError(f"closed-form weights need positive even rank, got {r}")
    return _weight(q, m, exp_sum_class_value(q, m, r, eps, beta_class), b_zero)


def _add_row(weights: dict[int, int], w: int, count: int):
    if count:
        weights[w] = weights.get(w, 0) + count


def _rows(dist: RankDistribution) -> tuple[tuple[int, int, int], ...]:
    """dist's (rank, type, count) rows, checked, and R = 0 as the rank-0, type +1 row."""
    for r, _, cnt in dist.counts:
        if cnt and (r <= 0 or r % 2 != 0):
            raise HypothesisError(f"rank {r} outside the even positive range")
    return dist.counts + ((0, 1, 1),)


def predict_general(q: int, m: int, dist: RankDistribution, variant: str) -> Spectrum:
    """Assemble the spectrum of a full-length variant from a rank distribution.

    Each b case (b = 0; the q - 1 alike b != 0 for 0 and 2) reads every row of
    dist and the zero form R = 0 (rank 0, type +1): its whole
    expected_sum_distribution for variants 1 and 2, its beta = 0 value for
    base and 0.  Frequencies must total q^{ms(+1)} per the dimension claims;
    that is asserted before returning.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if (q, m) != (dist.q, dist.m):
        raise ValueError("distribution does not match (q, m)")
    rows = _rows(dist)
    weights: dict[int, int] = {}
    for b_zero in (True, False) if variant in ("0", "2") else (True,):
        for r, e, cnt in rows:
            if variant in ("1", "2"):
                table = expected_sum_distribution(q, m, r, e, b_zero)
            else:  # beta = 0 is in the major class for b = 0, the minor one for b != 0
                table = {exp_sum_class_value(q, m, r, e, "major" if b_zero else "minor"): 1}
            for S, c in table.items():
                _add_row(weights, _weight(q, m, S, b_zero), cnt * c * (1 if b_zero else q - 1))

    spec = Spectrum(n=q ** m - 1, q=q, weights=weights)
    size = dist.total() + 1
    ms = int_log(size, q)
    if ms is None or ms % m != 0:
        raise HypothesisError("family size is not q^{ms}")
    expected_dim = {"base": ms, "0": ms + 1, "1": ms + m, "2": ms + m + 1}[variant]
    if spec.dim() != expected_dim:
        raise HypothesisError(f"frequency sum gives dimension {spec.dim()}, expected {expected_dim}")
    return spec


# -- single-monomial codes ------------------------------------------------------

@dataclass(frozen=True)
class MonomialPrediction:
    params: CodeParams
    spectrum: Spectrum          # shortened view for base/0, full length for 1/2
    full_spectrum: Spectrum     # length q^m - 1 view
    D: int
    notes: tuple[str, ...] = ()


def predict_monomial(q: int, m: int, ell: int, variant: str) -> MonomialPrediction:
    """Shortened codes from x^{q^l+1}: length (q^m-1)/D, D = q^{(m,l)}+1."""
    if variant not in ("base", "0"):
        raise ValueError("shortened predictions cover variants base and 0")
    dist = rank_distribution_monomial(q, m, ell)
    full = predict_general(q, m, dist, variant)
    delta = gcd(m, ell)
    D = q ** delta + 1
    short = full.scaled_down(D)
    half = m // 2
    e_half_even = eps_ell(m, ell) == 1
    if variant == "base":
        dprime = q ** half - 1 if e_half_even else q ** half - q ** delta
        d = q ** (half - 1) * (q - 1) * dprime // D
        k = m
    else:
        dbar = q ** (half + delta - 1) + 1 if e_half_even else q ** (half + delta - 1) * (q - 1)
        d = (q ** (m - 1) * (q - 1) - dbar) // D
        k = m + 1
    if d != short.min_distance():
        raise HypothesisError(f"distance formula {d} disagrees with table minimum "
                              f"{short.min_distance()}")
    note = (f"full-length weights are {D} x the shortened weights "
            f"(the full word is {D} concatenated copies)",)
    return MonomialPrediction(params=CodeParams(short.n, k, d), spectrum=short,
                              full_spectrum=full, D=D, notes=note)


def predict_monomial_long(q: int, m: int, ell: int, variant: str) -> MonomialPrediction:
    """Full-length codes from x^{q^l+1} with the linear/constant terms added."""
    if variant not in ("1", "2"):
        raise ValueError("long predictions cover variants 1 and 2")
    dist = rank_distribution_monomial(q, m, ell)
    full = predict_general(q, m, dist, variant)
    delta = gcd(m, ell)
    half = m // 2
    dprime = q ** (half + delta - 1) if eps_ell(m, ell) == 1 else (q - 1) * q ** (half + delta - 1)
    d = q ** (m - 1) * (q - 1) - dprime
    if variant == "2":
        d -= 1
    k = 2 * m + (1 if variant == "2" else 0)
    if d != full.min_distance():
        raise HypothesisError(f"distance formula {d} disagrees with table minimum "
                              f"{full.min_distance()}")
    return MonomialPrediction(params=CodeParams(full.n, k, d), spectrum=full,
                              full_spectrum=full, D=q ** delta + 1)


def predict_l3l(p: int, m: int, ell: int, variant: str) -> MonomialPrediction:
    """Full-length codes of the two-monomial family <x^{p^l}, x^{p^{3l}}>, p odd."""
    dist = rank_distribution_l3l(p, m, ell)
    full = predict_general(p, m, dist, variant)
    k = {"base": 2 * m, "0": 2 * m + 1, "1": 3 * m, "2": 3 * m + 1}[variant]
    d = full.min_distance()
    notes = []
    half, delta = m // 2, gcd(m, ell)
    if variant in ("0", "2"):
        if eps_ell(m, ell) == 1:
            dprime = p ** (half + 3 * delta - 1) + 1
            d0 = p ** (m - 1) * (p - 1) - dprime
        else:
            d0 = p ** (m - 1) * (p - 1) - (p - 1) * p ** (half + 3 * delta - 1)
        dhat = d0 if (variant == "0" or eps_ell(m, ell) == 1) else d0 - 1
        if dhat != d:
            warnings.warn(f"stated distance {dhat} disagrees with the assembled "
                          f"table minimum {d}; reporting the table value")
            notes.append(f"distance formula gave {dhat}, table minimum is {d}")
    return MonomialPrediction(params=CodeParams(full.n, k, d), spectrum=full,
                              full_spectrum=full, D=1, notes=tuple(notes))


# -- brute force ----------------------------------------------------------------

@dataclass
class BruteResult:
    params: CodeParams
    spectrum: Spectrum
    expected_words: int
    distinct_words: int
    compositions: dict[tuple[int, ...], int] | None = None

    @property
    def injective(self) -> bool:
        return self.distinct_words == self.expected_words


def _length(ctx: FieldCtx, spec: CodeSpec) -> int:
    """Code length: q^m - 1, or (q^m - 1)/D for the shortened codes."""
    N = ctx.mult_order
    if spec.shortened:
        q = spec.family.q
        delta = gcd(spec.family.m, spec.family.exponents[0])
        D = q ** delta + 1
        if N % D != 0:
            raise HypothesisError("shortened length is not integral")
        return N // D
    return N


# A block of forms and an x-tile of the indicator matrices hold at most this
# many cells per array (at least one form and one x per step).
_BLOCK_CELLS = 1 << 18
# Every partial sum of the indicator products is an integer at most n, which
# float32 holds exactly while n < 2^24.
_F32_EXACT = 1 << 24


def build_codeword(ctx: FieldCtx, spec: CodeSpec, R: LinearizedPoly,
                   beta: int = 0, b_sym: int = 0) -> np.ndarray:
    """Symbol vector of one codeword (canonical F_q symbols)."""
    fam = spec.family
    if beta != 0 and spec.variant not in ("1", "2"):
        raise ValueError(f"variant {spec.variant} has no beta term")
    if b_sym != 0 and spec.variant not in ("0", "2"):
        raise ValueError(f"variant {spec.variant} has no constant term")
    sy = ctx.symbols(fam.s)
    n = _length(ctx, spec)
    coeffs, exps = form_terms(R, fam.q, beta)
    syms = form_symbols(ctx, fam.s, [coeffs], exps, slice(0, n))[0]
    if b_sym:
        syms = sy.plus(syms, b_sym)
    return syms


def brute_size(ctx: FieldCtx, spec: CodeSpec, budget: int) -> tuple[int, int]:
    """(length, words) of the brute enumeration; BudgetError past `budget` symbols."""
    n = _length(ctx, spec)
    n_words = ctx.order ** len(spec.family.exponents)
    if spec.variant in ("1", "2"):
        n_words *= ctx.order
    if spec.variant in ("0", "2"):
        n_words *= spec.family.q
    if n_words * n > budget:
        raise BudgetError(f"{n_words} words x {n} symbols exceeds budget {budget}")
    return n, n_words


def brute_spectrum(ctx: FieldCtx, spec: CodeSpec, budget: int = DEFAULT_BUDGET,
                   collect_compositions: bool = False,
                   workers: int = 1) -> BruteResult:
    """Exact spectrum by enumerating every word index; reports injectivity.

    Work is counted in symbol evaluations and refused above `budget`.  The map
    index -> word is F_q-linear, so every word is hit A_0 times (A_0 = the
    indices giving the zero word) and the image holds expected/A_0 words.
    The enumeration runs in this process, a block of forms at a time;
    `workers` is validated (at least 1) and starts no process.  The argument
    stays because the benchmark workloads pass it.
    """
    fam = spec.family
    if ctx.p != fam.p or ctx.n != fam.n:
        raise FieldError("field does not match family")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n, n_words = brute_size(ctx, spec, budget)
    n_forms = ctx.order ** len(fam.exponents)

    weight_hist, comp_counts = _brute_chunk(ctx, spec, collect_compositions, 0, n_forms)
    weights = {int(w): int(c) for w, c in enumerate(weight_hist) if c}
    spectrum = Spectrum(n=n, q=fam.q, weights=weights)
    distinct, rest = divmod(n_words, weights[0])
    assert rest == 0, "a linear map hits every word of its image equally often"
    params = CodeParams(n=n, k=spectrum.dim(), d=spectrum.min_distance())
    return BruteResult(params=params, spectrum=spectrum, expected_words=n_words,
                       distinct_words=distinct,
                       compositions=comp_counts if collect_compositions else None)


def _brute_chunk(ctx: FieldCtx, spec: CodeSpec, collect: bool, lo: int, hi: int):
    """Weight histogram (and compositions) over coefficient indices [lo, hi).

    Index i names row i of linpoly.family_coeffs; each index covers every
    beta and b of the variant.  A block of indices is enumerated at once:
    its base words take one gather per term, and their symbol compositions
    one bincount, or over every beta one indicator product per x-tile
    (`_beta_compositions`).  Returns (counts by weight 0..n, {composition: count}).
    """
    fam = spec.family
    q = fam.q
    n = _length(ctx, spec)
    sy = ctx.symbols(fam.s)
    exps = tuple(q ** l + 1 for l in fam.exponents)
    with_beta = spec.variant in ("1", "2")
    # word + b over all b has the weights n - #{word = z} over all symbols z
    with_b = spec.variant in ("0", "2")
    n_z = q if collect or with_b else 1
    words_per_form = ctx.order if with_beta else 1
    block = max(1, min(_BLOCK_CELLS // n, _BLOCK_CELLS // (words_per_form * n_z)))
    weight_hist = np.zeros(n + 1, dtype=np.int64)
    comp_counts: dict[tuple[int, ...], int] = {}
    for start in range(lo, hi, block):
        coeffs = family_coeffs(ctx, fam, start, min(start + block, hi))
        base = form_symbols(ctx, fam.s, coeffs, exps, slice(0, n))
        if with_beta:
            comp = _beta_compositions(ctx, sy, base, n_z)
        else:
            cells = (np.arange(len(coeffs))[:, None] * q + base).ravel()
            comp = np.bincount(cells, minlength=len(coeffs) * q).reshape(-1, q)
        zeros = comp if with_b else comp[:, :1]
        weight_hist += np.bincount((n - zeros).ravel(), minlength=n + 1)
        if collect:
            keys, counts = np.unique(comp, axis=0, return_counts=True)
            for key, c in zip(map(tuple, keys.tolist()), counts.tolist()):
                comp_counts[key] = comp_counts.get(key, 0) + c
    return weight_hist, comp_counts


def _beta_compositions(ctx: FieldCtx, sy: SymbolSystem, base: np.ndarray,
                       n_z: int) -> np.ndarray:
    """comp[(beta, f), z] = #{k : tr(beta alpha^k) + base[f, k] = z} for every beta, z < n_z.

    One exact product of indicator matrices per x-tile, built in the loop:
    comp[beta, (f, z)] = sum_{k, t} [tr(beta alpha^k) = t] [t + base[f, k] = z].
    """
    n_forms, n = base.shape
    q, order = sy.q, ctx.order
    if n >= _F32_EXACT:
        raise OverflowError(f"length {n} is past exact float32 counting ({_F32_EXACT})")
    tile = max(1, min(n, _BLOCK_CELLS // (order * q), _BLOCK_CELLS // (q * n_forms * n_z)))
    betas = np.arange(order, dtype=np.int64)
    z = np.arange(n_z, dtype=np.int16)
    cols = np.arange(n_forms)[:, None, None] * n_z + z
    neg_base = sy.neg[base]
    acc = np.zeros((order, n_forms * n_z), dtype=np.float32)
    for x0 in range(0, n, tile):
        xs = slice(x0, min(x0 + tile, n))
        w = xs.stop - x0
        x_rows = np.arange(w) * q
        u = np.zeros(order * w * q, dtype=np.float32)
        traces = form_symbols(ctx, sy.d, betas[:, None], (1,), xs)
        u[(betas * (w * q))[:, None] + x_rows + traces] = 1
        # the t with t + base = z is z - base
        t = sy.plus(neg_base[:, xs, None], z)
        v = np.zeros(w * q * n_forms * n_z, dtype=np.float32)
        v[(x_rows[:, None] + t) * (n_forms * n_z) + cols] = 1
        acc += u.reshape(order, w * q) @ v.reshape(w * q, n_forms * n_z)
    return acc.astype(np.int64).reshape(order * n_forms, n_z)


# -- complete weight enumerator --------------------------------------------------

@dataclass(frozen=True)
class CweTerm:
    coeff: int
    z0_exp: int
    zrest_exp: int


@dataclass
class CweResult:
    n: int
    q: int
    terms: tuple[CweTerm, ...]       # compressed: coeff * z0^a * (z1..z_{q-1})^b
    balanced_verified: bool | None   # None when brute verification was skipped
    brute_match: bool | None = None


def cwe_predicted(q: int, m: int, dist: RankDistribution, D: int = 1) -> list[CweTerm]:
    """Compressed enumerator terms from a rank distribution (shortened by D)."""
    terms = []
    for r, e, cnt in _rows(dist):
        w_full = _weight(q, m, exp_sum_class_value(q, m, r, e, "major"), True)
        if w_full % D or (q ** m - 1 - w_full) % D:
            raise HypothesisError(f"weight {w_full} does not shorten by {D}")
        a = (q ** m - 1 - w_full) // D
        b_num = w_full // D
        if b_num % (q - 1) != 0:
            raise HypothesisError("weight not divisible by q-1: composition not balanced")
        terms.append(CweTerm(coeff=cnt, z0_exp=a, zrest_exp=b_num // (q - 1)))
    return sorted(terms, key=lambda t: (-t.z0_exp, t.zrest_exp))


def cwe(ctx: FieldCtx, spec: CodeSpec, dist: RankDistribution,
        budget: int = DEFAULT_BUDGET) -> CweResult:
    """Compressed complete weight enumerator of a base-variant code.

    When the code fits in the budget, every word's composition is checked to
    be balanced (t_i equal for all i > 0) and the compressed form is compared
    with the brute tally.
    """
    if spec.variant != "base":
        raise ValueError("the complete weight enumerator applies to base codes")
    fam = spec.family
    q = fam.q
    D = 1
    if spec.shortened:
        D = q ** gcd(fam.m, fam.exponents[0]) + 1
    terms = cwe_predicted(q, fam.m, dist, D)
    n = (q ** fam.m - 1) // D
    try:
        res = brute_spectrum(ctx, spec, budget=budget, collect_compositions=True)
    except BudgetError:
        return CweResult(n=n, q=q, terms=tuple(terms), balanced_verified=None)
    observed: dict[tuple[int, int], int] = {}
    for comp, cnt in res.compositions.items():
        if len(set(comp[1:])) > 1:
            raise HypothesisError(f"composition {comp} is not balanced")
        key = (comp[0], comp[1])
        observed[key] = observed.get(key, 0) + cnt
    predicted = {}
    for t in terms:
        predicted[(t.z0_exp, t.zrest_exp)] = predicted.get((t.z0_exp, t.zrest_exp), 0) + t.coeff
    return CweResult(n=n, q=q, terms=tuple(terms), balanced_verified=True,
                     brute_match=observed == predicted)


# -- divisibility and dimension checks -------------------------------------------

def divisibility_report(spectrum: Spectrum, q: int, m: int, ranks: list[int],
                        variant: str) -> dict:
    """Check the q^{m-r_max/2-1}(q-1) (base) / q^{m-r_max/2-1} (variant 1) division."""
    r_max = max(ranks)
    t = q ** (m - r_max // 2 - 1) * ((q - 1) if variant == "base" else 1)
    offenders = [w for w in spectrum.weights if w > 0 and w % t != 0]
    return {"divisor": t, "ok": not offenders, "offenders": offenders}


def dimension_oracle(q: int, m: int, exponents: list[int]) -> int:
    """Sum of q-cyclotomic coset sizes of the exponents mod q^m - 1.

    Verifies each coset has size exactly m and that cosets are disjoint;
    anything else signals parameters outside the dimension hypotheses.
    """
    N = q ** m - 1
    seen: dict[int, int] = {}
    total = 0
    for u in exponents:
        u %= N
        if u == 0:
            raise HypothesisError("exponent 0 mod q^m-1 has a size-1 coset; append it separately")
        coset = []
        v = u
        while True:
            coset.append(v)
            v = (v * q) % N
            if v == u:
                break
        if len(coset) != m:
            raise HypothesisError(f"coset of {u} has size {len(coset)}, expected {m}")
        for v in coset:
            if v in seen:
                raise HypothesisError(f"cosets of {u} and {seen[v]} collide")
            seen[v] = u
        total += len(coset)
    return total
