"""Spectra of the trace-form cyclic codes: table predictions and brute force.

Codes are indexed by coordinates x = alpha^0, alpha^1, .., alpha^{q^m-2}
(shortened variants keep the first (q^m-1)/D coordinates).  Variants:
  "base"  words tr(xR(x))
  "0"     plus a constant b in F_q
  "1"     plus a linear term tr(beta x)
  "2"     plus both
All table rows are generated by one shared routine driven by a rank
distribution (predict_general), and every prediction, single-monomial,
two-monomial or measured, is built by predict: the table, its view at the
shortened length and the check of a closed-form distance, returned as a
Prediction.  A codeword's tr(xR(x)) part is quadform.form_word, the word
R's profile reads too, and the brute oracle's base words, a block of forms
at a time, are assembled by quadform.form_symbols; the oracle counts every
word's symbols, by one bincount per block, or for variants 1 and 2 over
every beta by quadform.value_histograms.  Everything is exact integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

import numpy as np

from .gf import FieldCtx, FieldError, block_rows, int_log
from .klapper import HypothesisError, eps_ell, rank_distribution_l3l, rank_distribution_monomial
from .linpoly import FamilySpec, LinearizedPoly, family_coeffs
from .quadform import (BETA_CLASSES, RankDistribution, form_symbols, form_word, histogram_cells,
                       value_histograms, value_rows)

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

def weight_from_profile(q: int, m: int, r: int, eps: int, b_zero: bool,
                        beta_class: str) -> int:
    """Codeword weight q^m - 1 - N + [b = 0] for a rank-r type-eps form, N the beta
    class's value in value_rows: q^{m-1} (null), X (major) or Y (minor)."""
    if r <= 0 or r % 2 != 0:
        raise HypothesisError(f"closed-form weights need positive even rank, got {r}")
    if beta_class not in BETA_CLASSES:
        raise ValueError(f"unknown beta class {beta_class!r}")
    X, Y = value_rows(q, m, r, eps)[0][0][:2]
    return q ** m - 1 - (q ** (m - 1), X, Y)[BETA_CLASSES.index(beta_class)] + b_zero


def _add_row(weights: dict[int, int], w: int, count: int):
    if count:
        weights[w] = weights.get(w, 0) + count


def _rows(dist: RankDistribution) -> tuple[tuple[int, int, int], ...]:
    """dist's (rank, type, count) rows, checked: even positive ranks, and R = 0 as (0, +1, 1)."""
    for r, e, cnt in dist.counts:
        if (r, e, cnt) != (0, 1, 1) and cnt and (r <= 0 or r % 2 != 0):
            raise HypothesisError(f"rank {r} outside the even positive range")
    return dist.counts


def predict_general(dist: RankDistribution, variant: str) -> Spectrum:
    """Assemble the spectrum of a full-length variant from a rank distribution.

    Every row of dist, the zero form's (0, +1, 1) among them, adds the
    weight q^m - 1 - row(-b) + [b = 0] of each of its value_rows: all of them
    for variants 1 and 2, the beta = 0 row alone for base and 0.  As b runs
    over F_q, -b runs over every symbol, so variants 0 and 2 read every
    column, and base and 1 column 0.  Summed over value_rows with their
    counts, every nonzero column holds Y (major + (q-2) minor) times,
    q^{m-1} flat times and X minor times, and the beta = 0 row is Y in
    each, so column 1, read q - 1 times, stands for them all.  Frequencies must total
    q^{k(+1)(+m)} by variant, q^k the family size; that is asserted before returning.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    q, m = dist.q, dist.m
    n = q ** m - 1
    rows = _rows(dist)
    weights: dict[int, int] = {}
    for r, e, cnt in rows:
        table = value_rows(q, m, r, e)
        for row, c in table if variant in ("1", "2") else ((table[0][0], 1),):
            _add_row(weights, n + 1 - row[0], cnt * c)
            if variant in ("0", "2"):
                _add_row(weights, n - row[1], cnt * c * (q - 1))

    spec = Spectrum(n=n, q=q, weights=weights)
    size = sum(cnt for _, _, cnt in rows)
    k = int_log(size, q)
    if k is None:
        raise HypothesisError("family size is not a power of q")
    expected_dim = {"base": k, "0": k + 1, "1": k + m, "2": k + m + 1}[variant]
    if spec.dim() != expected_dim:
        raise HypothesisError(f"frequency sum gives dimension {spec.dim()}, expected {expected_dim}")
    return spec


# -- predictions ------------------------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    params: CodeParams
    spectrum: Spectrum          # length (q^m - 1)/D
    full_spectrum: Spectrum     # length q^m - 1
    D: int
    notes: tuple[str, ...] = ()


def predict(dist: RankDistribution, variant: str, d: int | None = None,
            D: int = 1) -> Prediction:
    """The one prediction route: predict_general's spectrum viewed at length (q^m - 1)/D.

    A closed-form distance d must equal the table minimum; without one, d is
    the table minimum.
    """
    full = predict_general(dist, variant)
    spec = full.scaled_down(D)
    dmin = spec.min_distance()
    if d is not None and d != dmin:
        raise HypothesisError(f"distance formula {d} disagrees with table minimum {dmin}")
    notes = () if D == 1 else (f"full-length weights are {D} x the shortened weights "
                               f"(the full word is {D} concatenated copies)",)
    return Prediction(params=CodeParams(spec.n, full.dim(), dmin), spectrum=spec,
                      full_spectrum=full, D=D, notes=notes)


def predict_monomial(q: int, m: int, ell: int, variant: str) -> Prediction:
    """Shortened codes from x^{q^l+1}: length (q^m-1)/D, D = q^{(m,l)}+1."""
    if variant not in ("base", "0"):
        raise ValueError("shortened predictions cover variants base and 0")
    dist = rank_distribution_monomial(q, m, ell)
    half, delta = m // 2, gcd(m, ell)
    D = q ** delta + 1
    e_half_even = eps_ell(m, ell) == 1
    if variant == "base":
        dprime = q ** half - 1 if e_half_even else q ** half - q ** delta
        d = q ** (half - 1) * (q - 1) * dprime // D
    else:
        dbar = q ** (half + delta - 1) + 1 if e_half_even else q ** (half + delta - 1) * (q - 1)
        d = (q ** (m - 1) * (q - 1) - dbar) // D
    return predict(dist, variant, d, D)


def predict_monomial_long(q: int, m: int, ell: int, variant: str) -> Prediction:
    """Full-length codes from x^{q^l+1} with the linear/constant terms added; D is reported."""
    if variant not in ("1", "2"):
        raise ValueError("long predictions cover variants 1 and 2")
    dist = rank_distribution_monomial(q, m, ell)
    half, delta = m // 2, gcd(m, ell)
    dprime = q ** (half + delta - 1) if eps_ell(m, ell) == 1 else (q - 1) * q ** (half + delta - 1)
    d = q ** (m - 1) * (q - 1) - dprime - (variant == "2")
    return replace(predict(dist, variant, d), D=q ** delta + 1)


def predict_l3l(p: int, m: int, ell: int, variant: str) -> Prediction:
    """Full-length codes of the two-monomial family <x^{p^l}, x^{p^{3l}}>, p odd."""
    dist = rank_distribution_l3l(p, m, ell)
    if variant not in ("0", "2"):
        return predict(dist, variant)
    half, delta = m // 2, gcd(m, ell)
    if eps_ell(m, ell) == 1:  # d-hat = d
        d = p ** (m - 1) * (p - 1) - p ** (half + 3 * delta - 1) - 1
    else:
        d = p ** (m - 1) * (p - 1) - (p - 1) * p ** (half + 3 * delta - 1) - (variant == "2")
    return predict(dist, variant, d)


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


def build_codeword(ctx: FieldCtx, spec: CodeSpec, R: LinearizedPoly,
                   beta: int = 0, b_sym: int = 0) -> np.ndarray:
    """Symbol vector of one codeword (canonical F_q symbols), a fresh writable array.

    The tr(xR(x)) part is the first n symbols of quadform.form_word, so the
    (beta, b) draws of one R, and its profile before them, evaluate its terms
    once.  FieldError if beta is not a field element or b_sym not a symbol.
    """
    fam = spec.family
    if beta != 0 and spec.variant not in ("1", "2"):
        raise ValueError(f"variant {spec.variant} has no beta term")
    if b_sym != 0 and spec.variant not in ("0", "2"):
        raise ValueError(f"variant {spec.variant} has no constant term")
    if not 0 <= beta < ctx.order:
        raise FieldError(f"beta = {beta} is not an element of F_{ctx.p}^{ctx.n}")
    if not 0 <= b_sym < fam.q:
        raise FieldError(f"b = {b_sym} is not a symbol of F_{fam.q}")
    sy = ctx.symbols(fam.s)
    n = _length(ctx, spec)
    syms = form_word(ctx, fam.s, R)[:n]
    if beta:  # tr(beta alpha^k) = tr(alpha^{log beta + k}): a slice, trace_pow holds 2N
        lb = int(ctx.log[beta])
        syms = sy.plus(sy.trace_pow[lb: lb + n], syms)
    if b_sym:
        syms = sy.plus(syms, b_sym)
    return syms if beta or b_sym else syms.copy()


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
    indices giving the zero word) and the image holds expected/A_0 words:
    the spectrum and the compositions are the code's, every index count
    divided by A_0, and its dimension is log_q of the distinct words.
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
    weight_hist, comp_counts = _brute_chunk(ctx, spec, collect_compositions)
    a0 = int(weight_hist[0])
    distinct, rest = divmod(n_words, a0)
    if rest or (weight_hist % a0).any() or any(c % a0 for c in comp_counts.values()):
        raise HypothesisError("a linear map hits every word of its image equally often")
    weights = {int(w): int(c) // a0 for w, c in enumerate(weight_hist) if c}
    compositions = {key: c // a0 for key, c in comp_counts.items()}
    spectrum = Spectrum(n=n, q=fam.q, weights=weights)
    params = CodeParams(n=n, k=spectrum.dim(), d=spectrum.min_distance())
    return BruteResult(params=params, spectrum=spectrum, expected_words=n_words,
                       distinct_words=distinct,
                       compositions=compositions if collect_compositions else None)


def _brute_chunk(ctx: FieldCtx, spec: CodeSpec, collect: bool):
    """Weight histogram (and compositions) over every coefficient index.

    Index i names row i of linpoly.family_coeffs; each index covers every
    beta and b of the variant.  A block of indices is enumerated at once:
    its base words take one gather per term, and their symbol compositions
    one bincount, or, over every beta, one quadform.value_histograms call:
    variants 1 and 2 are never shortened, so the base words are full rows in
    the kernel's log order, and word (R, beta) has the composition
    H[R, beta] less the x = 0 entry at symbol 0.  A beta block holds at most
    gf.BLOCK_CELLS kernel cells (q^m q per form), and a kernel table past
    quadform.HISTOGRAM_CELLS is refused (ValueError) before the first block.
    Returns (counts by weight 0..n, {composition: count}).
    """
    fam = spec.family
    q = fam.q
    n = _length(ctx, spec)
    exps = tuple(q ** l + 1 for l in fam.exponents)
    with_beta = spec.variant in ("1", "2")
    # word + b over all b has the weights n - #{word = z} over all symbols z
    with_b = spec.variant in ("0", "2")
    n_z = q if collect or with_b else 1
    per_form = histogram_cells(ctx, fam.s) if with_beta else max(n, n_z)
    block = block_rows(per_form)
    n_forms = ctx.order ** len(fam.exponents)
    weight_hist = np.zeros(n + 1, dtype=np.int64)
    comp_counts: dict[tuple[int, ...], int] = {}
    for start in range(0, n_forms, block):
        coeffs = family_coeffs(ctx, fam, start, min(start + block, n_forms))
        base = form_symbols(ctx, fam.s, coeffs, exps, slice(0, n))
        if with_beta:
            comp = value_histograms(ctx, fam.s, base)[:, :, :n_z].reshape(-1, n_z)
            comp[:, 0] -= 1  # x = 0 is not a coordinate
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


def cwe_predicted(dist: RankDistribution, D: int = 1) -> list[CweTerm]:
    """Compressed enumerator terms from a rank distribution (shortened by D): a base
    word has X - 1 zeros and Y of each nonzero symbol, X, Y from value_rows' beta = 0 row."""
    q, m = dist.q, dist.m
    terms = []
    for r, e, cnt in _rows(dist):
        row = value_rows(q, m, r, e)[0][0]
        z0, zrest = row[0] - 1, row[1]
        if z0 % D or zrest % D:
            raise HypothesisError(f"composition ({z0}, {zrest}) does not shorten by {D}")
        terms.append(CweTerm(coeff=cnt, z0_exp=z0 // D, zrest_exp=zrest // D))
    return sorted(terms, key=lambda t: (-t.z0_exp, t.zrest_exp))


def cwe(ctx: FieldCtx, spec: CodeSpec, dist: RankDistribution,
        budget: int = DEFAULT_BUDGET) -> CweResult:
    """Compressed complete weight enumerator of a base-variant code.

    When the code fits in the budget, every word's composition is checked to
    be balanced (t_i equal for all i > 0) and the compressed form is compared
    with the brute tally.  dist must be over the code's (q, m).
    """
    if spec.variant != "base":
        raise ValueError("the complete weight enumerator applies to base codes")
    q = spec.family.q
    if (dist.q, dist.m) != (q, spec.family.m):
        raise ValueError(f"distribution has (q, m) = {dist.q, dist.m}, the code {q, spec.family.m}")
    n = _length(ctx, spec)
    terms = cwe_predicted(dist, ctx.mult_order // n)
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

