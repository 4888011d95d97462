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
profiles one row per orbit of the Frobenius and x -> cx (orbit_rows), each
with its exact int64 weight, into a RankDistribution.  Rank 0 has type +1 on
every route, with no branch: N_Q(0) = q^m is the type +1 count at r = 0.

Every trace-form symbol table in the package (Q's values, codewords, curve
counts, scans and the beta sweeps) comes from form_symbols, one log-domain
gather per term, in the one layout x = alpha^k, k < q^m - 1 (the form is 0
at x = 0), and every Gram term from gram_exponents, one gather in the digit
basis t^i = p^i.  lin_eval stays the independent scalar route of R, and
curves.count_points_by_solutions sums x R(x) by exp gathers, with no trace.

Every closed-form sweep table (counts, curve points, code weights, enumerators)
is a projection of value_rows, the one closed form of the rows of H[beta, c].

Every sweep over all beta goes through value_histograms, which reads
form_symbols rows: an exact additive-character transform in the group ring
Z[F_q] that returns N_{Q,beta}(c) for all beta and c at once, at m q^{m+2}
integer additions per form instead of the q^{2m} of a (beta, x) grid,
gathering whole blocks along a leading symbol axis.  Its counts are
int_dtype(q^m) from the first write to the returned array, and a batch of B
forms works in three buffers of B q^{m+1} counts; QuadForm.histogram
widens its one row to int64.  spectra's brute oracle reads the compositions
of its beta-variant words from it too; the transform's own reference is a
direct count over every (beta, x), in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm

import numpy as np

from .gf import FieldCtx, FieldError, block_rows, int_dtype
from .linalg import reduce_symmetric
from .linpoly import FamilySpec, LinearizedPoly, family_coeffs, lin_eval

BETA_CLASSES = ("null", "major", "minor")
# largest field on which form_profiles counts zeros (and cross-checks the discriminant)
COUNT_LIMIT = 1 << 16


class RankError(ValueError):
    pass


class HypothesisError(ValueError):
    """Raised when parameters fall outside a result's hypotheses."""


@dataclass(frozen=True)
class QuadFormProfile:
    rank: int
    type: int  # +1 / -1; +1 at rank 0


@dataclass(frozen=True)
class RankDistribution:
    """M_{r,eps} multiplicities of a family's forms over F_q; R = 0 is the (0, +1, 1) row."""

    q: int
    m: int
    counts: tuple[tuple[int, int, int], ...]  # (rank, eps, count), rank descending

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(r, e): c for r, e, c in self.counts}


class QuadForm:
    """Q_R over F_q in m variables, with scalar evaluation and its beta histogram."""

    def __init__(self, ctx: FieldCtx, s: int, m: int, R: LinearizedPoly):
        if ctx.n != s * m:
            raise FieldError("field degree must equal s*m")
        self.ctx = ctx
        self.s = s
        self.m = m
        self.q = ctx.p ** s
        self.R = R

    def value_sym(self, x: int) -> int:
        """Q(x) as a canonical F_q symbol."""
        ctx = self.ctx
        return int(ctx.symbols(self.s).trace_sym[ctx.mul(x, lin_eval(ctx, self.R, x))])

    @cached_property
    def histogram(self) -> np.ndarray:
        """int64 H[beta, c] = N_{Q,beta}(c) for every beta and symbol c, built once per form."""
        coeffs, exps = form_terms(self.R, self.q)
        H = value_histograms(self.ctx, self.s, form_symbols(self.ctx, self.s, [coeffs], exps))
        return H[0].astype(np.int64, order="C")


def form_terms(R: LinearizedPoly, q: int) -> tuple[list[int], tuple[int, ...]]:
    """(coeffs, exps) with x R(x) = sum_i c_i x^{e_i}, zero coefficients dropped."""
    terms = [(c, q ** l + 1) for l, c in zip(R.q_exponents, R.coeffs) if c]
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
    e = gram_exponents(ctx, s l): one gather per term, c = 0 giving a zero term,
    and one n x n gather for a column constant over the block (a tally's lead).
    """
    p, n = ctx.p, ctx.n
    tp = ctx.symbols(1).trace_pow
    logs = ctx.log[np.asarray(coeffs, dtype=np.int64)]
    t = np.zeros((len(logs), n, n), dtype=int_dtype(2 * p * max(1, len(ls))))
    for col, l in zip(logs.T, ls):
        if len(col) > 1 and (col == col[0]).all():
            col = col[:1]  # one term, broadcast over the block
        t += tp[col[:, None, None] + gram_exponents(ctx, s * l)] * (col >= 0)[:, None, None]
    return (t + t.transpose(0, 2, 1)) % p


def form_profiles(ctx: FieldCtx, s: int, coeffs, ls: tuple[int, ...],
                  count: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(rank, type) of Q_R for R = sum_i c_i x^{q^{l_i}}, one per row of a (B, len(ls)) coeffs.

    Each block of forms under gf.BLOCK_CELLS Gram and value-table cells gets
    one congruence reduction of its form_grams.  Odd p: the rank is r_p / s
    and the type eta_p((-1)^{r_p/2} disc).
    p = 2: ker B is read off the reduction and the radical is ker B or a
    hyperplane of it as Q vanishes on a kernel basis or not (Q by scalar
    lin_eval).  With count (always for p = 2), on fields of order up to
    COUNT_LIMIT, the type is solved from the zero count
    N_Q(0) = q^{m-1} + eps (q-1) q^{m-r/2-1} of a value table, and for odd p
    it must equal the discriminant's.  Returns int arrays; type +1 at rank 0,
    where N_Q(0) = q^m and the discriminant is 1.
    The first failing row raises RankError: odd rank, a zero count of
    neither type, disagreeing routes, or p = 2 past COUNT_LIMIT.
    """
    p, n = ctx.p, ctx.n
    m, q = n // s, p ** s
    coeffs = np.asarray(coeffs, dtype=np.int64)
    counting = (count or p == 2) and ctx.order <= COUNT_LIMIT
    block = block_rows(n * n + ctx.order * counting)
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
            e = 1  # the type of rank 0; the zero count gives the others
        else:
            r, e = red.rank // s, red.etas()
        odd = r % 2
        if counting:
            syms = form_symbols(ctx, s, rows, tuple(q ** l + 1 for l in ls))
            n0 = 1 + np.count_nonzero(syms == 0, axis=1)  # 1 for x = 0
            base, dev = q ** (m - 1), (q - 1) * q ** (m - 1 - r // 2)
            if p == 2:
                e = np.where(n0 == base + dev, 1, -1)
            bad = odd | (n0 != base + e * dev)
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
        eps[lo: lo + block] = e
    return rank, eps


def _lead_orbits(p: int, n: int, N: int, E: list[int]):
    """(r, lead rows, G_r) per orbit of r -> rp mod d = gcd(N, E[0]), r its least member:
    (t, u) fixes alpha^r iff r (p^t - 1) = 0 (mod d), for the d u with u E[0] = r (1 - p^t)
    (mod N), and G_r is their distinct actions (p^t, (u E_i)_{i>0}) mod N on the tails (one if
    none): u and u + w N/d act alike, w the least with w N/d E_i = 0 (mod N), all i > 0."""
    d = gcd(N, E[0])
    w = lcm(*(N // gcd(N, N // d * e) for e in E[1:]))
    for r in sorted({min(x * pow(p, t, d) % d for t in range(n)) for x in range(d)}):
        acts = set()
        fixing = [t for t in range(n) if r * (pow(p, t, d) - 1) % d == 0]
        for P in {pow(p, t, N) for t in fixing} if E[1:] else {1}:
            u0 = r * (1 - P) // d * pow(E[0] // d, -1, N // d) % (N // d)
            acts |= {(P, tuple(u * e % N for e in E[1:])) for u in range(u0, N, N // d)[:w]}
        yield (r, len({r * pow(p, t, d) % d for t in range(n)}) * (N // d),
               [(P, np.array(U, dtype=np.int64)) for P, U in sorted(acts)])


def orbit_rows(ctx: FieldCtx, fam: FamilySpec):
    """Chunks (rows, weights): one row per orbit of the family's nonzero rows and its int64 size.

    The group is x -> cx (c_i -> c_i c^{E_i}, E_i = q^{l_i}+1) and the Frobenius
    (c_i -> c_i^p, as Q_{c^p}(x^p) = Q_c(x)^p), in logs a_i -> a_i p^t + u E_i mod N:
    both keep rank and type.  Per lead position j and lead orbit (_lead_orbits), a
    tail stands for its G_r-orbit when its family_coeffs index is the least of its
    images, and weighs (lead rows) |G_r| / #{g in G_r fixing it}.  One chunk per
    gf.BLOCK_CELLS tail coefficients, every lead orbit's rows, more leading zeros first.
    HypothesisError if a lead's weights do not add up to its rows.
    """
    N, k, E = ctx.mult_order, len(fam.exponents), [fam.q ** l + 1 for l in fam.exponents]
    for j in reversed(range(k)):
        tail = FamilySpec(fam.p, fam.s, fam.m, fam.exponents[j + 1:])
        n_tails, places = ctx.order ** (k - 1 - j), ctx.order ** np.arange(k - 1 - j)[::-1]
        leads = list(_lead_orbits(ctx.p, ctx.n, N, E[j:]))
        totals, chunk = [0] * len(leads), block_rows(max(1, k - 1 - j))
        for lo in range(0, n_tails, chunk):
            tails = family_coeffs(ctx, tail, lo, min(lo + chunk, n_tails))
            i, logs = np.arange(lo, lo + len(tails)), ctx.log[tails]  # -1 for a zero coefficient
            rows, weights = [], []
            for at, (r, lead_rows, acts) in enumerate(leads):
                least, fixed = np.ones(len(i), dtype=bool), np.zeros(len(i), dtype=np.int64)
                for P, U in acts:
                    image = np.where(logs < 0, 0, (logs * P + U) % N + 1) @ places
                    least &= image >= i
                    fixed += image == i
                w = lead_rows * len(acts) // fixed[least]
                totals[at] += int(w.sum())
                weights.append(w)
                rows.append(np.column_stack([np.zeros((len(w), j), dtype=np.int64),
                                             np.full(len(w), ctx.exp[r]), tails[least]]))
            yield np.vstack(rows), np.concatenate(weights)
        for (r, lead_rows, _), total in zip(leads, totals):
            if total != lead_rows * n_tails:
                raise HypothesisError(f"lead alpha^{r} at position {j}: orbit weights add up to "
                                      f"{total}, not {lead_rows * n_tails}")


def tally_profiles(ctx: FieldCtx, fam: FamilySpec, count: bool = True) -> RankDistribution:
    """The (rank, type) multiplicities over all (q^m)^k coefficient rows of a family.

    form_profiles (with count) profiles each orbit_rows row, which adds its int64
    weight.  Ranks descending, type +1 before -1; the zero row is counted in (0, +1).
    """
    hist = np.zeros(2 * (fam.m + 1), dtype=np.int64)  # index 2 rank + (type == +1)
    hist[1] = 1  # the zero row
    for rows, weights in orbit_rows(ctx, fam):
        rank, eps = form_profiles(ctx, fam.s, rows, fam.exponents, count)
        np.add.at(hist, 2 * rank + (eps > 0), weights)
    return RankDistribution(fam.q, fam.m, tuple((k // 2, 1 if k % 2 else -1, int(hist[k]))
                                                for k in np.flatnonzero(hist)[::-1].tolist()))


def profile(Q: QuadForm) -> QuadFormProfile:
    rank, eps = form_profiles(Q.ctx, Q.s, [Q.R.coeffs], Q.R.q_exponents)
    return QuadFormProfile(rank=int(rank[0]), type=int(eps[0]))


# -- solution counts and exponential sums -------------------------------------

# largest q^m * q cells one symbol table may spread over in value_histograms
HISTOGRAM_CELLS = 1 << 26


def histogram_cells(ctx: FieldCtx, s: int) -> int:
    """The q^m q cells of one value_histograms table; ValueError past HISTOGRAM_CELLS."""
    cells = ctx.order * ctx.p ** s
    if cells > HISTOGRAM_CELLS:
        raise ValueError(f"{cells} histogram cells per table exceed {HISTOGRAM_CELLS}")
    return cells


def value_histograms(ctx: FieldCtx, s: int, f: np.ndarray) -> np.ndarray:
    """H[b, beta, c] = #{x in F_{q^m} : f_b(x) + tr_{q^m/q}(beta x) = c}, for every beta and c.

    f is a (B, q^m - 1) stack of F_q symbol rows in the log order of
    form_symbols: column k holds f_b(alpha^k), and f_b(0) = 0, as for every
    trace form.  Any rows work, not just quadratic ones.  With the coordinates
    c_i(x) = tr(alpha^i x) and beta = sum_i b_i alpha^i, the histogram of
    (f_b(x), c(x), b) holds only 0 and 1, as c(x) determines x: it is written
    as ones, gf.BLOCK_CELLS (form, x) entries at a time (x = 0 at c = 0).  It
    becomes H by one additive-character stage per coordinate in the group
    ring Z[F_q] (MacWilliams-Sloane ch. 5): A'[c, t, ..] = sum_y
    A[c - y t, .., y, b], each stage taking the coordinate before the form
    axis to the place after the symbol axis c.  With c leading, each y
    gathers q^2 whole blocks of q^{k-1} B counts: m q^{m+2} integer
    additions per table instead of the q^{2m} of a (beta, x) grid.  A count
    never exceeds q^m, so every count is int_dtype(q^m) (int8 below 128,
    int16 below 2^15, int32 from q^m = 2^15), and a stage runs between two
    preallocated buffers of B q^{m+1} counts and one scratch buffer, with
    mode="clip" so that np.take writes its out= directly: callers bound B.
    Each y gathers its own (q, q) shift slice c - y t from the addition
    table, so no q^3 table is built, whatever q.
    Returns the counts in int_dtype(q^m), shape (B, q^m, q), beta indexed by
    field element: a transposed view of one (q, q^m, B) array, so H[:, :, c]
    is contiguous.
    """
    q, k = ctx.p ** s, ctx.n // s
    cells = histogram_cells(ctx, s)
    sy = ctx.symbols(s)
    x_index, beta_index = sy.coordinates
    B = f.shape[0]
    a = np.zeros((cells, B), dtype=int_dtype(ctx.order))
    step = block_rows(ctx.mult_order)
    for lo in range(0, B, step):
        rows = f[lo: lo + step]
        flat = np.multiply(rows, ctx.order * B, dtype=np.int64)
        flat += x_index * B + np.arange(lo, lo + len(rows))[:, None]
        a.ravel()[flat.ravel()] = 1
    a[0] = 1  # x = 0: every coordinate and f vanish there
    # sy.add[:, minus[y]][c, t] = c - y t, always in range, so mode="clip" moves no index
    minus = sy.neg[sy.mul]
    out, term = np.empty_like(a), np.empty_like(a).reshape(q, q, -1, B)
    for _ in range(k):
        src, dst = a.reshape(q, -1, q, B), out.reshape(q, q, -1, B)
        np.take(src[:, :, 0], sy.add[:, minus[0]], axis=0, out=dst, mode="clip")
        for y in range(1, q):
            np.take(src[:, :, y], sy.add[:, minus[y]], axis=0, out=term, mode="clip")
            dst += term
        a, out = out, a
    del out, term, src, dst
    return a.reshape(q, ctx.order, B)[:, beta_index].transpose(2, 1, 0)


def frequencies(values: np.ndarray) -> dict[int, int]:
    """Value -> number of occurrences in an integer array."""
    return {int(v): int(c) for v, c in zip(*np.unique(values, return_counts=True))}


def n_distribution(Q: QuadForm, xi_sym: int) -> dict[int, int]:
    """Value -> frequency of N_{Q,beta}(xi) over all beta, for one xi symbol."""
    return frequencies(Q.histogram[:, xi_sym])


# -- the closed form of every beta sweep -------------------------------------------

@lru_cache(maxsize=256)
def value_rows(q: int, m: int, r: int, eps: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(row, count) pairs of the rows of H[beta, c] = N_{Q,beta}(c) for rank r, type eps.

    The q^m - q^r rows of beta outside W^perp (W the radical) are flat at
    q^{m-1}.  For beta in W^perp, Q(x) + tr(beta x) = Q(x + u) - Q(u): the row
    is X = q^{m-1} + eps (q-1) h at c = -Q(u) and Y = q^{m-1} - eps h
    elsewhere, h = q^{m-1-r/2} (Lidl-Niederreiter, Thm 6.26-6.27).  Counts
    are found q times over, so r = 0 (type +1) needs no branch.  beta = 0's
    row (its peak at symbol 0) comes first, then the flat row and the peaks
    at c0 = 1 .. q-1; rows of count 0 are left out.  RankError on odd r,
    r > m, or counts that are not integers (at least 1 for beta = 0's row).
    """
    if r % 2 or not 0 <= r <= m or eps not in (1, -1):
        raise RankError(f"even rank 0 <= r <= m = {m} and type +-1 required, got ({r}, {eps})")
    scaled = (q ** r + eps * (q - 1) * q ** (r // 2), q ** (m + 1) - q ** (r + 1),
              q ** r - eps * q ** (r // 2))
    counts = [divmod(v, q) for v in scaled]
    if any(rest or cnt < (k == 0) for k, (cnt, rest) in enumerate(counts)):
        raise RankError(f"no integral beta counts at q = {q}, m = {m}, r = {r}, eps = {eps}")
    base, h = q ** (m - 1), q ** (m - 1 - r // 2)
    X, Y = base + eps * (q - 1) * h, base - eps * h
    peaks = [(Y,) * c0 + (X,) + (Y,) * (q - 1 - c0) for c0 in range(q)]
    (major, _), (flat, _), (minor, _) = counts
    pairs = [(peaks[0], major), ((base,) * q, flat)] + [(row, minor) for row in peaks[1:]]
    return tuple((row, cnt) for row, cnt in pairs if cnt)


def expected_count_distribution(q: int, m: int, r: int, eps: int, xi_is_zero: bool) -> dict[int, int]:
    """Closed-form N_{Q,beta}(xi) value -> frequency over beta: column xi of value_rows
    (every nonzero xi reads alike)."""
    out: dict[int, int] = {}
    for row, cnt in value_rows(q, m, r, eps):
        v = row[0 if xi_is_zero else 1]
        out[v] = out.get(v, 0) + cnt
    return out


@dataclass
class SumDistributionReport:
    ok: bool
    rank: int
    type: int
    mismatches: list[str]


def verify_sum_distribution(Q: QuadForm) -> SumDistributionReport:
    """Compare the multiset of Q's histogram rows, and its beta = 0 row, with value_rows.

    The row multiset is the joint over all c of every per-b sum table; at
    q = 2 it is the same for both types, and the beta = 0 row tells them apart.
    """
    prof = profile(Q)
    r, eps = prof.rank, prof.type
    H = Q.histogram
    expected = value_rows(Q.q, Q.m, r, eps)
    keys, counts = np.unique(H, axis=0, return_counts=True)
    observed = set(zip(map(tuple, keys.tolist()), counts.tolist()))
    mismatches = []
    if observed != set(expected):
        mismatches.append(f"rows: observed only {sorted(observed - set(expected))}, "
                          f"expected only {sorted(set(expected) - observed)}")
    if tuple(H[0].tolist()) != expected[0][0]:
        mismatches.append(f"beta = 0: observed {H[0].tolist()}, expected {list(expected[0][0])}")
    return SumDistributionReport(ok=not mismatches, rank=r, type=eps, mismatches=mismatches)
