"""Finite fields F_{p^n} with exp/log tables and subfield symbol systems.

A field element is a plain int in [0, p^n): its base-p digits are the
coordinates in the power basis {1, t, .., t^{n-1}} of the modulus root t.
Construction is deterministic: the modulus is the first irreducible monic
polynomial of degree n in ascending order of its digit encoding (constant
term least significant), and alpha is the first element of full
multiplicative order in the same ascending element order.  Both searches
test a batch of candidates at a time by whole-array F_p linear algebra on
companion matrices C (Lidl-Niederreiter, Finite Fields, ch. 2), raised to
powers by repeated squaring.  The modulus is found by Rabin's test written
as matrix identities: C^{p^n} = C, and (C^{p^{n/r}} - C)^{p^n - 1} = I for
every prime r | n.  With C the companion matrix of the modulus, the element
c with digits c_i acts on digit vectors as M_c = sum_i c_i C^i; alpha is the
first candidate whose M_c^{N/r} never fixes e_0, r a prime factor of
N = p^n - 1.  The exp table doubles, exp[2^j : 2^{j+1}] being
exp[: 2^j] times M_{alpha^{2^j}}, one digit product per block of rows, and
log inverts it.  The products run in float64, exact while n p^2 < 2^53.

Scalar arithmetic works on Python ints: mul/pow and, for odd p, neg read the
exp/log tables (-a = alpha^{log a + N/2}); add adds the base-p digits of a
and b without carry (XOR for p = 2).  The scalar ops index the tables
through memoryviews, which give Python ints without a numpy scalar.
The v_* methods operate on numpy arrays of element indices through the
digit tables and back every bulk sweep in the package.  Digit rows are
read with np.take(..., axis=0), never by fancy row indexing of the (order,
n) table, which is several times slower for rows only n wide; v_add and
v_neg pack digit rows back into indices by one float64 product with the
place values, exact because every index is below SIZE_LIMIT = 2^22 < 2^53,
and v_mul adds logs.  FieldCtx is
immutable after construction apart from its lazy tables; it cannot be
pickled (a memoryview cannot be), and nothing in the package needs to.

A subfield F_q, q = p^d, is an F_p-subspace of the digit space.  Its
symbols 0..q-1 number its elements in ascending order, and in reduced
echelon form, most significant digit first, that order is lexicographic
on the d echelon coordinates: a symbol is the base-p number of its
coordinates, so symbols add as base-p digits without carry.
SymbolSystem.plus therefore adds by XOR at p = 2 and by a + b - p [a + b >= p]
at q = p, and only odd p with d > 1 reads the addition table; construction
checks the table against the digit rule once.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

SIZE_LIMIT = 1 << 22
# q x q cells a symbol addition or product table may hold (q <= 4096)
SYMBOL_CELLS = 1 << 24
# cells one block of a blocked loop may hold, in every module (2 MiB as int64)
BLOCK_CELLS = 1 << 18
# candidates for the modulus or for alpha that are tested together
CANDIDATE_BATCH = 32


def block_rows(cells_per_row: int) -> int:
    """Rows of cells_per_row cells each that one block of BLOCK_CELLS cells holds (at least one).

    Reads BLOCK_CELLS at call time, so a patched bound reaches every blocked loop.
    """
    return max(1, BLOCK_CELLS // cells_per_row)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def int_log(n: int, base: int) -> int | None:
    """The k with base**k == n, in exact integer arithmetic; None if there is none."""
    k = 0
    while n > 1 and n % base == 0:
        n //= base
        k += 1
    return k if n == 1 else None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (fields are capped well below 2^32)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def int_dtype(bound: int):
    """The smallest signed numpy integer type that holds -bound..bound."""
    for dt, top in ((np.int8, 127), (np.int16, 32767), (np.int32, 2 ** 31 - 1)):
        if bound <= top:
            return dt
    return np.int64


def _mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers 0 <= x with x + p <= 2^53.

    x / p is correctly rounded, and k + r/p with 0 < r < p lies at least 1/p
    below k + 1, farther than half an ulp, so floor(x / p) is exact.
    """
    x -= p * np.floor(x / p)
    return x


def _companion(low: np.ndarray, p: int) -> np.ndarray:
    """Companion matrices C of f = t^n + sum_i low_i t^i, stacked over low's leading axes.

    C maps the digits of x to the digits of t x in F_p[t]/(f), so g(C) = 0
    exactly when f divides g.  Entries are float64 integers in [0, p).
    """
    n = low.shape[-1]
    C = np.zeros(low.shape + (n,))
    C[..., 1:, :-1] = np.eye(n - 1)
    C[..., -1] = np.negative(low) % p
    return C


def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p for a stack of float64 matrices with integer entries in [0, p)."""
    out = np.broadcast_to(np.eye(M.shape[-1]), M.shape).copy()
    while e:
        if e & 1:
            out = _mod_p(out @ M, p)
        M = _mod_p(M @ M, p)
        e >>= 1
    return out


class FieldError(ValueError):
    pass


class FieldCtx:
    """F_{p^n} with full exp/log tables, built deterministically.

    Raises FieldError if p is not prime or p^n exceeds SIZE_LIMIT.
    """

    def __init__(self, p: int, n: int):
        # a p past SIZE_LIMIT fails the size test below without a trial division
        if p <= SIZE_LIMIT and not is_prime(p):
            raise FieldError(f"p must be prime, got {p}")
        if n < 1:
            raise FieldError(f"extension degree must be >= 1, got {n}")
        # n against the largest exponent that fits, so a huge p^n is never built
        if n > max(e for e in range(SIZE_LIMIT.bit_length()) if p ** e <= SIZE_LIMIT):
            raise FieldError(f"p^n = {p}^{n} exceeds size bound {SIZE_LIMIT}")
        order = p ** n
        # float64 is exact below 2^53: a digit product sums n (p-1)^2, and its
        # reduction mod p needs that sum plus p below 2^53 too
        if n * p * p >= 1 << 53:
            raise FieldError(f"p^n = {p}^{n}: digit products are not exact in float64")
        self.p = p
        self.n = n
        self.order = order
        self.mult_order = order - 1
        self.pvec = np.array([p ** i for i in range(n)], dtype=np.int64)
        # digits lie in [0, p) and a digit sum in [0, 2p - 2]
        self._digmat = self._digit_table()
        self.modulus = self._find_modulus()
        self._sum_dtype = int_dtype(2 * p - 2)
        # p in the digit-sum dtype, so a digit correction makes no int64 temporary
        self._p_sum = self._sum_dtype(p)
        self._pvec_f = self.pvec.astype(np.float64)
        self.alpha = self._find_alpha()
        self._build_tables()
        self._frob_tables: dict[int, np.ndarray] = {}
        self._log_power_tables: dict[int, np.ndarray] = {}
        self._symbols: dict[int, SymbolSystem] = {}

    # -- construction ------------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        # Rabin's test on CANDIDATE_BATCH candidates f at once (the low digits
        # of f are those of its encoding).  Once C^{p^n} = C, F_p[t]/(f) is a
        # product of fields F_{p^d}, d | n, whose units u have u^{p^n - 1} = 1.
        p, n, order = self.p, self.n, self.order
        for lo in range(0, order, CANDIDATE_BATCH):
            C = _companion(self._digmat[lo:lo + CANDIDATE_BATCH], p)
            keep = np.flatnonzero((_mat_pow(C, order, p) == C).all(axis=(1, 2)))
            for r in factorize(n):
                U = _mod_p(_mat_pow(C[keep], p ** (n // r), p) - C[keep] + p, p)
                keep = keep[(_mat_pow(U, order - 1, p) == np.eye(n)).all(axis=(1, 2))]
            if len(keep):
                return tuple(self._digmat[lo + keep[0]].tolist()) + (1,)
        raise FieldError("no irreducible polynomial found")  # unreachable

    def _digit_table(self) -> np.ndarray:
        """Base-p digits of every element, written column by column in place.

        Digit i of e cycles through 0..p-1 in runs of p^i, so viewing the
        table as (p^{n-1-i}, p, p^i, n) makes column i one broadcast write
        with no temporary.
        """
        p, n = self.p, self.n
        out = np.empty((self.order, n), dtype=int_dtype(p - 1))
        digits = np.arange(p, dtype=out.dtype)[None, :, None]
        for i in range(n):
            out.reshape(p ** (n - 1 - i), p, p ** i, n)[:, :, :, i] = digits
        return out

    def _mult_matrices(self, elems: np.ndarray) -> np.ndarray:
        """Stack of M_c = sum_i c_i C^i, C the companion matrix of the modulus.

        M_c maps the digits of x to the digits of c x; its column j holds the
        digits of c t^j = C^j c.  Entries are exact float64 integers in [0, p).
        """
        p, n = self.p, self.n
        C = _companion(np.array(self.modulus[:n]), p)
        col = np.take(self._digmat, elems, axis=0).astype(np.float64)
        cols = [col]
        for _ in range(n - 1):
            col = _mod_p(col @ C.T, p)
            cols.append(col)
        return np.stack(cols, axis=-1)

    def _find_alpha(self) -> int:
        # order test on CANDIDATE_BATCH candidates at once: c has full order iff
        # c^{N/r} != 1 for every prime r | N, read off the first column of M_c^{N/r}
        N = self.mult_order
        if N == 1:
            return 1
        radicals = [N // r for r in factorize(N)]
        one = self._digmat[1]
        for lo in range(2, self.order, CANDIDATE_BATCH):
            cands = np.arange(lo, min(lo + CANDIDATE_BATCH, self.order))
            M = self._mult_matrices(cands)
            full = np.ones(len(cands), dtype=bool)
            for e in radicals:
                full &= (_mat_pow(M, e, self.p)[:, :, 0] != one).any(axis=1)
            if full.any():
                return int(cands[np.argmax(full)])
        raise FieldError("no primitive element found")  # unreachable

    def _build_tables(self):
        # doubling: exp[2^j : 2^{j+1}] = exp[: 2^j] * alpha^{2^j}, one digit
        # product with M_{alpha^{2^j}} per block of BLOCK_CELLS cells
        N, p, n = self.mult_order, self.p, self.n
        exp = np.empty(2 * N, dtype=np.int64)
        exp[0] = 1
        m_alpha = self._mult_matrices(np.array([self.alpha]))[0]
        rows = block_rows(n)
        step, size = m_alpha, 1
        while size < N:
            top = min(2 * size, N)
            for lo in range(size, top, rows):
                hi = min(lo + rows, top)
                d = np.take(self._digmat, exp[lo - size:hi - size], axis=0).astype(np.float64)
                exp[lo:hi] = _mod_p(d @ step.T, p) @ self._pvec_f
            step = _mod_p(step @ step, p)
            size *= 2
        last = self._digmat[exp[N - 1]].astype(np.float64)
        if not np.array_equal(_mod_p(m_alpha @ last, p), self._digmat[1]):
            raise FieldError("alpha order verification failed")
        exp[N:] = exp[:N]
        log = np.full(self.order, -1, dtype=np.int64)
        log[exp[:N]] = np.arange(N, dtype=np.int64)
        # N entries fill the N nonzero slots exactly when they are distinct
        if log[0] != -1 or (log[1:] < 0).any():
            raise FieldError("exp table entries are not distinct")
        self.exp = exp
        self.log = log
        self._exp = memoryview(exp)
        self._log = memoryview(log)

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out, place = 0, 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += (da + db) % p * place
            place *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if a == 0:
            return 0
        return self._exp[self._log[a] + self.mult_order // 2]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % self.mult_order]

    def frob(self, a: int, j: int) -> int:
        """a^{p^j}."""
        return self.pow(a, self.p ** (j % self.n))

    def alpha_pow(self, k: int) -> int:
        return self._exp[k % self.mult_order]

    def element_digits(self, a: int) -> list[int]:
        return [int(c) for c in self._digmat[a]]

    # -- bulk arithmetic on arrays of element indices -------------------------

    def v_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a + b elementwise; a and b broadcast, and either may be an int.

        The digit rows are summed into a new array, never into a's rows in
        place, since those need not have the broadcast shape.  Packing them
        by a float64 product is exact: indices stay below SIZE_LIMIT < 2^53.
        """
        if self.p == 2:
            return a ^ b
        d = (np.take(self._digmat, a, axis=0).astype(self._sum_dtype)
             + np.take(self._digmat, b, axis=0))
        d -= self._p_sum * (d >= self._p_sum)
        return (d @ self._pvec_f).astype(np.int64)

    def v_neg(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.array(a, dtype=np.int64)
        d = -np.take(self._digmat, a, axis=0).astype(self._sum_dtype)
        d += self._p_sum * (d < 0)
        return (d @ self._pvec_f).astype(np.int64)

    def v_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = self.exp[self.log[a] + self.log[b]]
        zero = (a == 0) | (b == 0)
        if np.any(zero):
            out = np.where(zero, 0, out)
        return out

    def frob_table(self, j: int) -> np.ndarray:
        """Lookup table e -> e^{p^j} over all elements, built once per j mod n."""
        j %= self.n
        tab = self._frob_tables.get(j)
        if tab is None:
            tab = self._frob_tables[j] = self.power_table(self.p ** j)
        return tab

    def power_table(self, e: int) -> np.ndarray:
        """Lookup table x -> x^e over all elements (0 -> 0 for e > 0)."""
        N = self.mult_order
        tab = np.zeros(self.order, dtype=np.int64)
        if N > 0:
            ks = np.arange(N, dtype=np.int64)
            tab[self.exp[:N]] = self.exp[(ks * (e % N)) % N]
        return tab

    def log_power_table(self, e: int) -> np.ndarray:
        """Table k -> log((alpha^k)^e) = k e mod N over k < N, built once per e mod N."""
        N = self.mult_order
        e %= N
        tab = self._log_power_tables.get(e)
        if tab is None:
            tab = np.arange(N, dtype=np.int64) * e % N
            self._log_power_tables[e] = tab
        return tab

    # -- subfield symbols ------------------------------------------------------

    def symbols(self, d: int) -> "SymbolSystem":
        if self.n % d != 0:
            raise FieldError(f"subfield degree {d} does not divide {self.n}")
        sys = self._symbols.get(d)
        if sys is None:
            sys = SymbolSystem(self, d)
            self._symbols[d] = sys
        return sys


class SymbolSystem:
    """Canonical F_q = F_{p^d} symbol indexing inside F_{p^n}, q = p^d.

    Symbols are 0..q-1 in ascending element-index order (so symbol 0 is the
    zero element).  trace_sym[e] is the symbol of tr_{p^n/p^d}(e), indexed by
    element; trace_pow and the x half of coordinates are indexed by log, the
    order x = alpha^k of every trace-form table in the package.  add/neg are
    symbol-level tables, built from v_add and v_neg.  plus adds arrays of
    symbols by their base-p digits (see the module docstring): XOR at p = 2,
    a + b - p [a + b >= p] at q = p, and the flat add table at odd p with
    d > 1.  Construction raises FieldError if add differs from the digit
    rule where plus uses it.  The product table, the traces of the powers
    of alpha and the trace coordinates are built on first use only.  Past
    SYMBOL_CELLS q x q cells (q > 4096) construction raises FieldError.
    """

    def __init__(self, ctx: FieldCtx, d: int):
        self.ctx = ctx
        self.d = d
        self.q = ctx.p ** d
        if self.q ** 2 > SYMBOL_CELLS:
            raise FieldError(f"q^2 = {self.q ** 2} symbol table cells exceed {SYMBOL_CELLS}")
        k = ctx.n // d
        all_e = np.arange(ctx.order, dtype=np.int64)
        # F_q is the set of fixed points of x -> x^q, in ascending element order
        self.elements = all_e[ctx.frob_table(d) == all_e]
        if len(self.elements) != self.q:
            raise FieldError("subfield size check failed")
        self.index_of = np.full(ctx.order, -1, dtype=np.int64)
        self.index_of[self.elements] = np.arange(self.q)
        acc = all_e.copy()
        x = all_e
        for _ in range(k - 1):
            x = ctx.frob_table(d)[x]
            acc = ctx.v_add(acc, x)
        if not np.all(ctx.frob_table(d)[acc] == acc):
            raise FieldError("trace values escaped the subfield")
        self.trace_sym = self.index_of[acc].astype(np.int16)
        self._q16 = np.uint16(self.q)
        self.add = self._table(ctx.v_add)
        if ctx.p == 2 or d == 1:  # plus adds digits: check the rule against the table once
            sym = np.arange(self.q, dtype=np.int16)
            if any(not np.array_equal(self.add[rows], self.plus(sym[rows, None], sym))
                   for rows in self._row_blocks()):
                raise FieldError("symbol addition table is not digit addition")
        self.neg = self.index_of[ctx.v_neg(self.elements)].astype(np.int16)

    def _row_blocks(self):
        """Slices of table rows covering about BLOCK_CELLS cells each."""
        rows = block_rows(self.q)
        return [slice(lo, lo + rows) for lo in range(0, self.q, rows)]

    def _table(self, op) -> np.ndarray:
        """int16 q x q symbol table of a vectorised field op, filled BLOCK_CELLS cells at a time."""
        out = np.empty((self.q, self.q), dtype=np.int16)
        for rows in self._row_blocks():
            out[rows] = self.index_of[op(self.elements[rows, None], self.elements[None, :])]
        return out

    def plus(self, a, b) -> np.ndarray:
        """a + b over F_q symbols, as int16; a and b broadcast, and one may be a scalar.

        Digit addition without carry: XOR at p = 2, a + b - p [a + b >= p] at
        q = p, taken as min(a + b, a + b - p) in uint16: below p, a + b - p
        wraps to at least 2^16 - p > 2p - 2, as q <= 4096.  Otherwise a
        gather from the flat addition table.
        """
        if self.ctx.p == 2:
            return np.bitwise_xor(a, b, dtype=np.int16)
        if self.d == 1:
            s = np.add(a, b, dtype=np.int16).view(np.uint16)
            return np.minimum(s, s - self._q16).view(np.int16)
        return self.add.ravel()[np.asarray(a, dtype=np.intp) * self.q + b]

    @cached_property
    def mul(self) -> np.ndarray:
        """Symbol product table."""
        return self._table(self.ctx.v_mul)

    @cached_property
    def trace_pow(self) -> np.ndarray:
        """Symbol of tr(alpha^k) for k < 2N, so a sum of two logs needs no reduction."""
        return self.trace_sym[self.ctx.exp]

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """(x_index, beta_index): F_q-coordinates as base-q integers, first digit most significant.

        With k = n/d, x_index[j] has the digits c_i(alpha^j) = tr(alpha^{i+j}),
        i < k, of x = alpha^j for j < N, in the log order of form_symbols: one
        slice of trace_pow per digit.  x = 0 has all digits 0 and no entry.
        beta_index[beta] has the digits b_i of beta = sum_i b_i alpha^i, for
        every element beta in element order.  x_index is a bijection onto
        [1, q^k) and beta_index onto [0, q^k), and tr(beta x) = sum_i b_i c_i(x).
        Its inverse doubles like exp, least significant digit first, one digit
        addition per element: beta_of[b q^{k-1-i} + j] = beta_of[j] + b alpha^i.
        """
        ctx, q, k = self.ctx, self.q, self.ctx.n // self.d
        N = ctx.mult_order
        all_e = np.arange(ctx.order, dtype=np.int64)
        x_index = np.zeros(N, dtype=np.int64)
        for i in range(k):
            x_index = x_index * q + self.trace_pow[i: i + N]
        beta_of = np.zeros(ctx.order, dtype=np.int64)
        rows, size = block_rows(ctx.n), 1
        for i in reversed(range(k)):
            steps = ctx.v_mul(self.elements, ctx.alpha_pow(i))  # b alpha^i for every digit b
            for lo in range(size, q * size, rows):
                idx = all_e[lo: min(lo + rows, q * size)]
                beta_of[idx] = ctx.v_add(beta_of[idx % size], steps[idx // size])
            size *= q
        beta_index = np.full(ctx.order, -1, dtype=np.int64)
        beta_index[beta_of] = all_e
        # x_index hits every index but 0 once, checked by count rather than by sort
        if (beta_index < 0).any() or not np.array_equal(np.bincount(x_index), all_e > 0):
            raise FieldError("alpha^0..alpha^{k-1} is not a basis over the subfield")
        return x_index, beta_index


@lru_cache(maxsize=None)
def get_field(p: int, n: int) -> FieldCtx:
    """Cached FieldCtx(p, n) (contexts are immutable)."""
    return FieldCtx(p, n)

