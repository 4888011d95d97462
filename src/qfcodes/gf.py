"""Finite fields F_{p^n} with exp/log tables and subfield symbol systems.

A field element is a plain int in [0, p^n): its base-p digits are the
coordinates in the power basis {1, t, .., t^{n-1}} of the modulus root t.
Construction is deterministic: the modulus is the first irreducible monic
polynomial of degree n in ascending order of its digit encoding
(constant term least significant, found by Rabin's test), and alpha is the
first element of full multiplicative order in the same ascending element
order.  Both tables come from whole-array F_p linear algebra on the
companion matrix C of the modulus (Lidl-Niederreiter, Finite Fields, ch. 2):
the element c with digits c_i acts on digit vectors as M_c = sum_i c_i C^i.
The order test raises a batch of candidate matrices to every N/r, r a prime
factor of N = p^n - 1, by repeated squaring; alpha is the first candidate
whose powers never fix e_0.  The exp table doubles, exp[2^j : 2^{j+1}] being
exp[: 2^j] times M_{alpha^{2^j}}, one digit product per block of rows, and
log inverts it.  The products run in float64, exact while n p^2 < 2^53.

Scalar arithmetic works on ints and is table-driven: mul/inv/pow read the
exp/log tables, and for odd p add/neg read them too, through a Zech table
Z[k] = log(1 + alpha^k) built on the first scalar add (Lidl-Niederreiter,
Finite Fields, ch. 2), so a + b = alpha^{log a + Z[log b - log a]} and
-a = alpha^{log a + N/2}; for p = 2 add is XOR.  The scalar ops index the
tables through memoryviews, which give Python ints without a numpy scalar.
The v_* methods operate on numpy arrays of element indices through the
digit tables and back every bulk sweep in the package.  FieldCtx is
immutable after construction apart from its lazy tables; it cannot be
pickled (a memoryview cannot be), and nothing in the package needs to.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd

import numpy as np

DEFAULT_SIZE_LIMIT = 1 << 22
# q x q cells a symbol addition or product table may hold (q <= 4096)
SYMBOL_CELLS = 1 << 24
# q x q table cells one block of field arithmetic fills at a time (2 MiB as int64)
SYMBOL_BLOCK = 1 << 18
# (element, digit) cells one block of table construction handles at a time
BUILD_CELLS = 1 << 18
# candidates for alpha whose multiplicative order is tested together
ALPHA_BATCH = 32


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


# -- polynomial helpers over F_p (coefficient tuples, constant term first) --
# Only used during construction; all later arithmetic is table-driven.

def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _pmod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            q = (c * inv_lead) % p
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - q * f[j]) % p
    return a[:df] if df > 0 else []


def _pmulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(base, e, f, p):
    result = [1]
    b = list(base)
    while e:
        if e & 1:
            result = _pmulmod(result, b, f, p)
        b = _pmulmod(b, b, f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while any(c % p for c in b):
        while b and b[-1] % p == 0:
            b.pop()
        a = _pmod(a, b, p)
        a, b = b, a
        while a and a[-1] % p == 0:
            a.pop()
    return a


def _is_irreducible(f, p, n):
    # Rabin: x^{p^n} = x mod f, and gcd(x^{p^{n/r}} - x, f) = 1 for prime r | n.
    if n == 1:
        return True
    x = [0, 1]
    xq = x
    for _ in range(n):
        xq = _ppowmod(xq, p, f, p)
    if (_pmod(xq, f, p) + [0] * n)[:n] != (_pmod(x, f, p) + [0] * n)[:n]:
        return False
    for r in factorize(n):
        xr = x
        for _ in range(n // r):
            xr = _ppowmod(xr, p, f, p)
        diff = [(a - b) % p for a, b in zip((xr + [0] * n)[:n], (x + [0] * n)[:n])]
        g = _pgcd(list(f), diff, p)
        if len(g) != 1:
            return False
    return True


def int_dtype(bound: int):
    """The smallest signed numpy integer type that holds -bound..bound."""
    for dt in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dt).max:
            return dt
    return np.int64


def _mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers 0 <= x with x + p <= 2^53.

    x / p is correctly rounded, and k + r/p with 0 < r < p lies at least 1/p
    below k + 1, farther than half an ulp, so floor(x / p) is exact.
    """
    x -= p * np.floor(x / p)
    return x


def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p for a stack of float64 matrices with integer entries in [0, p)."""
    out = np.broadcast_to(np.eye(M.shape[-1]), M.shape).copy()
    while e:
        if e & 1:
            out = _mod_p(out @ M, p)
        M = _mod_p(M @ M, p)
        e >>= 1
    return out


def _digits_of(value: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(value % p)
        value //= p
    return out


class FieldError(ValueError):
    pass


class FieldCtx:
    """F_{p^n} with full exp/log tables (built for p^n <= size limit)."""

    def __init__(self, p: int, n: int, size_limit: int = DEFAULT_SIZE_LIMIT):
        if not is_prime(p):
            raise FieldError(f"p must be prime, got {p}")
        if n < 1:
            raise FieldError(f"extension degree must be >= 1, got {n}")
        order = p ** n
        if order > size_limit:
            raise FieldError(f"p^n = {order} exceeds size bound {size_limit}")
        # float64 is exact below 2^53: a digit product sums n (p-1)^2, and its
        # reduction mod p needs that sum plus p below 2^53 too
        if n * p * p >= 1 << 53:
            raise FieldError(f"p^n = {p}^{n}: digit products are not exact in float64")
        self.p = p
        self.n = n
        self.order = order
        self.mult_order = order - 1
        self.modulus = self._find_modulus()
        self.pvec = np.array([p ** i for i in range(n)], dtype=np.int64)
        # digits lie in [0, p) and a digit sum in [0, 2p - 2]
        self._digmat = self._digit_table()
        self._sum_dtype = int_dtype(2 * p - 2)
        self.alpha = self._find_alpha()
        self._build_tables()
        self._frob_tables: dict[int, np.ndarray] = {}
        self._log_power_tables: dict[int, np.ndarray] = {}
        self._symbols: dict[int, SymbolSystem] = {}

    # -- construction ------------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, n = self.p, self.n
        for enc in range(p ** n):
            f = _digits_of(enc, p, n) + [1]
            if _is_irreducible(f, p, n):
                return tuple(f)
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
        C = np.zeros((n, n))
        C[1:, :-1] = np.eye(n - 1)
        C[:, -1] = np.negative(self.modulus[:n]) % p
        col = self._digmat[elems].astype(np.float64)
        cols = [col]
        for _ in range(n - 1):
            col = _mod_p(col @ C.T, p)
            cols.append(col)
        return np.stack(cols, axis=-1)

    def _find_alpha(self) -> int:
        # order test on ALPHA_BATCH candidates at once: c has full order iff
        # c^{N/r} != 1 for every prime r | N, read off the first column of M_c^{N/r}
        N = self.mult_order
        if N == 1:
            return 1
        radicals = [N // r for r in factorize(N)]
        one = self._digmat[1]
        for lo in range(2, self.order, ALPHA_BATCH):
            cands = np.arange(lo, min(lo + ALPHA_BATCH, self.order))
            M = self._mult_matrices(cands)
            full = np.ones(len(cands), dtype=bool)
            for e in radicals:
                full &= (_mat_pow(M, e, self.p)[:, :, 0] != one).any(axis=1)
            if full.any():
                return int(cands[np.argmax(full)])
        raise FieldError("no primitive element found")  # unreachable

    def _build_tables(self):
        # doubling: exp[2^j : 2^{j+1}] = exp[: 2^j] * alpha^{2^j}, one digit
        # product with M_{alpha^{2^j}} per block of BUILD_CELLS cells
        N, p, n = self.mult_order, self.p, self.n
        exp = np.empty(2 * N, dtype=np.int64)
        exp[0] = 1
        m_alpha = self._mult_matrices(np.array([self.alpha]))[0]
        pv = self.pvec.astype(np.float64)
        rows = max(1, BUILD_CELLS // n)
        step, size = m_alpha, 1
        while size < N:
            top = min(2 * size, N)
            for lo in range(size, top, rows):
                hi = min(lo + rows, top)
                d = np.take(self._digmat, exp[lo - size:hi - size], axis=0).astype(np.float64)
                exp[lo:hi] = _mod_p(d @ step.T, p) @ pv
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

    @cached_property
    def _zech(self) -> memoryview:
        """Z[k] = log(1 + alpha^k) for k < N; -1 at k = N/2, where 1 + alpha^k = 0."""
        N = self.mult_order
        return memoryview(self.log[self.v_add(np.ones(N, dtype=np.int64), self.exp[:N])])

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0:
            return int(b)
        if b == 0:
            return int(a)
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % self.mult_order]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if a == 0:
            return 0
        return self._exp[self._log[a] + self.mult_order // 2]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(self.mult_order - self._log[a]) % self.mult_order]

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
        if self.p == 2:
            return a ^ b
        d = self._digmat[a].astype(self._sum_dtype) + self._digmat[b]
        d -= self.p * (d >= self.p)
        return (d @ self.pvec.astype(np.int64)).astype(np.int64)

    def v_neg(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.array(a, dtype=np.int64)
        d = -self._digmat[a].astype(self._sum_dtype)
        d += self.p * (d < 0)
        return d @ self.pvec

    def v_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = self.exp[self.log[a] + self.log[b]]
        zero = (a == 0) | (b == 0)
        if np.any(zero):
            out = np.where(zero, 0, out)
        return out

    def frob_table(self, j: int) -> np.ndarray:
        """Lookup table e -> e^{p^j} over all elements."""
        j %= self.n
        tab = self._frob_tables.get(j)
        if tab is None:
            N = self.mult_order
            tab = np.zeros(self.order, dtype=np.int64)
            ks = np.arange(N, dtype=np.int64)
            tab[self.exp[:N]] = self.exp[(ks * pow(self.p, j, N)) % N] if N > 1 else self.exp[:N]
            self._frob_tables[j] = tab
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
    zero element).  trace_sym[e] is the symbol of tr_{p^n/p^d}(e); add/neg are
    symbol-level tables used by the codeword engines, and plus adds arrays of
    symbols through the flat add table.  The product table, the traces of the
    powers of alpha and the trace coordinates are built on first use only.
    Past SYMBOL_CELLS q x q cells (q > 4096) construction raises FieldError.
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
        self.trace_elem = acc
        self.trace_sym = self.index_of[acc].astype(np.int16)
        self.add = self._table(ctx.v_add)
        self.neg = self.index_of[ctx.v_neg(self.elements)].astype(np.int16)

    def _table(self, op) -> np.ndarray:
        """int16 q x q symbol table of a vectorised field op, filled SYMBOL_BLOCK cells at a time."""
        out = np.empty((self.q, self.q), dtype=np.int16)
        rows = max(1, SYMBOL_BLOCK // self.q)
        for lo in range(0, self.q, rows):
            out[lo:lo + rows] = self.index_of[op(self.elements[lo:lo + rows, None],
                                                 self.elements[None, :])]
        return out

    def plus(self, a: np.ndarray, b) -> np.ndarray:
        """a + b over F_q symbols, through the flat addition table (b may be a scalar)."""
        return self.add.ravel()[a.astype(np.intp) * self.q + b]

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
        """(x_index, beta_index): F_q-coordinates of every element as base-q integers.

        With k = n/d, x_index[x] has digits c_i(x) = tr(alpha^i x), i < k, and
        beta_index[beta] has the digits b_i of beta = sum_i b_i alpha^i, the
        first digit most significant in both.  Both maps are bijections onto
        [0, q^k), and tr(beta x) = sum_i b_i c_i(x).
        """
        ctx, q, k = self.ctx, self.q, self.ctx.n // self.d
        all_e = np.arange(ctx.order, dtype=np.int64)
        x_index = np.zeros(ctx.order, dtype=np.int64)
        beta_of = np.zeros(ctx.order, dtype=np.int64)
        for i in range(k):
            a_i = np.full(ctx.order, ctx.alpha_pow(i), dtype=np.int64)
            x_index = x_index * q + self.trace_sym[ctx.v_mul(a_i, all_e)]
            digit = (all_e // q ** (k - 1 - i)) % q
            beta_of = ctx.v_add(beta_of, ctx.v_mul(a_i, self.elements[digit]))
        beta_index = np.full(ctx.order, -1, dtype=np.int64)
        beta_index[beta_of] = all_e
        if (beta_index < 0).any() or len(np.unique(x_index)) != ctx.order:
            raise FieldError("alpha^0..alpha^{k-1} is not a basis over the subfield")
        return x_index, beta_index


def make_field(p: int, n: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> FieldCtx:
    """Construct F_{p^n} deterministically; errors if p is not prime or p^n too large."""
    return FieldCtx(p, n, size_limit)


@lru_cache(maxsize=None)
def get_field(p: int, n: int) -> FieldCtx:
    """Cached frontend to make_field (contexts are immutable)."""
    return make_field(p, n)


def power_residue_test(ctx: FieldCtx, gamma: int, e: int) -> bool:
    """True iff gamma is an e-th power in F_{p^n}^*, via gamma^{(p^n-1)/gcd(p^n-1, e)} = 1."""
    if gamma == 0:
        raise FieldError("power residue test needs gamma != 0")
    g = gcd(ctx.mult_order, e)
    return ctx.pow(gamma, ctx.mult_order // g) == 1
