import hashlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfcodes import cli, gf, klapper, verify

from element_order import beta_of_k_pass, trace_sym_k_pass

ROOT = Path(__file__).resolve().parents[1]


FIELDS = [(2, 4), (2, 6), (2, 8), (3, 2), (3, 4), (5, 4)]


def test_make_field_basic_orders():
    F = gf.FieldCtx(2, 4)
    assert F.order == 16 and F.mult_order == 15
    F = gf.FieldCtx(3, 8)
    assert F.order == 6561 and F.mult_order == 6560
    # alpha really has full order: every power distinct
    assert len({int(v) for v in F.exp[: F.mult_order]}) == 6560


def test_alpha_order_is_exact():
    F = gf.FieldCtx(2, 8)
    assert F.pow(F.alpha, 255) == 1
    for k in range(1, 255):
        assert F.alpha_pow(k) != 1


def test_make_field_deterministic():
    a = gf.FieldCtx(3, 4)
    b = gf.FieldCtx(3, 4)
    assert a.modulus == b.modulus
    assert a.alpha == b.alpha
    assert np.array_equal(a.exp, b.exp)


def test_make_field_errors():
    with pytest.raises(gf.FieldError):
        gf.FieldCtx(4, 2)
    with pytest.raises(gf.FieldError):
        gf.FieldCtx(6, 1)
    with pytest.raises(gf.FieldError):
        gf.FieldCtx(2, 30)  # above the size bound
    with pytest.raises(gf.FieldError):
        gf.FieldCtx(2, 0)
    # a p past the size bound is refused by size, before a trial division up to 10^9
    for p in (10 ** 18 + 3, 2 * (10 ** 18 + 3)):
        with pytest.raises(gf.FieldError, match="exceeds size bound"):
            gf.FieldCtx(p, 1)


@pytest.mark.parametrize("m", [30_000_000, 100_000])
def test_huge_degree_is_refused_before_p_to_the_n(capsys, m):
    # the degree is compared with the largest exponent that fits, so p^n is never
    # built (3^30000000 took seconds) nor formatted (past 4300 digits it cannot be)
    start = time.perf_counter()
    code = cli.main(["curves", "--p", "3", "--m", str(m), "--ell", "1"])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert f"p^n = 3^{m} exceeds size bound {gf.SIZE_LIMIT}" in err


def test_is_prime_matches_a_sieve():
    sieve = np.ones(2000, dtype=bool)
    sieve[:2] = False
    for d in range(2, 45):
        sieve[d * d::d] = False
    assert [n for n in range(-5, 2000) if gf.is_prime(n)] == np.flatnonzero(sieve).tolist()


@pytest.mark.parametrize("p,n", FIELDS)
def test_field_axioms_exhaustive_or_sampled(p, n):
    F = gf.get_field(p, n)
    order = F.order
    rng = np.random.default_rng(7)
    a = rng.integers(0, order, 300)
    b = rng.integers(0, order, 300)
    c = rng.integers(0, order, 300)
    # associativity / distributivity on samples
    left = F.v_mul(a, F.v_add(b, c))
    right = F.v_add(F.v_mul(a, b), F.v_mul(a, c))
    assert np.array_equal(left, right)
    # Frobenius is additive and x^{p^n} = x for all x
    s = F.v_add(a, b)
    fr = F.frob_table(1)
    assert np.array_equal(fr[s], F.v_add(fr[a], fr[b]))
    assert np.array_equal(F.frob_table(0)[np.arange(order)], np.arange(order))


def test_scalar_matches_vector_ops():
    # scalar add/neg (digit addition without carry, XOR for p = 2) against
    # the digit table route, on every element pair
    for p, n in ((3, 4), (5, 4), (2, 6)):
        F = gf.get_field(p, n)
        xs = np.arange(F.order, dtype=np.int64)
        a, b = np.repeat(xs, F.order), np.tile(xs, F.order)
        pairs = list(zip(a.tolist(), b.tolist()))
        negs = F.v_neg(xs)
        assert [F.neg(x) for x in xs.tolist()] == negs.tolist()
        assert [F.add(x, y) for x, y in pairs] == F.v_add(a, b).tolist()
        assert all(F.add(x, F.neg(x)) == 0 for x in xs.tolist())
        if p > 2:
            assert F.add(1, F.alpha_pow(F.mult_order // 2)) == 0
    F = gf.get_field(3, 4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = int(rng.integers(0, 81)), int(rng.integers(0, 81))
        assert F.add(a, b) == int(F.v_add(np.array([a]), np.array([b]))[0])
        assert F.mul(a, b) == int(F.v_mul(np.array([a]), np.array([b]))[0])


def test_subfield_embed_f16():
    F = gf.get_field(2, 4)
    sy = F.symbols(2)
    expect = {0, 1, F.alpha_pow(5), F.alpha_pow(10)}
    assert set(int(e) for e in sy.elements) == expect
    # membership test is x^{p^d} = x
    for e in range(16):
        assert (sy.index_of[e] >= 0) == (F.frob(e, 2) == e)


def test_subfield_whole_field_and_f256():
    F = gf.get_field(2, 8)
    whole = F.symbols(8)
    assert len(whole.elements) == 256
    S = F.symbols(4)
    assert len(S.elements) == 16
    assert all(F.pow(int(e), 16) == int(e) for e in S.elements)
    with pytest.raises(gf.FieldError):
        F.symbols(3)


def test_symbol_plus_scalar_and_array():
    sy = gf.get_field(3, 4).symbols(2)
    a = np.arange(sy.q, dtype=np.int16).repeat(sy.q)
    b = np.tile(np.arange(sy.q, dtype=np.int16), sy.q)
    field = sy.index_of[gf.get_field(3, 4).v_add(sy.elements[a], sy.elements[b])]
    assert np.array_equal(sy.plus(a, b), field)
    for c in range(sy.q):
        out = sy.plus(a, np.int16(c))
        assert out.dtype == np.int16
        assert np.array_equal(out, sy.plus(a, np.full_like(a, c)))


def test_rel_trace_values():
    F = gf.get_field(2, 4)
    sy = F.symbols(1)
    tr = sy.elements[sy.trace_sym]
    assert tr[0] == 0
    assert tr[1] == 0  # four ones in characteristic 2
    F81 = gf.get_field(3, 4)
    a = F81.alpha
    # oracle: the defining sum alpha + alpha^3 + alpha^9 + alpha^27
    acc = a
    for e in (3, 9, 27):
        acc = F81.add(acc, F81.pow(a, e))
    sy81 = F81.symbols(1)
    assert sy81.elements[sy81.trace_sym][a] == acc
    with pytest.raises(gf.FieldError):
        F.symbols(3)


@pytest.mark.parametrize("p,n,d", [pytest.param(3, 13, 1, marks=pytest.mark.slow),
                                   pytest.param(2, 22, 1, marks=pytest.mark.slow),
                                   (2, 20, 1), (3, 8, 1), (5, 6, 1), (2, 8, 2), (3, 6, 2)])
def test_trace_symbols_match_the_k_pass_construction(p, n, d):
    # trace_sym doubles over the digits of the element index; the reference
    # takes k - 1 Frobenius gathers over the whole field (a fresh field, so
    # the largest tables are freed after the test)
    F = gf.FieldCtx(p, n)
    assert np.array_equal(F.symbols(d).trace_sym, trace_sym_k_pass(F, d))


def test_trace_symbols_check_the_subfield(monkeypatch):
    # a trace sum that keeps only its last term, t^{i 27}, leaves F_3 at i = 1
    F = gf.FieldCtx(3, 4)
    monkeypatch.setattr(F, "add", lambda a, b: b)
    with pytest.raises(gf.FieldError, match="escaped the subfield"):
        F.symbols(1)


@pytest.mark.parametrize("p,n,d", [(2, 4, 1), (2, 4, 2), (3, 4, 1), (2, 8, 4), (2, 8, 2)])
def test_trace_onto_with_equal_fibers(p, n, d):
    F = gf.get_field(p, n)
    sy = F.symbols(d)
    tab = sy.elements[sy.trace_sym]
    values, counts = np.unique(tab, return_counts=True)
    assert len(values) == p ** d
    assert set(counts.tolist()) == {p ** (n - d)}
    # F_q-linearity of the trace
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = int(sy.elements[rng.integers(0, len(sy.elements))])
        x = int(rng.integers(0, F.order))
        assert tab[F.mul(lam, x)] == F.mul(lam, int(tab[x]))


def test_power_residue():
    # at p = 2, l = 1 the residue branch is gamma^{(2^m-1)/3} = 1: gamma is a cube
    def cube(F, gamma):
        return klapper.classify_monomial(F, 1, F.n, gamma, 1).branch == "residue"

    F = gf.get_field(2, 4)
    assert cube(F, 1)
    assert not cube(F, F.alpha)
    with pytest.raises(klapper.HypothesisError):
        cube(F, 0)
    F256 = gf.get_field(2, 8)
    assert sum(cube(F256, g) for g in range(1, 256)) == 85


# q = p adds digits mod p, p = 2 by XOR, and odd p with d > 1 through the table
PLUS_PATHS = [(3, 8, 1), (5, 4, 1), (79, 2, 1), (2, 6, 1), (2, 6, 2), (2, 6, 3),
              (3, 4, 2), (5, 4, 2)]


@pytest.mark.parametrize("p,n,d", PLUS_PATHS)
def test_symbol_plus_matches_field_addition(p, n, d):
    F = gf.get_field(p, n)
    sy = F.symbols(d)
    sym = np.arange(sy.q, dtype=np.int16)
    rows = sym[::2, None]  # fewer rows than q
    cases = [(sym.repeat(sy.q), np.tile(sym, sy.q)), (rows, sym[None, :]), (sym[None, :], rows)]
    for c in (0, 1, sy.q - 1):
        for scalar in (c, np.int16(c), np.int64(c)):
            cases += [(sym, scalar), (scalar, sym), (rows, scalar), (scalar, rows.T)]
    for a, b in cases:
        out = sy.plus(a, b)
        assert out.dtype == np.int16
        assert np.array_equal(out, sy.index_of[F.v_add(sy.elements[a], sy.elements[b])])


@pytest.mark.parametrize("p,n,d", [(3, 4, 1), (79, 2, 1), (2, 6, 1), (2, 6, 2), (2, 6, 3)])
def test_symbol_add_table_must_match_digit_addition(monkeypatch, p, n, d):
    table = gf.SymbolSystem._table

    def corrupted(self, op):
        out = table(self, op)
        if op == self.ctx.v_add:
            out[-1, 1] = (out[-1, 1] + 1) % self.q
        return out

    monkeypatch.setattr(gf.SymbolSystem, "_table", corrupted)
    with pytest.raises(gf.FieldError, match="digit addition"):
        gf.FieldCtx(p, n).symbols(d)


def test_symbol_system():
    F = gf.get_field(2, 8)
    sy = F.symbols(2)  # F_4 symbols inside F_{2^8}
    assert sy.q == 4
    assert sy.elements[0] == 0
    # symbol addition agrees with field addition
    for i in range(4):
        for j in range(4):
            assert sy.elements[sy.add[i, j]] == F.add(int(sy.elements[i]), int(sy.elements[j]))
    # traces land in the subfield
    assert np.all(sy.index_of[sy.elements[sy.trace_sym]] >= 0)


def test_symbol_tables_bounded(monkeypatch):
    # q x q tables past SYMBOL_CELLS are refused before any allocation
    with pytest.raises(gf.FieldError, match="symbol table cells"):
        gf.get_field(16411, 1).symbols(1)
    monkeypatch.setattr(gf, "SYMBOL_CELLS", 25)
    assert gf.FieldCtx(5, 2).symbols(1).add.shape == (5, 5)
    with pytest.raises(gf.FieldError, match="symbol table cells"):
        gf.FieldCtx(5, 2).symbols(2)


def test_symbol_tables_filled_in_blocks(monkeypatch):
    # blocks of one row and of several rows with a short last block give the
    # tables of one whole-grid evaluation
    monkeypatch.setattr(gf, "BLOCK_CELLS", 7)
    for p, n, d in ((3, 2, 1), (2, 4, 1), (5, 2, 1), (3, 4, 2), (2, 6, 3), (7, 2, 2)):
        F = gf.FieldCtx(p, n)
        sy = F.symbols(d)
        el = sy.elements
        assert sy.add.dtype == sy.mul.dtype == np.int16
        assert np.array_equal(sy.add, sy.index_of[F.v_add(el[:, None], el[None, :])])
        assert np.array_equal(sy.mul, sy.index_of[F.v_mul(el[:, None], el[None, :])])


@pytest.mark.parametrize("cells", [gf.BLOCK_CELLS, 7])
def test_beta_coordinates_match_the_k_pass_construction(monkeypatch, cells):
    # the doubling build of beta_index, in whole blocks and in blocks of a few
    # rows with a short last one, inverts the k-pass map sum_i b_i alpha^i
    monkeypatch.setattr(gf, "BLOCK_CELLS", cells)
    for p, n, d in ((3, 6, 1), (2, 8, 2), (5, 4, 1), (2, 8, 1), (3, 4, 2), (7, 2, 1),
                    (2, 12, 3), (2, 10, 1), (13, 2, 2)):
        F = gf.FieldCtx(p, n)
        x_index, beta_index = F.symbols(d).coordinates
        assert np.array_equal(beta_index[beta_of_k_pass(F, d)], np.arange(F.order))
        assert sorted(x_index.tolist()) == list(range(1, F.order))


def test_beta_coordinates_check_the_basis(monkeypatch):
    # 1, 1, .. is no basis: beta_of is not a bijection, and construction says so
    F = gf.FieldCtx(3, 4)
    monkeypatch.setattr(F, "alpha_pow", lambda k: 1)
    with pytest.raises(gf.FieldError, match="not a basis"):
        F.symbols(1).coordinates


def test_symbol_table_peak_memory(traced_peak):
    # q = 4093: the two int16 tables hold 32 MiB each; no q x q int64 grid is built
    F = gf.FieldCtx(4093, 1)
    mul, peak = traced_peak(lambda: F.symbols(1).mul)
    sy = F.symbols(1)
    assert peak < 100 << 20
    rng = np.random.default_rng(5)
    for i, j in rng.integers(0, 4093, size=(50, 2)).tolist():
        assert sy.add[i, j] == F.add(i, j) and mul[i, j] == F.mul(i, j)


@pytest.mark.parametrize("p,n", [(3, 4), (2, 4), (5, 4), (2, 6), (79, 2), (131, 2),
                                 (16411, 1)])
def test_v_neg_matches_scalar_neg(p, n):
    F = gf.get_field(p, n)
    xs = np.arange(F.order, dtype=np.int64)
    assert F.v_neg(xs).tolist() == [F.neg(int(x)) for x in xs]
    assert not F.v_add(xs, F.v_neg(xs)).any()


@pytest.mark.parametrize("p,n", [(3, 8), (79, 2)])
def test_scalar_add_sub_on_random_pairs(p, n):
    F = gf.get_field(p, n)
    rng = np.random.default_rng(p)
    a = rng.integers(0, F.order, 10 ** 5)
    b = rng.integers(0, F.order, 10 ** 5)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert [F.add(x, y) for x, y in pairs] == F.v_add(a, b).tolist()


def _kernel_sample(F, k, seed):
    # the extremes of the digit range, then random elements
    rng = np.random.default_rng(seed)
    return np.concatenate([[0, 1, F.p - 1, F.order - 1], rng.integers(0, F.order, k)])


# odd p with int8 digit sums, p = 2, and int16 digit sums at p >= 65
KERNEL_FIELDS = [(3, 4), (5, 2), (2, 6), (67, 2), (79, 2)]


@pytest.mark.parametrize("p,n", KERNEL_FIELDS)
def test_v_add_v_neg_broadcast(p, n):
    # (rows, 1) against (1, q) with rows != q, as SymbolSystem._table calls
    # v_add: the digit sum cannot be formed in place in a's rows
    F = gf.get_field(p, n)
    assert F._sum_dtype == (np.int16 if p >= 65 else np.int8)
    a, b = _kernel_sample(F, 30, 1), _kernel_sample(F, 70, 2)
    expect = [[F.add(x, y) for y in b.tolist()] for x in a.tolist()]
    for grid in (F.v_add(a[:, None], b[None, :]), F.v_add(b[None, :], a[:, None])):
        assert grid.shape == (len(a), len(b)) and grid.dtype == np.int64
        assert grid.tolist() == expect
    neg = F.v_neg(grid)
    assert neg.shape == grid.shape and neg.dtype == np.int64
    assert neg.tolist() == [[F.neg(x) for x in row] for row in expect]


@pytest.mark.parametrize("p,n", KERNEL_FIELDS)
def test_v_add_v_neg_int_operands(p, n):
    # a Python int on either side of v_add, 0 included, and as v_neg's operand
    F = gf.get_field(p, n)
    b = _kernel_sample(F, 70, 3)
    for c in (0, 1, p - 1, F.order - 1, F.alpha):
        expect = [F.add(c, y) for y in b.tolist()]
        assert F.v_add(c, b).tolist() == expect
        assert F.v_add(b, c).tolist() == expect
        assert int(F.v_add(c, F.order - 1)) == F.add(c, F.order - 1)
        assert int(F.v_neg(c)) == F.neg(c)


def _digit_add(F, x, y):
    # integer digit arithmetic: add base-p digits modulo p
    return sum((x // F.p ** i % F.p + y // F.p ** i % F.p) % F.p * F.p ** i for i in range(F.n))


def _digit_neg(F, x):
    return sum((-(x // F.p ** i)) % F.p * F.p ** i for i in range(F.n))


@pytest.mark.parametrize("p,n", [(131, 2), (16411, 1)])
def test_digits_past_int8(p, n):
    # digits of p >= 128 overflow int8, and digit sums of p > 16384 overflow int16
    F = gf.get_field(p, n)
    rng = np.random.default_rng(11)
    a = np.concatenate([[F.order - 1, p - 1, 1], rng.integers(0, F.order, 3000)])
    b = np.concatenate([[F.order - 1, 1, p - 1], rng.integers(0, F.order, 3000)])
    expect_add = [_digit_add(F, x, y) for x, y in zip(a.tolist(), b.tolist())]
    expect_neg = [_digit_neg(F, x) for x in a.tolist()]
    assert F.v_add(a, b).tolist() == expect_add
    assert [F.add(x, y) for x, y in zip(a.tolist(), b.tolist())] == expect_add
    assert F.v_neg(a).tolist() == expect_neg
    assert [F.neg(x) for x in a.tolist()] == expect_neg
    assert F.element_digits(F.order - 1) == [p - 1] * n


@settings(max_examples=40, deadline=None)
@given(pn=st.sampled_from([(3, 1), (3, 2), (3, 5), (5, 1), (5, 3), (7, 2), (11, 2),
                           (13, 1), (13, 2), (17, 2), (23, 1)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scalar_add_property(pn, seed):
    F = gf.get_field(*pn)
    a, b = (int(v) for v in np.random.default_rng(seed).integers(0, F.order, 2))
    assert F.add(a, b) == int(F.v_add(np.array([a]), np.array([b]))[0])
    assert F.neg(a) == int(F.v_neg(np.array([a]))[0])
    assert F.add(F.add(a, b), F.neg(b)) == a
    assert F.add(a, F.neg(a)) == 0


# -- the scalar construction route, kept as an oracle for the table builders --
# polynomials over F_p are coefficient lists, constant term first

def _digits_of(value, p, n):
    out = []
    for _ in range(n):
        out.append(value % p)
        value //= p
    return out


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _pmod(a, f, p):
    """a mod the monic f."""
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return a[:df]


def _oracle_modulus(p, n):
    """First monic degree-n polynomial in digit order with no monic factor of degree <= n/2."""
    for enc in range(p ** n):
        f = _digits_of(enc, p, n) + [1]
        if not any(not any(_pmod(f, _digits_of(g, p, d) + [1], p))
                   for d in range(1, n // 2 + 1) for g in range(p ** d)):
            return tuple(f)


def _poly_mul_idx(F, a, b):
    pa = _digits_of(a, F.p, F.n)
    pb = _digits_of(b, F.p, F.n)
    prod = _pmod(_pmul(pa, pb, F.p), list(F.modulus), F.p)
    prod = (prod + [0] * F.n)[:F.n]
    return int(sum(c * F.p ** i for i, c in enumerate(prod)))


def _poly_pow_idx(F, a, e):
    result, base = 1, a
    while e:
        if e & 1:
            result = _poly_mul_idx(F, result, base)
        base = _poly_mul_idx(F, base, base)
        e >>= 1
    return result


def _oracle_alpha(F):
    N = F.mult_order
    if N == 1:
        return 1
    radicals = [N // r for r in gf.factorize(N)]
    for cand in range(2, F.order):
        if all(_poly_pow_idx(F, cand, e) != 1 for e in radicals):
            return cand


def _oracle_tables(F, alpha):
    """exp and log by one multiplication by alpha per element."""
    N, p, n = F.mult_order, F.p, F.n
    pvec = np.array([p ** i for i in range(n)], dtype=np.int64)
    digits = lambda e: np.array(_digits_of(e, p, n), dtype=np.int64)
    mult_alpha = np.stack([digits(_poly_mul_idx(F, alpha, p ** j)) for j in range(n)], axis=1)
    exp = np.zeros(2 * N, dtype=np.int64)
    log = np.full(F.order, -1, dtype=np.int64)
    v = digits(1)
    for k in range(N):
        e = int(v @ pvec)
        exp[k] = e
        log[e] = k
        v = (mult_alpha @ v) % p
    assert int(v @ pvec) == 1
    exp[N:] = exp[:N]
    return exp, log


def _assert_matches_oracle(p, n):
    F = gf.FieldCtx(p, n)
    assert F.modulus == _oracle_modulus(p, n)
    alpha = _oracle_alpha(F)
    assert F.alpha == alpha
    exp, log = _oracle_tables(F, alpha)
    assert F.exp.dtype == F.log.dtype == np.int64
    assert np.array_equal(F.exp, exp) and np.array_equal(F.log, log)
    assert F._digmat.dtype == gf.int_dtype(p - 1)
    e = np.arange(F.order, dtype=np.int64)
    assert np.array_equal(F._digmat, (e[:, None] // F.pvec) % p)


def _benchmark_fields():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return {(p, n) for w in workloads.WORKLOADS for p, n, _ in workloads.fields(w)}


ORACLE_FIELDS = sorted({(p, s * m) for p, s, m, _ in verify.GRID}
                       | _benchmark_fields()
                       | {(2, 1), (3, 1), (4093, 1), (2, 2), (7, 2), (2, 10), (5, 6)})


@pytest.mark.parametrize("p,n", ORACLE_FIELDS)
def test_tables_match_scalar_oracle(p, n):
    _assert_matches_oracle(p, n)


@settings(max_examples=30, deadline=None)
@given(pn=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 31, 47, 61]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, max(1, int(np.log(3000) / np.log(p)))))))
def test_tables_match_scalar_oracle_property(pn):
    _assert_matches_oracle(*pn)


def _table_digest(F):
    N = F.mult_order
    return hashlib.sha256(F.exp[:N].astype("<i8").tobytes()
                          + F.log.astype("<i8").tobytes()).hexdigest()


# fields too large for the oracle: modulus, alpha and the digest of exp and log
PINS = [
    pytest.param(3, 10, (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), 34,
                 "be467f0d6db2db329aec29bc77339be12f1a1377a1a6adb231d77835bc093b0a",
                 id="3-10"),
    pytest.param(5, 8, (2, 0, 0, 0, 0, 0, 0, 0, 1), 6,
                 "7e7c41a60470fa59b36df4c5edd14306ae2cec6cf46459f12954c389f56d1e92",
                 id="5-8"),
    pytest.param(3, 12, (2, 0, 1) + (0,) * 9 + (1,), 14,
                 "867dd52b446515e415ce167314b795354518c99ff83622f51c8f561bafda5a42",
                 id="3-12", marks=pytest.mark.slow),
    pytest.param(2, 20, (1, 0, 0, 1) + (0,) * 16 + (1,), 2,
                 "681a2435ee064f81fbf1f3ded70ab81d607bec21d4ab3e3228fc8f50c98ba940",
                 id="2-20", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("p,n,modulus,alpha,digest", PINS)
def test_large_field_tables_pinned(p, n, modulus, alpha, digest):
    F = gf.FieldCtx(p, n)
    assert (F.modulus, F.alpha, _table_digest(F)) == (modulus, alpha, digest)
    assert F.pow(alpha, F.mult_order) == 1


def test_moduli_pinned():
    # the moduli of every F_{p^n}, n >= 2, p^n <= 2^16, as the scalar Rabin test gave them
    fields = [(p, n) for p in range(2, 257) if gf.is_prime(p)
              for n in range(2, 17) if p ** n <= 1 << 16]
    assert len(fields) == 93
    text = "\n".join(f"{p} {n} " + " ".join(map(str, gf.FieldCtx(p, n).modulus))
                     for p, n in fields)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "489d74a180c56c273a4e33ef775dd1cc6fded4f4160bd37a9fd79cff28089188"


def test_construction_peak_memory(traced_peak):
    # blocks of gf.BLOCK_CELLS cells: no order x n int64 temporary beside the kept tables
    F, peak = traced_peak(lambda: gf.FieldCtx(2, 20))
    kept = F.exp.nbytes + F.log.nbytes + F._digmat.nbytes  # 44 MiB
    assert peak <= 1.5 * kept


def test_construction_blocks_and_batches(monkeypatch):
    # one-row blocks, ragged last blocks and one-candidate modulus and alpha
    # batches give the same tables
    monkeypatch.setattr(gf, "BLOCK_CELLS", 7)
    monkeypatch.setattr(gf, "CANDIDATE_BATCH", 1)
    for p, n in ((2, 4), (3, 5), (7, 2), (13, 1)):
        _assert_matches_oracle(p, n)


def test_construction_checks(monkeypatch):
    # float64 digit products must stay exact (past the size bound), and a
    # non-generator is caught
    monkeypatch.setattr(gf, "SIZE_LIMIT", 1 << 30)
    with pytest.raises(gf.FieldError, match="not exact"):
        gf.FieldCtx(94906297, 1)
    assert gf.FieldCtx(2, 4).alpha == 2
    monkeypatch.setattr(gf.FieldCtx, "_find_alpha", lambda self: 8)  # t^3, of order 5
    with pytest.raises(gf.FieldError, match="not distinct"):
        gf.FieldCtx(2, 4)


def test_int_dtype_boundaries():
    # the smallest signed type holding -bound..bound, at each type's edge
    want = {0: np.int8, 127: np.int8, 128: np.int16, 32767: np.int16, 32768: np.int32,
            2 ** 31 - 1: np.int32, 2 ** 31: np.int64, 2 ** 40: np.int64}
    for bound, dt in want.items():
        assert gf.int_dtype(bound) is dt
        assert bound <= np.iinfo(dt).max
