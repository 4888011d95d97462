import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfcodes import gf


FIELDS = [(2, 4), (2, 6), (2, 8), (3, 2), (3, 4), (5, 4)]


def test_make_field_basic_orders():
    F = gf.make_field(2, 4)
    assert F.order == 16 and F.mult_order == 15
    F = gf.make_field(3, 8)
    assert F.order == 6561 and F.mult_order == 6560
    # alpha really has full order: every power distinct
    assert len({int(v) for v in F.exp[: F.mult_order]}) == 6560


def test_alpha_order_is_exact():
    F = gf.make_field(2, 8)
    assert F.pow(F.alpha, 255) == 1
    for k in range(1, 255):
        assert F.alpha_pow(k) != 1


def test_make_field_deterministic():
    a = gf.make_field(3, 4)
    b = gf.make_field(3, 4)
    assert a.modulus == b.modulus
    assert a.alpha == b.alpha
    assert np.array_equal(a.exp, b.exp)


def test_make_field_errors():
    with pytest.raises(gf.FieldError):
        gf.make_field(4, 2)
    with pytest.raises(gf.FieldError):
        gf.make_field(6, 1)
    with pytest.raises(gf.FieldError):
        gf.make_field(2, 30)  # above the size bound
    with pytest.raises(gf.FieldError):
        gf.make_field(2, 0)


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
    # scalar add/sub/neg (Zech table, XOR for p = 2) against the digit route,
    # on every element pair
    for p, n in ((3, 4), (5, 4), (2, 6)):
        F = gf.get_field(p, n)
        xs = np.arange(F.order, dtype=np.int64)
        a, b = np.repeat(xs, F.order), np.tile(xs, F.order)
        pairs = list(zip(a.tolist(), b.tolist()))
        negs = F.v_neg(xs)
        assert [F.neg(x) for x in xs.tolist()] == negs.tolist()
        assert [F.add(x, y) for x, y in pairs] == F.v_add(a, b).tolist()
        assert [F.sub(x, y) for x, y in pairs] == F.v_add(a, negs[b]).tolist()
        assert all(F.add(x, F.neg(x)) == 0 for x in xs.tolist())
        if p > 2:
            # 1 + alpha^{N/2} = 0 is the table's only empty slot
            N = F.mult_order
            assert [k for k in range(N) if F._zech[k] < 0] == [N // 2]
            assert F.add(1, F.alpha_pow(N // 2)) == 0
    F = gf.get_field(3, 4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = int(rng.integers(0, 81)), int(rng.integers(0, 81))
        assert F.add(a, b) == int(F.v_add(np.array([a]), np.array([b]))[0])
        assert F.mul(a, b) == int(F.v_mul(np.array([a]), np.array([b]))[0])
        if a:
            assert F.mul(a, F.inv(a)) == 1


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


def test_rel_trace_values():
    F = gf.get_field(2, 4)
    tr = F.symbols(1).trace_elem
    assert tr[0] == 0
    assert tr[1] == 0  # four ones in characteristic 2
    F81 = gf.get_field(3, 4)
    a = F81.alpha
    # oracle: the defining sum alpha + alpha^3 + alpha^9 + alpha^27
    acc = a
    for e in (3, 9, 27):
        acc = F81.add(acc, F81.pow(a, e))
    assert F81.symbols(1).trace_elem[a] == acc
    with pytest.raises(gf.FieldError):
        F.symbols(3)


@pytest.mark.parametrize("p,n,d", [(2, 4, 1), (2, 4, 2), (3, 4, 1), (2, 8, 4), (2, 8, 2)])
def test_trace_onto_with_equal_fibers(p, n, d):
    F = gf.get_field(p, n)
    sy = F.symbols(d)
    tab = sy.trace_elem
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
    F = gf.get_field(2, 4)
    assert gf.power_residue_test(F, 1, 3)
    assert not gf.power_residue_test(F, F.alpha, 3)
    with pytest.raises(gf.FieldError):
        gf.power_residue_test(F, 0, 3)
    F256 = gf.get_field(2, 8)
    cubes = sum(gf.power_residue_test(F256, g, 3) for g in range(1, 256))
    assert cubes == 85


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
    assert np.all(sy.index_of[sy.trace_elem] >= 0)


def test_symbol_tables_bounded(monkeypatch):
    # q x q tables past SYMBOL_CELLS are refused before any allocation
    with pytest.raises(gf.FieldError, match="symbol table cells"):
        gf.get_field(16411, 1).symbols(1)
    monkeypatch.setattr(gf, "SYMBOL_CELLS", 25)
    assert gf.make_field(5, 2).symbols(1).add.shape == (5, 5)
    with pytest.raises(gf.FieldError, match="symbol table cells"):
        gf.make_field(5, 2).symbols(2)


def test_symbol_tables_filled_in_blocks(monkeypatch):
    # blocks of one row and of several rows with a short last block give the
    # tables of one whole-grid evaluation
    monkeypatch.setattr(gf, "SYMBOL_BLOCK", 7)
    for p, n, d in ((3, 2, 1), (2, 4, 1), (5, 2, 1), (3, 4, 2), (2, 6, 3), (7, 2, 2)):
        F = gf.make_field(p, n)
        sy = F.symbols(d)
        el = sy.elements
        assert sy.add.dtype == sy.mul.dtype == np.int16
        assert np.array_equal(sy.add, sy.index_of[F.v_add(el[:, None], el[None, :])])
        assert np.array_equal(sy.mul, sy.index_of[F.v_mul(el[:, None], el[None, :])])


def test_symbol_table_peak_memory():
    # q = 4093: the two int16 tables hold 32 MiB each; no q x q int64 grid is built
    F = gf.make_field(4093, 1)
    tracemalloc.start()
    try:
        sy = F.symbols(1)
        mul = sy.mul
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
    assert [F.sub(x, y) for x, y in pairs] == F.v_add(a, F.v_neg(b)).tolist()


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
def test_zech_add_property(pn, seed):
    F = gf.get_field(*pn)
    a, b = (int(v) for v in np.random.default_rng(seed).integers(0, F.order, 2))
    assert F.add(a, b) == int(F.v_add(np.array([a]), np.array([b]))[0])
    assert F.neg(a) == int(F.v_neg(np.array([a]))[0])
    assert F.sub(F.add(a, b), b) == a
    assert F.add(a, F.neg(a)) == 0
