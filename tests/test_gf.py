import numpy as np
import pytest

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
    S = F.subfield(2)
    expect = {0, 1, F.alpha_pow(5), F.alpha_pow(10)}
    assert set(int(e) for e in S.elements) == expect
    # membership test is x^{p^d} = x
    for e in range(16):
        assert S.contains(e) == (F.frob(e, 2) == e)


def test_subfield_whole_field_and_f256():
    F = gf.get_field(2, 8)
    whole = F.subfield(8)
    assert len(whole.elements) == 256
    S = F.subfield(4)
    assert len(S.elements) == 16
    assert all(F.pow(int(e), 16) == int(e) for e in S.elements)
    with pytest.raises(gf.FieldError):
        F.subfield(3)


def test_rel_trace_values():
    F = gf.get_field(2, 4)
    assert F.trace(0, 1) == 0
    assert F.trace(1, 1) == 0  # four ones in characteristic 2
    F81 = gf.get_field(3, 4)
    a = F81.alpha
    # oracle: the defining sum alpha + alpha^3 + alpha^9 + alpha^27
    acc = a
    for e in (3, 9, 27):
        acc = F81.add(acc, F81.pow(a, e))
    assert F81.trace(a, 1) == acc
    with pytest.raises(gf.FieldError):
        F.trace(1, 3)


@pytest.mark.parametrize("p,n,d", [(2, 4, 1), (2, 4, 2), (3, 4, 1), (2, 8, 4), (2, 8, 2)])
def test_trace_onto_with_equal_fibers(p, n, d):
    F = gf.get_field(p, n)
    tab = F.trace_table(d)
    values, counts = np.unique(tab, return_counts=True)
    assert len(values) == p ** d
    assert set(counts.tolist()) == {p ** (n - d)}
    # F_q-linearity of the trace
    sub = F.subfield(d)
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = int(sub.elements[rng.integers(0, len(sub.elements))])
        x = int(rng.integers(0, F.order))
        assert F.trace(F.mul(lam, x), d) == F.mul(lam, F.trace(x, d))


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
    assert sy.elem(0) == 0
    # symbol addition agrees with field addition
    for i in range(4):
        for j in range(4):
            assert sy.elem(int(sy.add[i, j])) == F.add(sy.elem(i), sy.elem(j))
    # traces land in the subfield
    assert np.all(sy.index_of[sy.trace_elem] >= 0)


@pytest.mark.parametrize("p,n", [(3, 4), (2, 4)])
def test_v_neg_matches_scalar_neg(p, n):
    F = gf.get_field(p, n)
    xs = np.arange(F.order, dtype=np.int64)
    assert F.v_neg(xs).tolist() == [F.neg(int(x)) for x in xs]
    assert not F.v_add(xs, F.v_neg(xs)).any()
