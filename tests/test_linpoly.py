import numpy as np
import pytest

from qfcodes import gf
from qfcodes.linpoly import (FamilySpec, LinearizedPoly, elements_log_order,
                             family_coeffs, lin_eval)

from element_order import lin_eval_table


def test_eval_basics():
    F = gf.get_field(2, 4)
    zero = LinearizedPoly((1,), (0,), 1)
    assert zero.is_zero
    assert lin_eval(F, zero, F.alpha) == 0
    mono = LinearizedPoly((2,), (1,), 1)
    assert lin_eval(F, mono, 1) == 1
    gamma = F.alpha_pow(7)
    R = LinearizedPoly((1,), (gamma,), 1)
    a = F.alpha
    assert lin_eval(F, R, a) == F.mul(gamma, F.mul(a, a))


def test_eval_table_matches_scalar():
    F = gf.get_field(3, 4)
    R = LinearizedPoly((1, 2), (F.alpha, F.alpha_pow(5)), 1)
    tab = lin_eval_table(F, R)
    for x in range(0, 81, 7):
        assert int(tab[x]) == lin_eval(F, R, x)


@pytest.mark.parametrize("p,s,m", [(2, 1, 6), (3, 1, 4), (2, 2, 4)])
def test_eval_table_matches_scalar_everywhere(p, s, m):
    F = gf.get_field(p, s * m)
    rng = np.random.default_rng(p * 100 + s * 10 + m)
    cases = [((0,), (1,)), ((1,), (0,)), ((0, 1, 3), (F.alpha, 0, F.alpha_pow(9)))]
    cases += [((0, 1, m - 1), tuple(int(c) for c in rng.integers(0, F.order, 3)))
              for _ in range(3)]
    for exps, coeffs in cases:
        R = LinearizedPoly(exps, coeffs, s)
        tab = lin_eval_table(F, R)
        assert tab.dtype == np.int64 and tab.shape == (F.order,)
        assert tab.tolist() == [lin_eval(F, R, x) for x in range(F.order)]


@pytest.mark.parametrize("p,s,m,exps", [(2, 1, 4, (1,)), (3, 1, 4, (1,)), (2, 2, 4, (1,))])
def test_fq_linearity(p, s, m, exps):
    F = gf.get_field(p, s * m)
    rng = np.random.default_rng(11)
    sub = F.symbols(s)
    for _ in range(25):
        coeffs = tuple(int(rng.integers(0, F.order)) for _ in exps)
        R = LinearizedPoly(exps, coeffs, s)
        x, y = int(rng.integers(0, F.order)), int(rng.integers(0, F.order))
        lam = int(sub.elements[rng.integers(0, len(sub.elements))])
        assert lin_eval(F, R, F.add(x, y)) == F.add(lin_eval(F, R, x), lin_eval(F, R, y))
        assert lin_eval(F, R, F.mul(lam, x)) == F.mul(lam, lin_eval(F, R, x))


def members(F, fam, lo=0, hi=None):
    hi = F.order ** len(fam.exponents) if hi is None else hi
    return [LinearizedPoly(fam.exponents, tuple(row), fam.s)
            for row in family_coeffs(F, fam, lo, hi).tolist()]


def test_family_coeffs_counts_and_order():
    F = gf.get_field(2, 4)
    fam = FamilySpec(2, 1, 4, (1,))
    all_members = members(F, fam)
    assert len(all_members) == 16
    assert all_members[0].is_zero
    coeffs = [R.coeffs[0] for R in all_members]
    assert coeffs == [0] + [F.alpha_pow(k) for k in range(15)]
    assert len(set(coeffs)) == 16


def test_family_coeffs_two_exponents():
    F = gf.get_field(2, 4)
    fam = FamilySpec(2, 1, 4, (0, 1))
    all_members = members(F, fam)
    assert len(all_members) == 256
    assert len({R.coeffs for R in all_members}) == 256
    # lexicographic in log order: the last coefficient runs fastest
    order = elements_log_order(F).tolist()
    assert [R.coeffs for R in all_members] == [(a, b) for a in order for b in order]
    # any window is the same slice of the whole enumeration
    assert members(F, fam, 37, 101) == all_members[37:101]


def test_empty_family():
    F = gf.get_field(2, 4)
    fam = FamilySpec(2, 1, 4, ())
    all_members = members(F, fam)
    assert len(all_members) == 1 and all_members[0].q_exponents == ()
    with pytest.raises(Exception):
        family_coeffs(gf.get_field(2, 6), fam, 0, 1)


def test_log_order():
    F = gf.get_field(2, 4)
    order = elements_log_order(F)
    assert order[0] == 0 and order[1] == 1
    assert len(order) == 16


def test_validation():
    with pytest.raises(Exception):
        FamilySpec(2, 1, 4, (1, 1))
    with pytest.raises(Exception):
        FamilySpec(2, 1, 4, (2, 1))
    for s, m in ((-1, -1), (-2, -2), (0, 4), (1, 0)):
        with pytest.raises(gf.FieldError, match="s and m must be >= 1"):
            FamilySpec(2, s, m, (1,))
    with pytest.raises(Exception):
        LinearizedPoly((1,), (1, 2), 1)
    R = LinearizedPoly((1,), (0,), 1)
    with pytest.raises(Exception):
        R.degree_exponent()


def test_degree_exponent():
    R = LinearizedPoly((1, 3), (5, 7), 1)
    assert R.degree_exponent() == 3
    R2 = LinearizedPoly((1, 3), (5, 0), 1)
    assert R2.degree_exponent() == 1
