"""q-linearized polynomials R(x) = sum a_i x^{q^{l_i}} over F_{q^m}, q = p^s."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx, FieldError


@dataclass(frozen=True)
class FamilySpec:
    """The span <x^{q^{l_1}}, .., x^{q^{l_s}}> over F_{q^m}: exponents plus field shape."""

    p: int
    s: int
    m: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.s < 1 or self.m < 1:
            raise FieldError(f"s and m must be >= 1, got s={self.s}, m={self.m}")
        if any(e < 0 for e in self.exponents):
            raise FieldError("family exponents must be >= 0")
        if len(set(self.exponents)) != len(self.exponents):
            raise FieldError("family exponents must be distinct")
        if list(self.exponents) != sorted(self.exponents):
            raise FieldError("family exponents must be sorted ascending")

    @property
    def q(self) -> int:
        return self.p ** self.s

    @property
    def n(self) -> int:
        return self.s * self.m


@dataclass(frozen=True)
class LinearizedPoly:
    """Coefficients a_i attached to q-exponents l_i; zero coefficients permitted."""

    q_exponents: tuple[int, ...]
    coeffs: tuple[int, ...]
    base_q_degree: int  # s with q = p^s

    def __post_init__(self):
        if len(self.q_exponents) != len(self.coeffs):
            raise FieldError("exponents and coefficients must align")
        if list(self.q_exponents) != sorted(set(self.q_exponents)):
            raise FieldError("q-exponents must be sorted and distinct")
        if any(e < 0 for e in self.q_exponents):
            raise FieldError("q-exponents must be >= 0")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def degree_exponent(self) -> int:
        """l_max over nonzero coefficients: deg R = q^{l_max} = p^{s*l_max}."""
        nz = [l for l, c in zip(self.q_exponents, self.coeffs) if c != 0]
        if not nz:
            raise FieldError("zero polynomial has no degree")
        return max(nz)


def lin_eval(ctx: FieldCtx, R: LinearizedPoly, x: int) -> int:
    """R(x) by repeated Frobenius powers; F_q-linear in x."""
    s = R.base_q_degree
    acc = 0
    for l, c in zip(R.q_exponents, R.coeffs):
        if c:
            acc = ctx.add(acc, ctx.mul(c, ctx.frob(x, s * l)))
    return acc


def elements_log_order(ctx: FieldCtx) -> np.ndarray:
    """0 first, then alpha^0, alpha^1, ...: the enumeration order for families."""
    return np.concatenate([[0], ctx.exp[: ctx.mult_order]]).astype(np.int64)


def family_coeffs(ctx: FieldCtx, family: FamilySpec, lo: int, hi: int) -> np.ndarray:
    """Coefficient rows lo..hi-1 of the family's (q^m)^k members, lexicographic in log order.

    With k = len(exponents), entry j of row i is element number
    (i // q^{m(k-1-j)}) mod q^m of elements_log_order: row 0 is the zero
    polynomial and the last coefficient runs fastest.
    """
    if ctx.p != family.p or ctx.n != family.n:
        raise FieldError("field context does not match family parameters")
    places = ctx.order ** np.arange(len(family.exponents), dtype=np.int64)[::-1]
    i = np.arange(lo, hi, dtype=np.int64)
    return elements_log_order(ctx)[i[:, None] // places % ctx.order]
