"""Element-order reference routes, kept for the tests only.

The package evaluates every table in the log order x = alpha^k.  These
helpers build the same quantities in element order (or by the plain
k-pass construction) so the tests can compare the two layouts.
"""

import numpy as np

from qfcodes.gf import FieldCtx
from qfcodes.linpoly import LinearizedPoly


def lin_eval_table(ctx: FieldCtx, R: LinearizedPoly) -> np.ndarray:
    """R over every field element at once.

    A term c x^{p^{sl}} at x = alpha^k is alpha^{log c + k p^{sl}}: one gather
    over k, written to the elements alpha^k, with 0 -> 0.
    """
    s, N = R.base_q_degree, ctx.mult_order
    acc = None
    for l, c in zip(R.q_exponents, R.coeffs):
        if c:
            term = np.zeros(ctx.order, dtype=np.int64)
            term[ctx.exp[:N]] = ctx.exp[ctx.log[c] + ctx.log_power_table(ctx.p ** (s * l))]
            acc = term if acc is None else ctx.v_add(acc, term)
    return np.zeros(ctx.order, dtype=np.int64) if acc is None else acc


def count_points_element_order(ctx: FieldCtx, R: LinearizedPoly, beta: int) -> int:
    """#C of y^p - y = x (R(x) + beta) over every x in element order, plus infinity."""
    xs = np.arange(ctx.order, dtype=np.int64)
    rhs = ctx.v_mul(xs, ctx.v_add(lin_eval_table(ctx, R), beta))
    ys = np.arange(ctx.order, dtype=np.int64)
    hist = np.bincount(ctx.v_add(ctx.frob_table(1), ctx.v_neg(ys)), minlength=ctx.order)
    return int(hist[rhs].sum()) + 1


def beta_of_k_pass(ctx: FieldCtx, d: int) -> np.ndarray:
    """beta_of[a] = sum_i b_i alpha^i, b_i the F_{p^d} digits of a, most significant first.

    k = n/d full-order passes of one v_mul and one v_add each.
    """
    sy, q, k = ctx.symbols(d), ctx.p ** d, ctx.n // d
    all_e = np.arange(ctx.order, dtype=np.int64)
    beta_of = np.zeros(ctx.order, dtype=np.int64)
    for i in range(k):
        a_i = np.full(ctx.order, ctx.alpha_pow(i), dtype=np.int64)
        digit = (all_e // q ** (k - 1 - i)) % q
        beta_of = ctx.v_add(beta_of, ctx.v_mul(a_i, sy.elements[digit]))
    return beta_of


def trace_sym_k_pass(ctx: FieldCtx, d: int) -> np.ndarray:
    """Symbol of tr_{p^n/p^d}(e) for every element e, by k - 1 full-order Frobenius gathers."""
    sy, all_e = ctx.symbols(d), np.arange(ctx.order, dtype=np.int64)
    acc, x = all_e.copy(), all_e
    for _ in range(ctx.n // d - 1):
        x = ctx.frob_table(d)[x]
        acc = ctx.v_add(acc, x)
    return sy.index_of[acc].astype(np.int16)
