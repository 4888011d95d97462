"""Element-order reference routes, kept for the tests only.

The package evaluates every table in the log order x = alpha^k.  These
helpers build the same quantities in element order (or by the plain
k-pass construction) so the tests can compare the two layouts.  The
batched reduction that keeps every matrix in its stack to the end is kept
here too, as the reference of linalg.reduce_symmetric's active set.
"""

import numpy as np

from qfcodes.gf import FieldCtx, int_dtype
from qfcodes.linalg import Reduction, _inv_table
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


def reduce_symmetric_batched(mats: np.ndarray, p: int, kernel: bool = False) -> Reduction:
    """The batched congruence reduction with every matrix kept in the stack to the end.

    Each step pivots, updates and reduces the whole stack, finished matrices
    (whose factor is 1 and whose updates are zero) included, and runs the
    second rank-one update on every matrix; linalg.reduce_symmetric must
    give the same rank, disc and P.
    """
    dt = int_dtype(2 * p * p + p)
    a = np.asarray(mats).astype(dt) % p
    inv = _inv_table(p)
    B, n, _ = a.shape
    bs = np.arange(B)
    rank = np.zeros(B, dtype=np.int64)
    disc = np.ones(B, dtype=np.int64)
    P = np.broadcast_to(np.eye(n, dtype=dt), a.shape).copy() if kernel else None
    for _ in range(n):
        nz = a.diagonal(0, 1, 2) != 0
        i = j = nz.argmax(axis=1)
        pair = (~nz[bs, i]).nonzero()[0]  # no nonzero diagonal entry is left
        if len(pair):
            j = i.copy()
            flat = (a[pair].reshape(len(pair), -1) != 0).argmax(axis=1)
            i[pair], j[pair] = np.divmod(flat, n)
        row_i, row_j = a[bs, i], a[bs, j]
        piv = row_i[bs, j].astype(np.int64)
        if not piv.any():
            break
        # subtract A_.i A_j. / piv, and A_.j A_i. / piv for a hyperbolic pivot
        c = inv[piv]
        r1 = row_j * c[:, None] % p
        a -= row_i[:, :, None] * r1[:, None, :]
        if kernel:
            col_i, col_j = P[bs, :, i], P[bs, :, j]
            P -= col_i[:, :, None] * r1[:, None, :]
        rank += piv != 0
        factor = piv + (piv == 0)  # 1 once a matrix is done
        if len(pair):
            r2 = np.zeros_like(r1)
            r2[pair] = row_i[pair] * c[pair, None] % p
            a -= row_j[:, :, None] * r2[:, None, :]
            if kernel:
                P -= col_j[:, :, None] * r2[:, None, :]
            rank[pair] += piv[pair] != 0
            factor[pair] *= -piv[pair] + (piv[pair] == 0)
        a %= p
        if kernel:
            P %= p
        disc = disc * factor % p
    return Reduction(p=p, rank=rank, disc=disc, basis=P)
