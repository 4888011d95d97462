"""Congruence reduction of stacks of symmetric matrices over a prime field F_p.

Every rank, type and kernel in the package comes from reduce_symmetric,
through quadform.form_profiles and verify's bordered forms.  A symmetric
A is carried to a block-diagonal P^T A P one pivot at a time: a nonzero
diagonal entry d gives a 1x1 block, and when the whole remaining diagonal
is zero a nonzero A_ij gives the hyperbolic block [[0, a], [a, 0]].
Either way the Schur update

    A <- A - (A_.i A_j. + A_.j A_i.) / a      (i = j, one term, for a 1x1 pivot)

clears the pivot rows and columns, so there is no branch on p.  The rank is
the number of pivoted indices, the discriminant of the nondegenerate part is
the product of the d's and the (-a^2)'s, and the columns of P at indices
never pivoted span the kernel.  Entries stay in [0, p) between steps and an
update spans [-2(p-1)^2, p), so the working dtype is chosen from p.

A stack of one matrix with no kernel asked (a form's profile at odd p, as
each l3l pair query makes) is reduced in Python integers by the same pivots and updates, so it
returns the rank and discriminant of its row in a batched call exactly: per
pivot the batched loop makes about 20 numpy calls, which cost more than the
arithmetic of one small matrix.  That route keeps only the live (never
pivoted) rows and columns and updates them in place: the batched update
zeroes a pivot's rows and columns, and no later pivot reads them, so each
pivot drops its own.  P and the kernel come from the batched loop alone,
one matrix or many.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import int_dtype


@dataclass(frozen=True)
class Reduction:
    """rank[b], disc[b] (in [1, p)) and, when asked, the kernel of each matrix."""

    p: int
    rank: np.ndarray
    disc: np.ndarray
    basis: np.ndarray | None = None  # (B, n, n): the column operations P

    def etas(self) -> np.ndarray:
        """eta_p((-1)^{rank/2} disc) per matrix, p odd: the type (+1 or -1) of an even-rank form."""
        return _eta_table(self.p)[self.rank // 2 % 2, self.disc]

    def kernel(self, b: int = 0) -> np.ndarray:
        """(n, n - rank[b]) matrix whose columns are a basis of ker mats[b].

        A pivoted column of P ends at zero and a free column u keeps its 1 at
        row u, so the nonzero columns are the kernel basis.
        """
        P = self.basis[b]
        return P[:, P.any(axis=0)]


@lru_cache(maxsize=None)
def _eta_table(p: int) -> np.ndarray:
    """eta[k, u] = eta_p((-1)^k u): +1 when (-1)^k u is a nonzero square mod p, else -1."""
    square = np.zeros(p, dtype=bool)
    square[np.arange(1, p, dtype=np.int64) ** 2 % p] = True
    u = np.arange(p)
    return np.where(square[np.stack([u, -u % p])], 1, -1)


@lru_cache(maxsize=None)
def _inv_table(p: int) -> np.ndarray:
    """inv[v] = 1/v mod p (1/0 read as 0), in the working dtype, which holds 2p^2 + p."""
    inv, v, e = np.ones(p, dtype=np.int64), np.arange(p, dtype=np.int64), p - 2
    while e:  # v^(p-2) by squaring; p < 2^22 keeps every product below 2^44
        if e & 1:
            inv = inv * v % p
        v, e = v * v % p, e >> 1
    inv[0] = 0
    inv = inv.astype(int_dtype(2 * p * p + p))
    inv.flags.writeable = False
    return inv


def reduce_symmetric(mats: np.ndarray, p: int, kernel: bool = False) -> Reduction:
    """Congruence-reduce a (B, n, n) stack of symmetric integer matrices mod p."""
    dt = int_dtype(2 * p * p + p)
    a = np.asarray(mats).astype(dt) % p
    if len(a) == 1 and not kernel:
        return _reduce_one(a[0].tolist(), p)
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


def _reduce_one(a: list, p: int) -> Reduction:
    """The rank and discriminant of one matrix in Python integers, by reduce_symmetric's pivots.

    a keeps only the live rows and columns, those never pivoted, in index
    order: the batched loop zeroes a pivot's rows and columns and never
    reads them again, so each pivot pops them here.  As A is symmetric, a
    1x1 pivot i takes live row x to row x - A_xi r, with r = row i / piv; a
    hyperbolic pivot (i, j) subtracts the terms of (i, row j / piv) and
    (j, row i / piv) alike.
    """
    rank, disc = 0, 1
    while a:
        i = j = next((k for k, row in enumerate(a) if row[k]), None)
        if i is None:  # the first nonzero entry in row-major order, as a hyperbolic pair
            i = next((k for k, row in enumerate(a) if any(row)), None)
            if i is None:
                break
            j = next(k for k, v in enumerate(a[i]) if v)  # j > i: rows before i are zero
        piv = a[i][j]
        c = pow(piv, -1, p)
        if i == j:
            ri = a.pop(i)
            del ri[i]
            r = [x * c % p for x in ri]
            for row in a:
                x = row.pop(i)
                if x:
                    row[:] = [(w - x * t) % p for w, t in zip(row, r)]
            rank, disc = rank + 1, disc * piv % p
            continue
        rj, ri = a.pop(j), a.pop(i)
        del ri[j], ri[i], rj[j], rj[i]
        r, s = [x * c % p for x in rj], [x * c % p for x in ri]
        for row in a:
            y, x = row.pop(j), row.pop(i)
            if x or y:
                row[:] = [(w - x * t - y * u) % p for w, t, u in zip(row, r, s)]
        rank, disc = rank + 2, disc * -piv * piv % p
    return Reduction(p=p, rank=np.array([rank], dtype=np.int64),
                     disc=np.array([disc], dtype=np.int64))
