"""Congruence reduction of stacks of symmetric matrices over a prime field F_p.

Every rank, type and kernel in the package comes from reduce_symmetric or
its one-matrix route _reduce_one, through quadform.form_profiles and
verify's bordered forms.  A symmetric
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

A stack is reduced on an active set: the working stack holds only the
matrices whose Schur complement is nonzero.  A matrix whose complement is
zero is done (every later pivot would be zero and change nothing), so it
leaves the stack, its rank, discriminant and P written out, before the next
update; the second rank-one term runs only on the matrices that take a
hyperbolic pivot.  Each step's first rank-one term is written into one
buffer of the stack's size, so a step costs the live matrices only and the
pivots, and every output, are those of a loop that keeps every matrix to the
end (the tests keep that loop as the reference).

One matrix with no kernel asked is reduced by _reduce_one, in Python
integers on the same pivots, so it returns the rank and discriminant of its
row in a batched call exactly: per pivot the batched loop makes about 20
numpy calls, which cost more than the arithmetic of one small matrix.
reduce_symmetric takes that route for a stack of one, and quadform's
one-form profile at odd p calls it directly on a Gram matrix it has already
reduced mod p.  That route never forms a whole Schur complement: it keeps
each as A minus the rank-one terms of the pivots so far, with its diagonal
up to date, and reads an entry only where a pivot needs it.  P and the
kernel come from the batched loop alone, one matrix or many.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

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
    """Congruence-reduce a (B, n, n) stack of symmetric integer matrices mod p, on an active set."""
    dt = int_dtype(2 * p * p + p)
    a = np.asarray(mats).astype(dt)
    a %= p
    if len(a) == 1 and not kernel:
        return _reduce_one(a[0].tolist(), p)
    inv = _inv_table(p)
    B, n, _ = a.shape
    live = np.arange(B)  # the index in mats of each working matrix
    rank = np.zeros(B, dtype=np.int64)
    disc = np.ones(B, dtype=np.int64)
    basis = np.broadcast_to(np.eye(n, dtype=dt), a.shape).copy() if kernel else None
    P, work = basis, np.empty_like(a)  # work holds each rank-one term
    for _ in range(n):
        bs = np.arange(len(a))
        nz = a.diagonal(0, 1, 2) != 0
        i = nz.argmax(axis=1)
        j = i.copy()
        pair = np.flatnonzero(~nz[bs, i])  # no nonzero diagonal entry is left
        if len(pair):
            flat = np.take(a, pair, axis=0, out=work[:len(pair)], mode="clip")
            flat = flat.reshape(len(pair), -1) != 0
            i[pair], j[pair] = np.divmod(flat.argmax(axis=1), n)
            done = ~flat.any(axis=1)  # a zero Schur complement
            del flat
            if done.any():
                keep = np.ones(len(a), dtype=bool)
                keep[pair[done]] = False
                if kernel:
                    basis[live[~keep]] = P[~keep]
                    P = P[keep]
                kept = np.flatnonzero(keep)  # a moves into work, whose buffer a frees
                a, work = np.take(a, kept, axis=0, out=work[:len(kept)], mode="clip"), a
                live, i, j = live[kept], i[kept], j[kept]
                pair = pair[~done] - np.cumsum(~keep)[pair[~done]]  # its place in the kept stack
                if not len(a):
                    break
                bs = bs[:len(a)]
        row_i, row_j = a[bs, i], a[bs, j]
        piv = row_i[bs, j].astype(np.int64)
        # subtract A_.i A_j. / piv, and A_.j A_i. / piv for a hyperbolic pivot
        c = inv[piv]
        r1 = row_j * c[:, None]
        r1 %= p
        a -= np.multiply(row_i[:, :, None], r1[:, None, :], out=work[:len(a)])
        if kernel:
            col_i, col_j = P[bs, :, i], P[bs, :, j]
            P -= np.multiply(col_i[:, :, None], r1[:, None, :], out=work[:len(a)])
        rank[live] += 1
        if len(pair):
            r2 = row_i[pair] * c[pair, None]
            r2 %= p
            a[pair] -= np.multiply(row_j[pair, :, None], r2[:, None, :], out=work[:len(pair)])
            if kernel:
                P[pair] -= np.multiply(col_j[pair, :, None], r2[:, None, :], out=work[:len(pair)])
            rank[live[pair]] += 1
            piv[pair] *= -piv[pair]
        a %= p
        if kernel:
            P %= p
        disc[live] = disc[live] * piv % p
    if kernel:
        basis[live] = P
    return Reduction(p=p, rank=rank, disc=disc, basis=basis)


def _reduce_one(a: list, p: int) -> Reduction:
    """The rank and discriminant of one matrix in Python integers, by reduce_symmetric's pivots.

    a is a list of rows with entries in [0, p); it is only read.  The pivots
    are the batched loop's, taken on the same Schur complements, each kept
    as S = A - sum_k u_k w_k^T over the pivots so far (one term for a 1x1
    pivot, two for a hyperbolic pair) and read only where needed: S_xy =
    A_xy - u[x] . w[y].  The diagonal of S is kept up to date, so a 1x1
    pivot i (the first live one with S_ii != 0) reads column i alone, one
    dot product per live index.  Only when the live diagonal is zero are the
    entries read in row-major order, for the first nonzero S_ij of a
    hyperbolic pivot, which adds the terms (S_.i, S_.j / S_ij) and
    (S_.j, S_.i / S_ij).
    """
    live = list(range(len(a)))
    d = [row[x] for x, row in enumerate(a)]
    u = [[] for _ in live]
    w = [[] for _ in live]
    rank, disc = 0, 1
    while live:
        for i in live:
            if d[i]:
                break
        else:  # the first nonzero entry in row-major order, as a hyperbolic pair
            for i in live:
                ai, ui = a[i], u[i]
                j = next((y for y in live if (ai[y] - sum(map(mul, ui, w[y]))) % p), None)
                if j is not None:
                    break
            else:
                break
            live.remove(i)
            live.remove(j)
            aj, wi, wj = a[j], w[i], w[j]
            piv = (ai[j] - sum(map(mul, ui, wj))) % p
            c = pow(piv, -1, p)
            for x in live:
                ux = u[x]
                si = (ai[x] - sum(map(mul, ux, wi))) % p
                sj = (aj[x] - sum(map(mul, ux, wj))) % p
                d[x] = (d[x] - 2 * si * sj * c) % p
                ux += (si, sj)
                w[x] += (sj * c % p, si * c % p)
            rank, disc = rank + 2, disc * -piv * piv % p
            continue
        live.remove(i)
        piv, ai, wi = d[i], a[i], w[i]
        c = pow(piv, -1, p)
        for x in live:
            s = (ai[x] - sum(map(mul, u[x], wi))) % p
            d[x] = (d[x] - s * s * c) % p
            u[x].append(s)
            w[x].append(s * c % p)
        rank, disc = rank + 1, disc * piv % p
    return Reduction(p=p, rank=np.array([rank], dtype=np.int64),
                     disc=np.array([disc], dtype=np.int64))
