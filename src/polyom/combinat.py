"""Combinatorial indexing shared by the checkers and the search engine.

Tuples are 1-based strictly increasing sequences over [n] = {1, ..., n}.
A sign map on (k+2)-tuples is stored densely, indexed by lexicographic
rank.  The tuple table, the window table and the exchange-pair table built
here are cached per (n, k) because the predicate, every checker and the
enumeration engine consume them.

Every entry point that takes n and k checks them with check_case: a
degree k >= 1 and n >= k+2 elements, so that a (k+2)-tuple exists.
Every call that takes elements or a tuple of them reads it with
check_tuple: an iterable of r integers in [1, n], as operator.index
reads them (numpy integers and Python bools pass), with one wording for
each fault.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import InputError


def _check_degree(k):
    if k < 1:
        raise InputError(f"degree must be at least 1, got {k}")


def check_case(n, k):
    """Raise InputError unless k >= 1 and n >= k+2."""
    _check_degree(k)
    if n < k + 2:
        raise InputError(f"need at least k+2 = {k + 2} elements, got n = {n}")


def check_tuple(t, n, r=None):
    """t as r integers in [1, n] (any number of them when r is None),
    returned as sort_with_sign returns it: (parity, sorted tuple).
    InputError names a t that is not iterable, the first non-integer, a
    wrong length or the first element out of range."""
    try:
        t = iter(t)
    except TypeError:
        raise InputError(f"expected a tuple of elements, got {t!r}") from None
    elems = []
    for e in t:
        try:
            elems.append(operator.index(e))
        except TypeError:
            raise InputError(f"element {e!r} is not an integer") from None
    if r is not None and len(elems) != r:
        raise InputError(f"expected a {r}-tuple, got {tuple(elems)}")
    for e in elems:
        if not 1 <= e <= n:
            raise InputError(f"element {e} outside [1, {n}]")
    return sort_with_sign(elems)


def sort_with_sign(t):
    """Sort a tuple of ints, returning (parity, sorted tuple).

    Parity is +1/-1 for the permutation that sorts t, or 0 when t has a
    repeated entry.  Insertion sort; arities here never exceed k+3.
    """
    vals = list(t)
    sign = 1
    for i in range(1, len(vals)):
        j = i
        while j > 0 and vals[j - 1] > vals[j]:
            vals[j - 1], vals[j] = vals[j], vals[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(vals, vals[1:]):
        if a == b:
            return 0, tuple(vals)
    return sign, tuple(vals)


def lex_rank(t, n):
    """Rank of a sorted r-tuple among all r-subsets of [n], lex order."""
    r = len(t)
    prev = 0
    rank = 0
    for i, v in enumerate(t):
        if not prev < v <= n:
            raise InputError(f"not a sorted tuple over [{n}]: {t}")
        for w in range(prev + 1, v):
            rank += comb(n - w, r - i - 1)
        prev = v
    return rank


def lex_unrank(rank, n, r):
    """Inverse of lex_rank: the sorted r-tuple over [n] with this rank."""
    if not 0 <= rank < comb(n, r):
        raise InputError(f"rank {rank} out of range for C({n},{r})")
    out = []
    v = 1
    rem = r
    while rem > 0:
        c = comb(n - v, rem - 1)
        if rank < c:
            out.append(v)
            rem -= 1
        else:
            rank -= c
        v += 1
    return tuple(out)


def comb_upto(n, j, cap):
    """comb(n, j) when it is at most cap, else cap + 1, at a cost bounded
    by cap: comb(n, i) does not fall as i rises to min(j, n - j)."""
    c = 1
    for i in range(min(j, n - j)):
        c = c * (n - i) // (i + 1)
        if c > cap:
            return cap + 1
    return c


def all_tuples(n, r):
    """All sorted r-tuples over [n] in lex order."""
    return list(itertools.combinations(range(1, n + 1), r))


def _lex_ranks(T, n):
    """Lex ranks of the sorted r-tuples over [n] along the last axis of T:
    C(n, r) - 1 - sum_i C(n - t_i, r - i), with i counted from 0."""
    r = T.shape[-1]
    binom = np.array([[comb(a, b) for b in range(r + 1)] for a in range(n)], np.int64)
    return comb(n, r) - 1 - binom[n - T, r - np.arange(r)].sum(-1)


@lru_cache(maxsize=None)
def window_index(n, k):
    """Read-only (W, k+3) array: row w holds the ranks of the (k+2)-subtuples
    of the (k+3)-window lex_unrank(w, n, k+3), in lex order of the
    subtuples, which is deletion of the largest element first."""
    r = k + 2
    W = np.array(all_tuples(n, r + 1), np.intp).reshape(-1, r + 1)
    windows = _lex_ranks(W[:, [[i for i in range(r + 1) if i != r - j] for j in range(r + 1)]], n)
    windows.setflags(write=False)
    return windows


@dataclass(frozen=True)
class TupleIndex:
    """Sorted (k+2)-tuples, and where a (k+1)-base plus one element lands.

    tuples (C(n, k+2), k+2): the sorted 1-based tuples in lex order.
    rank, parity (C(n, k+1), n): for base b in lex order and element e,
    the lex rank of sorted(b + (e,)) and the parity of the permutation
    that sorts b + (e,); both are 0 where e lies in b.
    """

    tuples: np.ndarray
    rank: np.ndarray
    parity: np.ndarray


@lru_cache(maxsize=None)
def tuple_index(n, k):
    r = k + 2
    tuples = np.array(all_tuples(n, r), np.intp).reshape(-1, r)
    bases = np.array(all_tuples(n, r - 1), np.intp).reshape(-1, 1, r - 1)
    elems = np.arange(1, n + 1).reshape(1, n, 1)
    inside = (bases == elems).any(2)
    # e appended to the sorted base moves left past every larger element
    parity = np.where(inside, 0, 1 - 2 * ((bases > elems).sum(2) & 1)).astype(np.int8)
    srt = np.sort(np.concatenate([bases.repeat(n, 1), elems.repeat(len(bases), 0)], 2), 2)
    rank = np.where(inside, 0, _lex_ranks(srt, n)).astype(np.intp)
    for arr in (tuples, rank, parity):
        arr.setflags(write=False)
    return TupleIndex(tuples=tuples, rank=rank, parity=parity)


@dataclass(frozen=True)
class ExchangeTable:
    """Index arrays for the batched Grassmann-Pluecker sign test.

    Row p covers an ordered pair (lam, mu) whose pivot lam_1 lies
    outside mu and holds k+3 terms: first -chi(lam)chi(mu), then for
    s = 1..k+2 the product chi(mu_s, lam_2, ..., lam_{k+2}) * chi(mu
    with mu_s replaced by lam_1), each coeff[p, s] * x[left[p, s]] *
    x[right[p, s]]; so lam and mu have ranks left[p, 0] and right[p, 0],
    and rows run in their lex order.  Tuples with repeats contribute the
    constant 0 (coeff[p,s] set to 0, dummy indices).  The test per row:
    the k+3 term signs contain both +1 and -1, or all vanish.
    """

    # All three are stored column by column, so the test's reductions over
    # the k+3 terms run elementwise across contiguous columns, far faster
    # in numpy than along rows of k+3 entries.
    left: np.ndarray    # (rows, k+3) int32, first factor ranks
    right: np.ndarray   # (rows, k+3) int32, second factor ranks
    coeff: np.ndarray   # (rows, k+3) int8


@lru_cache(maxsize=None)
def exchange_table(n, k, prune=False):
    """Build the pair table: the ordered pairs (lam, mu) whose pivot
    lam_1 lies outside mu, in lex order.  A pair with lam_1 in mu has
    one nonzero exchange term, at mu_s = lam_1, and it is
    chi(lam)chi(mu), the first term negated, so that pair holds on every
    sign map, zeros included.  prune is accepted and ignored; the
    benchmark harness still passes it.
    """
    r = k + 2
    idx = tuple_index(n, k)
    pair_lam, pair_mu = np.nonzero(~(idx.tuples[None] == idx.tuples[:, None, :1]).any(2))
    lam, mu = idx.tuples[pair_lam], idx.tuples[pair_mu]
    # Term s reads (mu_s, lam_2, ..., lam_r) as the base lam_2..lam_r plus
    # mu_s, and mu with lam_1 at position s as the base mu minus mu_s plus
    # lam_1.  Moving mu_s and lam_1 to the end takes (r-1) + (r-1-s)
    # transpositions: the product of the two parities flips by (-1)^s.
    rest = _lex_ranks(lam[:, 1:], n)[:, None]
    drop = _lex_ranks(np.stack([np.delete(mu, s, 1) for s in range(r)], 1), n)
    piv = lam[:, :1] - 1
    coeff = idx.parity[rest, mu - 1] * idx.parity[drop, piv] * (1 - 2 * (np.arange(r) & 1))
    left = np.where(coeff != 0, idx.rank[rest, mu - 1], 0)
    right = np.where(coeff != 0, idx.rank[drop, piv], 0)
    table = ExchangeTable(
        left=np.asfortranarray(np.hstack([pair_lam[:, None], left]), np.int32),
        right=np.asfortranarray(np.hstack([pair_mu[:, None], right]), np.int32),
        coeff=np.asfortranarray(np.hstack([np.full((len(lam), 1), -1), coeff]), np.int8),
    )
    for arr in (table.left, table.right, table.coeff):
        arr.setflags(write=False)
    return table
