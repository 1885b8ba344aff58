"""Combinatorial indexing shared by the checkers and the search engine.

Tuples are 1-based strictly increasing sequences over [n] = {1, ..., n}.
A sign map on (k+2)-tuples is stored densely, indexed by lexicographic
rank.  The window table and the exchange-pair table built here are cached
per (n, k) because every checker and the enumeration engine consume them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import InputError


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


def all_tuples(n, r):
    """All sorted r-tuples over [n] in lex order."""
    return list(itertools.combinations(range(1, n + 1), r))


@dataclass(frozen=True)
class WindowIndex:
    """Ranks of the (k+2)-subtuples of every (k+3)-window.

    windows[w] lists the k+3 subtuple ranks of the w-th (k+3)-subset in
    lex order of the subtuples, which is deletion of the largest element
    first.  var_windows[v] lists the windows touching variable v.
    """

    n: int
    k: int
    tuples: tuple
    windows: tuple
    window_tuples: tuple
    var_windows: tuple


@lru_cache(maxsize=None)
def window_index(n, k):
    r = k + 2
    tuples = tuple(all_tuples(n, r))
    rank = {t: i for i, t in enumerate(tuples)}
    windows = []
    window_tuples = tuple(all_tuples(n, r + 1))
    for lam in window_tuples:
        subs = sorted(itertools.combinations(lam, r))
        windows.append(tuple(rank[s] for s in subs))
    var_windows = [[] for _ in tuples]
    for w, win in enumerate(windows):
        for v in win:
            var_windows[v].append(w)
    return WindowIndex(
        n=n,
        k=k,
        tuples=tuples,
        windows=tuple(windows),
        window_tuples=window_tuples,
        var_windows=tuple(tuple(ws) for ws in var_windows),
    )


@dataclass(frozen=True)
class ExchangeTable:
    """Index arrays for the batched Grassmann-Pluecker sign test.

    Row p covers the ordered pair (lam, mu) with pivot lam_1 and holds
    k+3 terms: first -chi(lam)chi(mu), then for s = 1..k+2 the product
    chi(mu_s, lam_2, ..., lam_{k+2}) * chi(mu with mu_s replaced by
    lam_1).  Tuples with repeats contribute the constant 0 (coeff[p,s]
    set to 0, dummy indices).  The test per row: the k+3 term signs
    contain both +1 and -1, or all vanish.
    """

    n: int
    k: int
    left: np.ndarray    # (rows, k+3) int32, first factor ranks
    right: np.ndarray   # (rows, k+3) int32, second factor ranks
    coeff: np.ndarray   # (rows, k+3) int8
    pair_lam: np.ndarray
    pair_mu: np.ndarray


@lru_cache(maxsize=None)
def exchange_table(n, k, uniform_prune=False):
    """Build the pair table; with uniform_prune, drop pairs whose pivot
    lies in mu.  There the exchange at mu_s = lam_1 reproduces
    chi(lam)chi(mu), so any nowhere-zero sign map passes automatically.
    """
    r = k + 2
    tuples = all_tuples(n, r)
    rank = {t: i for i, t in enumerate(tuples)}
    left, right, coeff, pair_lam, pair_mu = [], [], [], [], []
    for li, lam in enumerate(tuples):
        piv = lam[0]
        rest = lam[1:]
        for mi, mu in enumerate(tuples):
            if uniform_prune and piv in mu:
                continue
            ls = [li]
            rs = [mi]
            cs = [-1]
            for s in range(r):
                s1, t1 = sort_with_sign((mu[s],) + rest)
                s2, t2 = sort_with_sign(mu[:s] + (piv,) + mu[s + 1:])
                if s1 and s2:
                    ls.append(rank[t1])
                    rs.append(rank[t2])
                    cs.append(s1 * s2)
                else:
                    ls.append(0)
                    rs.append(0)
                    cs.append(0)
            left.append(ls)
            right.append(rs)
            coeff.append(cs)
            pair_lam.append(li)
            pair_mu.append(mi)
    shape = (len(left), r + 1)
    table = ExchangeTable(
        n=n,
        k=k,
        left=np.array(left, np.int32).reshape(shape),
        right=np.array(right, np.int32).reshape(shape),
        coeff=np.array(coeff, np.int8).reshape(shape),
        pair_lam=np.array(pair_lam, np.int32),
        pair_mu=np.array(pair_mu, np.int32),
    )
    for arr in (table.left, table.right, table.coeff, table.pair_lam, table.pair_mu):
        arr.setflags(write=False)
    return table
