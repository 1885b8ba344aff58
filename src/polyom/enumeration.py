"""Enumeration of degree-k chirotopes by single-element extension.

A nowhere-zero map sigma on the r-subsets of [n], r = k+2, is a
signotope of rank r when its sign sequence changes at most once on
every (r+1)-subset X, read in lex order of the r-subsets of X (the
largest element deleted first).  Signotopes of rank k+2 are the
elements of the higher Bruhat order B(n, k+1) (Felsner and Weil,
"Sweeps, arrangements and signotopes", Discrete Appl. Math. 109,
2001).  Through Ziegler's bijection between B(n, k+1) and the uniform
single-element extensions of an alternating oriented matroid, each one
is a uniform chirotope up to reorientation (Ziegler, "Higher Bruhat
orders and cyclic hyperplane arrangements", Topology 32, 1993).
Reorientation leaves B3 invariant, so no catalog row needs the exchange
condition checked; exchange_filter_mask runs check_B3's evaluator over
a whole record matrix, and is kept as the reference check that the
tests run over whole catalogs.  Conversely every degree-k
chirotope is unimodal on its windows, so the degree-k chirotopes on [n]
are exactly the rank-(k+2) signotopes.

Deletion and contraction.  A rank-r signotope sigma on [n] splits into
its deletion P, sigma on the r-subsets of [n-1], and its contraction
Q(A) = sigma(A + {n}) on the (r-1)-subsets A of [n-1].  P is a rank-r
and Q a rank-(r-1) signotope on [n-1].  The windows of sigma without n
are P's windows; the window A + {n} reads P(A) followed by Q's window on
A.  So sigma -> (P, Q) is a bijection onto the pairs in which P(A)
equals the first sign of Q's window on A wherever that window changes
sign, and P is free on the other r-subsets (the single-element
extensions of higher Bruhat orders in Ziegler 1993 and Felsner-Weil
2001).

The join.  enumerate_chirotopes builds the full (both-sign) signotope
sets by recursion on (n-1, r) and (n-1, r-1), with a memo that lives for
one call, down to four base cases:
  - rank > n: the empty map;
  - rank n: both signs of the one tuple;
  - rank n-1, in closed form: [n] is the one window, so the rows are the
    2n sign sequences s^a (-s)^(n-a) over the lex tuples, those with at
    most one change (a top level of rank n-1 is still joined, since it
    keeps one row of each {sigma, -sigma});
  - rank 1: every map.
At each level the rows of Q are grouped by their key, the positions
they force and the values there, and each group is paired with the
rows of P that carry those values.  P and Q are first placed into their
columns of the rows on [n], so an output row is one gather of a P row
ORed with one gather of a Q row.  Each level is a set-up (the keys
sorted and grouped, P packed, P and Q placed) and a step that matches a
slice of the keys and gathers its rows; the lower levels take every
key.  The top level pairs only the rows whose lex-first tuple
(1, ..., k+2) is +, one of each {sigma, -sigma}, and sorts them as byte
strings on a 1-bit key: the rows hold no 0, so their packed '-' bits,
read as big-endian words, sort as their characters do (bit_order).  A shard is the slice of the
top keys whose index is its own modulo the shard count;
enumerate_sharded builds the lower levels and the top set-up once, runs
every shard's step on it, in turn or on threads that share it, and
sorts the rows of all shards once.  That is the one way to combine
shards.  partition_search gives one shard alone, sorted; the shards are
disjoint and their union is the full catalog.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .axioms import _exchange_failures
from .chirotope import bit_chars, bit_order, char_signs, records_of
from .combinat import check_case, tuple_index, window_index
from .errors import InputError

# elements (keys x P rows x words) per temporary of the key match
_MATCH_CHUNK = 1 << 20
# output rows per gather of Q rows; bounds the temporary of the gather
_ROW_CHUNK = 1 << 16


def exchange_filter_mask(chars, n, k):
    """Which rows of a record character matrix pass the exchange test
    (the evaluator of check_B3, in blocks over the rows)."""
    return _exchange_failures(char_signs(chars), n, k)[1] < 0


def _pack(bits):
    """Boolean rows as bytes, zero-padded to whole 64-bit words."""
    m, c = bits.shape
    out = np.zeros((m, 8 * max(1, -(-c // 64))), np.uint8)
    out[:, : -(-c // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out


class _Join:
    """The rank-r signotopes on [n] from deletions P and contractions Q.

    P and Q are boolean rows (True = +) over the lex r-subsets and
    (r-1)-subsets of [n-1].  The set-up sorts and groups Q's keys,
    packs P into words and places P and Q into their columns of the rows
    on [n]; rows() then joins any slice of the keys against it.
    """

    def __init__(self, P, Q, n, r):
        wins = window_index(n - 1, r - 3)
        first = Q[:, wins[:, 0]]
        forced = first != Q[:, wins[:, -1]]
        keys = np.hstack([_pack(forced), _pack(first & forced)]).view("<u8")
        words = keys.shape[1] // 2
        self.by_key = np.lexsort(keys.T[::-1])
        keys = keys[self.by_key]
        new = np.ones(len(keys), bool)
        new[1:] = (keys[1:] != keys[:-1]).any(1)
        self.starts = np.flatnonzero(new)
        self.counts = np.diff(self.starts, append=len(keys))
        self.mask, self.value = keys[self.starts, :words], keys[self.starts, words:]
        self.Pw = _pack(P).view("<u8")
        # P and Q placed into their columns of the rows on [n]; a row is
        # then one gather of each, ORed
        has_n = tuple_index(n, r - 2).tuples[:, -1] == n
        self.placed_p = np.zeros((len(P), len(has_n)), bool)
        self.placed_p[:, ~has_n] = P
        self.placed_q = np.zeros((len(Q), len(has_n)), bool)
        self.placed_q[:, has_n] = Q

    def rows(self, shard=0, of_shards=1):
        """Every valid pair (P row, Q row) as a row in lex tuple order on
        [n], for the Q keys whose index in sorted key order is shard
        modulo of_shards; unsorted."""
        starts, counts = self.starts[shard::of_shards], self.counts[shard::of_shards]
        mask, value = self.mask[shard::of_shards], self.value[shard::of_shards]

        # key g matches P row j where P agrees with it on its mask
        Pw = self.Pw
        step = max(1, _MATCH_CHUNK // max(1, Pw.size))
        hit_key, hit_p = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        for lo in range(0, len(starts), step):
            ok = ((Pw[None] & mask[lo : lo + step, None]) == value[lo : lo + step, None]).all(2)
            g, j = np.nonzero(ok)
            hit_key.append(g + lo)
            hit_p.append(j)
        hit_key, hit_p = np.concatenate(hit_key), np.concatenate(hit_p)

        # each hit pairs its P row with every Q row of its key
        reps = counts[hit_key]
        q = np.repeat(starts[hit_key] - (np.cumsum(reps) - reps), reps)
        q += np.arange(len(q))
        q = self.by_key[q]
        out = np.take(self.placed_p, np.repeat(hit_p, reps), axis=0)
        for lo in range(0, len(q), _ROW_CHUNK):
            out[lo : lo + _ROW_CHUNK] |= np.take(self.placed_q, q[lo : lo + _ROW_CHUNK], axis=0)
        return out


def _signotopes(n, r, memo):
    """All rank-r signotopes on [n], both signs, as boolean rows over the
    lex r-subsets, in no set order; memo maps (n, r) to the rows of the
    levels built so far.  The base cases are those of the module
    docstring; a level of rank n-1 is its 2n rows with at most one sign
    change, made directly instead of joined."""
    if (n, r) not in memo:
        if r > n:
            out = np.ones((1, 0), bool)
        elif r == n:
            out = np.array([[True], [False]])
        elif r == n - 1:
            steps = np.arange(1, n)[:, None] > np.arange(n)
            out = np.vstack([np.ones((1, n), bool), steps, np.zeros((1, n), bool), ~steps])
        elif r == 1:
            out = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
        else:
            out = _Join(_signotopes(n - 1, r, memo), _signotopes(n - 1, r - 1, memo), n, r).rows()
        memo[(n, r)] = out
    return memo[(n, r)]


def _top_join(n, k):
    """The set-up of the top level, which joins one row of each
    {sigma, -sigma}; the lower levels are freed on return."""
    r = k + 2
    memo = {}
    P, Q = _signotopes(n - 1, r, memo), _signotopes(n - 1, r - 1, memo)
    # the lex-first tuple (1, ..., r) lies in P unless n = r
    if n > r:
        P = P[P[:, 0]]
    else:
        Q = Q[Q[:, 0]]
    return _Join(P, Q, n, r)


def _sorted_result(n, k, rows):
    """Top-level rows, sorted, as record characters (written over rows)."""
    order = bit_order(rows)
    chars = bit_chars(rows)[order]
    chars.setflags(write=False)
    return EnumerationResult(n=n, k=k, chars=chars)


@dataclass(frozen=True)
class EnumerationResult:
    """Enumeration output: chars holds one record per object, in record order."""

    n: int
    k: int
    chars: np.ndarray

    @property
    def count(self):
        return len(self.chars)

    @property
    def unimodal_count(self):
        """Rows unimodal on every window; equal to count, since every
        unimodal map is a chirotope (see the module docstring)."""
        return self.count

    def strings(self):
        return records_of(self.chars)

    def summary(self):
        return f"unimodal={self.unimodal_count} degree_k={self.count}"


def _check_shards(of_shards):
    if of_shards < 1:
        raise InputError(f"of_shards must be positive, got {of_shards}")


def enumerate_chirotopes(n, k):
    """All degree-k chirotopes on [n] up to global sign, lex order."""
    check_case(n, k)
    return _sorted_result(n, k, _top_join(n, k).rows())


def partition_search(n, k, shard, of_shards):
    """One shard of the catalog, sorted; the union over shards is exact.

    The shard joins the contraction keys whose index in sorted key order
    is shard modulo of_shards, so shards are disjoint and deterministic.
    It builds the whole set-up of the join for its one slice; to run
    every shard, enumerate_sharded builds it once.
    """
    _check_shards(of_shards)
    if not 0 <= shard < of_shards:
        raise InputError(f"shard {shard} outside [0, {of_shards})")
    check_case(n, k)
    return _sorted_result(n, k, _top_join(n, k).rows(shard, of_shards))


def enumerate_sharded(n, k, of_shards, jobs=1):
    """Every shard of one join, on min(jobs, of_shards, cores) threads
    of this process when jobs > 1, sorted once.

    The lower levels and the top set-up are built once, here; a shard
    only matches its keys and gathers its rows.  The threads share the
    set-up, which rows() only reads, and the shard step runs in numpy
    calls that release the GIL.  An exception in a shard is raised here.
    """
    _check_shards(of_shards)
    check_case(n, k)
    join = _top_join(n, k)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, of_shards, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(partial(join.rows, of_shards=of_shards), range(of_shards)))
    else:
        parts = [join.rows(s, of_shards) for s in range(of_shards)]
    rows = np.concatenate(parts)
    del parts  # the sort copies the rows once more
    return _sorted_result(n, k, rows)
