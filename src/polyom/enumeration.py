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
sets by recursion on (n-1, r) and (n-1, r-1), down to rank 1 (every
map), rank n (both signs of the one tuple) and rank > n (the empty
map), with a memo that lives for one call.  At each level the rows of Q are grouped by their key, the
positions they force and the values there, and each group is paired
with the rows of P that carry those values.  The top level pairs only
the rows whose lex-first tuple (1, ..., k+2) is +, one of each
{sigma, -sigma}, and sorts them as byte strings.  A shard joins only
the keys whose index is its own modulo the shard count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .axioms import _exchange_failures
from .chirotope import Chirotope, char_signs, record_order, records_of, sign_chars
from .combinat import tuple_index, window_index
from .errors import InputError

# elements (keys x P rows x words) per temporary of the key match
_MATCH_CHUNK = 1 << 20


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


def _extend(P, Q, n, r, shard=0, of_shards=1):
    """Rank-r signotopes on [n] from deletions P and contractions Q.

    P and Q are boolean rows (True = +) over the lex r-subsets and
    (r-1)-subsets of [n-1].  Returns every valid pair (P row, Q row)
    placed into lex tuple order on [n], keeping only the Q keys whose
    index in sorted key order is shard modulo of_shards.
    """
    wins = window_index(n - 1, r - 3)
    first = Q[:, wins[:, 0]]
    forced = first != Q[:, wins[:, -1]]
    keys = np.hstack([_pack(forced), _pack(first & forced)]).view("<u8")
    words = keys.shape[1] // 2
    by_key = np.lexsort(keys.T[::-1])
    keys = keys[by_key]
    new = np.ones(len(keys), bool)
    new[1:] = (keys[1:] != keys[:-1]).any(1)
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(keys))
    starts, counts = starts[shard::of_shards], counts[shard::of_shards]
    mask, value = keys[starts, :words], keys[starts, words:]

    # key g matches P row j where P agrees with it on its mask
    Pw = _pack(P).view("<u8")
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
    q = by_key[q]

    has_n = tuple_index(n, r - 2).tuples[:, -1] == n
    out = np.empty((len(q), len(has_n)), bool)
    out[:, ~has_n] = P[np.repeat(hit_p, reps)]
    out[:, has_n] = Q[q]
    return out


def _signotopes(n, r, memo):
    """All rank-r signotopes on [n], both signs, as boolean rows."""
    if (n, r) not in memo:
        if r > n:
            out = np.ones((1, 0), bool)
        elif r == n:
            out = np.array([[True], [False]])
        elif r == 1:
            out = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
        else:
            out = _extend(_signotopes(n - 1, r, memo), _signotopes(n - 1, r - 1, memo), n, r)
        memo[(n, r)] = out
    return memo[(n, r)]


def _canonical(n, k, shard=0, of_shards=1):
    """One shard of the canonical catalog, sorted, as record characters."""
    r = k + 2
    memo = {}
    P, Q = _signotopes(n - 1, r, memo), _signotopes(n - 1, r - 1, memo)
    # the lex-first tuple (1, ..., r) lies in P unless n = r
    if n > r:
        P = P[P[:, 0]]
    else:
        Q = Q[Q[:, 0]]
    del memo  # frees the lower levels before the top join
    chars = sign_chars(2 * _extend(P, Q, n, r, shard, of_shards).view(np.int8) - 1)
    chars = chars[record_order(chars)]
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

    def sign_rows(self):
        return char_signs(self.chars)

    def chirotopes(self):
        for row in self.sign_rows():
            yield Chirotope(self.n, self.k, row)

    def summary(self):
        return f"unimodal={self.unimodal_count} degree_k={self.count}"


def _check_case(n, k):
    if k < 1:
        raise InputError(f"degree must be at least 1, got {k}")
    if n < k + 2:
        raise InputError(f"need n >= k+2, got n={n} k={k}")


def enumerate_chirotopes(n, k):
    """All degree-k chirotopes on [n] up to global sign, lex order."""
    _check_case(n, k)
    return _canonical(n, k)


def partition_search(n, k, shard, of_shards):
    """One shard of the catalog; the union over shards is exact.

    The shard joins the contraction keys whose index in sorted key order
    is shard modulo of_shards, so shards are disjoint and deterministic.
    """
    if of_shards < 1:
        raise InputError(f"of_shards must be positive, got {of_shards}")
    if not 0 <= shard < of_shards:
        raise InputError(f"shard {shard} outside [0, {of_shards})")
    _check_case(n, k)
    return _canonical(n, k, shard, of_shards)


def merge_results(results):
    """Combine shard results into one lex-ordered result."""
    results = list(results)
    if not results:
        raise InputError("nothing to merge")
    n, k = results[0].n, results[0].k
    for res in results:
        if (res.n, res.k) != (n, k):
            raise InputError("cannot merge results for different (n, k)")
    chars = np.vstack([res.chars for res in results])
    chars = chars[record_order(chars)]
    chars.setflags(write=False)
    return EnumerationResult(n=n, k=k, chars=chars)


def enumerate_sharded(n, k, of_shards, jobs=1):
    """Run every shard, optionally on a process pool, and merge."""
    task = partial(partition_search, n, k, of_shards=of_shards)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(task, range(of_shards)))
    else:
        parts = [task(s) for s in range(of_shards)]
    return merge_results(parts)
