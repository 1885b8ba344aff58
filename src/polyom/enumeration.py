"""Exhaustive search for sign maps passing the degree-k axioms.

The search assigns +1/-1 to the lex-ordered (k+2)-tuples and keeps
every (k+3)-window sign sequence unimodal through arc-consistency
propagation.  The lex-first tuple is pinned to +1, so exactly one
representative of each {chi, -chi} pair is produced, in lex order of
the sign strings.

No complete assignment needs the exchange condition (B3) checked.  A
nowhere-zero map on the (k+2)-subsets of [n] whose sign sequence
changes at most once on every (k+3)-window is a signotope of rank k+2,
and signotopes of rank k+2 are the elements of the higher Bruhat order
B(n, k+1) (Felsner and Weil, "Sweeps, arrangements and signotopes",
Discrete Appl. Math. 109, 2001).  Through Ziegler's bijection between
B(n, k+1) and the uniform single-element extensions of an alternating
oriented matroid, each one is a uniform chirotope up to reorientation
(Ziegler, "Higher Bruhat orders and cyclic hyperplane arrangements",
Topology 32, 1993).  Reorientation leaves B3 invariant, so every map
the search emits satisfies it.  exchange_filter_mask is kept as the
reference check that the tests run over whole catalogs.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chirotope import Chirotope
from .combinat import exchange_table, window_index
from .errors import InputError

_PLUS = ord("+")
_MINUS = ord("-")


def _propagate(queue, x, xb, trail, windows, var_windows):
    """Arc-consistency from the variables in queue (0 = undecided).

    x holds the signs and xb their '+'/'-' codes.  Every window touching
    a queued variable must keep a completion with at most one sign
    change: with both signs present, undecided cells before the last
    leading-sign cell take the leading sign and cells after the first
    opposite cell take the opposite; with one sign present, cells
    strictly inside its span take it.  Forced variables are recorded on
    trail and queued in turn.  Returns False on a conflict.
    """
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in var_windows[v]:
            win = windows[w]
            s = 0
            p_first = p_last = q_first = -1
            for i, u in enumerate(win):
                val = x[u]
                if val == 0:
                    continue
                if s == 0:
                    s = val
                    p_first = p_last = i
                elif val == s:
                    if q_first >= 0:
                        return False
                    p_last = i
                elif q_first < 0:
                    q_first = i
            if s == 0:
                continue
            if q_first >= 0:
                for i in range(p_last):
                    u = win[i]
                    if x[u] == 0:
                        x[u] = s
                        xb[u] = _PLUS if s > 0 else _MINUS
                        trail.append(u)
                        queue.append(u)
                for i in range(q_first + 1, len(win)):
                    u = win[i]
                    if x[u] == 0:
                        x[u] = -s
                        xb[u] = _MINUS if s > 0 else _PLUS
                        trail.append(u)
                        queue.append(u)
            else:
                for i in range(p_first + 1, p_last):
                    u = win[i]
                    if x[u] == 0:
                        x[u] = s
                        xb[u] = _PLUS if s > 0 else _MINUS
                        trail.append(u)
                        queue.append(u)
    return True


def propagate_window(values):
    """Arc-consistency on one window's sign sequence (0 = undecided).

    Returns None when no completion with at most one sign change exists,
    else the sequence with every forced entry filled in, as the search
    propagates it.
    """
    vals = list(values)
    cells = tuple(range(len(vals)))
    ok = _propagate(list(cells), vals, bytearray(len(vals)), [], (cells,), ((0,),) * len(vals))
    return vals if ok else None


def _search_leaves(n, k, prefix_depth=None, shard=None, of_shards=None):
    """Depth-first search over unimodal-consistent assignments.

    Returns a bytearray of '+'/'-' rows in emission order, which is lex
    order of the sign strings.  With shard arguments, only leaves whose
    branch-decision prefix hashes into the shard are emitted; shallow
    leaves hash their full decision string.
    """
    wi = window_index(n, k)
    windows = wi.windows
    var_windows = wi.var_windows
    T = len(wi.tuples)
    sharded = of_shards is not None and of_shards > 1
    crc = zlib.crc32

    x = [0] * T
    xb = bytearray(T)
    trail = []

    def next_var(start):
        for v in range(start, T):
            if x[v] == 0:
                return v
        return -1

    buf = bytearray()

    # canonical pair representative: lex-first tuple positive
    x[0] = 1
    xb[0] = _PLUS
    trail.append(0)
    if not _propagate([0], x, xb, trail, windows, var_windows):
        return buf

    # depth-0 prefix: the whole tree is one hash class
    if sharded and prefix_depth == 0 and crc(b"") % of_shards != shard:
        return buf

    decisions = bytearray(T)

    v0 = next_var(1)
    if v0 < 0:
        if not sharded or crc(b"") % of_shards == shard:
            buf += xb
        return buf

    stack = [[v0, 0, len(trail)]]
    while stack:
        frame = stack[-1]
        var, phase, mark = frame
        while len(trail) > mark:
            x[trail.pop()] = 0
        if phase == 2:
            stack.pop()
            continue
        frame[1] += 1
        sign = 1 if phase == 0 else -1
        depth = len(stack) - 1
        decisions[depth] = _PLUS if sign > 0 else _MINUS
        if (
            sharded
            and depth + 1 == prefix_depth
            and crc(bytes(decisions[:prefix_depth])) % of_shards != shard
        ):
            continue
        x[var] = sign
        xb[var] = decisions[depth]
        trail.append(var)
        if not _propagate([var], x, xb, trail, windows, var_windows):
            continue
        nv = next_var(var + 1)
        if nv < 0:
            if (
                sharded
                and depth + 1 < prefix_depth
                and crc(bytes(decisions[: depth + 1])) % of_shards != shard
            ):
                continue
            buf += xb
            continue
        stack.append([nv, 0, len(trail)])
    return buf


def _chars_to_signs(chars):
    """'+'/'-'/'0' codes to -1/0/+1 int8."""
    out = np.zeros(chars.shape, np.int8)
    out[chars == _PLUS] = 1
    out[chars == _MINUS] = -1
    return out


def exchange_filter_mask(chars, n, k):
    """Which rows of a nowhere-zero sign matrix pass the exchange test.

    Rows are '+'/'-' char codes over the lex tuple order.  Uses the
    pruned pair table: pairs whose pivot lies in mu hold automatically
    for nowhere-zero maps.
    """
    tab = exchange_table(n, k, True)
    m = len(chars)
    if m == 0 or len(tab.coeff) == 0:
        return np.ones(m, bool)
    per_row = tab.coeff.size
    chunk = max(16, int(24_000_000 / max(per_row, 1)))
    mask = np.empty(m, bool)
    for lo in range(0, m, chunk):
        X = _chars_to_signs(chars[lo : lo + chunk])
        P = tab.coeff[None, :, :] * X[:, tab.left] * X[:, tab.right]
        mask[lo : lo + chunk] = ((P == 1).any(2) & (P == -1).any(2)).all(1)
    return mask


@dataclass(frozen=True)
class EnumerationResult:
    """Search output: one '+'/'-' row per object in chars, rows in lex
    order of the sign strings."""

    n: int
    k: int
    chars: np.ndarray

    @property
    def count(self):
        return len(self.chars)

    @property
    def unimodal_count(self):
        """Rows the search emitted; equal to count, since every unimodal
        map is a chirotope (see the module docstring)."""
        return self.count

    def strings(self):
        return [row.tobytes().decode("ascii") for row in self.chars]

    def sign_rows(self):
        return _chars_to_signs(self.chars)

    def chirotopes(self):
        for row in self.sign_rows():
            yield Chirotope(self.n, self.k, row)

    def summary(self):
        return f"unimodal={self.unimodal_count} degree_k={self.count}"


def _result(n, k, buf):
    T = len(window_index(n, k).tuples)
    chars = np.frombuffer(buf, np.uint8).reshape(-1, T)
    chars.setflags(write=False)
    return EnumerationResult(n=n, k=k, chars=chars)


def enumerate_chirotopes(n, k):
    """All degree-k chirotopes on [n] up to global sign, lex order."""
    if k < 1:
        raise InputError(f"degree must be at least 1, got {k}")
    if n < k + 2:
        raise InputError(f"need n >= k+2, got n={n} k={k}")
    return _result(n, k, _search_leaves(n, k))


def default_prefix_depth(n, k):
    """Branch depth whose decision prefix routes work to shards."""
    T = len(window_index(n, k).tuples)
    return max(0, min(12, T - 1))


def partition_search(n, k, prefix_depth, shard, of_shards):
    """One shard of the search space; the union over shards is exact.

    A subtree at the prefix depth belongs to the shard its decision
    prefix hashes to (crc32 mod of_shards); leaves above that depth hash
    their full decision string.
    """
    if of_shards < 1:
        raise InputError(f"of_shards must be positive, got {of_shards}")
    if not 0 <= shard < of_shards:
        raise InputError(f"shard {shard} outside [0, {of_shards})")
    if prefix_depth is None:
        prefix_depth = default_prefix_depth(n, k)
    if prefix_depth < 0:
        raise InputError(f"prefix depth must be nonnegative, got {prefix_depth}")
    if k < 1 or n < k + 2:
        raise InputError(f"need n >= k+2 and k >= 1, got n={n} k={k}")
    return _result(n, k, _search_leaves(n, k, prefix_depth, shard, of_shards))


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
    if len(chars):
        order = np.argsort(chars.view(f"V{chars.shape[1]}").ravel(), kind="stable")
        chars = chars[order]
    chars.setflags(write=False)
    return EnumerationResult(n=n, k=k, chars=chars)


def enumerate_sharded(n, k, of_shards, jobs=1, prefix_depth=None):
    """Run every shard, optionally on a process pool, and merge."""
    if prefix_depth is None:
        prefix_depth = default_prefix_depth(n, k)
    task = partial(partition_search, n, k, prefix_depth, of_shards=of_shards)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(task, range(of_shards)))
    else:
        parts = [task(s) for s in range(of_shards)]
    return merge_results(parts)


def brute_force_strings(n, k, degree_check):
    """Filter every nowhere-zero canonical assignment through a checker.

    Materializes all 2^(T-1) sign arrays with leading +1 (T tuples), so
    only sensible for T <= 20 or so.  degree_check maps a Chirotope to a
    truthy verdict.  Returns the surviving sign strings, sorted.
    """
    T = len(window_index(n, k).tuples)
    if T > 24:
        raise InputError(f"brute force over 2^{T - 1} assignments refused")
    out = []
    total = 1 << (T - 1)
    chunk = 1 << 14
    wi = window_index(n, k)
    W = np.array(wi.windows, np.int64) if wi.windows else None
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        X = np.ones((len(idx), T), np.int8)
        if T > 1:
            bits = (idx[:, None] >> np.arange(T - 1, dtype=np.int64)[None, :]) & 1
            X[:, 1:] = 1 - 2 * bits.astype(np.int8)
        cand = np.ones(len(idx), bool)
        if W is not None:
            S = X[:, W]
            cand = ((S[:, :, 1:] != S[:, :, :-1]).sum(2) <= 1).all(1)
        for row in X[cand]:
            if degree_check(Chirotope(n, k, row)):
                out.append("".join("+" if v > 0 else "-" for v in row))
    return sorted(out)
