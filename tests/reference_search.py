"""Second enumerator for the tests: depth-first search with window propagation.

The search assigns +1/-1 to the lex-ordered (k+2)-tuples and keeps
every (k+3)-window sign sequence unimodal through arc-consistency
propagation.  The lex-first tuple is pinned to +1, so exactly one
representative of each {chi, -chi} pair is produced, in lex order of
the sign strings.  It shares no code with the extension join in
polyom.enumeration beyond the window table, so the tests compare the
two catalog byte for byte.  brute_force_strings is a third route for
the smallest cases.
"""

from __future__ import annotations

from math import comb

import numpy as np

from polyom.chirotope import Chirotope
from polyom.combinat import window_index
from polyom.enumeration import EnumerationResult
from polyom.errors import InputError

_PLUS = ord("+")
_MINUS = ord("-")


def _propagate(queue, x, xb, trail, windows, touching):
    """Arc-consistency from the variables in queue (0 = undecided).

    x holds the signs and xb their '+'/'-' codes; touching[v] lists the
    windows that include variable v.  Every window touching a queued
    variable must keep a completion with at most one sign
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
        for w in touching[v]:
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


def var_windows(n, k):
    """For each tuple rank v, the windows (by index) whose subtuples include v."""
    out = [[] for _ in range(comb(n, k + 2))]
    for w, win in enumerate(window_index(n, k).tolist()):
        for v in win:
            out[v].append(w)
    return tuple(map(tuple, out))


def _search_leaves(n, k):
    """Depth-first search over unimodal-consistent assignments.

    Returns a bytearray of '+'/'-' rows in emission order, which is lex
    order of the sign strings.
    """
    windows = window_index(n, k).tolist()
    touching = var_windows(n, k)
    T = comb(n, k + 2)

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
    if not _propagate([0], x, xb, trail, windows, touching):
        return buf

    v0 = next_var(1)
    if v0 < 0:
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
        x[var] = sign
        xb[var] = _PLUS if sign > 0 else _MINUS
        trail.append(var)
        if not _propagate([var], x, xb, trail, windows, touching):
            continue
        nv = next_var(var + 1)
        if nv < 0:
            buf += xb
            continue
        stack.append([nv, 0, len(trail)])
    return buf


def search_chirotopes(n, k):
    """The catalog of enumerate_chirotopes(n, k), found by the search."""
    T = comb(n, k + 2)
    chars = np.frombuffer(_search_leaves(n, k), np.uint8).reshape(-1, T)
    chars.setflags(write=False)
    return EnumerationResult(n=n, k=k, chars=chars)


def brute_force_strings(n, k, degree_check):
    """Filter every nowhere-zero canonical assignment through a checker.

    Materializes all 2^(T-1) sign arrays with leading +1 (T tuples), so
    only sensible for T <= 20 or so.  degree_check maps a Chirotope to a
    truthy verdict.  Returns the surviving sign strings, sorted.
    """
    T = comb(n, k + 2)
    if T > 24:
        raise InputError(f"brute force over 2^{T - 1} assignments refused")
    out = []
    total = 1 << (T - 1)
    chunk = 1 << 14
    W = window_index(n, k)
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        X = np.ones((len(idx), T), np.int8)
        if T > 1:
            bits = (idx[:, None] >> np.arange(T - 1, dtype=np.int64)[None, :]) & 1
            X[:, 1:] = 1 - 2 * bits.astype(np.int8)
        cand = np.ones(len(idx), bool)
        if len(W):
            S = X[:, W]
            cand = ((S[:, :, 1:] != S[:, :, :-1]).sum(2) <= 1).all(1)
        for row in X[cand]:
            if degree_check(Chirotope(n, k, row)):
                out.append("".join("+" if v > 0 else "-" for v in row))
    return sorted(out)
