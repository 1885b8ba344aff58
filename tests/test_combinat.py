import itertools
import random
from math import comb

import numpy as np
import pytest

from polyom.combinat import (
    all_tuples,
    exchange_table,
    lex_rank,
    lex_unrank,
    sort_with_sign,
    tuple_index,
    window_index,
)
from polyom.errors import InputError
from reference_search import var_windows


def test_lex_rank_examples():
    assert lex_rank((1, 2, 3), 5) == 0
    assert lex_rank((1, 3, 4), 6) == 4
    assert lex_rank((4, 5, 6), 6) == comb(6, 3) - 1


def test_lex_rank_unrank_bijection():
    for n in range(1, 10):
        for r in range(1, min(n, 7) + 1):
            for i, t in enumerate(itertools.combinations(range(1, n + 1), r)):
                assert lex_rank(t, n) == i
                assert lex_unrank(i, n, r) == t


def test_lex_rank_rejects_bad_input():
    with pytest.raises(InputError):
        lex_rank((2, 1, 3), 5)
    with pytest.raises(InputError):
        lex_rank((1, 2, 9), 5)
    with pytest.raises(InputError):
        lex_unrank(comb(5, 3), 5, 3)
    with pytest.raises(InputError):
        lex_unrank(-1, 5, 3)


def test_all_tuples_is_lex_ordered():
    ts = all_tuples(7, 4)
    assert ts == sorted(ts)
    assert len(ts) == comb(7, 4)


def test_sort_with_sign_matches_inversion_parity():
    rng = random.Random(0)
    for _ in range(400):
        r = rng.randint(2, 5)
        t = [rng.randint(1, 8) for _ in range(r)]
        sign, srt = sort_with_sign(t)
        assert srt == tuple(sorted(t))
        if len(set(t)) < len(t):
            assert sign == 0
        else:
            inv = sum(
                1 for i in range(r) for j in range(i + 1, r) if t[i] > t[j]
            )
            assert sign == (-1) ** inv


def test_window_subtuples_delete_largest_first():
    wi = window_index(6, 2)
    tuples = all_tuples(6, 4)
    first = wi[0]
    assert lex_unrank(0, 6, 5) == (1, 2, 3, 4, 5)
    assert tuples[first[0]] == (1, 2, 3, 4)
    assert tuples[first[-1]] == (2, 3, 4, 5)
    for win in wi.tolist():
        subs = [tuples[v] for v in win]
        assert subs == sorted(subs)
        assert len(subs) == 5


def test_var_windows_consistency():
    wi = window_index(7, 3).tolist()
    touching = var_windows(7, 3)
    assert len(touching) == comb(7, 5)
    for v, ws in enumerate(touching):
        for w in ws:
            assert v in wi[w]
    for w, win in enumerate(wi):
        assert all(w in touching[v] for v in win)
    # every window touches exactly k+3 variables
    for win in wi:
        assert len(set(win)) == 6


def test_exchange_table_shapes():
    tab = exchange_table(5, 2, False)
    assert tab.left.shape == tab.right.shape == tab.coeff.shape
    assert tab.coeff.shape[1] == 5  # k + 3 terms per pair
    assert len(tab.coeff) == comb(5, 4) ** 2  # every ordered pair


def test_exchange_table_prune_drops_pivot_in_mu():
    full = exchange_table(6, 2, False)
    pruned = exchange_table(6, 2, True)
    pairs_full = set(zip(full.left[:, 0].tolist(), full.right[:, 0].tolist()))
    pairs_pruned = set(zip(pruned.left[:, 0].tolist(), pruned.right[:, 0].tolist()))
    assert pairs_pruned < pairs_full
    tuples = all_tuples(6, 4)
    for li, mi in pairs_pruned:
        assert tuples[li][0] not in tuples[mi]
    for li, mi in pairs_full - pairs_pruned:
        assert tuples[li][0] in tuples[mi]
    # a dropped pair's one nonzero exchange term is +chi(lam)chi(mu), against
    # the first term -chi(lam)chi(mu): the pair holds on every map, zeros too
    rows = zip(full.left.tolist(), full.right.tolist(), full.coeff.tolist())
    dropped = [row for row in rows if (row[0][0], row[1][0]) not in pairs_pruned]
    assert len(dropped) == len(pairs_full - pairs_pruned)
    for left, right, coeff in dropped:
        (s,) = [s for s in range(1, len(coeff)) if coeff[s]]
        assert (left[s], right[s], coeff[s]) == (left[0], right[0], 1)


TABLE_CASES = [(n, k) for k in range(1, 6) for n in range(k + 2, 10) if n - k <= 5 or k == 1]


def reference_exchange_rows(n, k, uniform_prune):
    """The pair table row by row, one sort_with_sign per factor."""
    r = k + 2
    tuples = all_tuples(n, r)
    rank = {t: i for i, t in enumerate(tuples)}
    rows = []
    for li, lam in enumerate(tuples):
        piv, rest = lam[0], lam[1:]
        for mi, mu in enumerate(tuples):
            if uniform_prune and piv in mu:
                continue
            ls, rs, cs = [li], [mi], [-1]
            for s in range(r):
                s1, t1 = sort_with_sign((mu[s],) + rest)
                s2, t2 = sort_with_sign(mu[:s] + (piv,) + mu[s + 1:])
                live = bool(s1 and s2)
                ls.append(rank[t1] if live else 0)
                rs.append(rank[t2] if live else 0)
                cs.append(s1 * s2)
            rows.append((li, mi, ls, rs, cs))
    return rows


@pytest.mark.parametrize("n,k", TABLE_CASES)
def test_exchange_table_matches_per_pair_reference(n, k):
    for prune in (False, True):
        tab = exchange_table(n, k, prune)
        ref = reference_exchange_rows(n, k, prune)
        assert (tab.left.dtype, tab.right.dtype, tab.coeff.dtype) == (np.int32, np.int32, np.int8)
        assert tab.left[:, 0].tolist() == [row[0] for row in ref]
        assert tab.right[:, 0].tolist() == [row[1] for row in ref]
        assert tab.left.tolist() == [row[2] for row in ref]
        assert tab.right.tolist() == [row[3] for row in ref]
        assert tab.coeff.tolist() == [row[4] for row in ref]


@pytest.mark.parametrize("n,k", TABLE_CASES)
def test_tuple_and_window_tables_match_per_tuple_reference(n, k):
    r = k + 2
    idx = tuple_index(n, k)
    tuples = all_tuples(n, r)
    assert [tuple(t) for t in idx.tuples.tolist()] == tuples
    for b, base in enumerate(all_tuples(n, r - 1)):
        for e in range(1, n + 1):
            parity, srt = sort_with_sign(base + (e,))
            assert idx.parity[b, e - 1] == parity
            assert idx.rank[b, e - 1] == (lex_rank(srt, n) if parity else 0)
    rank = {t: i for i, t in enumerate(tuples)}
    wi = window_index(n, k)
    windows = all_tuples(n, r + 1)
    assert wi.shape == (len(windows), r + 1) and not wi.flags.writeable
    assert [lex_unrank(w, n, r + 1) for w in range(len(windows))] == windows
    assert wi.tolist() == [
        [rank[s] for s in sorted(itertools.combinations(lam, r))] for lam in windows
    ]
