import itertools
import random
import types
from math import comb

import numpy as np
import pytest

import polyom as pm
from polyom.combinat import (
    all_tuples,
    check_case,
    check_tuple,
    exchange_table,
    lex_rank,
    lex_unrank,
    sort_with_sign,
    tuple_index,
    window_index,
)
from polyom.enumeration import partition_search
from polyom.errors import InputError
from reference_search import var_windows

# Every entry point that takes n and k, called on n elements or points;
# each must refuse a case outside k >= 1, n >= k+2.  No Catalog exists
# outside it, so realize_random gets a stand-in with only n and k.
_ENTRY_POINTS = {
    "check_case": check_case,
    "Chirotope": lambda n, k: pm.Chirotope(n, k, []),
    "Catalog": lambda n, k: pm.Catalog(n, k, ()),
    "chirotope_of": lambda n, k: pm.chirotope_of(_points(n), k),
    "chi_point": lambda n, k: pm.chi_point(_points(n), k, range(1, k + 3)),
    "lagrange_sign": lambda n, k: pm.lagrange_sign(_points(n), k, range(1, k + 2), n),
    "random_config": lambda n, k: pm.random_config(n, k, seed=0),
    "realize_random": lambda n, k: pm.realize_random(types.SimpleNamespace(n=n, k=k), 1, 0),
    "enumerate_chirotopes": pm.enumerate_chirotopes,
    "partition_search": lambda n, k: partition_search(n, k, 0, 1),
    "enumerate_sharded": lambda n, k: pm.enumerate_sharded(n, k, 2),
    "render_svg": lambda n, k: pm.render_svg(_points(n), k),
}

_OUTSIDE = {
    (4, 0): "degree must be at least 1, got 0",
    (5, -1): "degree must be at least 1, got -1",
    (3, 2): "need at least k+2 = 4 elements, got n = 3",
}


def _points(n):
    return pm.PointConfig([(i, i * i * i) for i in range(n)])


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("n, k", sorted(_OUTSIDE))
def test_every_entry_point_refuses_a_case_outside_the_domain(name, n, k):
    if name == "render_svg" and k >= 1:
        # a curve needs only k+1 points: render checks the degree alone
        assert pm.render_svg(_points(n), k).count("<path ") == n - k
        return
    with pytest.raises(InputError) as info:
        _ENTRY_POINTS[name](n, k)
    assert str(info.value) == _OUTSIDE[n, k]


# Every call that takes elements of [n] or a tuple of them, on 5 points
# at k = 2; each reads its argument with check_tuple.  name -> (r, the
# call on r elements, whether it takes a tuple of fixed length).
_CFG = _points(5)
_CHI = pm.chirotope_of(_CFG, 2)
_TUPLE_CALLS = {
    "Chirotope.value": (4, _CHI.value, True),
    "chi_point": (4, lambda t: pm.chi_point(_CFG, 2, t), True),
    "lagrange_sign base": (3, lambda t: pm.lagrange_sign(_CFG, 2, t, 4), True),
    "lagrange_sign e": (1, lambda t: pm.lagrange_sign(_CFG, 2, (2, 3, 4), *t), False),
    "PointConfig.coords": (1, lambda t: _CFG.coords(*t), False),
    "Chirotope.reorient": (2, _CHI.reorient, False),
}


@pytest.mark.parametrize("name", sorted(_TUPLE_CALLS))
def test_every_tuple_call_reads_its_elements_alike(name):
    r, call, fixed_length = _TUPLE_CALLS[name]
    good = tuple(range(1, r + 1))
    faults = [
        (good[:-1] + (0,), "element 0 outside [1, 5]"),
        (good[:-1] + (6,), "element 6 outside [1, 5]"),
        (good[:-1] + (1.5,), "element 1.5 is not an integer"),
        (good[:-1] + ("a",), "element 'a' is not an integer"),
    ]
    if fixed_length:
        faults.append((good + (5,), f"expected a {r}-tuple, got {good + (5,)}"))
    for t, message in faults:
        with pytest.raises(InputError) as info:
            call(t)
        assert str(info.value) == message, t
    # numpy integers and bools are integers
    for t in [(True, np.int64(2), np.int8(3), np.uint16(4)), (np.int64(1), np.int32(2), 3, 4)]:
        assert call(t[:r]) == call(good), t


def test_check_tuple_order_of_faults():
    # the first non-integer, then the length, then the first element out of range
    for t, message in [
        ((9, 1.5, "a"), "element 1.5 is not an integer"),
        ((9, 0), "expected a 3-tuple, got (9, 0)"),
        ((2, 9, 0), "element 9 outside [1, 5]"),
    ]:
        with pytest.raises(InputError) as info:
            check_tuple(t, 5, 3)
        assert str(info.value) == message
    assert check_tuple((3, np.int64(1), True), 5, 3) == (0, (1, 1, 3))
    assert check_tuple(iter([3, 1, 2]), 5, 3) == (1, (1, 2, 3))


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
    tab = exchange_table(6, 2, False)
    assert tab.left.shape == tab.right.shape == tab.coeff.shape
    assert tab.coeff.shape[1] == 5  # k + 3 terms per pair
    # every ordered pair whose mu avoids lam's pivot: C(6, 4) lam, C(5, 4) mu each
    assert len(tab.coeff) == comb(6, 4) * comb(5, 4) == 75


def test_exchange_table_prune_drops_pivot_in_mu():
    full = reference_exchange_rows(6, 2, False)
    pruned = exchange_table(6, 2, False)
    pairs_full = {(li, mi) for li, mi, *_ in full}
    pairs_pruned = set(zip(pruned.left[:, 0].tolist(), pruned.right[:, 0].tolist()))
    assert pairs_pruned < pairs_full
    tuples = all_tuples(6, 4)
    for li, mi in pairs_pruned:
        assert tuples[li][0] not in tuples[mi]
    for li, mi in pairs_full - pairs_pruned:
        assert tuples[li][0] in tuples[mi]
    # a dropped pair's one nonzero exchange term is +chi(lam)chi(mu), against
    # the first term -chi(lam)chi(mu): the pair holds on every map, zeros too
    dropped = [row for row in full if row[:2] not in pairs_pruned]
    assert len(dropped) == len(pairs_full - pairs_pruned)
    for li, mi, left, right, coeff in dropped:
        (s,) = [s for s in range(1, len(coeff)) if coeff[s]]
        assert (left[s], right[s], coeff[s]) == (li, mi, 1)
    # the kept rows are the full table's, in its order
    assert [row for row in full if row[:2] in pairs_pruned] == reference_exchange_rows(6, 2, True)


TABLE_CASES = [(n, k) for k in range(1, 6) for n in range(k + 2, 10) if n - k <= 5 or k == 1]


def reference_exchange_rows(n, k, uniform_prune):
    """The pair table row by row, one sort_with_sign per factor: every
    ordered pair, or with uniform_prune only those whose pivot lam_1
    lies outside mu."""
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
    ref = reference_exchange_rows(n, k, True)
    for prune in (False, True):  # ignored: both give the pruned table
        tab = exchange_table(n, k, prune)
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
