"""Acceptance suite: one test per numbered criterion.

Each test prints a "criterion <N>: PASS" line with its key figures (run
with -s to watch them); the assertions enforce the same facts, so a
plain run is equally binding.
"""

import itertools
import random
from functools import lru_cache
from math import comb

import numpy as np
import pytest

import polyom as pm
from polyom.catalog import Catalog, format_catalog, from_enumeration
from polyom.chirotope import char_signs
from polyom.combinat import window_index
from polyom.enumeration import exchange_filter_mask
from reference_search import brute_force_strings, search_chirotopes

# criterion 1: required exact counts, up to global sign
REQUIRED_COUNTS = {
    (4, 2): 1,
    (5, 2): 5,
    (6, 2): 74,
    (7, 2): 3843,
    (5, 3): 1,
    (6, 3): 6,
    (7, 3): 169,
    (8, 3): 39016,
    (6, 4): 1,
    (7, 4): 7,
    (8, 4): 376,
    (7, 5): 1,
    (8, 5): 8,
    (9, 5): 823,
}

# criterion 2: the largest cells of the count table
LONG_COUNTS = {(8, 2): 840552, (9, 4): 500244}

# criterion 4 sweep, and the cases whose full catalog is cheap enough to
# hold for membership checks ((8, 2) and (9, *) are not)
SOUNDNESS_CASES = [(n, k) for k in range(1, 5) for n in range(k + 2, 10)]
MEMBER_CATALOGS = (
    {(n, 1) for n in range(3, 9)}
    | {(n, 2) for n in range(4, 8)}
    | {(n, 3) for n in range(5, 9)}
    | {(n, 4) for n in range(6, 9)}
)
SEEDS_PER_CASE = 1000


@lru_cache(maxsize=None)
def catalog_result(n, k):
    return pm.enumerate_chirotopes(n, k)


def catalog_strings(n, k):
    return catalog_result(n, k).strings()


@lru_cache(maxsize=None)
def soundness_suite():
    """Criteria 4 and 5 share one sweep; returns the failure lists."""
    failures = []
    disagreements = 0
    membership_checks = 0
    for (n, k) in SOUNDNESS_CASES:
        members = (
            set(catalog_strings(n, k)) if (n, k) in MEMBER_CATALOGS else None
        )
        tuples = list(itertools.combinations(range(1, n + 1), k + 2))
        for seed in range(SEEDS_PER_CASE):
            cfg = pm.random_config(n, k, seed=seed)
            chi = pm.chirotope_of(cfg, k)
            if not pm.check_degree_k(chi).passed:
                failures.append((n, k, seed, "degree_k"))
            vecs = pm.cocircuit_vectors(chi)
            if not pm.check_cocircuit_axioms(vecs).passed:
                failures.append((n, k, seed, "cocircuits"))
            if not pm.is_acyclic(vecs):
                failures.append((n, k, seed, "acyclic"))
            if members is not None:
                membership_checks += 1
                if chi.canonicalize().sign_string() not in members:
                    failures.append((n, k, seed, "membership"))
            for t in tuples:
                if chi.value(t) != pm.lagrange_sign(cfg, k, t[:-1], t[-1]):
                    disagreements += 1
    return failures, disagreements, membership_checks


def test_criterion_1_table_counts():
    for (n, k), expect in REQUIRED_COUNTS.items():
        got = catalog_result(n, k).count
        assert got == expect, f"(n={n}, k={k}) expected {expect}, got {got}"
    print(f"criterion 1: PASS ({len(REQUIRED_COUNTS)} exact counts)", flush=True)


def test_criterion_2_long_counts():
    big = pm.enumerate_sharded(8, 2, of_shards=8, jobs=4)
    assert big.count == LONG_COUNTS[(8, 2)]
    assert pm.enumerate_chirotopes(9, 4).count == LONG_COUNTS[(9, 4)]
    print("criterion 2: PASS (840552 and 500244 exact)", flush=True)


def _assert_same_catalog(n, k, got):
    ref = search_chirotopes(n, k)
    assert got.chars.shape == ref.chars.shape, (n, k)
    assert got.chars.tobytes() == ref.chars.tobytes(), (n, k)
    assert got.summary() == ref.summary(), (n, k)
    assert format_catalog(from_enumeration(got)) == format_catalog(from_enumeration(ref)), (n, k)


def test_catalogs_match_reference_search():
    # the extension join against the depth-first search in tests/
    cases = sorted(REQUIRED_COUNTS) + [(n, 1) for n in range(3, 8)]
    for (n, k) in cases:
        _assert_same_catalog(n, k, catalog_result(n, k))
    print(f"reference search: PASS ({len(cases)} byte-identical catalogs)", flush=True)


@pytest.mark.slow
def test_long_catalogs_match_reference_search():
    for (n, k) in [(8, 1), (8, 2), (9, 4)]:
        _assert_same_catalog(n, k, pm.enumerate_chirotopes(n, k))
    print("reference search: PASS ((8,1), (8,2) and (9,4) byte-identical)", flush=True)


def test_criterion_3_brute_force_equivalence():
    cases = [
        (n, k)
        for k in range(1, 8)
        for n in range(k + 2, 10)
        if comb(n, k + 2) <= 20
    ]
    check = lambda chi: pm.check_degree_k(chi).passed
    for (n, k) in cases:
        assert catalog_strings(n, k) == brute_force_strings(n, k, check), (n, k)
    print(f"criterion 3: PASS ({len(cases)} cases match brute force)", flush=True)


def test_criterion_4_point_soundness():
    failures, _, membership_checks = soundness_suite()
    assert failures == [], failures[:10]
    total = len(SOUNDNESS_CASES) * SEEDS_PER_CASE
    print(
        f"criterion 4: PASS ({total} configurations, "
        f"{membership_checks} membership checks, 0 failures)",
        flush=True,
    )


def test_criterion_5_oracle_cross_check():
    _, disagreements, _ = soundness_suite()
    assert disagreements == 0
    print("criterion 5: PASS (0 determinant/interpolation disagreements)", flush=True)


def test_criterion_6_realizability_coverage():
    cat = Catalog(6, 2, tuple(catalog_strings(6, 2)))
    tagged, stats = pm.realize_random(cat, trials=10**6, seed=0)
    print(f"criterion 6: PASS ({stats.summary()} total={len(tagged)})", flush=True)
    # coverage itself is reported, not asserted; soundness and witness
    # verification are binding
    assert pm.verify_catalog_witnesses(tagged) == ()
    assert stats.realizable + stats.unknown == len(tagged) == 74


def _unimodal_transitive_masks(signs, n, k):
    W = window_index(n, k)
    if not len(W):
        ones = np.ones(len(signs), bool)
        return ones, ones
    S = signs[:, W]
    changes = (S[:, :, 1:] != S[:, :, :-1]).sum(2)
    unimodal = (changes <= 1).all(1)
    transitive = ~((S[:, :, 0] == S[:, :, -1]) & (changes > 0)).any(1)
    return unimodal, transitive


def test_criterion_7_unimodal_implies_transitivity():
    cases = sorted(REQUIRED_COUNTS) + [(n, 1) for n in range(3, 9)]
    rows = 0
    for (n, k) in cases:
        signs = char_signs(catalog_result(n, k).chars)
        for lo in range(0, len(signs), 50000):
            uni, trans = _unimodal_transitive_masks(signs[lo : lo + 50000], n, k)
            assert uni.all()
            assert trans.all()
        rows += len(signs)
    rng = random.Random(7)
    exercised = 0
    arrays = (
        [(5, 2, (1, -1)) for _ in range(4000)]
        + [(6, 2, (1, -1)) for _ in range(3000)]
        + [(5, 2, (1, 0, -1)) for _ in range(3000)]
    )
    for (n, k, alphabet) in arrays:
        chi = pm.Chirotope(
            n, k, [rng.choice(alphabet) for _ in range(comb(n, k + 2))]
        )
        if pm.check_unimodal(chi).passed:
            exercised += 1
            assert pm.check_transitivity(chi).passed, chi.sign_string()
    assert exercised > 0
    print(
        f"criterion 7: PASS ({rows} catalog rows, {len(arrays)} random arrays, "
        f"{exercised} non-vacuous)",
        flush=True,
    )


def test_exchange_filter_rejects_no_catalog_row():
    # the search emits no exchange check: every unimodal map is a
    # chirotope (enumeration module docstring), and this is the check
    cases = sorted(REQUIRED_COUNTS) + [(n, 1) for n in range(3, 9)]
    rows = 0
    for (n, k) in cases:
        chars = catalog_result(n, k).chars
        rejected = int((~exchange_filter_mask(chars, n, k)).sum())
        assert rejected == 0, (n, k, rejected)
        rows += len(chars)
    print(f"exchange filter: PASS ({rows} catalog rows, 0 rejected)", flush=True)


def test_criterion_8_determinism():
    for (n, k) in [(6, 2), (7, 3), (8, 4)]:
        a = pm.enumerate_chirotopes(n, k)
        b = pm.enumerate_chirotopes(n, k)
        assert a.chars.tobytes() == b.chars.tobytes()
        assert format_catalog(from_enumeration(a)) == format_catalog(
            from_enumeration(b)
        )
    check = lambda chi: pm.check_degree_k(chi).passed
    assert brute_force_strings(6, 2, check) == brute_force_strings(6, 2, check)
    for (n, k) in [(6, 2), (7, 3)]:
        for seed in range(50):
            first = pm.random_config(n, k, seed=seed)
            again = pm.random_config(n, k, seed=seed)
            assert first == again
            assert (
                pm.chirotope_of(first, k).sign_string()
                == pm.chirotope_of(again, k).sign_string()
            )
    print("criterion 8: PASS (byte-identical reruns)", flush=True)
