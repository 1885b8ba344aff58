import sys

import numpy as np
import pytest

import polyom as pm
from polyom.chirotope import char_signs
from polyom.enumeration import partition_search
from reference_search import brute_force_strings, propagate_window

# (n, k) -> number of objects up to global sign
KNOWN_COUNTS = {
    (3, 1): 1,
    (4, 1): 4,
    (5, 1): 31,
    (6, 1): 454,
    (7, 1): 12349,
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


def test_propagate_window_forcing():
    assert propagate_window([1, 0, -1, 0, 0]) == [1, 0, -1, -1, -1]
    assert propagate_window([0, 0, 1, 0, -1]) == [1, 1, 1, 0, -1]
    assert propagate_window([-1, 0, 0, 1, 0]) == [-1, 0, 0, 1, 1]


def test_propagate_window_conflict():
    assert propagate_window([1, -1, 1]) is None
    assert propagate_window([-1, 1, 0, 0, -1]) is None


def test_propagate_window_no_decided_signs():
    assert propagate_window([0, 0, 0, 0, 0]) == [0, 0, 0, 0, 0]


def test_propagate_window_single_sign_interior():
    assert propagate_window([1, 0, 0, 1, 0]) == [1, 1, 1, 1, 0]
    assert propagate_window([0, -1, 0, 0, 0]) == [0, -1, 0, 0, 0]


def test_known_counts():
    for (n, k), expect in KNOWN_COUNTS.items():
        res = pm.enumerate_chirotopes(n, k)
        assert res.count == expect, (n, k)
        assert res.unimodal_count == res.count, (n, k)


def test_minimal_case_single_object():
    res = pm.enumerate_chirotopes(4, 2)
    assert res.strings() == ["+"]


def test_output_sorted_first_record_all_plus():
    res = pm.enumerate_chirotopes(6, 2)
    strings = res.strings()
    assert strings == sorted(strings)
    assert strings[0] == "+" * 15
    assert len(set(strings)) == len(strings)


def test_result_rows_are_valid_chirotopes():
    for row in char_signs(pm.enumerate_chirotopes(5, 2).chars):
        chi = pm.Chirotope(5, 2, row)
        assert chi.is_uniform()
        assert pm.check_degree_k(chi).passed


def test_summary_format():
    assert pm.enumerate_chirotopes(6, 2).summary() == "unimodal=74 degree_k=74"


def test_deterministic():
    a = pm.enumerate_chirotopes(7, 3)
    b = pm.enumerate_chirotopes(7, 3)
    assert a.chars.tobytes() == b.chars.tobytes()


def test_validation():
    with pytest.raises(pm.InputError):
        pm.enumerate_chirotopes(5, 0)
    with pytest.raises(pm.InputError):
        pm.enumerate_chirotopes(4, 3)


def test_matches_brute_force():
    check = lambda chi: pm.check_degree_k(chi).passed
    for (n, k) in [(5, 2), (6, 2), (6, 3), (5, 1), (7, 4)]:
        assert pm.enumerate_chirotopes(n, k).strings() == brute_force_strings(
            n, k, check
        ), (n, k)


def test_brute_force_refuses_large_cases():
    with pytest.raises(pm.InputError):
        brute_force_strings(7, 2, lambda chi: True)


def test_shards_partition_the_output():
    full = pm.enumerate_chirotopes(6, 2)
    for of_shards in (2, 3, 5):
        parts = [
            partition_search(6, 2, s, of_shards) for s in range(of_shards)
        ]
        seen = [row for p in parts for row in p.strings()]
        assert sorted(seen) == full.strings()
        assert len(seen) == len(set(seen))


def test_shallow_leaves_are_not_duplicated():
    # (5, 2) has few contraction keys; each row still lands in exactly
    # one of the shards
    full = pm.enumerate_chirotopes(5, 2)
    parts = [partition_search(5, 2, s, 4) for s in range(4)]
    seen = sorted(row for p in parts for row in p.strings())
    assert seen == full.strings()


def test_single_shard_equals_plain_search():
    full = pm.enumerate_chirotopes(6, 3)
    one = partition_search(6, 3, 0, 1)
    assert one.strings() == full.strings()


@pytest.mark.parametrize(
    "n, k, of_shards",
    # n = k+2, more shards than contraction keys, a single shard
    [(4, 2, 3), (5, 3, 3), (6, 2, 5), (9, 5, 7), (8, 4, 1)],
)
def test_shards_disjoint_exact_and_merge_byte_identical(n, k, of_shards):
    full = pm.enumerate_chirotopes(n, k)
    parts = [partition_search(n, k, s, of_shards) for s in range(of_shards)]
    for part in parts:
        assert part.strings() == sorted(part.strings())
    seen = [row for part in parts for row in part.strings()]
    assert len(seen) == len(set(seen)) == full.count
    assert set(seen) == set(full.strings())


def test_enumerate_sharded_with_pool():
    full = pm.enumerate_chirotopes(6, 2)
    res = pm.enumerate_sharded(6, 2, of_shards=4, jobs=2)
    assert res.strings() == full.strings()
    assert res.count == full.count
    # more threads than cores, switching often: they only read the shared set-up
    full = pm.enumerate_chirotopes(7, 2).chars.tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert pm.enumerate_sharded(7, 2, of_shards=16, jobs=8).chars.tobytes() == full
    finally:
        sys.setswitchinterval(interval)


def test_enumerate_sharded_starts_no_idle_worker(monkeypatch):
    import polyom.enumeration as enumeration_module

    started = []
    real = enumeration_module.ThreadPoolExecutor

    def recorder(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(enumeration_module, "ThreadPoolExecutor", recorder)
    full = pm.enumerate_chirotopes(6, 2)
    for of_shards, jobs, workers in ((2, 4, 2), (3, 3, 3), (5, 2, 2), (1, 8, 1)):
        res = pm.enumerate_sharded(6, 2, of_shards=of_shards, jobs=jobs)
        assert res.chars.tobytes() == full.chars.tobytes()
        assert started.pop() == workers, (of_shards, jobs)
    assert pm.enumerate_sharded(6, 2, of_shards=3, jobs=1).count == full.count
    assert started == []


def test_enumerate_sharded_starts_no_process(monkeypatch):
    import multiprocessing
    import os

    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.Process, "start", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    full = pm.enumerate_chirotopes(6, 2)
    assert pm.enumerate_sharded(6, 2, 4, jobs=2).chars.tobytes() == full.chars.tobytes()


def _count_join_builds(monkeypatch):
    """Records (n, r) of every join set-up that is built."""
    import polyom.enumeration as enumeration_module

    builds = []
    real = enumeration_module._Join.__init__

    def spy(self, P, Q, n, r):
        builds.append((n, r))
        real(self, P, Q, n, r)

    monkeypatch.setattr(enumeration_module._Join, "__init__", spy)
    return builds


@pytest.mark.parametrize("n, k", [(8, 3), (7, 1)])
def test_enumerate_sharded_builds_each_level_once(monkeypatch, n, k):
    builds = _count_join_builds(monkeypatch)
    pm.enumerate_chirotopes(n, k)
    plain = sorted(builds)
    assert plain and len(set(plain)) == len(plain)
    for of_shards in (1, 4, 7):
        builds.clear()
        pm.enumerate_sharded(n, k, of_shards, jobs=1)
        assert sorted(builds) == plain, of_shards


@pytest.mark.parametrize("n, k", [(7, 1), (7, 2), (8, 3), (8, 4), (9, 5)])
def test_enumerate_sharded_bytes_equal_unsharded(n, k):
    full = pm.enumerate_chirotopes(n, k).chars.tobytes()
    for of_shards in (4, 7):
        assert pm.enumerate_sharded(n, k, of_shards, jobs=1).chars.tobytes() == full, of_shards


def test_enumerate_sharded_rejects_no_shards_before_joining(monkeypatch):
    builds = _count_join_builds(monkeypatch)
    for of_shards in (0, -1):
        with pytest.raises(pm.InputError, match=f"^of_shards must be positive, got {of_shards}$"):
            pm.enumerate_sharded(6, 2, of_shards)
    with pytest.raises(pm.InputError, match=r"^need at least k\+2 = 5 elements, got n = 4$"):
        pm.enumerate_sharded(4, 3, 2)
    assert builds == []


def test_partition_validation():
    with pytest.raises(pm.InputError):
        partition_search(6, 2, 2, 2)
    with pytest.raises(pm.InputError):
        partition_search(6, 2, -1, 2)
    with pytest.raises(pm.InputError):
        partition_search(6, 2, 0, 0)
    with pytest.raises(pm.InputError):
        partition_search(4, 3, 0, 2)


def test_every_realized_chirotope_is_enumerated():
    members = set(pm.enumerate_chirotopes(6, 2).strings())
    for seed in range(25):
        chi = pm.chirotope_of(pm.random_config(6, 2, seed=seed), 2)
        assert chi.canonicalize().sign_string() in members
