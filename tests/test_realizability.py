from fractions import Fraction

import numpy as np
import pytest

import polyom as pm
from polyom.catalog import Catalog, from_enumeration
from polyom.realizability import (
    DEFAULT_RANGES,
    REFERENCE_REALIZABLE,
    TRIAL_BLOCK,
    trial_seed,
)


def catalog(n, k):
    return from_enumeration(pm.enumerate_chirotopes(n, k))


def test_minimal_case_realized_in_one_trial():
    tagged, stats = pm.realize_random(catalog(4, 2), trials=1, seed=0)
    assert stats.realizable == 1 and stats.unknown == 0
    assert tagged.witnesses[0] is not None
    assert pm.verify_catalog_witnesses(tagged) == ()


def test_zero_trials_is_a_no_op():
    tagged, stats = pm.realize_random(catalog(5, 2), trials=0, seed=3)
    assert stats.realizable == 0 and stats.unknown == 5
    assert stats.summary() == "realizable=0 unknown=5 trials=0 seed=3"
    assert tagged.witnesses == (None,) * 5


def test_deterministic():
    a, sa = pm.realize_random(catalog(5, 2), trials=40, seed=11)
    b, sb = pm.realize_random(catalog(5, 2), trials=40, seed=11)
    assert sa == sb
    assert a == b


def test_coverage_monotone_and_prefix_stable():
    cat = catalog(5, 2)
    short, _ = pm.realize_random(cat, trials=10, seed=2)
    longer, _ = pm.realize_random(cat, trials=60, seed=2)
    for i, wit in enumerate(short.witnesses):
        if wit is not None:
            # a witness found in the first 10 trials is found again
            assert longer.witnesses[i] == wit


def test_small_catalog_fully_covered():
    tagged, stats = pm.realize_random(catalog(5, 2), trials=200, seed=0)
    assert stats.realizable == 5
    assert pm.verify_catalog_witnesses(tagged) == ()


def test_resume_from_tagged_catalog():
    cat = catalog(5, 2)
    first, s1 = pm.realize_random(cat, trials=10, seed=2)
    resumed, s2 = pm.realize_random(first, trials=10, seed=99)
    assert resumed.realizable_count() >= first.realizable_count()
    # existing witnesses are kept, not overwritten
    for i, wit in enumerate(first.witnesses):
        if wit is not None:
            assert resumed.witnesses[i] == wit


def test_missing_record_raises_soundness_error():
    full = catalog(6, 2)
    # drop one record; the search eventually draws exactly that object
    records = tuple(r for i, r in enumerate(full.records) if i != 3)
    holed = Catalog(6, 2, records)
    with pytest.raises(pm.SoundnessError):
        pm.realize_random(holed, trials=1300, seed=7)


def test_verify_witness():
    cfg = pm.PointConfig([(0, 0), (1, 1), (2, 8), (3, 27)])
    flat = pm.PointConfig([(0, 0), (1, 1), (2, 2), (3, 3)])  # its one sign is 0
    five = pm.PointConfig([(0, 0), (1, 1), (2, 8), (3, 27), (4, 64)])
    for wit, bad in [(cfg, ()), (flat, (0,)), (five, (0,)), (None, ())]:
        assert pm.verify_catalog_witnesses(Catalog(4, 2, ("+",), (wit,))) == bad


def test_verify_catalog_flags_perturbed_witness():
    tagged, _ = pm.realize_random(catalog(5, 2), trials=200, seed=0)
    wit = tagged.witnesses[2]
    pts = list(wit.points)
    x, y = pts[3]
    pts[3] = (x, y + 10**13)
    bent = list(tagged.witnesses)
    bent[2] = pm.PointConfig(pts)
    broken = tagged.with_witnesses(bent)
    assert pm.verify_catalog_witnesses(broken) == (2,)
    assert looped_verify(broken) == (2,)


def looped_verify(catalog):
    """The reference check: one chirotope_of per witness, canonicalized
    and compared with its record's signs."""
    bad = []
    for i, (record, wit) in enumerate(zip(catalog.records, catalog.witnesses)):
        if wit is None:
            continue
        if len(wit) != catalog.n or not (
            pm.chirotope_of(wit, catalog.k).canonicalize().signs == pm.signs_from_string(record)
        ).all():
            bad.append(i)
    return tuple(bad)


def test_verify_catalog_flags_swapped_witnesses(tmp_path):
    tagged, _ = pm.realize_random(catalog(6, 2), trials=300, seed=0)
    wits = list(tagged.witnesses)
    wits[0], wits[1] = wits[1], wits[0]
    path = tmp_path / "swapped.cat"
    pm.write_catalog(path, tagged.with_witnesses(wits))
    swapped = pm.read_catalog(path)
    assert pm.verify_catalog_witnesses(swapped) == looped_verify(swapped) == (0, 1)


def test_verify_catalog_matches_the_loop():
    tagged, _ = pm.realize_random(catalog(6, 2), trials=300, seed=0)
    wits = list(tagged.witnesses)
    found = [i for i, w in enumerate(wits) if w is not None]
    # every coordinate divided by 3: a positive scale keeps every sign
    thirds = [pm.PointConfig([(x / 3, y / 3) for x, y in wits[i].points]) for i in found]
    assert {w.scale for w in thirds} == {3}
    for i, w in zip(found, thirds):
        wits[i] = w
    assert pm.verify_catalog_witnesses(tagged.with_witnesses(wits)) == ()
    rng = np.random.default_rng(26)
    for _ in range(20):
        mixed = list(wits)
        for i in rng.choice(found, 6, replace=False).tolist():
            pts = list(mixed[i].points)
            pick = rng.integers(4)
            if pick == 0:  # a wrong-length witness
                mixed[i] = pm.PointConfig(pts[:-1])
            elif pick == 1:  # another record's witness
                mixed[i] = wits[found[rng.integers(len(found))]]
            elif pick == 2:  # one y moved far up
                x, y = pts[2]
                pts[2] = (x, y + 10**9)
                mixed[i] = pm.PointConfig(pts)
            else:  # none
                mixed[i] = None
        checked = tagged.with_witnesses(mixed)
        assert pm.verify_catalog_witnesses(checked) == looped_verify(checked)
    # witnesses beyond int64, signed in integers
    huge = [None if w is None else pm.PointConfig([(x * 2**70, y * 2**70) for x, y in w.points]) for w in wits]
    assert pm.verify_catalog_witnesses(tagged.with_witnesses(huge)) == ()
    huge[found[0]], huge[found[1]] = huge[found[1]], huge[found[0]]
    checked = tagged.with_witnesses(huge)
    assert pm.verify_catalog_witnesses(checked) == looped_verify(checked) == tuple(found[:2])


def test_trial_seed_injective_across_trials():
    seen = {trial_seed(5, t) for t in range(1000)}
    assert len(seen) == 1000
    assert trial_seed(5, 0) != trial_seed(6, 0)


def test_witness_coordinates_within_range():
    tagged, _ = pm.realize_random(
        catalog(4, 2), trials=6, seed=1, ranges=(8,)
    )
    wit = tagged.witnesses[0]
    assert wit is not None
    for x, y in wit.points:
        assert abs(x) <= 8 and abs(y) <= 8
        assert x.denominator == 1 and y.denominator == 1


def test_reference_table_consistent_with_enumeration():
    for (n, k), ref in REFERENCE_REALIZABLE.items():
        if isinstance(ref, tuple):
            continue
        assert pm.enumerate_chirotopes(n, k).count == ref, (n, k)


def reference_search(catalog, trials, seed, ranges, max_tries=200):
    """realize_random one trial at a time, through the public helpers."""
    n, k = catalog.n, catalog.k
    witnesses = [None] * len(catalog)
    index = {rec: i for i, rec in enumerate(catalog.records)}
    degenerate = 0
    for t in range(trials):
        rng_range = ranges[t % len(ranges)]
        try:
            cfg = pm.random_config(n, k, trial_seed(seed, t), rng_range, max_tries)
        except pm.DegenerateConfigError:
            degenerate += 1
            continue
        rec = pm.chirotope_of(cfg, k).canonicalize().sign_string()
        pos = index.get(rec)
        if pos is None:
            raise pm.SoundnessError(
                f"trial {t} (seed {seed}, range {rng_range}) produced a sign map "
                f"outside the catalog: {rec} from {cfg!r}"
            )
        if witnesses[pos] is None:
            witnesses[pos] = cfg
    return witnesses, degenerate


@pytest.mark.parametrize(
    "n, k, ranges, max_tries",
    [
        (5, 2, (8,), 200),
        (5, 2, DEFAULT_RANGES, 200),
        (6, 2, (8,), 200),
        (6, 2, DEFAULT_RANGES, 200),
        (5, 2, (2, 3), 2),
    ],
)
def test_block_search_matches_per_trial_reference(n, k, ranges, max_tries):
    trials = 3 * TRIAL_BLOCK + 7
    cat = catalog(n, k)
    tagged, stats = pm.realize_random(cat, trials, seed=5, ranges=ranges, max_tries=max_tries)
    witnesses, degenerate = reference_search(cat, trials, 5, ranges, max_tries)
    assert tagged == cat.with_witnesses(witnesses)
    found = sum(w is not None for w in witnesses)
    assert stats == pm.RealizeStats(
        n=n, k=k, trials=trials, seed=5, degenerate=degenerate,
        new_witnesses=found, realizable=found, unknown=len(cat) - found,
    )
    if max_tries == 2:
        assert degenerate > 0


@pytest.mark.parametrize(
    "dropped, ranges",
    # the first record, and the last ten: a drawn row sorts before, or
    # after, every record of the holed catalog
    [(22, (8,)), (3, DEFAULT_RANGES), (0, DEFAULT_RANGES), (slice(64, None), DEFAULT_RANGES)],
)
def test_block_search_raises_at_reference_trial(dropped, ranges):
    full = catalog(6, 2)
    kept = np.ones(len(full), bool)
    kept[dropped] = False
    holed = Catalog(6, 2, tuple(r for r, keep in zip(full.records, kept) if keep))
    trials = 3 * TRIAL_BLOCK + 7
    with pytest.raises(pm.SoundnessError) as want:
        reference_search(holed, trials, 7, ranges)
    with pytest.raises(pm.SoundnessError) as got:
        pm.realize_random(holed, trials, seed=7, ranges=ranges)
    assert str(got.value) == str(want.value)


def test_negative_trials_and_bad_ranges_rejected():
    cat = catalog(5, 2)
    with pytest.raises(pm.InputError, match="non-negative"):
        pm.realize_random(cat, trials=-5, seed=0)
    with pytest.raises(pm.InputError, match="coordinate range must be positive"):
        pm.realize_random(cat, trials=1, seed=0, ranges=(-3,))
    with pytest.raises(pm.InputError, match="too large"):
        pm.realize_random(cat, trials=1, seed=0, ranges=(10**30,))
    with pytest.raises(pm.InputError, match="^no coordinate range to draw 5 points from$"):
        pm.realize_random(cat, trials=5, seed=0, ranges=())
