"""The array code of the cocircuit layer against loop references.

The references are the straightforward loops: one sorted tuple per
(base, element) pair for the cocircuits, a per-mask bookkeeping loop for
the scan's histogram and best reorientation, one row at a time for the
nonnegative cocircuits of a sign-vector set, one tuple at a time for
reorientation.
"""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import polyom as pm
import polyom.axioms as axioms
from polyom.axioms import ScanReport, _acyclic_extreme
from polyom.combinat import all_tuples, sort_with_sign, tuple_index
from test_acceptance import REQUIRED_COUNTS
from test_c3_reference import benchmark_grid_maps, catalog_maps
from test_properties import PROPS, sign_matrices


def reference_cocircuit_vectors(chi):
    n, r = chi.n, chi.r
    rank = {t: i for i, t in enumerate(all_tuples(n, r))}
    seen = set()
    rows = []
    for base in all_tuples(n, r - 1):
        vec = np.zeros(n, np.int8)
        for e in range(1, n + 1):
            if e not in base:
                parity, srt = sort_with_sign(base + (e,))
                vec[e - 1] = parity * int(chi.signs[rank[srt]])
        if not vec.any():
            continue
        for cand in (vec, -vec):
            if cand.tobytes() not in seen:
                seen.add(cand.tobytes())
                rows.append(cand.copy())
    rows.sort(key=lambda v: tuple(int(x) for x in v))
    return np.array(rows, np.int8).reshape(len(rows), n)


def reference_scan(chi, M, chunk=1024):
    m, n = M.shape
    r = chi.r
    Z = M == 0
    hist = {}
    acyclic_total = 0
    best_mask = -1
    best_count = -1
    found = False
    powers = np.arange(n)
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n))
        flips = 1 - 2 * ((masks[:, None] >> powers[None, :]) & 1)
        MA = M[None, :, :] * flips[:, None, :].astype(np.int8)
        nonneg = ~(MA == -1).any(2)
        pos_cover = ((MA == 1) & nonneg[:, :, None]).any(1)
        acyclic = pos_cover.all(1)
        ext = (nonneg[:, :, None] & Z[None, :, :]).any(1)
        counts = ext.sum(1)
        for mask, ok, cnt in zip(masks, acyclic, counts):
            if not ok:
                continue
            cnt = int(cnt)
            acyclic_total += 1
            hist[cnt] = hist.get(cnt, 0) + 1
            if best_mask < 0 or abs(cnt - r) < abs(best_count - r):
                best_mask = int(mask)
                best_count = cnt
            if cnt == r and not found:
                found = True
                best_mask = int(mask)
                best_count = cnt
    best_set = tuple(e + 1 for e in range(n) if best_mask >= 0 and (best_mask >> e) & 1)
    return ScanReport(n, chi.k, 1 << n, acyclic_total, hist, found, best_set, best_count)


def reference_acyclic_extreme(M):
    """(acyclic, extreme elements) of a sign-vector set, row by row."""
    rows = [row for row in M.tolist() if -1 not in row]
    n = M.shape[1]
    acyclic = bool(rows) and all(any(row[c] == 1 for row in rows) for c in range(n))
    return acyclic, tuple(c + 1 for c in range(n) if any(row[c] == 0 for row in rows))


def reference_reorient(chi, subset):
    a = set(subset)
    signs = [
        -s if (len(a) - len(a.intersection(t))) & 1 else s
        for s, t in zip(chi.signs.tolist(), all_tuples(chi.n, chi.r))
    ]
    return pm.Chirotope(chi.n, chi.k, signs)


def wide_grid_maps(seed, n, k, count):
    """Seeded non-uniform maps of n points, x in [-8, 8] and y in [-2, 2]."""
    rng = random.Random(f"wide-grid-{seed}-{n}-{k}")
    out = []
    while len(out) < count:
        xs = rng.sample(range(-8, 9), n)
        chi = pm.chirotope_of(pm.PointConfig([(x, rng.randint(-2, 2)) for x in xs]), k)
        if not chi.is_uniform() and chi.signs.any():
            out.append(chi)
    return out


def grid_maps(seed, n, k, count):
    """Seeded non-uniform maps of point sets with coordinates in [-3, 3]."""
    rng = random.Random(f"grid-{seed}-{n}-{k}")
    out = []
    while len(out) < count:
        xs = rng.sample(range(-3, 4), n)
        chi = pm.chirotope_of(pm.PointConfig([(x, rng.randint(-3, 3)) for x in xs]), k)
        if not chi.is_uniform():
            out.append(chi)
    return out


CASES = {
    "6_2": lambda: catalog_maps(6, 2),
    "7_2": lambda: catalog_maps(7, 2),
    "8_4": lambda: catalog_maps(8, 4, stride=8),
    "9_5": lambda: catalog_maps(9, 5, stride=40),
    "grid": lambda: (
        grid_maps(0, 6, 2, 30) + grid_maps(1, 7, 2, 20) + grid_maps(2, 6, 1, 20) + grid_maps(3, 7, 3, 10)
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cocircuits_and_scan_match_reference(case):
    for chi in CASES[case]():
        want = reference_cocircuit_vectors(chi)
        got = pm.cocircuit_vectors(chi)
        assert got.dtype == np.int8 and got.shape == want.shape, chi
        assert np.array_equal(got, want), chi
        assert not got.flags.writeable
        assert pm.las_vergnas_scan(chi) == reference_scan(chi, want), chi


def test_scan_without_acyclic_reorientation():
    zero = pm.Chirotope(5, 2, [0] * 5)
    rep = pm.las_vergnas_scan(zero)
    assert rep == reference_scan(zero, reference_cocircuit_vectors(zero))
    assert (rep.acyclic, rep.found, rep.best_set, rep.best_count) == (0, False, (), -1)
    assert pm.cocircuit_vectors(zero).shape == (0, 5)
    assert not pm.is_acyclic(zero)


def test_is_acyclic_and_extreme_points_match_scan_counts():
    for chi in catalog_maps(6, 2)[::5] + grid_maps(4, 6, 2, 10):
        hist = {}
        for mask in range(1 << chi.n):
            re = chi.reorient([e + 1 for e in range(chi.n) if mask >> e & 1])
            vecs = pm.cocircuit_vectors(re)
            assert pm.is_acyclic(re) == pm.is_acyclic(vecs)
            if pm.is_acyclic(vecs):
                cnt = len(pm.extreme_points(re))
                hist[cnt] = hist.get(cnt, 0) + 1
        assert hist == pm.las_vergnas_scan(chi).histogram


@pytest.mark.parametrize(
    "maps",
    [
        lambda: [pm.chirotope_of(pm.random_config(11, 2, seed), 2) for seed in (1, 2)],
        lambda: [pm.chirotope_of(pm.random_config(12, 3, 3), 3)],
        lambda: wide_grid_maps(6, 11, 2, 2) + wide_grid_maps(7, 12, 1, 1),
    ],
    ids=["uniform_11_2", "uniform_12_3", "grid_11_12"],
)
def test_scan_across_chunks_matches_reference(maps):
    for base in maps():
        assert 1 << (base.n - 1) > scan_rows_per_block(base)
        for chi in (base, base.reorient(range(9, base.n + 1))):
            rep = pm.las_vergnas_scan(chi)
            assert rep == reference_scan(chi, reference_cocircuit_vectors(chi)), chi
            assert rep.acyclic > 0


def single_sign_flips(chis, seed):
    """Each map with the sign of one tuple negated, or a 0 made +: not
    chirotopes as a rule, but their cocircuit sets are closed under
    negation as every map's is."""
    rng = random.Random(seed)
    out = []
    for chi in chis:
        signs = chi.signs.copy()
        t = rng.randrange(len(signs))
        signs[t] = -signs[t] or 1
        out.append(pm.Chirotope(chi.n, chi.k, signs))
    return out


@pytest.mark.parametrize(
    "maps",
    [
        lambda: wide_grid_maps(21, 7, 2, 12) + wide_grid_maps(22, 8, 1, 8) + wide_grid_maps(23, 9, 3, 4),
        lambda: single_sign_flips(catalog_maps(6, 2) + catalog_maps(7, 2, stride=16), 6),
        lambda: single_sign_flips(catalog_maps(8, 4, stride=4) + catalog_maps(9, 5, stride=20), 8),
        lambda: single_sign_flips(wide_grid_maps(24, 8, 2, 8), 9),
    ],
    ids=["wide_grid", "flips_6_2_7_2", "flips_8_4_9_5", "flips_wide_grid"],
)
def test_half_scan_matches_reference(maps):
    """The scan evaluates only the masks that leave element n unflipped,
    each standing for its complement too.  It must give the full loop's
    report on maps with zero signs and on maps that are no chirotope."""
    chis = maps()
    assert chis
    for chi in chis:
        M = pm.cocircuit_vectors(chi)
        assert {tuple(row) for row in M.tolist()} == {tuple(row) for row in (-M).tolist()}
        assert pm.las_vergnas_scan(chi) == reference_scan(chi, reference_cocircuit_vectors(chi)), chi


@PROPS
@given(sign_matrices(max_rows=8), st.data())
def test_acyclic_and_extreme_agree_on_complements(M, data):
    """On a set closed under negation, reorienting by A and by its
    complement gives the same vectors: the same acyclic bit and the same
    extreme row, which is what lets the scan read half the masks."""
    M = np.vstack([M, -M])
    n = M.shape[1]
    count = data.draw(st.integers(1, 8))
    flips = np.array(data.draw(st.lists(st.booleans(), min_size=count * n, max_size=count * n)), bool)
    flips = flips.reshape(count, n)
    acyclic, extreme = _acyclic_extreme(M, flips)
    co_acyclic, co_extreme = _acyclic_extreme(M, ~flips)
    assert np.array_equal(acyclic, co_acyclic)
    assert np.array_equal(extreme, co_extreme)


def scan_rows_per_block(chi):
    """Reorientations per block of the scan under the element budget."""
    return axioms.CHUNK // (len(pm.cocircuit_vectors(chi)) + 2 * chi.n)


@pytest.mark.parametrize("rows", [1, 7, 50])
def test_scan_over_many_blocks_matches_reference(monkeypatch, rows):
    """A budget of a few reorientations per block.  The scan evaluates
    2^(n-1) of them: 7 leaves a short last block at n = 6 and n = 8, 50
    one short block at n = 6 and a short third block at n = 8."""
    for chi in catalog_maps(6, 2) + catalog_maps(8, 4, stride=8):
        monkeypatch.setattr(axioms, "CHUNK", rows * (len(pm.cocircuit_vectors(chi)) + 2 * chi.n))
        assert scan_rows_per_block(chi) == rows
        assert pm.las_vergnas_scan(chi) == reference_scan(chi, reference_cocircuit_vectors(chi)), chi


def wide_matrices(seed, width):
    """Sign-vector sets whose nonnegative rows cover every column but one,
    the uncovered column c at 0, 62, the middle and the end; with c
    covered, and with the covering row broken by a negative entry at c."""
    rng = np.random.default_rng([seed, width])
    out = []
    for c in sorted({0, 62, width // 2, width - 1} & set(range(width))):
        noise = rng.choice(np.array([-1, 0, 1], np.int8), size=(6, width))
        cover = (rng.random((4, width)) < 0.6).astype(np.int8)
        cover[:, c] = 0
        cover[rng.integers(0, 4, width), np.arange(width)] |= np.arange(width) != c
        out.append(np.concatenate([noise, cover, -cover]))
        fixed = out[-1].copy()
        fixed[6, c] = 1
        out.append(fixed)
        broken = fixed.copy()
        broken[6, c] = -1
        out.append(broken)
    return out


def assert_acyclic_extreme(M, flips):
    """_acyclic_extreme on the flip rows against the reference on each
    reoriented copy: the acyclic verdict and the boolean extreme row."""
    got = _acyclic_extreme(M, flips)
    assert got[0].shape == (len(flips),) and got[1].dtype == bool
    for f, a, row in zip(flips, *got):
        acyclic, extreme = reference_acyclic_extreme(np.where(f, -M, M))
        assert bool(a) == acyclic
        assert row.tolist() == [c + 1 in extreme for c in range(M.shape[1])]


@pytest.mark.parametrize("width", [62, 63, 64, 65, 70, 126, 127, 130])
def test_acyclic_and_extreme_on_wide_vector_sets(width):
    verdicts = set()
    rng = np.random.default_rng(width)
    for M in wide_matrices(11, width):
        acyclic, extreme = reference_acyclic_extreme(M)
        verdicts.add(acyclic)
        assert pm.is_acyclic(M) == acyclic
        assert_acyclic_extreme(M, np.zeros((1, width), bool))
        assert_acyclic_extreme(M, np.concatenate([M[[0, 6, 10, 13]] == -1, rng.random((4, width)) < 0.1]))
    assert verdicts == {True, False}


@PROPS
@given(sign_matrices(), st.data())
def test_acyclic_and_extreme_on_random_sets(M, data):
    """Random sets, with 0 rows too, under random flips, in blocks of a
    random number of reorientations."""
    m, n = M.shape
    count, rows = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 9))
    flips = data.draw(st.lists(st.booleans(), min_size=count * n, max_size=count * n))
    flips = np.array(flips, bool).reshape(count, n)
    assert pm.is_acyclic(M) == reference_acyclic_extreme(M)[0]
    with mock.patch.object(axioms, "CHUNK", rows * (m + 2 * n)):
        assert_acyclic_extreme(M, flips)


def test_is_acyclic_on_empty_sets():
    # no vector is never acyclic; vectors over no elements are, vacuously
    for M, want in (([], False), (np.zeros((0, 3)), False), ([[]], True), (np.zeros((3, 0)), True)):
        assert pm.is_acyclic(M) == want
        if np.ndim(M) == 2:
            assert reference_acyclic_extreme(np.asarray(M, np.int8))[0] == want


def wide_point_maps(n):
    """A uniform and a non-uniform degree-1 map of n points, n past 63."""
    uniform = pm.chirotope_of(pm.random_config(n, 1, n), 1)
    rng = random.Random(f"wide-{n}")
    xs = rng.sample(range(-40, 41), n)
    return uniform, pm.chirotope_of(pm.PointConfig([(x, rng.randint(-1, 1)) for x in xs]), 1)


@pytest.mark.parametrize("n", [64, 70])
def test_extreme_points_on_wide_chirotopes(n):
    uniform, degenerate = wide_point_maps(n)
    assert uniform.is_uniform() and not degenerate.is_uniform()
    for chi in (uniform, degenerate):
        extreme = reference_acyclic_extreme(pm.cocircuit_vectors(chi))[1]
        assert extreme == pm.extreme_points(chi)
        assert max(extreme) > 63
        for subset in ([max(extreme)], [e for e in extreme if e > 63][:1], [1, n], list(range(60, n + 1))):
            re = chi.reorient(subset)
            acyclic, extreme = reference_acyclic_extreme(pm.cocircuit_vectors(re))
            assert pm.is_acyclic(re) == acyclic
            if acyclic:
                assert pm.extreme_points(re) == extreme
            else:
                with pytest.raises(pm.InputError):
                    pm.extreme_points(re)


def test_reorient_matches_reference():
    maps = catalog_maps(6, 2)[::7] + catalog_maps(7, 3)[::20] + grid_maps(5, 7, 2, 4)
    for chi in maps:
        ground = range(1, chi.n + 1)
        for size in range(chi.n + 1):
            for subset in itertools.combinations(ground, size):
                assert chi.reorient(subset) == reference_reorient(chi, subset)
    chi = maps[0]
    assert chi.reorient([3, 3, 1]) == reference_reorient(chi, [1, 3])
    for bad in ([0], [chi.n + 1]):
        with pytest.raises(pm.InputError, match=rf"^element {bad[0]} outside \[1, {chi.n}\]$"):
            chi.reorient(bad)


def unique_cocircuit_vectors(chi):
    """The signed base vectors and their negatives through np.unique(axis=0)."""
    idx = tuple_index(chi.n, chi.k)
    vecs = idx.parity * chi.signs[idx.rank]
    vecs = vecs[(vecs != 0).any(1)]
    return np.unique(np.concatenate([vecs, -vecs]), axis=0)


def assert_unique_form(chi):
    got, want = pm.cocircuit_vectors(chi), unique_cocircuit_vectors(chi)
    assert got.dtype == want.dtype == np.int8 and got.shape == want.shape, chi
    assert np.array_equal(got, want), chi
    assert not got.flags.writeable


@pytest.mark.parametrize("n, k", sorted(REQUIRED_COUNTS))
def test_cocircuit_vectors_match_unique_form_on_catalogs(n, k):
    for chi in catalog_maps(n, k):
        assert_unique_form(chi)


def test_cocircuit_vectors_match_unique_form_on_grid_and_wide_maps():
    # the census sizes of non-uniform maps, with 1 and with 2 zero signs
    maps = [chi for seed in range(4) for chi in benchmark_grid_maps(seed, 6, 2, (8, 4))]
    maps += [chi for seed in range(4) for chi in benchmark_grid_maps(seed, 7, 2, (6, 3))]
    assert {int((chi.signs == 0).sum()) for chi in maps} == {1, 2}
    for chi in maps + [*wide_point_maps(64), *wide_point_maps(70)]:
        assert_unique_form(chi)
