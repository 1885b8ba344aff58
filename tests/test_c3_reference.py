"""The cocircuit axioms as 0/1 count products against references.

The oracles are the straightforward loops: C0 to C2 over rows and
ordered pairs, weak elimination (C3) over ordered pairs (X, Y) one pair
at a time with the same lex-first witness (i, j, e), and for complete
sets a zero-set lookup: an int8 batch check of the pairs whose zero sets
differ by one element, keyed by its own np.packbits rows, which pins the
witnesses of those pairs.  The array code must give the same
AxiomReport on real cocircuit sets, on their corruptions, and on
synthetic sets of 63 to 130 columns; on complete sets, where it checks
only the modular pairs, it must give the lookup's report and the pair
loop's verdict.  It checks one pair per orbit of (X, Y) -> (-X, -Y),
and must give the report that checking every marked pair gives.
"""

import itertools
import random
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import polyom as pm
import polyom.axioms as axioms
from polyom.axioms import AxiomReport, _c3_general
from polyom.chirotope import char_signs
from test_properties import PROPS, sign_matrices

_PASS = AxiomReport(True)


def reference_c3_pair(M, i, j):
    """The lowest element (from 0) at which rows i and j separate and no
    vector of M drawing its signs from them vanishes, else None."""
    pos, neg, zero = M == 1, M == -1, M == 0
    if np.array_equal(M[j], -M[i]):
        return None
    seps = (pos[i] & neg[j]) | (neg[i] & pos[j])
    allowed_p = pos[i] | pos[j]
    allowed_n = neg[i] | neg[j]
    ok = ~((pos & ~allowed_p) | (neg & ~allowed_n)).any(1)
    missing = seps & ~zero[ok].any(0)
    return int(np.argmax(missing)) if missing.any() else None


def reference_c3(M):
    m = len(M)
    for i in range(m):
        for j in range(m):
            e = reference_c3_pair(M, i, j)
            if e is not None:
                return AxiomReport(
                    False, "C3", (i, j, e + 1), "no eliminating vector for this pair"
                )
    return _PASS


def reference_c0_c2(M):
    """C0, C1 and C2 as loops over the rows and the ordered pairs of rows."""
    rows = [tuple(row) for row in M.tolist()]
    negs = [tuple(-v for v in row) for row in rows]
    for i, row in enumerate(rows):
        if not any(row):
            return AxiomReport(False, "C0", (i,), "zero vector present")
    present = set(rows)
    for i, neg in enumerate(negs):
        if neg not in present:
            return AxiomReport(False, "C1", (i,), "negative not in the set")
    supports = [{e for e, v in enumerate(row) if v} for row in rows]
    for i in range(len(rows)):
        for j in range(len(rows)):
            if supports[i] <= supports[j] and rows[i] not in (rows[j], negs[j]):
                return AxiomReport(False, "C2", (i, j), "nested supports, not a sign pair")
    return _PASS


def reference_check(M):
    """The general path as loops: C0, C1, C2, then the pair loop."""
    first = reference_c0_c2(M)
    return reference_c3(M) if first else first


def row_keys(bits):
    """One sortable key per row of np.packbits bytes, equal exactly when
    the rows are: the row's bytes as one void scalar."""
    return np.ascontiguousarray(bits).view(np.dtype((np.void, bits.shape[1])))[:, 0]


def reference_c3_uniform(M):
    """The zero-set lookup on int8 rows: distinct rows by
    np.unique, |X^0 \\ Y^0| by an int32 product, separating elements from
    an (m, m, n) product, and per-triple gathers of the candidate rows,
    which may carry + only where X or Y does and - only where X or Y
    does."""
    _, first = np.unique(M, axis=0, return_index=True)
    keep = np.sort(first)
    M = M[keep]
    m, n = M.shape
    zb = M == 0
    zint = zb.astype(np.int32)
    q = (zint @ (1 - zint).T) == 1
    prod = M[:, None, :] * M[None, :, :]
    trips = np.argwhere(q[:, :, None] & (prod == -1))
    if len(trips) == 0:
        return _PASS
    I, J, E = trips[:, 0], trips[:, 1], trips[:, 2]
    Z = np.packbits(zb, axis=1)
    unit = np.packbits(np.eye(n, dtype=bool), axis=1)
    zkeys, want = row_keys(Z), row_keys((Z[I] & Z[J]) | unit[E])
    order = np.argsort(zkeys, kind="stable")
    zs = zkeys[order]
    pos = np.searchsorted(zs, want, side="left")

    def fits(p):
        valid = (p < m) & (zs[np.minimum(p, m - 1)] == want)
        rows = M[order[np.minimum(p, m - 1)]]
        clash = ((rows == 1) & (M[I] != 1) & (M[J] != 1)) | ((rows == -1) & (M[I] != -1) & (M[J] != -1))
        return valid & ~clash.any(1)

    ok = fits(pos) | fits(pos + 1)
    if ok.all():
        return _PASS
    t = int(np.argmax(~ok))
    return AxiomReport(
        False,
        "C3",
        (int(keep[I[t]]), int(keep[J[t]]), int(E[t]) + 1),
        "no eliminating vector for this pair",
    )


def reference_check_uniform(M):
    """The lookup path: the loops for C0 to C2, then the int8 oracle."""
    first = reference_c0_c2(M)
    return reference_c3_uniform(M) if first else first


def complete(M):
    """The distinct rows share one support size s and number 2 * C(n, n - s):
    the sets whose C3 check is narrowed to their modular pairs."""
    rows = {tuple(row) for row in M.tolist()}
    sizes = {sum(v != 0 for v in row) for row in rows}
    n = M.shape[1]
    return len(sizes) == 1 and len(rows) == 2 * comb(n, n - sizes.pop())


def separating_pairs(M):
    """The pairs of rows that separate somewhere and are not X, -X, by
    int8 comparisons: the pairs weak elimination checks."""
    M = np.asarray(M, np.int8)
    return (M[:, None, :] * M[None, :, :] == -1).any(2) & ~(M[:, None, :] == -M[None, :, :]).all(2)


def modular_pairs(M):
    """The separating pairs whose supports share all but one element of
    the largest support: on a complete set, its modular pairs."""
    S = (np.asarray(M) != 0).astype(np.int32)
    return separating_pairs(M) & (S @ S.T == S.sum(1).max() - 1)


def packed_c3(M):
    """`_c3_general` on every separating pair, both orders: weak
    elimination."""
    M = np.asarray(M, np.int8)
    return _c3_general(M, np.nonzero(separating_pairs(M)))


def assert_same(M):
    want = reference_c3(M)
    assert packed_c3(M) == want, M.tolist()
    return want


def catalog_maps(n, k, stride=1):
    """Every stride-th record of the (n, k) catalog as a Chirotope."""
    rows = char_signs(pm.enumerate_chirotopes(n, k).chars)[::stride]
    return [pm.Chirotope(n, k, row) for row in rows]


def benchmark_grid_maps(seed, n, k, mix):
    """Seeded grid maps with exactly 1 or 2 zero signs, drawn as polybench's
    census draws its non-uniform maps: coordinates in [-3, 3], distinct x.
    Eight points need [-4, 4]."""
    rng = random.Random(f"grid-{seed}-{n}-{k}")
    r = 3 if n <= 7 else 4
    want = {1: mix[0], 2: mix[1]}
    out = []
    while any(want.values()):
        xs = sorted(rng.sample(range(-r, r + 1), n))
        chi = pm.chirotope_of(pm.PointConfig([(x, rng.randint(-r, r)) for x in xs]), k)
        zeros = int((chi.signs == 0).sum())
        if want.get(zeros):
            want[zeros] -= 1
            out.append(chi)
    return out


# per (n, k): how many maps with 1 and with 2 zero signs
MIXES = {(6, 2): (2, 2), (7, 2): (1, 1), (7, 3): (1, 1), (8, 2): (1, 1), (8, 3): (1, 1)}


def without_pair(M, r):
    """M without row r and its negative: C0 to C2 still hold."""
    return M[~((M == M[r]).all(1) | (M == -M[r]).all(1))]


def test_grid_maps_and_their_corruptions():
    rng = random.Random(8)
    verdicts = []
    for (n, k), mix in sorted(MIXES.items()):
        for chi in benchmark_grid_maps(71, n, k, mix):
            M = pm.cocircuit_vectors(chi)
            assert assert_same(M) == pm.check_cocircuit_axioms(M) == _PASS
            m = len(M)
            for _ in range(2):
                bad = M.copy()
                i, e = rng.randrange(m), rng.randrange(n)
                bad[i, e] = rng.choice([v for v in (-1, 0, 1) if v != bad[i, e]])
                verdicts.append(assert_same(bad))
            r = rng.randrange(m)
            verdicts.append(assert_same(np.delete(M, r, axis=0)))
            short = without_pair(M, r)
            verdicts.append(assert_same(short))
            assert pm.check_cocircuit_axioms(short) == verdicts[-1]
    assert not all(verdicts)


def widened(M, width, rng):
    """M with its columns copied, some negated, into `width` columns: a
    valid cocircuit set stays valid, since elimination sees copies alike."""
    cols = [rng.randrange(M.shape[1]) for _ in range(width)]
    flips = np.array([rng.choice((1, -1)) for _ in range(width)], np.int8)
    return np.ascontiguousarray(M[:, cols] * flips)


def test_sets_wider_than_one_word():
    rng = random.Random(65)
    base = [pm.cocircuit_vectors(chi) for chi in benchmark_grid_maps(3, 6, 2, (1, 1))]
    verdicts = []
    for width in (63, 64, 65, 70, 130):
        for M in base:
            wide = widened(M, width, rng)
            assert assert_same(wide).passed
            m = len(wide)
            for e in (width - 1, width - 2, rng.randrange(width)):
                bad = wide.copy()
                bad[rng.randrange(m), e] *= -1
                verdicts.append(assert_same(bad))
            verdicts.append(assert_same(without_pair(wide, rng.randrange(m))))
        # random sparse rows and their negatives
        for _ in range(4):
            rows = np.array(
                [[rng.choice((-1, 1)) if rng.random() < 0.2 else 0 for _ in range(width)]
                 for _ in range(6)],
                np.int8,
            )
            verdicts.append(assert_same(np.vstack([rows, -rows])))
    failed = [rep for rep in verdicts if not rep]
    assert failed and any(rep.witness[2] > 63 for rep in failed)


def candidate_pairs(M):
    """The pairs i < j, in lex order, that separate somewhere and are
    not X, -X: the pairs the general path forms."""
    m = len(M)
    return [
        (i, j) for i in range(m) for j in range(i + 1, m)
        if (M[i] * M[j] == -1).any() and not np.array_equal(M[j], -M[i])
    ]


@pytest.mark.parametrize("pairs_per_block", [1, 7, 54])
def test_general_pass_across_blocks(monkeypatch, pairs_per_block):
    """Blocks hold pairs in lex order.  Here the lex-first failing pair
    lies beyond the first block, and failing pairs with a larger i lie
    in later blocks; the witness must still be the pair loop's."""
    chi = benchmark_grid_maps(3, 6, 2, (1, 0))[0]
    M = without_pair(np.array(pm.cocircuit_vectors(chi)), 5)
    m, n = M.shape
    pairs = candidate_pairs(M)
    fails = [p for p in pairs if reference_c3_pair(M, *p) is not None]
    first = pairs.index(fails[0]) // pairs_per_block
    assert first > 0
    assert any(pairs.index(p) // pairs_per_block > first for p in fails if p[0] > fails[0][0])
    monkeypatch.setattr(axioms, "CHUNK", pairs_per_block * (m + 2 * n))
    assert assert_same(M) == AxiomReport(
        False, "C3", (fails[0][0], fails[0][1], reference_c3_pair(M, *fails[0]) + 1),
        "no eliminating vector for this pair",
    )


@pytest.mark.parametrize("pairs_per_block", [1, 3, None])
def test_general_pass_on_edge_sets(monkeypatch, pairs_per_block):
    """Duplicate rows, sets of X, -X pairs only, and single rows, in
    blocks of one pair, three pairs and the default budget."""
    rng = random.Random(1)
    chi = benchmark_grid_maps(3, 6, 2, (1, 0))[0]
    M = np.array(pm.cocircuit_vectors(chi))
    sets = [np.vstack([M, M[:5]]), np.vstack([M[::-1], M]), np.vstack([without_pair(M, 5)] * 2)]
    for pairs in (1, 1, 2, 2, 3, 3, 3, 3):
        rows = np.array([[rng.choice((-1, 0, 1)) for _ in range(6)] for _ in range(pairs)], np.int8)
        sets.append(np.vstack([rows, -rows]))
    sets += [M[:1], np.array([[1, -1, 0]], np.int8), np.array([[0, 0]], np.int8)]
    verdicts = []
    for S in sets:
        if pairs_per_block is not None:
            monkeypatch.setattr(axioms, "CHUNK", pairs_per_block * (len(S) + 2 * S.shape[1]))
        verdicts.append(assert_same(S))
    assert verdicts[0] and verdicts[1] and not verdicts[2]
    assert any(verdicts[3:-3]) and not all(verdicts[3:-3])
    assert all(verdicts[-3:])


@PROPS
@given(sign_matrices(max_rows=10, max_width=12), st.booleans())
def test_small_sign_matrices(M, close):
    if close:
        M = np.vstack([M, -M])
    assert_same(M)
    assert_both_paths(M, loop_c3=True)


# ------------------------------------------- both paths of check_cocircuit_axioms


def assert_both_paths(M, loop_c3=False):
    """check_cocircuit_axioms against the loops for C0 to C2, then the
    C3 oracle: the int8 lookup oracle on a complete set, else the pair
    loop (loop_c3) or the packed C3 on every separating pair.  The
    verdict must also be weak elimination's, so on complete sets the
    modular pairs must reach it."""
    first = reference_c0_c2(M)
    general = (reference_c3(M) if loop_c3 else packed_c3(M)) if first else first
    want = reference_c3_uniform(M) if first and complete(M) else general
    assert pm.check_cocircuit_axioms(M) == want, M.tolist()
    assert want.passed == general.passed, M.tolist()
    return want.axiom or "PASS"


def variants(M, rng):
    """M, three single-entry corruptions, a sign flipped in both rows of an
    X, -X pair (C0 to C2 still hold), a row deletion, an X, -X pair
    deletion, five appended duplicate rows and a row shuffle."""
    m, n = M.shape
    out = [M]
    for _ in range(3):
        bad = M.copy()
        i, e = rng.randrange(m), rng.randrange(n)
        bad[i, e] = rng.choice([v for v in (-1, 0, 1) if v != bad[i, e]])
        out.append(bad)
    r = rng.randrange(m)
    e = rng.choice(np.flatnonzero(M[r]).tolist())
    pair = (M == M[r]).all(1) | (M == -M[r]).all(1)
    flipped = M.copy()
    flipped[pair, e] *= -1
    out.append(flipped)
    out.append(np.delete(M, rng.randrange(m), axis=0))
    out.append(without_pair(M, rng.randrange(m)))
    out.append(np.vstack([M, M[[rng.randrange(m) for _ in range(5)]]]))
    out.append(M[rng.sample(range(m), m)])
    return out


# (n, k): stride through the catalog
CATALOG_CORPUS = {(6, 2): 1, (7, 2): 64, (8, 4): 8, (9, 5): 40, (7, 3): 2}


@pytest.mark.parametrize("n, k", sorted(CATALOG_CORPUS))
def test_both_paths_on_catalog_records_and_variants(n, k):
    rng = random.Random(f"corpus-{n}-{k}")
    verdicts = Counter()
    for chi in catalog_maps(n, k, CATALOG_CORPUS[n, k]):
        for M in variants(np.array(pm.cocircuit_vectors(chi)), rng):
            verdicts[assert_both_paths(M)] += 1
    assert verdicts["PASS"] and verdicts["C1"] and verdicts["C3"]


def test_both_paths_on_widened_sets():
    rng = random.Random(130)
    base = [pm.cocircuit_vectors(chi) for chi in benchmark_grid_maps(3, 6, 2, (1, 1))]
    base += [pm.cocircuit_vectors(chi) for chi in catalog_maps(7, 2)[:20:7]]
    verdicts = Counter()
    for width in (63, 64, 70, 127, 130):
        for M in base:
            for V in variants(widened(M, width, rng), rng):
                verdicts[assert_both_paths(V)] += 1
    assert verdicts["PASS"] and verdicts["C1"] and verdicts["C3"]


def test_both_paths_on_random_small_matrices():
    rng = random.Random(3000)
    verdicts = Counter()
    for _ in range(3000):
        m, n = rng.randrange(12), rng.randrange(1, 10)
        M = np.array([[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)], np.int8)
        M = M.reshape(m, n)
        if rng.random() < 0.5:
            M = np.vstack([M, -M])
        verdicts[assert_both_paths(M, loop_c3=True)] += 1
    assert set(verdicts) == {"PASS", "C0", "C1", "C2", "C3"}


# ---------------------------------------------- the C3 pairs the input selects


@pytest.fixture
def c3_pairs(monkeypatch):
    """The pairs that check_cocircuit_axioms hands to `_c3_general`, one
    list of (i, j) per call, in order."""
    handed = []

    def spy(M, pairs, _f=axioms._c3_general):
        handed.append(list(zip(*(np.asarray(p).tolist() for p in pairs))))
        return _f(M, pairs)

    monkeypatch.setattr(axioms, "_c3_general", spy)
    return handed


def orbit_minimal(M, mask):
    """The pairs i < j of the mask, in lex order, that are lex <= their
    image under X -> -X: (nu(i), nu(j)) sorted, with nu(i) the first row
    equal to -M[i]."""
    rows = np.asarray(M).tolist()
    nu = [rows.index([-v for v in row]) for row in rows]
    return [
        (i, j) for i, j in zip(*np.nonzero(mask)) if i < j and (i, j) <= tuple(sorted((nu[i], nu[j])))
    ]


def assert_pairs(handed, M, want):
    """One call, on exactly the orbit-minimal pairs of the mask want."""
    assert len(handed) == 1 and handed[0] == orbit_minimal(M, want)


def test_two_pairs_with_distant_zero_sets_fail_c3(c3_pairs):
    """{X, -X, Y, -Y} whose zero sets differ in two elements: X and Y
    separate at element 3 and nothing vanishes there.  No pair is
    modular, so a lookup would pass it; the set is not complete and
    all its separating pairs are checked."""
    X, Y = [0, 0, 1, 1, 1], [1, 1, -1, 0, 0]
    M = np.array([X, [-v for v in X], Y, [-v for v in Y]], np.int8)
    want = reference_c3(M)
    assert want == AxiomReport(False, "C3", (0, 2, 3), "no eliminating vector for this pair")
    assert pm.check_cocircuit_axioms(M) == want
    assert_pairs(c3_pairs, M, separating_pairs(M))


def test_count_alone_does_not_make_a_set_complete(c3_pairs):
    """Supports of sizes 1, 2, 2 and 2 on four elements: 2 * C(4, 1)
    distinct rows, as many as a complete set with s = 1 has.  The sizes
    differ, so all separating pairs are checked, and weak elimination
    rejects the set; narrowed to pairs sharing s - 1 = 0 elements, none
    of which separate, it would pass."""
    rows = [[1, 0, 0, 0], [0, 1, -1, 0], [0, 1, 0, -1], [0, 0, 1, 1]]
    M = np.array(rows + [[-v for v in row] for row in rows], np.int8)
    want = assert_same(M)
    assert not want.passed
    assert pm.check_cocircuit_axioms(M) == want
    assert_pairs(c3_pairs, M, separating_pairs(M))


def random_complete_set(rng, n, z):
    """One X, -X pair on each z-subset of [n] as zero set, sometimes
    shuffled, sometimes with duplicate rows.  The signs are random, or
    (half the time) those of n integer vectors in general position in
    rank z + 1, X(e) = sign det(v_A, v_e), with one X, -X pair then
    flipped at one element half of those times."""
    r = z + 1
    vs = None
    while rng.random() < 0.5 and vs is None:
        vs = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
        if not all(pm.det_sign([vs[e] for e in t]) for t in itertools.combinations(range(n), r)):
            vs = None
    rows = []
    for zs in itertools.combinations(range(n), z):
        if vs is None:
            x = [0 if e in zs else rng.choice((-1, 1)) for e in range(n)]
        else:
            x = [pm.det_sign([vs[a] for a in zs] + [vs[e]]) for e in range(n)]
        rows += [x, [-v for v in x]]
    if vs is not None and rng.random() < 0.5:
        i = 2 * rng.randrange(len(rows) // 2)
        e = rng.choice([e for e in range(n) if rows[i][e]])
        rows[i][e], rows[i + 1][e] = -rows[i][e], -rows[i + 1][e]
    if rng.random() < 0.3:
        rows += [rng.choice(rows) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.5:
        rng.shuffle(rows)
    return np.array(rows, np.int8)


def test_complete_sets_take_the_lookup_with_weak_elimination_verdict(c3_pairs):
    """The narrowing rests on BLVSZ 1993, 3.6: on a complete set,
    elimination on the modular pairs is weak elimination.  It must give
    the lookup's report (an allowed row vanishing where a modular pair
    separates has exactly the zero set the lookup looks up) and the pair
    loop's verdict.  Without one of its pairs the set is not complete
    and all its separating pairs are checked."""
    rng = random.Random(12)
    verdicts = Counter()
    for _ in range(300):
        n = rng.randrange(1, 8)
        z = rng.randrange(n)
        M = random_complete_set(rng, n, z)
        assert complete(M)
        c3_pairs.clear()
        rep = pm.check_cocircuit_axioms(M)
        assert_pairs(c3_pairs, M, modular_pairs(M))
        assert rep == reference_check_uniform(M), M.tolist()
        assert rep.passed == reference_c3(M).passed, M.tolist()
        # z = 0 and z = n - 1 have no separating modular pair
        verdicts[rep.axiom or "PASS", 0 < z < n - 1] += 1
        short = without_pair(M, rng.randrange(len(M)))
        if len(short):
            c3_pairs.clear()
            assert pm.check_cocircuit_axioms(short) == assert_same(short), short.tolist()
            assert_pairs(c3_pairs, short, separating_pairs(short))
    assert verdicts["PASS", True] and verdicts["C3", True]
    assert {axiom for axiom, _ in verdicts} == {"PASS", "C3"}


def test_wide_rank_two_complete_set(c3_pairs):
    """Rank 2 on 70 points of a line: 140 rows, every separating pair
    modular.  The zero-set lookup took about 0.45 s on this set, with
    one gather per (pair, separating element); the count products take
    milliseconds.  Unchanged, and with one X, -X pair flipped at an
    element, it must get the lookup's report."""
    rng = random.Random(140)
    n = 70
    xs = np.array(rng.sample(range(n), n))
    line = np.sign(xs[None, :] - xs[:, None]).astype(np.int8)
    line = np.vstack([line, -line])
    verdicts = []
    for a, e in [(None, None), (3, 65), (67, 2)]:
        M = line.copy()
        if a is not None:
            M[[a, a + n], e] *= -1
        assert complete(M) and np.array_equal(modular_pairs(M), separating_pairs(M))
        c3_pairs.clear()
        rep = pm.check_cocircuit_axioms(M)
        assert_pairs(c3_pairs, M, modular_pairs(M))
        assert rep == reference_check_uniform(M)
        verdicts.append(rep.axiom or "PASS")
    assert verdicts == ["PASS", "C3", "C3"]


# ---------------------------------------------- one pair per negation orbit


def full_pair_check(M):
    """The loops for C0 to C2, then `_c3_general` on every marked pair in
    both orders: the separating pairs, or on a complete set the modular
    ones.  check_cocircuit_axioms hands it only one pair per orbit of
    X -> -X and must give the same report."""
    first = reference_c0_c2(M)
    if not first:
        return first
    return _c3_general(M, np.nonzero(modular_pairs(M) if complete(M) else separating_pairs(M)))


def shuffled_with_repeats(M, rng):
    """M's rows shuffled, with up to three of them repeated: the first
    negative of a row is then no longer an involution of the rows."""
    M = np.vstack([M, M[[rng.randrange(len(M)) for _ in range(rng.randrange(4) if len(M) else 0)]]])
    return M[rng.sample(range(len(M)), len(M))]


# (n, k): stride through the catalog
ORBIT_CORPUS = {(6, 2): 2, (7, 2): 97, (8, 4): 19, (9, 5): 83}


def negation_closed_corpus(rng):
    """Cocircuit sets of catalog records and of their single-sign flips,
    and random sets R with -R, each shuffled with repeated rows."""
    for (n, k), stride in sorted(ORBIT_CORPUS.items()):
        for chi in catalog_maps(n, k, stride):
            signs = chi.signs.copy()
            t = rng.randrange(len(signs))
            signs[t] = -signs[t] or 1
            for c in (chi, pm.Chirotope(n, k, signs)):
                yield shuffled_with_repeats(np.array(pm.cocircuit_vectors(c)), rng)
    for _ in range(600):
        m, n = rng.randrange(1, 7), rng.randrange(1, 8)
        R = np.array([[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)], np.int8)
        yield shuffled_with_repeats(np.vstack([R, -R]), rng)


def test_orbit_pairs_give_the_full_pair_report():
    rng = random.Random(18)
    verdicts = Counter()
    for M in negation_closed_corpus(rng):
        want = full_pair_check(M)
        assert pm.check_cocircuit_axioms(M) == want, M.tolist()
        verdicts[want.axiom or "PASS"] += 1
    assert verdicts["PASS"] and verdicts["C2"] and verdicts["C3"] > 50


@PROPS
@given(sign_matrices(max_rows=6, max_width=8), st.randoms(use_true_random=False))
def test_orbit_pairs_on_random_negation_closed_sets(R, rnd):
    M = shuffled_with_repeats(np.vstack([R, -R]), rnd)
    assert pm.check_cocircuit_axioms(M) == full_pair_check(M), M.tolist()
