"""Weak elimination (C3) on packed sign words against the pair loop.

The oracle is the straightforward loop over ordered pairs (X, Y), one
pair at a time, with the same lex-first witness (i, j, e).  The array
code must give the same AxiomReport on real cocircuit sets, on their
corruptions, and on synthetic sets wider than one 63-bit word.
"""

import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import polyom as pm
from polyom.axioms import AxiomReport, _c3_general
from test_properties import PROPS, sign_matrices

_PASS = AxiomReport(True)


def reference_c3(M):
    m, n = M.shape
    pos = M == 1
    neg = M == -1
    zero = M == 0
    for i in range(m):
        for j in range(m):
            if np.array_equal(M[j], -M[i]):
                continue
            seps = (pos[i] & neg[j]) | (neg[i] & pos[j])
            if not seps.any():
                continue
            allowed_p = pos[i] | pos[j]
            allowed_n = neg[i] | neg[j]
            ok = ~((pos & ~allowed_p) | (neg & ~allowed_n)).any(1)
            covered = zero[ok].any(0)
            missing = seps & ~covered
            if missing.any():
                e = int(np.argmax(missing))
                return AxiomReport(
                    False, "C3", (i, j, e + 1), "no eliminating vector for this pair"
                )
    return _PASS


def reference_check(M):
    """check_cocircuit_axioms(uniform=False) as loops: C0, C1, C2, then the oracle."""
    m, n = M.shape
    for i in range(m):
        if not M[i].any():
            return AxiomReport(False, "C0", (i,), "zero vector present")
    present = {M[i].tobytes() for i in range(m)}
    for i in range(m):
        if (-M[i]).tobytes() not in present:
            return AxiomReport(False, "C1", (i,), "negative not in the set")
    for i in range(m):
        for j in range(m):
            nested = not (M[i].astype(bool) & ~M[j].astype(bool)).any()
            if nested and not (np.array_equal(M[i], M[j]) or np.array_equal(M[i], -M[j])):
                return AxiomReport(False, "C2", (i, j), "nested supports, not a sign pair")
    return reference_c3(M)


def packed_c3(M):
    M = np.asarray(M, np.int8)
    return _c3_general(M, (M[:, None, :] == -M[None, :, :]).all(2))


def assert_same(M):
    want = reference_c3(M)
    assert packed_c3(M) == want, M.tolist()
    return want


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


@PROPS
@given(sign_matrices(max_rows=10, max_width=12), st.booleans())
def test_small_sign_matrices(M, close):
    if close:
        M = np.vstack([M, -M])
    assert_same(M)
    assert pm.check_cocircuit_axioms(M) == reference_check(M)
