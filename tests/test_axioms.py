import functools
import itertools
import json
import random

import numpy as np
import pytest

import polyom as pm
from polyom import axioms
from polyom.chirotope import Chirotope, char_signs, signs_from_string, window_signs
from polyom.combinat import all_tuples, exchange_table, lex_unrank
from polyom.enumeration import exchange_filter_mask
from test_c3_reference import catalog_maps, complete, packed_c3, reference_check_uniform
from test_combinat import reference_exchange_rows


def member(n, k, idx):
    res = pm.enumerate_chirotopes(n, k)
    return Chirotope(n, k, signs_from_string(res.strings()[idx]))


def test_B1():
    assert pm.check_B1(Chirotope(4, 2, [1])).passed
    rep = pm.check_B1(Chirotope(5, 2, [0] * 5))
    assert not rep.passed and rep.axiom == "B1"


def test_B3_passes_on_point_chirotopes():
    for (n, k, seed) in [(6, 2, 0), (7, 2, 5), (7, 3, 1), (8, 4, 2), (9, 1, 3)]:
        chi = pm.chirotope_of(pm.random_config(n, k, seed=seed), k)
        assert pm.check_B3(chi).passed


def test_B3_failure_carries_witness():
    # all-plus with tuple (1,2,3,5) flipped: every exchange term of the
    # witness pair comes out <= 0
    signs = [1] * 15
    signs[1] = -1
    rep = pm.check_B3(Chirotope(6, 2, signs))
    assert not rep.passed and rep.axiom == "B3"
    lam, mu, terms = rep.witness
    assert lam == (1, 2, 3, 4) and mu == (2, 3, 5, 6)
    assert len(terms) == 5 and 1 not in terms


def test_single_flips_of_catalog_members():
    """Flipping one sign of a valid object almost always breaks it; every
    survivor is itself a catalog member (a mutation)."""
    res = pm.enumerate_chirotopes(6, 2)
    members = set(res.strings())
    total = passing = member_hits = 0
    for s in sorted(members):
        for i in range(len(s)):
            flipped = s[:i] + ("-" if s[i] == "+" else "+") + s[i + 1:]
            total += 1
            chi = Chirotope(6, 2, signs_from_string(flipped))
            if pm.check_degree_k(chi).passed:
                passing += 1
                if chi.canonicalize().sign_string() in members:
                    member_hits += 1
    assert total == 1110
    assert passing == 264
    assert member_hits == passing


@functools.lru_cache(maxsize=None)
def full_exchange_rows(n, k):
    return reference_exchange_rows(n, k, False)


def reference_check_B3(chi):
    """check_B3 read off reference_exchange_rows: the full pair table in
    lex order of the pairs, each pair's terms tested for both signs."""
    tuples = all_tuples(chi.n, chi.r)
    x = chi.signs.tolist()
    for li, mi, ls, rs, cs in full_exchange_rows(chi.n, chi.k):
        terms = tuple(c * x[a] * x[b] for a, b, c in zip(ls, rs, cs))
        if not ((1 in terms and -1 in terms) or not any(terms)):
            return pm.AxiomReport(
                False, "B3", (tuples[li], tuples[mi], terms), "exchange terms all of one sign"
            )
    return pm.AxiomReport(True)


def b3_maps(rng, n, k, count):
    """Sign maps on (n, k): catalog rows as they are, with one sign
    flipped or set to 0, and random maps with and without zeros."""
    rows = [signs_from_string(s) for s in pm.enumerate_chirotopes(n, k).strings()]
    out = []
    for i in range(count):
        kind = i % 5
        if kind == 4:
            alphabet = (1, -1) if rng.random() < 0.5 else (1, 0, -1)
            signs = np.array([rng.choice(alphabet) for _ in range(len(rows[0]))], np.int8)
        else:
            signs = rows[rng.randrange(len(rows))].copy()
            if kind:
                at = rng.randrange(len(signs))
                signs[at] = -signs[at] if kind == 1 else 0
            if kind == 3:
                signs[rng.randrange(len(signs))] = rng.choice((1, 0, -1))
        out.append(Chirotope(n, k, signs))
    return out


def test_B3_matches_the_reference_table():
    """check_B3 reads only the pairs whose pivot lies outside mu, on maps
    with zeros too; its verdict and witness are those of the first
    failing pair of the full reference rows."""
    rng = random.Random(16)
    cases = {(3, 1): 30, (4, 2): 30, (5, 3): 30, (5, 1): 300, (6, 1): 600, (5, 2): 300,
             (6, 2): 900, (7, 2): 600, (6, 3): 300, (7, 3): 300, (8, 4): 300}
    checked = failing = zeros = 0
    for (n, k), count in cases.items():
        for chi in b3_maps(rng, n, k, count):
            rep, ref = pm.check_B3(chi), reference_check_B3(chi)
            assert rep == ref, chi
            assert (rep.text(), rep.to_json()) == (ref.text(), ref.to_json())
            checked += 1
            failing += not rep.passed
            zeros += not chi.is_uniform()
    assert checked == 3690
    assert 600 < failing < 2400 and 600 < zeros < 2400


def test_B3_on_k_plus_two_elements():
    # one tuple: the table is empty, the full reference holds the pair (lam, lam)
    for k in (1, 2, 5):
        assert len(exchange_table(k + 2, k, False).coeff) == 0
        assert len(reference_exchange_rows(k + 2, k, False)) == 1
        for sign in (1, 0, -1):
            assert pm.check_B3(Chirotope(k + 2, k, [sign])).passed
        chars = np.array([[ord("+")], [ord("-")]], np.uint8)
        assert exchange_filter_mask(chars, k + 2, k).tolist() == [True, True]


@pytest.mark.parametrize("n, k", [(7, 2), (8, 3)])
def test_exchange_filter_matches_check_B3_on_flips(n, k, monkeypatch):
    rng = random.Random(n * 10 + k)
    chars = pm.enumerate_chirotopes(n, k).chars
    flipped = chars[[rng.randrange(len(chars)) for _ in range(2000)]].copy()
    at = np.array([rng.randrange(chars.shape[1]) for _ in range(2000)])
    rows = np.arange(2000)
    flipped[rows, at] = np.where(flipped[rows, at] == ord("+"), ord("-"), ord("+"))
    passed = [pm.check_B3(Chirotope(n, k, row)).passed for row in char_signs(flipped)]
    mask = exchange_filter_mask(flipped, n, k)
    assert mask.tolist() == passed
    assert 1000 < (~mask).sum() < 2000
    assert exchange_filter_mask(chars, n, k).all()
    # blocks of one row and of seven rows give the same mask
    size = exchange_table(n, k, False).coeff.size
    for budget in (1, 7 * size):
        monkeypatch.setattr(axioms, "EXCHANGE_CHUNK", budget)
        assert exchange_filter_mask(flipped, n, k).tolist() == passed


def test_unimodal_uniform():
    ok = pm.check_unimodal(Chirotope(5, 2, [1, 1, -1, -1, -1]))
    assert ok.passed
    rep = pm.check_unimodal(Chirotope(5, 2, [1, -1, 1, 1, 1]))
    assert not rep.passed and rep.axiom == "unimodal"
    window, seq = rep.witness
    assert window == (1, 2, 3, 4, 5)
    assert seq == (1, -1, 1, 1, 1)


def test_unimodal_zero_patterns():
    assert pm.check_unimodal(Chirotope(5, 2, [1, 1, 0, -1, -1])).passed
    assert pm.check_unimodal(Chirotope(5, 2, [0, -1, -1, -1, -1])).passed
    assert pm.check_unimodal(Chirotope(5, 2, [0, 0, 0, 0, 0])).passed
    assert not pm.check_unimodal(Chirotope(5, 2, [1, 0, 1, 1, 1])).passed
    assert not pm.check_unimodal(Chirotope(5, 2, [1, 0, 0, -1, -1])).passed


def reference_zero_pattern_ok(seq, length):
    """One window in the non-uniform case: s^a 0^b (-s)^c with b in {0, 1, all}."""
    zeros = [i for i, v in enumerate(seq) if v == 0]
    b = len(zeros)
    if b == length:
        return True
    if b > 1:
        return False
    if b == 1:
        z = zeros[0]
        head = seq[:z]
        tail = seq[z + 1:]
        if head and any(v != head[0] for v in head):
            return False
        if tail and any(v != tail[0] for v in tail):
            return False
        if head and tail and head[0] != -tail[0]:
            return False
        return True
    changes = sum(1 for a, c in zip(seq, seq[1:]) if a != c)
    return changes <= 1


def test_unimodal_every_window_sequence():
    # on k+3 elements the single window's sequence is the sign vector itself
    for k in (1, 2, 3, 4):
        for seq in itertools.product((-1, 0, 1), repeat=k + 3):
            rep = pm.check_unimodal(Chirotope(k + 3, k, seq))
            assert rep.passed == reference_zero_pattern_ok(list(seq), k + 3), seq
            if not rep.passed:
                assert rep.witness == (tuple(range(1, k + 4)), seq)


def test_unimodal_first_failing_window_on_grid_maps():
    rng = random.Random(5)
    for n, k in ((6, 2), (7, 2), (7, 3)):
        for _ in range(40):
            xs = sorted(rng.sample(range(-3, 4), n))
            chi = pm.chirotope_of(pm.PointConfig([(x, rng.randint(-3, 3)) for x in xs]), k)
            signs = chi.signs.copy()
            signs[rng.randrange(len(signs))] = rng.choice((-1, 0, 1))
            chi = Chirotope(n, k, signs)
            S = window_signs(chi)
            ok = [reference_zero_pattern_ok([int(v) for v in row], k + 3) for row in S]
            rep = pm.check_unimodal(chi)
            assert rep.passed == all(ok)
            if not rep.passed:
                w = ok.index(False)
                assert rep.witness == (lex_unrank(w, n, k + 3), tuple(int(v) for v in S[w]))


def test_degenerate_realizable_config_passes_checks():
    # four points on a parabola plus one generic point
    cfg = pm.PointConfig([(0, 0), (1, 1), (2, 4), (3, 9), (4, 3)])
    chi = pm.chirotope_of(cfg, 2)
    assert chi.sign_string() == "0----"
    rep = pm.check_degree_k(chi)
    assert rep.passed and rep.note == "not uniform"
    assert pm.check_transitivity(chi).passed


def test_transitivity():
    assert pm.check_transitivity(Chirotope(5, 2, [1, 1, -1, -1, -1])).passed
    rep = pm.check_transitivity(Chirotope(5, 2, [1, -1, -1, -1, 1]))
    assert not rep.passed and rep.axiom == "transitivity"


def test_unimodal_implies_transitivity_random_arrays():
    rng = random.Random(7)
    hits = 0
    for _ in range(2000):
        signs = [rng.choice((1, -1)) for _ in range(15)]
        chi = Chirotope(6, 2, signs)
        if pm.check_unimodal(chi).passed:
            hits += 1
            assert pm.check_transitivity(chi).passed
    assert hits > 0


def test_degree_k_verdict_notes_uniformity():
    chi = pm.chirotope_of(pm.random_config(6, 2, seed=1), 2)
    rep = pm.check_degree_k(chi)
    assert rep.passed and rep.note == "uniform"


def test_verdicts_invariant_under_negation():
    for seed in range(5):
        chi = pm.chirotope_of(pm.random_config(6, 2, seed=seed), 2)
        for check in (pm.check_B3, pm.check_unimodal, pm.check_degree_k):
            assert check(chi).passed == check(chi.negated()).passed
    bad = Chirotope(5, 2, [1, -1, 1, 1, 1])
    assert pm.check_unimodal(bad).passed == pm.check_unimodal(bad.negated()).passed


def test_report_serialization():
    rep = pm.check_unimodal(Chirotope(5, 2, [1, -1, 1, 1, 1]))
    data = json.loads(rep.to_json())
    assert data["passed"] is False
    assert data["axiom"] == "unimodal"
    assert data["witness"][0] == [1, 2, 3, 4, 5]
    assert rep.to_json() == (
        '{"axiom": "unimodal", "note": "window sign sequence changes more than once", '
        '"passed": false, "witness": [[1, 2, 3, 4, 5], [1, -1, 1, 1, 1]]}'
    )
    # the text form prints the witness as the JSON form does
    assert rep.text() == (
        "FAIL unimodal witness=[[1, 2, 3, 4, 5], [1, -1, 1, 1, 1]] "
        "(window sign sequence changes more than once)"
    )
    assert pm.check_B1(Chirotope(4, 2, [1])).text() == "PASS"


def test_cocircuit_axioms_pass_both_paths():
    chi = pm.chirotope_of(pm.random_config(7, 2, seed=17), 2)
    vecs = pm.cocircuit_vectors(chi)
    assert pm.check_cocircuit_axioms(vecs).passed
    assert packed_c3(vecs).passed


def test_cocircuit_axioms_negated_set_same_verdict():
    chi = pm.chirotope_of(pm.random_config(6, 3, seed=2), 3)
    vecs = pm.cocircuit_vectors(chi)
    assert pm.check_cocircuit_axioms(vecs).passed == pm.check_cocircuit_axioms(-vecs).passed


def test_cocircuit_C0_C1_C2_failures():
    chi = pm.chirotope_of(pm.random_config(6, 2, seed=4), 2)
    vecs = pm.cocircuit_vectors(chi)
    with_zero = np.vstack([vecs, np.zeros((1, 6), np.int8)])
    assert pm.check_cocircuit_axioms(with_zero).axiom == "C0"
    dropped = vecs[1:]
    assert pm.check_cocircuit_axioms(dropped).axiom == "C1"
    nested = np.array(
        [[1, 0, 0], [-1, 0, 0], [1, 1, 0], [-1, -1, 0]], np.int8
    )
    assert pm.check_cocircuit_axioms(nested).axiom == "C2"


def test_cocircuit_C3_failure_when_pair_removed():
    res = pm.enumerate_chirotopes(6, 2)
    chi = Chirotope(6, 2, signs_from_string(res.strings()[1]))
    vecs = pm.cocircuit_vectors(chi)
    head = vecs[0]
    kept = np.array(
        [
            r
            for r in vecs
            if not (np.array_equal(r, head) or np.array_equal(r, -head))
        ],
        np.int8,
    )
    rep = pm.check_cocircuit_axioms(kept)
    assert not rep.passed and rep.axiom == "C3"
    assert rep == packed_c3(kept)


def test_uniform_C3_duplicated_rows_same_verdict_and_witness():
    res = pm.enumerate_chirotopes(6, 2)
    chi = Chirotope(6, 2, signs_from_string(res.strings()[1]))
    vecs = pm.cocircuit_vectors(chi)
    head = vecs[0]
    kept = np.array(
        [
            r
            for r in vecs
            if not (np.array_equal(r, head) or np.array_equal(r, -head))
        ],
        np.int8,
    )
    reports = []
    for base in (vecs, kept):
        plain = pm.check_cocircuit_axioms(base)
        appended = np.vstack([base, base[::3], base[:2]])
        assert pm.check_cocircuit_axioms(appended) == plain
        # every row twice in a row: row i of base first occurs at 2i
        repeated = pm.check_cocircuit_axioms(np.repeat(base, 2, axis=0))
        assert repeated.passed == plain.passed and repeated.axiom == plain.axiom
        if plain.witness:
            i, j, e = plain.witness
            assert repeated.witness == (2 * i, 2 * j, e)
        reports.append(plain)
    assert reports[0].passed
    assert not reports[1].passed and reports[1].axiom == "C3"


def test_cocircuit_weak_elimination_failure_constructed():
    # rows disagree at the first column but nothing vanishes there
    bad = np.array([[1, 1, 0], [-1, -1, 0], [1, 0, -1], [-1, 0, 1]], np.int8)
    rep = pm.check_cocircuit_axioms(bad)
    assert not rep.passed and rep.axiom == "C3"
    assert rep.witness[2] == 1


def test_single_antipodal_pair_passes_vacuously():
    x = np.zeros(6, np.int8)
    x[5] = 1
    pair = np.vstack([x, -x])
    assert pm.check_cocircuit_axioms(pair).passed


def test_empty_vector_set_passes():
    assert pm.check_cocircuit_axioms(np.zeros((0, 5), np.int8)).passed
    assert pm.check_cocircuit_axioms([]).passed


def test_empty_vectors_are_zero_vectors():
    for vectors in ([[]], np.zeros((3, 0), np.int8)):
        rep = pm.check_cocircuit_axioms(vectors)
        assert rep.axiom == "C0" and rep.witness == (0,)


@pytest.mark.parametrize(
    "vectors, message",
    [
        ([[2, 0], [-2, 0]], "signs must be -1, 0 or +1"),
        ([[1, 0], [-1, 0], [300, 1]], "signs must be -1, 0 or +1"),
        ([[1, 0], [-1, 0], [10**30, 1]], "signs must be -1, 0 or +1"),
        ([[1, 0.5], [-1, -0.5]], "signs must be -1, 0 or +1"),
        ([["+", "0"], ["-", "0"]], "signs must be -1, 0 or +1"),
        ([[1, 0], [-1]], "expected a list of equal-length sign vectors"),
        ([1, -1], "expected a list of equal-length sign vectors"),
    ],
)
def test_cocircuit_axioms_input_faults(vectors, message):
    with pytest.raises(pm.InputError) as err:
        pm.check_cocircuit_axioms(vectors)
    assert str(err.value) == message
    with pytest.raises(pm.InputError):
        pm.is_acyclic(vectors)


def test_zero_set_keys_exact_beyond_one_word():
    # rank 2 on n points of a line: the pair with zero set {a} is
    # X(e) = sign(x_e - x_a).  These sets are complete, so C3 checks only
    # their modular pairs; the oracle's zero-set keys span more than
    # eight bytes
    rng = random.Random(70)
    failed = []
    for n in (63, 64, 70):
        xs = np.array(rng.sample(range(n), n))
        line = np.sign(xs[None, :] - xs[:, None]).astype(np.int8)
        line = np.vstack([line, -line])
        for _ in range(2):
            M = line.copy()
            a, e = rng.sample(range(n - 8, n), 2)
            M[[a, a + n], e] *= -1  # one X, -X pair flipped at e
            M = M[rng.sample(range(2 * n), 2 * n)]
            assert complete(M)
            rep = pm.check_cocircuit_axioms(M)
            assert rep == reference_check_uniform(M)
            assert rep.passed == packed_c3(M).passed
            if not rep:
                failed.append(rep.witness[2])
    assert len(failed) == 6 and max(failed) > 63, failed


def test_general_path_keys_beyond_one_word():
    # a uniform (7,2) set padded to 70 columns, then rotated so that its
    # columns reach beyond column 63; no element wraps around, so a
    # witness moves with the rotation
    vecs = pm.cocircuit_vectors(member(7, 2, 5))
    head = vecs[0]
    kept = vecs[~((vecs == head).all(1) | (vecs == -head).all(1))]
    for base in (vecs, kept):
        plain = pm.check_cocircuit_axioms(base)
        for shift in (0, 30, 57, 60, 63):
            wide = np.roll(np.pad(base, ((0, 0), (0, 63))), shift, axis=1)
            rep = pm.check_cocircuit_axioms(wide)
            assert (rep.passed, rep.axiom) == (plain.passed, plain.axiom), shift
            if plain.witness:
                i, j, e = plain.witness
                assert rep.witness == (i, j, e + shift)
    assert plain.axiom == "C3"


def test_cocircuit_axioms_exhaustive_on_catalogs():
    cases = [(2, 6), (3, 6), (4, 7), (5, 8)]
    for k, nmax in cases:
        for n in range(k + 2, nmax + 1):
            for chi in catalog_maps(n, k):
                vecs = pm.cocircuit_vectors(chi)
                assert ((vecs == 0).sum(axis=1) == k + 1).all()
                assert pm.check_cocircuit_axioms(vecs).passed, (n, k)


def test_cocircuit_sets_injective_small():
    for n in (4, 5, 6):
        seen = set()
        for chi in catalog_maps(n, 2):
            key = pm.cocircuit_vectors(chi).tobytes()
            assert key not in seen
            seen.add(key)


def test_is_acyclic_point_configs():
    for (n, k, seed) in [(6, 2, 0), (7, 3, 1), (9, 1, 5)]:
        chi = pm.chirotope_of(pm.random_config(n, k, seed=seed), k)
        assert pm.is_acyclic(chi)


def test_is_acyclic_fails_for_some_reorientation():
    chi = member(6, 2, 1)
    assert pm.is_acyclic(chi)
    assert not pm.is_acyclic(chi.reorient([2, 4]))


def test_extreme_points_monomial_curve():
    cfg = pm.PointConfig([(i, i ** 4) for i in range(6)])
    chi = pm.chirotope_of(cfg, 2)
    assert pm.extreme_points(chi) == (1, 2, 3, 4, 5, 6)


def test_extreme_points_minimal_case_all_extreme():
    chi = pm.chirotope_of(pm.random_config(4, 2, seed=0), 2)
    assert pm.extreme_points(chi) == (1, 2, 3, 4)


def test_extreme_points_requires_acyclic():
    chi = member(6, 2, 1).reorient([2, 4])
    with pytest.raises(pm.InputError):
        pm.extreme_points(chi)


def test_extreme_points_geometric_cross_check():
    # degree-2 extreme: some parabola through the point keeps all others
    # strictly on one side
    cfg = pm.random_config(6, 2, seed=77)
    chi = pm.chirotope_of(cfg, 2)
    claimed = set(pm.extreme_points(chi))
    vecs = pm.cocircuit_vectors(chi)
    nonneg = vecs[~(vecs == -1).any(axis=1)]
    geometric = set()
    for row in nonneg:
        for e in np.nonzero(row == 0)[0]:
            geometric.add(int(e) + 1)
    assert claimed == geometric


def test_scan_minimal_case_identity_reorientation():
    chi = pm.chirotope_of(pm.random_config(4, 2, seed=3), 2)
    rep = pm.las_vergnas_scan(chi)
    assert rep.found and rep.best_set == () and rep.best_count == 4
    assert rep.total == 16


def test_scan_deterministic_and_serializable():
    chi = member(6, 2, 7)
    a = pm.las_vergnas_scan(chi)
    b = pm.las_vergnas_scan(chi)
    assert a == b
    data = json.loads(a.to_json())
    assert data["total"] == 64
    assert sum(a.histogram.values()) == a.acyclic
    # histogram keys are written as strings, and sorted as strings
    rep = pm.ScanReport(n=5, k=2, total=32, acyclic=8, histogram={10: 1, 2: 3, 3: 4}, best_set=(1, 2), best_count=3)
    assert rep.to_json() == (
        '{"acyclic": 8, "best_count": 3, "best_set": [1, 2], "found": false, '
        '"histogram": {"10": 1, "2": 3, "3": 4}, "k": 2, "n": 5, "total": 32}'
    )


def test_scan_point_config_finds_target_count():
    for seed in (0, 1, 2):
        chi = pm.chirotope_of(pm.random_config(6, 2, seed=seed), 2)
        rep = pm.las_vergnas_scan(chi)
        assert rep.found and rep.best_count == 4
