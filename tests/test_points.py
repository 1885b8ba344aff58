import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyom as pm
from polyom import points
from polyom.points import DEFAULT_RANGE


def leibniz_det(rows):
    """Reference determinant by permutation expansion, exact."""
    m = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(m)):
        inv = sum(
            1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j]
        )
        term = Fraction(1)
        for i in range(m):
            term *= Fraction(rows[i][perm[i]])
        total += term if inv % 2 == 0 else -term
    return total


def test_lift():
    assert pm.lift((2, 5), 3) == (1, 2, 4, 8, 5)
    assert pm.lift((Fraction(1, 2), 3), 2) == (1, Fraction(1, 2), Fraction(1, 4), 3)


def test_det_sign_examples():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert pm.det_sign(ident) == 1
    assert pm.det_sign([[1, 2], [1, 2]]) == 0
    assert pm.det_sign([[0, 1], [1, 0]]) == -1


def test_det_sign_matches_leibniz():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randint(2, 4)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
            for _ in range(m)
        ]
        d = leibniz_det(rows)
        want = 0 if d == 0 else (1 if d > 0 else -1)
        assert pm.det_sign(rows) == want


def test_det_sign_stable_under_positive_row_scaling():
    rows = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    scaled = [[Fraction(v, 7) for v in rows[0]], rows[1], [3 * v for v in rows[2]]]
    assert pm.det_sign(rows) == pm.det_sign(scaled)


def test_chi_point_degenerate_on_low_degree_curve():
    # four points on a parabola are degree-2 degenerate
    cfg = pm.PointConfig([(x, x * x) for x in range(5)])
    for t in itertools.combinations(range(1, 6), 4):
        assert pm.chi_point(cfg, 2, t) == 0


def test_chi_point_cubic_positive():
    cfg = pm.PointConfig([(0, 0), (1, 1), (2, 8), (3, 27)])
    assert pm.chi_point(cfg, 2, (1, 2, 3, 4)) == 1


def test_chi_point_step_example():
    cfg = pm.PointConfig([(0, 0), (1, 0), (2, 0), (3, 1)])
    assert pm.chi_point(cfg, 2, (1, 2, 3, 4)) == 1


def test_chi_point_alternates_like_determinant():
    cfg = pm.random_config(6, 2, seed=21)
    base = (1, 3, 4, 6)
    v = pm.chi_point(cfg, 2, base)
    assert pm.chi_point(cfg, 2, (3, 1, 4, 6)) == -v
    assert pm.chi_point(cfg, 2, (1, 3, 3, 6)) == 0


def test_chirotope_of_matches_chi_point():
    cfg = pm.random_config(6, 3, seed=2)
    chi = pm.chirotope_of(cfg, 3)
    for t in itertools.combinations(range(1, 7), 5):
        assert chi.value(t) == pm.chi_point(cfg, 3, t)


def test_chirotope_of_minimal_and_validation():
    cfg = pm.PointConfig([(0, 0), (1, 1), (2, 8), (3, 27)])
    chi = pm.chirotope_of(cfg, 2)
    assert chi.sign_string() == "+"
    with pytest.raises(pm.InputError):
        pm.chirotope_of(cfg, 3)  # needs k+2 = 5 points


def test_degree_one_parabola_all_positive():
    cfg = pm.PointConfig([(x, x * x) for x in range(4)])
    chi = pm.chirotope_of(cfg, 1)
    assert chi.sign_string() == "++++"


def test_monomial_curve_all_positive():
    for k in (1, 2, 3):
        cfg = pm.PointConfig([(x, x ** (k + 1)) for x in range(k + 4)])
        s = pm.chirotope_of(cfg, k).sign_string()
        assert s == "+" * len(s)


def test_chirotope_invariant_under_curve_shear():
    # adding a degree <= k polynomial of x to y, and scaling y by a
    # positive rational, preserves every sign
    cfg = pm.random_config(7, 2, seed=33)
    sheared = pm.PointConfig(
        [(x, Fraction(3, 7) * y + 2 - x + 5 * x * x) for x, y in cfg.points]
    )
    assert pm.chirotope_of(sheared, 2) == pm.chirotope_of(cfg, 2)


def test_lagrange_sign_parabola():
    cfg = pm.PointConfig([(0, 0), (1, 1), (2, 4), (3, 10)])
    assert pm.lagrange_sign(cfg, 2, (1, 2, 3), 4) == 1
    exact = pm.PointConfig([(0, 0), (1, 1), (2, 4), (3, 9)])
    assert pm.lagrange_sign(exact, 2, (1, 2, 3), 4) == 0
    below = pm.PointConfig([(0, 0), (1, 1), (2, 4), (3, 8)])
    assert pm.lagrange_sign(below, 2, (1, 2, 3), 4) == -1


def test_lagrange_sign_base_element_is_zero():
    cfg = pm.random_config(6, 2, seed=14)
    assert pm.lagrange_sign(cfg, 2, (1, 2, 5), 5) == 0


def test_lagrange_sign_validates():
    cfg = pm.random_config(6, 2, seed=14)
    with pytest.raises(pm.InputError):
        pm.lagrange_sign(cfg, 2, (1, 2), 5)
    with pytest.raises(pm.InputError):
        pm.lagrange_sign(cfg, 2, (1, 2, 2), 5)
    with pytest.raises(pm.InputError):
        pm.lagrange_sign(cfg, 2, (1, 2, 7), 5)


def test_lagrange_agrees_with_determinant_route():
    for (n, k, seed) in [(6, 1, 0), (7, 2, 1), (7, 3, 2), (6, 4, 3)]:
        cfg = pm.random_config(n, k, seed=seed)
        for t in itertools.combinations(range(1, n + 1), k + 2):
            assert pm.chi_point(cfg, k, t) == pm.lagrange_sign(cfg, k, t[:-1], t[-1])


def test_random_config_is_deterministic_and_uniform():
    a = pm.random_config(7, 2, seed=99)
    b = pm.random_config(7, 2, seed=99)
    assert a == b
    assert pm.chirotope_of(a, 2).is_uniform()
    xs = [p[0] for p in a.points]
    assert xs == sorted(xs) and len(set(xs)) == 7
    assert all(abs(v) <= DEFAULT_RANGE for p in a.points for v in p)


def test_random_config_range_and_errors():
    small = pm.random_config(5, 2, seed=1, coordinate_range=10)
    assert all(abs(v) <= 10 for p in small.points for v in p)
    with pytest.raises(pm.InputError):
        pm.random_config(5, 2, seed=1, coordinate_range=1)
    with pytest.raises(pm.DegenerateConfigError):
        pm.random_config(5, 3, seed=7, coordinate_range=2, max_tries=1)


def test_point_config_rejects_duplicate_x():
    with pytest.raises(pm.InputError):
        pm.PointConfig([(1, 2), (1, 3)])
    with pytest.raises(pm.InputError):
        pm.PointConfig([(Fraction(1, 2), 0), (Fraction(2, 4), 5)])


def test_point_config_sorts_by_x():
    cfg = pm.PointConfig([(3, 1), (1, 2), (2, 0)])
    assert [p[0] for p in cfg.points] == [1, 2, 3]
    assert cfg.coords(1) == (1, 2)
    with pytest.raises(pm.InputError):
        cfg.coords(4)


def test_store_is_one_for_every_spelling():
    # one point set spelled as ints, Fractions, floats, np.int64 and a
    # points file: one store, equal configs, equal hashes
    spellings = [
        [(3, -4), (0, 5), (1, 2)],
        [(Fraction(3), Fraction(-4)), (Fraction(0), Fraction(5)), (Fraction(2, 2), Fraction(2))],
        [(3.0, -4.0), (0.0, 5), (1, 2.0)],
        [(np.int64(3), np.int64(-4)), (np.int64(0), np.int64(5)), (np.int64(1), np.int64(2))],
        pm.parse_points("3 -4\n0 5\n1 2\n"),
        pm.parse_points("6/2 -8/2\n0 5.0\n1e0 2\n"),
    ]
    configs = [pm.PointConfig(s) for s in spellings]
    for cfg in configs:
        assert (cfg.xs, cfg.ys, cfg.scale) == ((0, 1, 3), (5, 2, -4), 1)
        assert all(type(v) is int for v in cfg.xs + cfg.ys)
        assert cfg == configs[0] and hash(cfg) == hash(configs[0])
        assert cfg.points == ((0, 5), (1, 2), (3, -4))
        assert all(type(v) is Fraction for p in cfg.points for v in p)
        # the hash an integer configuration had as a tuple of Fraction pairs
        assert hash(cfg) == hash(((Fraction(0), Fraction(5)), (Fraction(1), Fraction(2)), (Fraction(3), Fraction(-4))))
    halves = [
        [(0.5, 1), (Fraction(1, 3), 2), (2, Fraction(-3, 4))],
        [(Fraction(2, 4), Fraction(1)), (Fraction(1, 3), np.int64(2)), (np.int64(2), -0.75)],
        pm.parse_points("1/2 1\n1/3 2\n2 -3/4\n"),
        pm.parse_points("0.5 1\n2/6 2\n2 -0.75\n"),
    ]
    configs = [pm.PointConfig(s) for s in halves]
    for cfg in configs:
        assert (cfg.xs, cfg.ys, cfg.scale) == ((4, 6, 24), (24, 12, -9), 12)
        assert cfg == configs[0] and hash(cfg) == hash(configs[0])
        assert cfg.points == ((Fraction(1, 3), 2), (Fraction(1, 2), 1), (2, Fraction(-3, 4)))
        assert all(type(v) is Fraction for p in cfg.points for v in p)
    assert configs[0] != pm.PointConfig([(4, 24), (6, 12), (24, -9)])
    assert pm.PointConfig([(1, 2)]) != pm.PointConfig([(2, 1)])


def test_store_sorts_and_refuses_like_the_fractions():
    cfg = pm.PointConfig([(Fraction(5, 2), 1), (-1, Fraction(1, 5)), (Fraction(1, 2), -3)])
    assert (cfg.xs, cfg.ys, cfg.scale) == ((-10, 5, 25), (2, -30, 10), 10)
    assert cfg.coords(2) == (Fraction(1, 2), -3)
    with pytest.raises(pm.InputError, match=r"^two points share x = 1/2$"):
        pm.parse_points("1/2 0\n3 0\n0.5 1\n")
    with pytest.raises(pm.InputError, match=r"^two points share x = -7$"):
        pm.PointConfig([(-7, 0), (9, 0), (np.int64(-7), 1)])
    # repr spells every coordinate as its Fraction does
    assert repr(pm.PointConfig([(Fraction(1, 2), -3), (2, Fraction(7, 5)), (-1, 0)])) == (
        "PointConfig([(-1, 0), (1/2, -3), (2, 7/5)])"
    )
    assert repr(pm.PointConfig([(2, 0), (-1, 10**30)])) == f"PointConfig([(-1, {10**30}), (2, 0)])"


def test_chirotope_of_a_rational_config_is_that_of_its_scaling():
    rng = random.Random(26)
    for k in (1, 2, 3):
        for _ in range(20):
            xs = rng.sample(range(-40, 40), k + 4)
            pts = [(Fraction(x, rng.randint(1, 9)), Fraction(rng.randint(-40, 40), rng.randint(1, 9))) for x in xs]
            if len({x for x, _ in pts}) < len(pts):
                continue
            cfg = pm.PointConfig(pts)
            scaled = pm.PointConfig([(int(x * cfg.scale), int(y * cfg.scale)) for x, y in pts])
            assert (scaled.xs, scaled.ys, scaled.scale) == (cfg.xs, cfg.ys, 1)
            want = bareiss_signs([x for x, _ in cfg.points], [y for _, y in cfg.points], k)
            assert pm.chirotope_of(cfg, k) == pm.chirotope_of(scaled, k)
            assert pm.chirotope_of(cfg, k).signs.tolist() == want


def reference_points(points):
    """The points of PointConfig(points), sorted and tie-checked as
    Fractions: the constructor before it sorted on integer keys."""
    coords = []
    for p in points:
        x, y = p
        coords.append((Fraction(x), Fraction(y)))
    coords.sort(key=lambda p: p[0])
    for (x1, _), (x2, _) in zip(coords, coords[1:]):
        if x1 == x2:
            raise pm.InputError(f"two points share x = {x1}")
    return tuple(coords)


def outcome(build, points):
    """What build(points) gives: its points, or the exception's type and text."""
    try:
        return "points", build(points)
    except Exception as exc:  # the oracle compares every failure too
        return type(exc), str(exc)


def built(points):
    return pm.PointConfig(points).points


# coordinates of every kind the constructor takes: small ints, so that x
# repeats, ints beyond 2**63, Fractions of mixed denominators, floats
# (the non-finite ones included), and equal values spelled as several
# types
COORDS = st.one_of(
    st.integers(-4, 4),
    st.integers(2**63 - 2, 2**63 + 2).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(-(2**200), 2**200),
    st.fractions(max_denominator=12),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**30),
    st.floats(width=64),
    st.sampled_from([Fraction(1, 2), 0.5, 1, 1.0, Fraction(2, 2), -0.0, 0]),
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(st.tuples(COORDS, COORDS), max_size=8))
def test_point_config_matches_fraction_sort(points):
    got = outcome(built, points)
    assert got == outcome(reference_points, points)
    if got[0] == "points":
        assert all(type(v) is Fraction for p in got[1] for v in p)


def test_point_config_integer_keys_on_named_inputs():
    big = 2**63
    cases = [
        [(3, 1), (1, 2), (2, 0)],
        [(big + 1, 0), (big, 1), (-big, 2), (big - 1, 3)],
        [(Fraction(1, 3), 0), (Fraction(1, 2), 1), (Fraction(-5, 6), 2), (Fraction(7, 4), 3)],
        [(0.1, 0), (0.25, 1), (-1.5, 2), (1e-300, 3)],
        [(1, 0.5), (Fraction(1, 3), 2), (0.75, Fraction(1, 7)), (big * 3, -1)],
        [(1, 0), (Fraction(2, 2), 1)],
        [(0.5, 0), (3, 0), (Fraction(1, 2), 1)],
        [(-0.0, 0), (5, 5), (0, 1)],
        [(big, 0), (big + 1, 0), (big, 1)],
        [(2, 0), (1, 0), (2, 1), (1, 1)],
    ]
    for points in cases:
        assert outcome(built, points) == outcome(reference_points, points)
    with pytest.raises(pm.InputError, match=r"^two points share x = 1$"):
        pm.PointConfig([(2, 0), (1, 0), (2, 1), (1, 1)])
    with pytest.raises(pm.InputError, match=r"^two points share x = 1/2$"):
        pm.PointConfig([(0.5, 0), (3, 0), (Fraction(1, 2), 1)])


def test_points_file_roundtrip():
    cfg = pm.PointConfig([(Fraction(1, 2), -3), (2, Fraction(7, 5)), (-1, 0)])
    text = pm.format_points(cfg)
    assert pm.parse_points(text) == cfg


def test_points_file_comments_and_errors():
    cfg = pm.parse_points("# heading\n1 2\n\n 3 4 # trailing\n")
    assert len(cfg) == 2
    with pytest.raises(pm.InputError):
        pm.parse_points("1 2 3\n")
    with pytest.raises(pm.InputError):
        pm.parse_points("1 x\n")
    with pytest.raises(pm.InputError):
        pm.parse_points("# nothing\n")
    with pytest.raises(pm.InputError):
        pm.parse_points("1/0 2\n")


def bareiss_signs(xs, ys, k):
    """Every sorted (k+2)-tuple's sign by Bareiss on the lifted rows."""
    return [
        pm.det_sign([pm.lift((xs[i], ys[i]), k) for i in t])
        for t in itertools.combinations(range(len(xs)), k + 2)
    ]


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the entries that tuple_signs evaluates in integers."""
    calls = []
    real = points._exact_sign

    def counting(xs, ys, k):
        calls.append(k)
        return real(xs, ys, k)

    monkeypatch.setattr(points, "_exact_sign", counting)
    return calls


def test_tuple_signs_match_bareiss_near_curves(exact_calls):
    # points on y = q(x) with deg q <= k vanish on every tuple; a +-1
    # perturbation leaves a tiny sum of huge cancelling terms
    rng = random.Random(3)
    compared = 0
    for k in (1, 2, 3, 5):
        n = k + 4
        for base in (10**6, 2**26, 2**52 - 60, 2**60, 2**70):
            for shift in (0, 1, -1, None):
                xs = sorted(base + d for d in rng.sample(range(-50, 51), n))
                coef = [rng.randint(-3, 3) for _ in range(k + 1)]
                ys = [
                    base - 2**31
                    + sum(c * (x - base) ** i for i, c in enumerate(coef))
                    + (rng.choice((-1, 0, 1)) if shift is None else shift)
                    for x in xs
                ]
                before = len(exact_calls)
                got = points.tuple_signs([xs], [ys], k)[0].tolist()
                assert got == bareiss_signs(xs, ys, k), (k, base, shift)
                compared += len(got)
                if base >= 2**60:
                    assert len(exact_calls) - before == len(got)
                if shift == 0:
                    assert got == [0] * len(got)
    assert compared > 0 and exact_calls


def test_tuple_signs_fall_back_on_float_overflow(exact_calls):
    # (10, 8): each term multiplies 36 differences of up to 2^41, far
    # beyond float64, so the filter sees inf and NaN
    rng = random.Random(4)
    r = 2**40
    rows = []
    for _ in range(40):
        xs = sorted(rng.sample(range(-r, r + 1), 10))
        rows.append((xs, [rng.choice((0, rng.randint(-r, r))) for _ in xs]))
    got = points.tuple_signs([xs for xs, _ in rows], [ys for _, ys in rows], 8)
    assert got.shape == (40, 1)
    for (xs, ys), row in zip(rows, got.tolist()):
        assert row == bareiss_signs(xs, ys, 8)
    assert len(exact_calls) == 40


def test_tuple_signs_batch_matches_bareiss():
    rng = random.Random(5)
    for (n, k, r) in [(6, 2, 8), (7, 3, 10**6), (9, 5, 2**26), (8, 1, 2**52)]:
        rows = []
        for _ in range(25):
            xs = sorted(rng.sample(range(-r, r + 1), n))
            rows.append((xs, [rng.randint(-r, r) for _ in xs]))
        got = points.tuple_signs(
            np.array([xs for xs, _ in rows]), np.array([ys for _, ys in rows]), k
        )
        for (xs, ys), row in zip(rows, got.tolist()):
            assert row == bareiss_signs(xs, ys, k), (n, k, r)


def test_rational_configs_match_bareiss():
    cfg = pm.random_config(7, 2, seed=33)
    sheared = pm.PointConfig(
        [(x, Fraction(3, 7) * y + 2 - x + 5 * x * x) for x, y in cfg.points]
    )
    rng = random.Random(6)
    halves = pm.PointConfig(
        [(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) + Fraction(i, 1000),
          Fraction(rng.randint(-99, 99), rng.randint(1, 12))) for i in range(8)]
    )
    for config, k in [(sheared, 2), (halves, 2), (halves, 3), (halves, 5)]:
        xs = [x for x, _ in config.points]
        ys = [y for _, y in config.points]
        want = bareiss_signs(xs, ys, k)
        assert pm.chirotope_of(config, k).signs.tolist() == want
        for c, t in enumerate(itertools.combinations(range(1, len(xs) + 1), k + 2)):
            flipped = (t[1], t[0]) + t[2:]
            assert pm.chi_point(config, k, t) == want[c]
            assert pm.chi_point(config, k, flipped) == -want[c]


def stdlib_draw(rng, n, r):
    # the draw as the stdlib calls that _draw replays
    xs = sorted(rng.sample(range(-r, r + 1), n))
    return xs, [rng.randint(-r, r) for _ in xs]


def test_random_config_matches_draw_loop_reference():
    # the draw sequence, redraws included, of a plain per-draw loop with
    # Bareiss signs: x distinct and sorted, then y per point in x-order
    def reference(n, k, seed, r, max_tries):
        rng = random.Random(seed)
        for _ in range(max_tries):
            xs, ys = stdlib_draw(rng, n, r)
            if 0 not in bareiss_signs(xs, ys, k):
                return pm.PointConfig(zip(xs, ys))
        return None

    redrawn = 0
    for (n, k, r) in [(5, 2, 3), (6, 3, 4), (7, 2, 10**6)]:
        for seed in range(40):
            for max_tries in (1, 3):
                want = reference(n, k, seed, r, max_tries)
                if want is None:
                    with pytest.raises(pm.DegenerateConfigError):
                        pm.random_config(n, k, seed, r, max_tries)
                else:
                    assert pm.random_config(n, k, seed, r, max_tries) == want
                redrawn += max_tries == 3 and want != reference(n, k, seed, r, 1)
    assert redrawn > 0


@pytest.mark.parametrize(
    "n, r",
    [
        # sample keeps a pool while 2r+1 <= 21 for n <= 5 ...
        (3, 10), (3, 11), (5, 10), (5, 11),
        # ... and while 2r+1 <= 21 + 4**3 for 6 <= n <= 21
        (6, 42), (6, 43), (9, 42), (9, 43), (21, 42), (21, 43),
        # 2r+1 == n: the sample is the whole range
        (3, 1), (5, 2), (7, 3),
        # getrandbits on one whole 32-bit word (2r+1 = 2**32 - 1), then on several
        (6, 2**31 - 1), (6, 2**32 - 1), (6, 2**32), (4, 2**40 + 3), (9, 2**62 - 1),
        (6, 8), (9, 10**6),
    ],
)
def test_draw_replays_sample_and_randint(n, r):
    for seed in range(25):
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert points._draw(mine, n, r) == stdlib_draw(theirs, n, r)
            assert mine.getstate() == theirs.getstate()


# (seed, n, r) -> (xs, ys) of the first draw from random.Random(seed),
# computed with stdlib_draw on CPython 3.11: pins the sequence even if the
# stdlib's own algorithms change
DRAW_GOLDEN = [
    (0, 6, 8, [-8, -4, -1, 0, 4, 5], [4, 1, 7, 3, -2, 8]),
    (1, 6, 42, [-34, -27, -25, -10, 21, 30], [15, 18, 41, 6, -16, -30]),
    (2, 6, 43, [-36, -33, -32, -22, 3, 42], [-4, -11, 34, -16, 34, -39]),
    (3, 5, 10, [-6, -3, 1, 7, 8], [9, 5, 10, 8, -8]),
    (4, 5, 11, [-8, -4, -2, 1, 4], [-7, -9, -9, -11, 1]),
    (5, 9, 10**6,
     [-464293, -248097, 306319, 447971, 551679, 555640, 667641, 764776, 976461],
     [367409, 934255, 111574, -939172, 762337, -23519, 627303, 978362, -477699]),
    (6, 4, 2**40,
     [-939474182087, -743794043754, -459559560568, 306545389617],
     [-1001714621831, 1049143249572, -228484033193, -684265377431]),
]


@pytest.mark.parametrize("seed, n, r, xs, ys", DRAW_GOLDEN)
def test_draw_golden(seed, n, r, xs, ys):
    assert points._draw(random.Random(seed), n, r) == (xs, ys)
