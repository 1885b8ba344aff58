import itertools
from math import comb

import numpy as np
import pytest

import polyom as pm
from polyom.chirotope import Chirotope, signs_from_string


def cubic_config():
    return pm.PointConfig([(0, 0), (1, 1), (2, 8), (3, 27)])


def test_value_alternation():
    chi = pm.chirotope_of(cubic_config(), 2)
    assert chi.value((1, 2, 3, 4)) == 1
    assert chi.value((2, 1, 3, 4)) == -1
    # reversing four arguments is an even permutation
    assert chi.value((4, 3, 2, 1)) == 1
    assert chi.value((2, 2, 3, 4)) == 0


def test_value_validates():
    chi = pm.chirotope_of(cubic_config(), 2)
    with pytest.raises(pm.InputError):
        chi.value((1, 2, 3))
    with pytest.raises(pm.InputError):
        chi.value((0, 1, 2, 3))


def test_constructor_validates():
    with pytest.raises(pm.InputError):
        Chirotope(4, 2, [1, 1])
    with pytest.raises(pm.InputError):
        Chirotope(4, 2, [2])
    with pytest.raises(pm.InputError):
        Chirotope(3, 2, [])
    with pytest.raises(pm.InputError):
        Chirotope(4, 0, [1])


def test_wrong_length_names_the_count_up_to_two_to_the_63():
    # C(3810779, 3) <= 2**63 < C(3810780, 3); C(30000, 10002) is never computed
    for n, k, count in ((5, 1, 10), (3810779, 1, comb(3810779, 3)),
                        (3810780, 1, f"more than {2**63}"), (30000, 10000, f"more than {2**63}")):
        with pytest.raises(pm.InputError) as info:
            Chirotope(n, k, [1])
        assert str(info.value) == f"expected {count} signs for n={n} k={k}, got 1"


def test_constructor_rejects_values_outside_int8():
    for bad in ([300], [-129], [10**30], [float("nan")], ["+"]):
        with pytest.raises(pm.InputError, match="signs must be -1, 0 or"):
            Chirotope(4, 2, bad)
    signs = np.array([1, -1, 1, 1, -1], np.int8)
    chi = Chirotope(5, 2, signs)
    signs[0] = -1
    assert chi.sign_string() == "+-++-"


def test_constructor_rejects_fractional_signs():
    from fractions import Fraction

    for n, bad in (
        (4, [0.5]),
        (4, [-0.5]),
        (5, [1, -0.9, 1, 1, 1]),
        (5, np.array([1, 1, 1, 1, 0.999])),
        (4, [Fraction(1, 2)]),
        (4, [float("inf")]),
    ):
        with pytest.raises(pm.InputError, match="signs must be -1, 0 or"):
            Chirotope(n, 2, bad)
    assert Chirotope(4, 2, [1.0]).sign_string() == "+"
    assert Chirotope(5, 2, [1.0, -1.0, 0.0, 1, -1]).sign_string() == "+-0+-"
    assert Chirotope(5, 2, np.array([-1.0, 0.0, 1.0, 1.0, 1.0])).sign_string() == "-0+++"
    assert Chirotope(4, 2, [Fraction(-1)]).sign_string() == "-"


def test_signs_are_immutable():
    chi = Chirotope(4, 2, [1])
    with pytest.raises(ValueError):
        chi.signs[0] = 0


def test_canonicalize():
    chi = Chirotope(5, 2, [-1, 1, 1, -1, 1])
    canon = chi.canonicalize()
    assert int(canon.signs[0]) == 1
    assert canon == chi.negated()
    assert canon.canonicalize() == canon
    assert chi.negated().canonicalize() == chi.canonicalize()
    lead_zero = Chirotope(5, 2, [0, -1, 1, -1, 1])
    assert int(lead_zero.canonicalize().signs[1]) == 1
    with pytest.raises(pm.InputError):
        Chirotope(4, 2, [0]).canonicalize()


def test_reorient_identity_and_involution():
    chi = pm.chirotope_of(pm.random_config(6, 2, seed=5), 2)
    assert chi.reorient([]) == chi
    assert chi.reorient([2, 5]).reorient([2, 5]) == chi


def test_reorient_full_ground_set_parity():
    chi = pm.chirotope_of(pm.random_config(6, 2, seed=6), 2)
    flipped = chi.reorient(range(1, 7))
    # |complement| = n - (k+2) = 2 for every tuple: no net flip
    assert flipped == chi
    chi3 = pm.chirotope_of(pm.random_config(7, 2, seed=6), 2)
    assert chi3.reorient(range(1, 8)) == chi3.negated()


def test_reorient_single_element_flips_tuples_avoiding_it():
    chi = pm.chirotope_of(pm.random_config(5, 2, seed=9), 2)
    out = chi.reorient([5])
    for i, t in enumerate(itertools.combinations(range(1, 6), 4)):
        if 5 in t:
            assert out.signs[i] == chi.signs[i]
        else:
            assert out.signs[i] == -chi.signs[i]


def test_reorient_composes_by_symmetric_difference():
    chi = pm.chirotope_of(pm.random_config(7, 3, seed=4), 3)
    a, b = {1, 3, 6}, {3, 4}
    assert chi.reorient(a).reorient(b) == chi.reorient(a ^ b)


def test_reorient_validates():
    chi = Chirotope(4, 2, [1])
    with pytest.raises(pm.InputError):
        chi.reorient([0])


def test_cocircuits_minimal_case():
    chi = pm.chirotope_of(cubic_config(), 2)
    vecs = pm.cocircuit_vectors(chi)
    assert vecs.shape == (8, 4)
    assert ((vecs == 0).sum(axis=1) == 3).all()
    rows = {r.tobytes() for r in vecs}
    assert {(-r).tobytes() for r in vecs} == rows


def test_cocircuits_uniform_zero_count():
    for (n, k, seed) in [(6, 2, 0), (7, 3, 1), (8, 4, 2)]:
        chi = pm.chirotope_of(pm.random_config(n, k, seed=seed), k)
        vecs = pm.cocircuit_vectors(chi)
        assert len(vecs) == 2 * len(list(itertools.combinations(range(n), k + 1)))
        assert ((vecs == 0).sum(axis=1) == k + 1).all()


def test_cocircuits_of_reorientation_are_column_flips():
    chi = pm.chirotope_of(pm.random_config(6, 2, seed=12), 2)
    a = [2, 3, 6]
    flip = np.array([-1 if e + 1 in a else 1 for e in range(6)], np.int8)
    direct = {r.tobytes() for r in pm.cocircuit_vectors(chi.reorient(a))}
    flipped = {(r * flip).astype(np.int8).tobytes() for r in pm.cocircuit_vectors(chi)}
    assert direct == flipped


def test_text_roundtrip():
    chi = pm.chirotope_of(pm.random_config(6, 2, seed=3), 2)
    text = pm.to_text(chi)
    assert text.endswith("\n") and text.count("\n") == 2
    assert pm.from_text(text) == chi


def test_text_parse_rejects_malformed():
    with pytest.raises(pm.InputError):
        pm.from_text("n=4 k=2\n")
    with pytest.raises(pm.InputError):
        pm.from_text("n=4\n+\n")
    with pytest.raises(pm.InputError):
        pm.from_text("n=4 k=2\n+x\n")
    with pytest.raises(pm.InputError):
        pm.from_text("n=4 k=2\n++\n")  # wrong sign count


def test_signs_from_string():
    arr = signs_from_string("+-0")
    assert arr.tolist() == [1, -1, 0]
    with pytest.raises(pm.InputError):
        signs_from_string("+*")


def test_restrict_matches_subconfiguration():
    cfg = pm.random_config(7, 2, seed=8)
    chi = pm.chirotope_of(cfg, 2)
    sub = pm.PointConfig(cfg.points[:6])
    assert chi.restrict(range(1, 7)) == pm.chirotope_of(sub, 2)
    with pytest.raises(pm.InputError):
        chi.restrict([1, 2])
