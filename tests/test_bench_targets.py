"""The traced benchmark (polybench/) wraps polyom entry points by name and
reads result fields; a cleanup that drops one breaks it silently."""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "polybench"))

import spans  # noqa: E402

import polyom as pm  # noqa: E402
from polyom import combinat  # noqa: E402
from polyom.chirotope import records_of  # noqa: E402


def test_every_traced_target_resolves():
    for modname, attr, _ in spans.TARGETS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (modname, attr)


def test_enumeration_result_keeps_unimodal_count():
    res = pm.enumerate_chirotopes(5, 2)
    assert res.unimodal_count == res.count == 5


def test_benchmark_workloads_import_and_resolve():
    workloads = importlib.import_module("workloads")
    assert workloads._CLEAR_INDEX_TABLES
    for clear in workloads._CLEAR_INDEX_TABLES:
        assert callable(clear)
    for obj in (workloads.Chirotope.reorient, workloads.is_acyclic, workloads.signs_from_string):
        assert callable(obj)


def test_cocircuit_axioms_ignores_uniform_keyword():
    """The census workload still passes uniform=True and uniform=False;
    the C3 path is read off the vectors, so the keyword changes nothing."""
    rec = pm.enumerate_chirotopes(6, 2).strings()[1]
    vectors = pm.cocircuit_vectors(pm.Chirotope(6, 2, pm.signs_from_string(rec)))
    grid = pm.chirotope_of(pm.PointConfig([(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 3)]), 2)
    pair = (vectors == vectors[0]).all(1) | (vectors == -vectors[0]).all(1)
    flipped = vectors.copy()
    flipped[pair, 1] *= -1
    sets = [vectors, flipped, vectors[~pair], pm.cocircuit_vectors(grid)]
    verdicts = set()
    for M in sets:
        want = pm.check_cocircuit_axioms(M)
        assert pm.check_cocircuit_axioms(M, uniform=True) == want
        assert pm.check_cocircuit_axioms(M, uniform=False) == want
        verdicts.add(want.axiom or "PASS")
    assert verdicts == {"PASS", "C3"}


def test_catalog_keeps_the_contract_the_workloads_read(tmp_path):
    """workloads.py indexes and draws from `records`, encodes its items,
    takes len() and compares catalogs read back with those written."""
    result = pm.enumerate_chirotopes(6, 2)
    cat = pm.from_enumeration(result)
    assert type(cat.records) is tuple and all(type(rec) is str for rec in cat.records)
    assert cat.records == tuple(records_of(result.chars)) == tuple(result.strings())
    assert len(cat) == result.count == 74
    assert pm.Catalog(6, 2, cat.records) == cat == pm.Catalog(6, 2, result.chars)
    assert pm.Catalog(6, 2, cat.records[1:]) != cat
    tagged, _ = pm.realize_random(cat, 300, seed=1)
    assert tagged.realizable_count() > 0
    pm.write_catalog(tmp_path / "t.cat", tagged)
    back = pm.read_catalog(tmp_path / "t.cat")
    assert back == tagged and back != cat and back.records == cat.records


def test_realized_witness_equals_its_points_as_fractions(tmp_path):
    """The realize workload compares a tagged catalog read back with the
    one realize_random returned (`back != self.catalog`), so a witness
    must equal, and hash like, the same points spelled as Fractions,
    whichever way it was built."""
    tagged, _ = pm.realize_random(pm.from_enumeration(pm.enumerate_chirotopes(6, 2)), 300, seed=1)
    pm.write_catalog(tmp_path / "t.cat", tagged)
    back = pm.read_catalog(tmp_path / "t.cat")
    for wit, read in zip(tagged.witnesses, back.witnesses):
        if wit is None:
            assert read is None
            continue
        fractions = pm.PointConfig([(Fraction(x), Fraction(y)) for x, y in wit.points])
        assert wit == fractions == read
        assert hash(wit) == hash(fractions) == hash(read) == hash(wit.points)


def test_warmed_tables_serve_the_checks_the_census_times():
    """The census warms its index tables before its timed sections; a
    check that reads an exchange table the harness did not warm builds
    it inside one.  lru_cache keys on the argument pattern, so a uniform
    record and a map with zeros must read the entry that
    warm_index_tables makes."""
    workloads = importlib.import_module("workloads")
    record = pm.Chirotope(8, 4, pm.signs_from_string(pm.enumerate_chirotopes(8, 4).strings()[100]))
    grid = pm.chirotope_of(pm.PointConfig([(0, 0), (1, 1), (2, 2), (3, 3), (4, 1), (5, 3)]), 2)
    assert record.is_uniform() and not grid.is_uniform()
    workloads.clear_index_tables()
    workloads.warm_index_tables([(8, 4), (6, 2)])
    misses = combinat.exchange_table.cache_info().misses
    assert pm.check_degree_k(record).passed
    pm.check_degree_k(grid)
    assert combinat.exchange_table.cache_info().misses == misses
