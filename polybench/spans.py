"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces public entry points of polyom's modules with
wrappers that record one span per call: name, start, end, parent span,
the benchmark section that was running, and a few counts read from the
call's arguments or result.  Spans stay in memory and are written out
when the run ends.  Nothing under src/ is modified; a wrapper is bound
in every polyom module that imported the original by name, so calls
made inside the package are traced too.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

NAME, START, END, PARENT, SECTION, ATTRS = range(6)


def _attrs_enumeration(args, kwargs, out):
    return {"n": out.n, "k": out.k, "unimodal": out.unimodal_count, "rows": out.count}


def _attrs_filter(args, kwargs, out):
    return {"rows_in": len(out), "rejected": int((~out).sum())}


def _attrs_format(args, kwargs, out):
    return {"bytes": len(out), "tagged": args[0].tagged}


def _attrs_parse(args, kwargs, out):
    return {"bytes": len(args[0]), "tagged": out.tagged}


def _attrs_chirotope_of(args, kwargs, out):
    return {"n": out.n, "k": out.k}


def _attrs_realize(args, kwargs, out):
    return {"new": out[1].new_witnesses}


# (module, attribute, attrs function) for every traced entry point.
# cli is not traced: it only dispatches to these.  render is not traced:
# no workload calls it.
TARGETS = (
    ("polyom.points", "chirotope_of", _attrs_chirotope_of),
    ("polyom.points", "random_config", None),
    ("polyom.chirotope", "Chirotope.__init__", None),
    ("polyom.chirotope", "cocircuit_vectors", None),
    ("polyom.combinat", "window_index", None),
    ("polyom.combinat", "exchange_table", None),
    ("polyom.enumeration", "enumerate_chirotopes", _attrs_enumeration),
    ("polyom.enumeration", "enumerate_sharded", _attrs_enumeration),
    ("polyom.enumeration", "partition_search", _attrs_enumeration),
    ("polyom.enumeration", "exchange_filter_mask", _attrs_filter),
    ("polyom.catalog", "format_catalog", _attrs_format),
    ("polyom.catalog", "parse_catalog", _attrs_parse),
    ("polyom.realizability", "realize_random", _attrs_realize),
    ("polyom.axioms", "check_degree_k", None),
    ("polyom.axioms", "check_cocircuit_axioms", None),
    ("polyom.axioms", "_c3_general", None),
    ("polyom.axioms", "las_vergnas_scan", None),
)


class NullTracer:
    """Stands in for the tracer in untraced runs: sections cost nothing."""

    section = ""


class Tracer:
    def __init__(self):
        self.spans = []
        self.section = ""
        self._stack = []

    def _wrap(self, name, fn, attrs):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.section, None]
            stack.append(len(spans))
            spans.append(rec)
            misses = cache_info().misses if cache_info else 0
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec[ATTRS] = {"error": True}
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if cache_info:
                rec[ATTRS] = {"cold": cache_info().misses > misses}
            elif attrs:
                rec[ATTRS] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self, callers=()):
        """Wrap every target wherever polyom's modules or the given
        caller modules bound it."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "polyom"]
        modules += list(callers)
        for modname, attr, attrs in TARGETS:
            short = modname.rsplit(".", 1)[1] + "." + attr.split(".")[-1]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[modname], cls_name)
                setattr(cls, meth, self._wrap(short, getattr(cls, meth), attrs))
                continue
            original = getattr(sys.modules[modname], attr)
            traced = self._wrap(short, original, attrs)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

    def write(self, path, extra):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "section", "attrs"],
                 "spans": self.spans, **extra},
                fh,
            )


# ---------------------------------------------------------------- metrics


def _dur(s):
    return (s[END] - s[START]) / 1e9


def _ratio(num, den):
    return num / den if den else 0.0


def round_metrics(spans, lo, hi):
    """Per-layer metrics from the spans spans[lo:hi] of one round."""
    child = {}
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + _dur(s)

    def self_time(i):
        return _dur(spans[i]) - child.get(i, 0.0)

    by_name = {}
    for i in range(lo, hi):
        by_name.setdefault(spans[i][NAME], []).append(i)

    def pick(name, section=None, where=None):
        out = []
        for i in by_name.get(name, ()):
            s = spans[i]
            if section and not s[SECTION].startswith(section):
                continue
            if where and not where(s):
                continue
            out.append(i)
        return out

    def mean_ms(idx):
        return _ratio(sum(_dur(spans[i]) for i in idx) * 1e3, len(idx))

    enum_sec = "enumerate."
    cold = lambda s: s[ATTRS] and s[ATTRS]["cold"]
    unsharded = pick("enumeration.enumerate_chirotopes", enum_sec + "unsharded")
    sharded = pick("enumeration.enumerate_sharded", enum_sec + "sharded")
    filters = pick("enumeration.exchange_filter_mask", enum_sec)
    shards = {}
    for i in pick("enumeration.partition_search", enum_sec):
        shards.setdefault(spans[i][PARENT], []).append(spans[i][ATTRS]["rows"])
    m = {}
    m["combinat.window_index_ms"] = mean_ms(pick("combinat.window_index", enum_sec, cold))
    m["combinat.exchange_table_ms"] = mean_ms(pick("combinat.exchange_table", enum_sec, cold))
    m["enumeration.search_rows_per_s"] = _ratio(
        sum(spans[i][ATTRS]["unimodal"] for i in unsharded), sum(self_time(i) for i in unsharded)
    )
    m["enumeration.filter_rows_per_s"] = _ratio(
        sum(spans[i][ATTRS]["rows_in"] for i in filters), sum(self_time(i) for i in filters)
    )
    m["enumeration.filter_rows_in"] = sum(spans[i][ATTRS]["rows_in"] for i in filters)
    m["enumeration.filter_rejected"] = sum(spans[i][ATTRS]["rejected"] for i in filters)
    m["enumeration.shard_overhead_s"] = sum(_dur(spans[i]) for i in sharded) - sum(
        _dur(spans[i]) for i in unsharded
    )
    m["enumeration.shard_max_over_mean"] = _ratio(
        sum(max(rows) for rows in shards.values()),
        sum(statistics.fmean(rows) for rows in shards.values()),
    )
    for key, tagged in (("", False), ("tagged_", True)):
        for op, name in (("format", "catalog.format_catalog"), ("parse", "catalog.parse_catalog")):
            idx = pick(name, where=lambda s: s[ATTRS]["tagged"] == tagged)
            m[f"catalog.{key}{op}_mb_per_s"] = _ratio(
                sum(spans[i][ATTRS]["bytes"] for i in idx) / 1e6, sum(_dur(spans[i]) for i in idx)
            )
    trials = pick("points.random_config", "realize.")
    trial_set = set(trials)
    draws = [i for i in pick("points.chirotope_of", "realize.") if spans[i][PARENT] in trial_set]
    for n, k in ((6, 2), (9, 5)):
        idx = [i for i in draws if (spans[i][ATTRS]["n"], spans[i][ATTRS]["k"]) == (n, k)]
        m[f"points.chirotope_of_us.{n}_{k}"] = mean_ms(idx) * 1e3
    m["points.draws_per_trial"] = _ratio(len(draws), len(trials))
    m["chirotope.init_us"] = mean_ms(pick("chirotope.__init__", ("realize.", "census."))) * 1e3
    m["chirotope.cocircuit_vectors_ms"] = mean_ms(pick("chirotope.cocircuit_vectors", "census."))
    realize = pick("realizability.realize_random", "realize.")
    m["realizability.new_witnesses"] = sum(spans[i][ATTRS]["new"] for i in realize)
    failed = sum(1 for i in trials if spans[i][ATTRS])
    m["realizability.degenerate_draws"] = len(draws) - (len(trials) - failed)
    m["axioms.check_degree_k_ms"] = mean_ms(pick("axioms.check_degree_k", "census.uniform"))
    m["axioms.cocircuit_axioms_ms"] = mean_ms(pick("axioms.check_cocircuit_axioms", "census.uniform"))
    m["axioms.c3_general_ms"] = mean_ms(pick("axioms._c3_general", "census.degenerate"))
    m["axioms.scan_ms"] = mean_ms(pick("axioms.las_vergnas_scan", "census."))
    return m


UNITS = {
    "combinat.window_index_ms": "ms",
    "combinat.exchange_table_ms": "ms",
    "enumeration.search_rows_per_s": "1/s",
    "enumeration.filter_rows_per_s": "1/s",
    "enumeration.filter_rows_in": "count",
    "enumeration.filter_rejected": "count",
    "enumeration.shard_overhead_s": "s",
    "enumeration.shard_max_over_mean": "ratio",
    "catalog.format_mb_per_s": "MB/s",
    "catalog.parse_mb_per_s": "MB/s",
    "catalog.tagged_format_mb_per_s": "MB/s",
    "catalog.tagged_parse_mb_per_s": "MB/s",
    "points.chirotope_of_us.6_2": "us",
    "points.chirotope_of_us.9_5": "us",
    "points.draws_per_trial": "ratio",
    "chirotope.init_us": "us",
    "chirotope.cocircuit_vectors_ms": "ms",
    "realizability.new_witnesses": "count",
    "realizability.degenerate_draws": "count",
    "axioms.check_degree_k_ms": "ms",
    "axioms.cocircuit_axioms_ms": "ms",
    "axioms.c3_general_ms": "ms",
    "axioms.scan_ms": "ms",
}
