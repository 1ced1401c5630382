"""Spans recorded from outside the program, and the per-layer metrics derived from them.

``install`` replaces public functions at the module attribute their callers
look up (``engine.ss_weight``, ``exactpoly.poly_gcd``, ...) with wrappers
that open a span around the call.  A span is ``[name, start, end, parent]``
with ``parent`` the index of the enclosing span, or -1.  Recursions
(``ss_weight``/``mixed_weight``) collapse into their outermost span and only
count the inner calls.  Spans stay in memory until the process writes them
out with ``Tracer.dump``.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# per-layer metric -> span names whose self times it sums
TIME_METRICS = {
    "engine.weight_s": ("engine.weight",),
    "engine.certify_s": ("engine.count", "engine.certify"),
    "engine.degree_check_s": ("engine.degree_check",),
    "engine.laurent_check_s": ("engine.laurent_check",),
    "exactpoly.gcd_s": ("exactpoly.gcd",),
    "exactpoly.laurent_s": ("exactpoly.laurent",),
    "typecomb.enumerate_s": ("typecomb.enumerate",),
    "typecomb.type_count_s": ("typecomb.type_count",),
    "fforacle.field_s": ("fforacle.field",),
    "fforacle.enum_s": ("fforacle.enum",),
    "fforacle.semisimple_s": ("fforacle.semisimple",),
    "fforacle.hom_scan_s": ("fforacle.hom_scan",),
    "fforacle.conj_scan_s": ("fforacle.conj_scan",),
    "fforacle.census_s": ("fforacle.census",),
    "groupdiv.closure_s": ("groupdiv.closure",),
    "groupdiv.frobenius_s": ("groupdiv.frobenius",),
    "groupdiv.subgroups_s": ("groupdiv.subgroups",),
    "groupdiv.sweep_s": ("groupdiv.sweep",),
    "groupdiv.hom_s": ("groupdiv.hom",),
    "cli.self_s": ("cli.main",),
}

# counters summed over processes
SUM_COUNTERS = (
    "engine.weight_calls",
    "engine.memo_entries",
    "exactpoly.gcd_calls",
    "typecomb.types",
    "fforacle.matrices",
    "fforacle.semisimple_tests",
    "fforacle.pair_tests",
    "groupdiv.elements",
    "groupdiv.subgroups",
    "groupdiv.coset_checks",
)
# computed ratios, maximum over processes
MAX_COUNTERS = ("fforacle.pairwise_budget_used", "groupdiv.sweep_budget_used")


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def call(self, name: str, fn, args, kwargs, collapse: bool = False):
        if collapse and self._open[name]:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open[name] += 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries; call before the program runs."""
    from monodromy import cli, engine, exactpoly, fforacle, groupdiv, typecomb

    def wrap(module, attr, name, before=None, after=None, collapse=False, materialize=False):
        fn = getattr(module, attr)
        if materialize:  # a generator does its work while consumed: run it inside the span
            inner = fn
            fn = lambda *a, **kw: list(inner(*a, **kw))  # noqa: E731

        @functools.wraps(getattr(module, attr))
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            result = tracer.call(name, fn, args, kwargs, collapse)
            if after is not None:
                after(result, *args, **kwargs)
            return iter(result) if materialize else result

        setattr(module, attr, wrapper)

    def memo_entries(result, n, k, cache=None):
        if cache is not None:
            tracer.count("engine.memo_entries", len(cache))

    seen_type_weights: set[int] = set()

    def types(result, n):
        if n not in seen_type_weights:
            seen_type_weights.add(n)
            tracer.count("typecomb.types", len(result))

    def matrices(result, *args, **kwargs):
        size = len(result)
        tracer.count("fforacle.matrices", size)
        tracer.count("fforacle.pair_tests", size * (size - 1) // 2)
        tracer.peak("fforacle.pairwise_budget_used", size * size / fforacle.PAIRWISE_BUDGET)

    def subgroups(result, table):
        tracer.count("groupdiv.subgroups", len(result))
        tracer.peak("groupdiv.sweep_budget_used", len(table) / groupdiv.SWEEP_GROUP_BUDGET)

    def counter(name):
        return lambda *args, **kwargs: tracer.count(name)

    def size_counter(name):
        return lambda result, *args, **kwargs: tracer.count(name, len(result))

    wrap(cli, "main", "cli.main")
    for attr in ("count_semisimple_tuples", "count_mixed_tuples", "count_conjugacy_classes"):
        wrap(engine, attr, "engine.count", after=memo_entries)
    for attr in ("ss_weight", "mixed_weight"):
        wrap(engine, attr, "engine.weight", before=counter("engine.weight_calls"), collapse=True)
    wrap(engine, "_certified_quotient", "engine.certify")
    wrap(engine, "check_degree_monic", "engine.degree_check")
    wrap(engine, "check_laurent_quotient", "engine.laurent_check")
    wrap(exactpoly, "poly_gcd", "exactpoly.gcd", before=counter("exactpoly.gcd_calls"))
    wrap(engine, "to_laurent", "exactpoly.laurent")
    for module in (engine, fforacle):
        wrap(module, "enumerate_types", "typecomb.enumerate", after=types)
    for module, attr in ((engine, "_type_count_at_power"), (engine, "count_monic_with_type"),
                         (typecomb, "count_monic_with_type")):
        wrap(module, attr, "typecomb.type_count")
    wrap(fforacle, "field_make", "fforacle.field")
    wrap(fforacle, "enumerate_invertible", "fforacle.enum", after=matrices, materialize=True)
    wrap(fforacle, "is_semisimple", "fforacle.semisimple", before=counter("fforacle.semisimple_tests"))
    wrap(fforacle, "brute_hom_count", "fforacle.hom_scan")
    wrap(fforacle, "brute_conj_count", "fforacle.conj_scan")
    wrap(fforacle, "poly_type_census", "fforacle.census")
    wrap(groupdiv, "load_corpus", "groupdiv.closure")
    wrap(groupdiv, "group_generate", "groupdiv.closure", after=size_counter("groupdiv.elements"))
    wrap(groupdiv, "frobenius_count", "groupdiv.frobenius")
    wrap(groupdiv, "enumerate_subgroups", "groupdiv.subgroups", after=subgroups)
    wrap(groupdiv, "coset_lemma_sweep", "groupdiv.sweep", after=size_counter("groupdiv.coset_checks"))
    for attr in ("divisibility_report", "hom_count_profinite_abelian"):
        wrap(groupdiv, attr, "groupdiv.hom")


# ---------------------------------------------------------------------------
# derivation


def self_times(spans: list) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), child_time in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time
    return totals


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_used", "overhead")):
        return "ratio"
    return "count"


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced processes of one pass.

    A layer the workload never enters reads 0: its spans and counters are
    absent, not estimated.
    """
    selfs: dict[str, float] = {}
    for dump in dumps:
        for name, value in self_times(dump["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + value
    metrics = {metric: sum(selfs.get(n, 0.0) for n in names) for metric, names in TIME_METRICS.items()}
    for name in SUM_COUNTERS:
        metrics[name] = sum(d["counters"].get(name, 0) for d in dumps)
    for name in MAX_COUNTERS:
        metrics[name] = max((d["counters"].get(name, 0) for d in dumps), default=0)
    return metrics
