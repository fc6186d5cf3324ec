"""In-memory spans around calls into the library, and the metrics derived from them.

A span is (name, parent, start, end, attrs): `parent` is the index of the
enclosing span in `Tracer.spans`, or None.  The benchmark records one
`bench.task` span per function it feeds to a route and one `bench.setup`
span for building the shared structures; every library call made inside
them is a child span named `<module>.<function>`.  Spans stay in memory
until the run ends and are written out once.
"""

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.parent = None

    def begin(self, name: str, attrs=None) -> int:
        """Open a span that later calls nest under; returns its index."""
        i = len(self.spans)
        self.spans.append((name, self.parent, perf_counter(), None, attrs))
        self.parent = i
        return i

    def end(self, i: int) -> None:
        name, parent, start, _, attrs = self.spans[i]
        self.spans[i] = (name, parent, start, perf_counter(), attrs)
        self.parent = parent

    def wrap(self, name: str, fn):
        """`fn` with a span per call."""
        spans = self.spans

        def call(*args):
            start = perf_counter()
            result = fn(*args)
            end = perf_counter()
            spans.append((name, self.parent, start, end, None))
            return result

        return call

    def write(self, path, record: dict) -> None:
        """Write the run record and all spans, times in microseconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            [name, parent, round((s - origin) * 1e6, 3), round((e - origin) * 1e6, 3), attrs]
            for name, parent, s, e, attrs in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump({"run": record, "span_fields": ["name", "parent", "start_us", "end_us", "attrs"], "spans": rows}, f)


def traced_library(lib: SimpleNamespace, tr: Tracer, stats_type) -> SimpleNamespace:
    """The same calls as `lib`, each recorded as a span.

    The searches that accept a `SearchStats` get a fresh one per call, and
    its counters plus the layer where the search stopped become the span's
    attrs.  Creating the stats object happens outside the span.
    """

    def with_stats(name, fn, fields):
        spans = tr.spans

        def call(tt, structure):
            stats = stats_type()
            start = perf_counter()
            result = fn(tt, structure, stats)
            end = perf_counter()
            stop = result.weight if hasattr(result, "weight") else result
            attrs = {f: getattr(stats, f) for f in fields}
            attrs["stop_layer"] = stop
            spans.append((name, tr.parent, start, end, attrs))
            return result

        return call

    return SimpleNamespace(
        from_raw=tr.wrap("search.from_raw", lib.from_raw),
        wlo_search_max=with_stats("search.wlo_search_max", lib.wlo_search_max, ("probes",)),
        wlo_search_min=with_stats("search.wlo_search_min", lib.wlo_search_min, ("probes",)),
        bitwise_search_max=with_stats("search.bitwise_search_max", lib.bitwise_search_max, ("rows_tested", "word_ops")),
        layer_support=tr.wrap("search.layer_support", lib.layer_support),
        exhaustive_max=tr.wrap("search.exhaustive_max", lib.exhaustive_max),
        mobius_transform=tr.wrap("search.mobius_transform", lib.mobius_transform),
        algebraic_degree=tr.wrap("search.algebraic_degree", lib.algebraic_degree),
        cached_weight_table=tr.wrap("cube.cached_weight_table", lib.cached_weight_table),
        wlo_bucket=tr.wrap("wlo.wlo_bucket", lib.wlo_bucket),
        masks_recursive=tr.wrap("masks.masks_recursive", lib.masks_recursive),
    )


def summarize(spans: list) -> dict:
    """Busy time per span name, self time of tasks, counter means, stop-layer histograms.

    Busy time of a name is the summed duration of its spans.  Self time of
    a span is its duration minus the durations of its direct children.
    Returns also the busy time per layer within the tasks of each route.
    """
    busy = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)
    counters = defaultdict(lambda: defaultdict(int))
    histograms = defaultdict(Counter)
    by_route = defaultdict(lambda: defaultdict(float))
    for name, parent, start, end, attrs in spans:
        dur = end - start
        busy[name] += dur
        calls[name] += 1
        if parent is not None:
            child_time[parent] += dur
            p_name, _, _, _, p_attrs = spans[parent]
            if p_name == "bench.task":
                by_route[p_attrs["route"]][name] += dur
        if attrs and name != "bench.task":
            for key, value in attrs.items():
                if key == "stop_layer":
                    if value is not None:
                        histograms[name][value] += 1
                else:
                    counters[name][key] += value
    self_time = defaultdict(float)
    for i, (name, _, start, end, attrs) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]
        if name == "bench.task":
            by_route[attrs["route"]]["bench.task.self"] += (end - start) - child_time[i]
    return {
        "busy_s": dict(busy),
        "self_s": dict(self_time),
        "calls": dict(calls),
        "counter_means": {name: {k: v / calls[name] for k, v in c.items()} for name, c in counters.items()},
        "stop_layer_mean": {name: sum(k * c for k, c in h.items()) / sum(h.values()) for name, h in histograms.items()},
        "stop_layer_hist": {name: dict(sorted(h.items())) for name, h in histograms.items()},
        "busy_by_route_s": {route: dict(v) for route, v in by_route.items()},
    }
