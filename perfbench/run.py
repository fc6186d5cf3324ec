"""Benchmark of the wlocube library: search routes, degree and set-up.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense-n10 --seed 1 --seconds 10 --trace 0

It generates seeded truth tables (families.py), computes every
expected answer with numpy (reference.py), then feeds the tables to the
library's public functions from one thread: a closed loop with one caller,
each call issued after the previous one returned.  Routes are interleaved
in fixed-size chunks, one chunk per route per round, and each route's
throughput is the median over its chunks of the chunk's rate, scaled to
nominal machine speed by the probe in calibrate.py.  Every answer is
checked.

--trace 0 prints the end-to-end metrics; --trace 1 replays a fixed number
of rounds with a span around every library call and prints the per-layer
metrics, writing the spans to perfbench/out/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it is the run record.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import calibrate
import families
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

ROUTES = ("wlo_max", "wlo_min", "bitwise_max", "exhaustive_max", "degree")
ANSWER = {"wlo_max": "max", "wlo_min": "min", "bitwise_max": "max", "exhaustive_max": "max", "degree": "degree"}


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    pool: int  # distinct tables generated per seed; routes cycle through them
    chunk: dict  # tables per timed chunk, per route: 50-100 ms each at the seed commit
    # rounds replayed per --seconds in a traced run; low on dense-n10, where
    # one round already records about 35k spans
    trace_rounds_per_s: float


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "dense-n10": Workload(
        "dense", 10, 4096,
        {"wlo_max": 4000, "wlo_min": 4000, "bitwise_max": 2500, "exhaustive_max": 250, "degree": 1000},
        0.25,
    ),
    "sparse-n16": Workload(
        "sparse", 16, 1024,
        {"wlo_max": 24, "wlo_min": 32, "bitwise_max": 48, "exhaustive_max": 6, "degree": 24},
        1.0,
    ),
    "lowdeg-n18": Workload(
        "lowdeg", 18, 128,
        {"wlo_max": 2, "wlo_min": 2, "bitwise_max": 2, "exhaustive_max": 1, "degree": 1},
        2.0,
    ),
}

SETUP_REPEATS = 7

# Set-up in a fresh interpreter, so that cached_weight_table's lru_cache is
# cold.  The loop kernel of the speed probe runs before (twice: the first
# call warms it) and after.
SETUP_CHILD = """
import json, sys
from time import perf_counter
sys.path[:0] = sys.argv[1:3]
import calibrate
from wlocube.cube import cached_weight_table
from wlocube.masks import masks_recursive
from wlocube.wlo import wlo_bucket
n = int(sys.argv[3])
calibrate.slowdown(("loop",))
before = calibrate.slowdown(("loop",))
t0 = perf_counter()
table = cached_weight_table(n)
t1 = perf_counter()
seq = wlo_bucket(n)
t2 = perf_counter()
masks = masks_recursive(n)
t3 = perf_counter()
after = calibrate.slowdown(("loop",))
print(json.dumps({"steps_s": [t1 - t0, t2 - t1, t3 - t2], "slowdown": (before * after) ** 0.5}))
"""


def import_library() -> SimpleNamespace:
    """The public functions the benchmark calls, from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    try:
        import wlocube
        from wlocube import cube, masks, search, wlo
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import wlocube from {SRC}: {exc}")
    if not Path(wlocube.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: wlocube was imported from {wlocube.__file__}, not from {SRC}")
    return SimpleNamespace(
        from_raw=search.TruthTable.from_raw,
        wlo_search_max=search.wlo_search_max,
        wlo_search_min=search.wlo_search_min,
        bitwise_search_max=search.bitwise_search_max,
        layer_support=search.layer_support,
        exhaustive_max=search.exhaustive_max,
        mobius_transform=search.mobius_transform,
        algebraic_degree=search.algebraic_degree,
        cached_weight_table=cube.cached_weight_table,
        wlo_bucket=wlo.wlo_bucket,
        masks_recursive=masks.masks_recursive,
        SearchStats=search.SearchStats,
    )


def set_up(lib: SimpleNamespace, n: int):
    lib.cached_weight_table(n)
    return lib.wlo_bucket(n), lib.masks_recursive(n)


def make_routes(lib: SimpleNamespace, n: int, seq, ms) -> dict:
    """One function per route: raw table bytes in, the route's answer out."""
    from_raw = lib.from_raw
    wlo_search_max, wlo_search_min = lib.wlo_search_max, lib.wlo_search_min
    bitwise_search_max, layer_support = lib.bitwise_search_max, lib.layer_support
    exhaustive_max = lib.exhaustive_max
    mobius_transform, algebraic_degree = lib.mobius_transform, lib.algebraic_degree

    def wlo_max(data):
        hit = wlo_search_max(from_raw(n, data), seq)
        return (hit.serial, hit.weight) if hit else None

    def wlo_min(data):
        hit = wlo_search_min(from_raw(n, data), seq)
        return (hit.serial, hit.weight) if hit else None

    def bitwise_max(data):
        tt = from_raw(n, data)
        row = bitwise_search_max(tt, ms)
        if row is None:
            return None
        # ascending serials, so the last is the greatest: the WLO scan's answer
        return layer_support(tt, ms[row])[-1], row

    def exhaustive(data):
        hit = exhaustive_max(from_raw(n, data))
        return (hit.serial, hit.weight) if hit else None

    def degree(data):
        return algebraic_degree(mobius_transform(from_raw(n, data)), ms)

    return {"wlo_max": wlo_max, "wlo_min": wlo_min, "bitwise_max": bitwise_max, "exhaustive_max": exhaustive, "degree": degree}


def run_chunk(fn, batch: list, tracer=None, route=None) -> tuple[list, float]:
    """Answers (or the exception raised) for each table, and the chunk's wall time."""
    out = []
    append = out.append
    if tracer is None:
        start = perf_counter()
        for data in batch:
            try:
                append(fn(data))
            except Exception as exc:
                append(exc)
        return out, perf_counter() - start
    attrs = {"route": route}
    start = perf_counter()
    for data in batch:
        task = tracer.begin("bench.task", attrs)
        try:
            append(fn(data))
        except Exception as exc:
            append(exc)
        tracer.end(task)
    return out, perf_counter() - start


def count_failures(out: list, expected: list, route: str, quiet: bool = False) -> int:
    if out == expected:
        return 0
    bad = [(i, got, want) for i, (got, want) in enumerate(zip(out, expected)) if got != want]
    i, got, want = bad[0]
    if not quiet:
        print(f"perfbench: {route}: {len(bad)} wrong answers in a chunk, e.g. item {i}: got {got!r}, want {want!r}", file=sys.stderr)
    return len(bad)


def reference_self_test(tables: list, expected: dict) -> dict:
    """Plant a wrong answer and an exception and check that both are counted."""
    want = expected["max"][:3]
    planted = [(want[0][0] ^ 1, want[0][1]), RuntimeError("planted"), want[2]]

    def liar(_data, answers=iter(planted)):
        answer = next(answers)
        if isinstance(answer, Exception):
            raise answer
        return answer

    def honest(_data, answers=iter(want)):
        return next(answers)

    counted = count_failures(run_chunk(liar, tables[:3])[0], want, "self-test", quiet=True)
    clean = count_failures(run_chunk(honest, tables[:3])[0], want, "self-test", quiet=True)
    if counted != 2 or clean != 0:
        raise SystemExit(f"perfbench: reference self-test failed: counted {counted} of 2 planted failures, {clean} on honest answers")
    return {"planted": 2, "counted": counted, "honest_counted": clean}


class Feeder:
    """Per-route cursor cycling through the pool, with the expected answers."""

    def __init__(self, w: Workload, tables: list, expected: dict):
        self.w, self.tables, self.expected = w, tables, expected
        self.cursor = dict.fromkeys(ROUTES, 0)

    def next_chunk(self, route: str) -> tuple[list, list]:
        start, size, pool = self.cursor[route], self.w.chunk[route], self.w.pool
        self.cursor[route] = (start + size) % pool
        idx = [(start + j) % pool for j in range(size)]
        answers = self.expected[ANSWER[route]]
        return [self.tables[i] for i in idx], [answers[i] for i in idx]


def measure_untraced(routes: dict, feeder: Feeder, seconds: float, tally: dict) -> tuple[dict, dict, list]:
    """Rounds of one chunk per route until `seconds` have passed.

    Returns per route the functions/s of each chunk, raw and scaled to the
    nominal machine speed by the geometric mean of the probes taken just
    before and just after the chunk, and the probe readings.
    """
    raw = {r: [] for r in ROUTES}
    scaled = {r: [] for r in ROUTES}
    warm_up(routes, feeder, tally)
    slowdowns = [calibrate.slowdown()]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for route in ROUTES:
            batch, want = feeder.next_chunk(route)
            out, dt = run_chunk(routes[route], batch)
            slowdowns.append(calibrate.slowdown())
            tally_chunk(tally, route, out, want)
            raw[route].append(len(batch) / dt)
            scaled[route].append(len(batch) / dt * math.sqrt(slowdowns[-2] * slowdowns[-1]))
    return raw, scaled, slowdowns


def measure_traced(routes: dict, traced_routes: dict, feeder: Feeder, rounds: int, tracer, tally: dict) -> dict:
    """Each chunk of `rounds` rounds runs untraced, then traced; wall times of both."""
    warm_up(routes, feeder, tally)
    wall = {"untraced": 0.0, "traced": 0.0}
    for _ in range(rounds):
        for route in ROUTES:
            batch, want = feeder.next_chunk(route)
            out, dt = run_chunk(routes[route], batch)
            tally_chunk(tally, route, out, want)
            wall["untraced"] += dt
            out, dt = run_chunk(traced_routes[route], batch, tracer, route)
            tally_chunk(tally, route, out, want)
            wall["traced"] += dt
    return wall


def warm_up(routes: dict, feeder: Feeder, tally: dict) -> None:
    """One round, checked but not timed."""
    for route in ROUTES:
        batch, want = feeder.next_chunk(route)
        tally_chunk(tally, route, run_chunk(routes[route], batch)[0], want)


def tally_chunk(tally: dict, route: str, out: list, want: list) -> None:
    tally["ops"][route] += len(out)
    tally["ops_failed"][route] += count_failures(out, want, route)


def measure_setup(n: int) -> tuple[float, dict]:
    """Median set-up time over fresh interpreters, at nominal machine speed, and raw details."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), str(n)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    names = ("cube.cached_weight_table", "wlo.wlo_bucket", "masks.masks_recursive")
    details = {
        "raw_s": statistics.median(sum(r["steps_s"]) for r in runs),
        "steps_raw_s": {name: statistics.median(r["steps_s"][i] for r in runs) for i, name in enumerate(names)},
        "slowdown": statistics.median(r["slowdown"] for r in runs),
    }
    return statistics.median(sum(r["steps_s"]) / r["slowdown"] for r in runs), details


def git_commit():
    """HEAD of the checkout's own .git, read as files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def per_layer_metrics(summary: dict, wall: dict) -> dict:
    busy, means = summary["busy_s"], summary["counter_means"]
    metrics = {}
    for name in (
        "search.from_raw", "search.wlo_search_max", "search.wlo_search_min", "search.bitwise_search_max",
        "search.layer_support", "search.exhaustive_max", "search.mobius_transform", "search.algebraic_degree",
        "cube.cached_weight_table", "wlo.wlo_bucket", "masks.masks_recursive",
    ):
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    # a route whose every call raised has no counters; its failures are counted elsewhere
    for name in ("search.wlo_search_max", "search.wlo_search_min"):
        metrics[f"{name}.probes"] = (means.get(name, {}).get("probes", 0.0), "count/call")
        metrics[f"{name}.stop_layer_mean"] = (summary["stop_layer_mean"].get(name, 0.0), "layer")
    bitwise = means.get("search.bitwise_search_max", {})
    metrics["search.bitwise_search_max.rows_tested"] = (bitwise.get("rows_tested", 0.0), "count/call")
    metrics["search.bitwise_search_max.word_ops"] = (bitwise.get("word_ops", 0.0), "count/call")
    metrics["bench.task.self_s"] = (summary["self_s"].get("bench.task", 0.0), "s")
    metrics["bench.tracing_overhead"] = (wall["traced"] / wall["untraced"], "ratio")
    return metrics


def run_untraced(lib, w: Workload, feeder: Feeder, seconds: float, tally: dict, record: dict) -> dict:
    """End-to-end metrics: throughput per route, set-up time and peak memory."""
    setup_s, setup_details = measure_setup(w.n)
    seq, ms = set_up(lib, w.n)
    raw, scaled, slowdowns = measure_untraced(make_routes(lib, w.n, seq, ms), feeder, seconds, tally)
    metrics = {f"{route}_fps": (statistics.median(scaled[route]), "functions/s") for route in ROUTES}
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    record.update({
        "chunks": {r: len(v) for r, v in raw.items()},
        "raw_fps": {r: statistics.median(v) for r, v in raw.items()},
        "slowdown": {"median": statistics.median(slowdowns), "min": min(slowdowns), "max": max(slowdowns)},
        "setup": setup_details,
    })
    return metrics


def run_traced(lib, w: Workload, feeder: Feeder, args, tracer, tally: dict, record: dict) -> dict:
    """Per-layer metrics from spans over a fixed number of rounds."""
    traced_lib = tracing.traced_library(lib, tracer, lib.SearchStats)
    setup_span = tracer.begin("bench.setup")
    seq, ms = set_up(traced_lib, w.n)
    tracer.end(setup_span)
    routes = make_routes(lib, w.n, seq, ms)
    traced_routes = make_routes(traced_lib, w.n, seq, ms)
    rounds = max(1, math.ceil(args.seconds * w.trace_rounds_per_s))
    wall = measure_traced(routes, traced_routes, feeder, rounds, tracer, tally)
    summary = tracing.summarize(tracer.spans)
    metrics = per_layer_metrics(summary, wall)
    _, _, start, end, _ = tracer.spans[setup_span]
    traced_wall = wall["traced"] + end - start
    accounted = sum(v for k, v in summary["busy_s"].items() if not k.startswith("bench.")) + metrics["bench.task.self_s"][0]
    record.update({
        "rounds": rounds, "traced_wall_s": traced_wall, "untraced_wall_s": wall["untraced"] + end - start,
        "accounted_s": accounted, "accounted_share": accounted / traced_wall,
        "busy_by_route_s": summary["busy_by_route_s"], "stop_layer_hist": summary["stop_layer_hist"],
        "calls": summary["calls"], "trace_file": f"perfbench/out/trace-{args.workload}-seed{args.seed}.json.gz",
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    lib = import_library()

    tables, known, digest = families.generate(w.family, w.n, w.pool, args.seed)
    expected = reference.answers(w.n, tables, known)
    record = {
        "workload": args.workload, "family": w.family, "n": w.n, "seed": args.seed, "functions": w.pool,
        "inputs_sha256": digest, "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": np.__version__, "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "loop": "closed, 1 caller", "routes": list(ROUTES), "chunk": w.chunk,
        "reference_self_test": reference_self_test(tables, expected),
    }
    tally = {"ops": dict.fromkeys(ROUTES, 0), "ops_failed": dict.fromkeys(ROUTES, 0)}
    feeder = Feeder(w, tables, expected)

    if args.trace:
        tracer = tracing.Tracer()
        metrics = run_traced(lib, w, feeder, args, tracer, tally, record)
    else:
        metrics = run_untraced(lib, w, feeder, args.seconds, tally, record)

    record.update(tally)
    print(json.dumps({"run": record}))
    if args.trace:
        tracer.write(ROOT / record["trace_file"], record)
    attempted, failed = sum(tally["ops"].values()), sum(tally["ops_failed"].values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
