"""Micro-benchmark harness for the library's three search routes.

A corpus is (n, count, seed): count truth tables of n variables, each
word_count(n) raw little-endian 64-bit words drawn in turn from a seeded
splitmix64 stream, with the bits past 2^n of the one word zeroed below
n=6.  The file holds only the words; its sidecar <path>.meta holds the
keys n, count and seed.  run_bench reads the file once and parses every
function with TruthTable.from_raw, at every n (a memoryview, which
from_raw never defers), builds the layer masks, then times
exhaustive_max, wlo_search_max and bitwise_search_max, one pass each over
all functions; I/O and parsing never land inside a timed region.  Each
pass counts its ops through one SearchStats: probes for exhaustive and
wlo, word_ops for bitwise.  Wall-clock seconds are reported but never
asserted; correctness is gated on identical per-weight result histograms
across algorithms.
"""

import csv
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from statistics import median
from struct import Struct

from .cube import check_dim
from .masks import masks_recursive, word_count
from .search import SearchStats, TruthTable, bitwise_search_max, exhaustive_max, wlo_search_max

ALGORITHMS = ("exhaustive", "wlo", "bitwise")

_MASK64 = (1 << 64) - 1

# bench --gen refuses a larger corpus: run_bench reads a corpus whole and
# parses every function into memory.
MAX_CORPUS_BYTES = 1 << 30


def splitmix64(seed: int):
    """Endless stream of 64-bit words from the splitmix64 generator."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


@dataclass(frozen=True)
class Corpus:
    path: Path
    n: int
    count: int
    seed: int


@dataclass
class AlgoResult:
    algorithm: str
    seconds: float
    ops: int
    histogram: dict[int, int] = field(default_factory=dict)  # weight -> count, -1 = empty support


@dataclass
class BenchReport:
    n: int
    function_count: int
    results: list[AlgoResult]


def gen_corpus(count: int, n: int, seed: int, path) -> Corpus:
    """Write count seeded truth tables of n variables; same seed, same bytes."""
    check_dim(n)
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    path = Path(path)
    stream = splitmix64(seed)
    words = word_count(n)
    last_mask = (1 << min(1 << n, 64)) - 1
    pack = Struct(f"<{words}Q").pack
    per_batch = max(1, (1 << 20) // (8 * words))  # tables per write, about 1 MiB
    with open(path, "wb") as fh:
        for start in range(0, count, per_batch):
            batch = []
            for _ in range(min(per_batch, count - start)):
                table = list(islice(stream, words))
                table[-1] &= last_mask
                batch.append(pack(*table))
            fh.write(b"".join(batch))
    Path(str(path) + ".meta").write_text(f"n={n}\ncount={count}\nseed={seed}\n")
    return Corpus(path, n, count, seed)


def load_corpus(path) -> Corpus:
    """Reconstruct a Corpus from its sidecar metadata file."""
    path = Path(path)
    meta = Path(str(path) + ".meta")
    fields = {}
    for line in meta.read_text().splitlines():
        key, _, value = line.partition("=")
        try:
            fields[key] = int(value)
        except ValueError:
            raise ValueError(f"{meta}: key {key!r} has a non-integer value {value!r}") from None
    try:
        return Corpus(path, fields["n"], fields["count"], fields["seed"])
    except KeyError as exc:
        raise ValueError(f"{meta}: missing key {exc.args[0]!r}") from None


def _load_tables(corpus: Corpus) -> list[TruthTable]:
    """Read the corpus file once and parse every function into a TruthTable."""
    n = corpus.n
    check_dim(n)
    step = 8 * word_count(n)
    raw = Path(corpus.path).read_bytes()
    if len(raw) != step * corpus.count:
        raise ValueError("corpus file size disagrees with its metadata")
    # from_raw parses a memoryview at once, where it would defer the parse
    # of a bytes slice at n >= 17 into the first timed pass that reads it
    view = memoryview(raw)
    return [TruthTable.from_raw(n, view[i : i + step]) for i in range(0, len(raw), step)]


def run_bench(corpus: Corpus, algorithms=ALGORITHMS) -> BenchReport:
    """Time the selected search routes over every function in the corpus."""
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    algorithms = [a for a in ALGORITHMS if a in algorithms]
    tables = _load_tables(corpus)
    ms = masks_recursive(corpus.n)

    results = []
    for algo in algorithms:
        stats = SearchStats()
        t0 = time.perf_counter()
        if algo == "exhaustive":
            found = [exhaustive_max(tt, stats) for tt in tables]
        elif algo == "wlo":
            found = [wlo_search_max(tt, stats=stats) for tt in tables]
        else:
            found = [bitwise_search_max(tt, ms, stats) for tt in tables]
        seconds = time.perf_counter() - t0
        if algo == "bitwise":
            weights, ops = found, stats.word_ops
        else:
            weights, ops = [h and h.weight for h in found], stats.probes
        hist = dict(Counter(-1 if w is None else w for w in weights))
        results.append(AlgoResult(algo, seconds, ops, hist))

    # correctness gate: every algorithm must see the same weight distribution
    for r in results[1:]:
        if r.histogram != results[0].histogram:
            raise AssertionError(f"result histograms differ: {results[0].algorithm} vs {r.algorithm}")
    return BenchReport(corpus.n, len(tables), results)


def median_wlo_probes(corpus: Corpus) -> float:
    """Median per-function probe count of wlo_search_max over a corpus."""
    probes = []
    for tt in _load_tables(corpus):
        stats = SearchStats()
        wlo_search_max(tt, stats=stats)
        probes.append(stats.probes)
    return float(median(probes))


def write_report(report: BenchReport, path) -> None:
    """CSV report: header n,functions,algorithm,seconds,ops; one row per algorithm."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "functions", "algorithm", "seconds", "ops"])
        for r in report.results:
            writer.writerow([report.n, report.function_count, r.algorithm, repr(r.seconds), r.ops])

