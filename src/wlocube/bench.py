"""Micro-benchmark harness for the library's three search routes.

A corpus is a flat file of raw little-endian 64-bit words produced by a
seeded splitmix64 stream, consecutive groups of W words forming one truth
table.  run_bench reads the file once and parses every function with
TruthTable.from_raw, builds the layer masks, then
times exhaustive_max, wlo_search_max and bitwise_search_max, one pass each
over all functions; I/O and parsing never land inside a timed region.
Each pass counts its ops through one SearchStats: probes for exhaustive
and wlo, word_ops for bitwise.  Wall-clock seconds are reported but never
asserted; correctness is gated on identical per-weight result histograms
across algorithms.
"""

import csv
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

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
    word_count: int
    words_per_function: int
    seed: int

    @property
    def function_count(self) -> int:
        return self.word_count // self.words_per_function


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


def gen_corpus(count: int, words_per_function: int, seed: int, path, significant_bits: int | None = None) -> Corpus:
    """Write count*words_per_function seeded words; same seed, same bytes.

    significant_bits, when given, zeroes the unused high bits of each
    function's last word (needed for n < 6, where a function is less than
    one word wide).
    """
    if count < 1 or words_per_function < 1:
        raise ValueError("count and words_per_function must be positive")
    path = Path(path)
    stream = splitmix64(seed)
    last_mask = _MASK64
    if significant_bits is not None:
        tail = significant_bits - 64 * (words_per_function - 1)
        if not 1 <= tail <= 64:
            raise ValueError("significant_bits inconsistent with words_per_function")
        last_mask = (1 << tail) - 1 if tail < 64 else _MASK64
    with open(path, "wb") as fh:
        for _ in range(count):
            for j in range(words_per_function):
                w = next(stream)
                if j == words_per_function - 1:
                    w &= last_mask
                fh.write(w.to_bytes(8, "little"))
    total = count * words_per_function
    meta = f"word_count={total}\nwords_per_function={words_per_function}\nseed={seed}\n"
    Path(str(path) + ".meta").write_text(meta)
    return Corpus(path, total, words_per_function, seed)


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
        return Corpus(path, fields["word_count"], fields["words_per_function"], fields["seed"])
    except KeyError as exc:
        raise ValueError(f"{meta}: missing key {exc.args[0]!r}") from None


def _load_tables(corpus: Corpus, n: int) -> list[TruthTable]:
    """Read the corpus file once and parse every function into a TruthTable."""
    check_dim(n)
    wpf = word_count(n)
    if wpf != corpus.words_per_function:
        raise ValueError(f"corpus has {corpus.words_per_function} words per function, n={n} needs {wpf}")
    raw = Path(corpus.path).read_bytes()
    if len(raw) != 8 * corpus.word_count:
        raise ValueError("corpus file size disagrees with its metadata")
    step = 8 * wpf
    return [TruthTable.from_raw(n, raw[i * step : (i + 1) * step]) for i in range(corpus.function_count)]


def run_bench(corpus: Corpus, n: int, algorithms=ALGORITHMS) -> BenchReport:
    """Time the selected search routes over every function in the corpus."""
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    algorithms = [a for a in ALGORITHMS if a in algorithms]
    tables = _load_tables(corpus, n)
    ms = masks_recursive(n)

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
    return BenchReport(n, len(tables), results)


def median_wlo_probes(corpus: Corpus, n: int) -> float:
    """Median per-function probe count of wlo_search_max over a corpus."""
    probes = []
    for tt in _load_tables(corpus, n):
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

