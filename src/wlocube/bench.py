"""Micro-benchmark harness for the three search algorithms.

A corpus is a flat file of raw little-endian 64-bit words produced by a
seeded splitmix64 stream, consecutive groups of W words forming one truth
table.  run_bench loads and unpacks everything up front, then times each
algorithm's bare loop over all functions; I/O, precomputation and format
conversion never land inside a timed region.  Wall-clock seconds are
reported but never asserted; correctness is gated on identical per-weight
result histograms across algorithms.
"""

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cube import cached_weight_table, check_dim
from .masks import masks_recursive, word_count
from .wlo import wlo_bucket

ALGORITHMS = ("exhaustive", "wlo", "bitwise")

_MASK64 = (1 << 64) - 1


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
    fields = {}
    for line in Path(str(path) + ".meta").read_text().splitlines():
        key, _, value = line.partition("=")
        fields[key] = int(value)
    return Corpus(path, fields["word_count"], fields["words_per_function"], fields["seed"])


def run_bench(corpus: Corpus, n: int, algorithms=ALGORITHMS) -> BenchReport:
    """Time the selected algorithms over every function in the corpus."""
    check_dim(n)
    wpf = word_count(n)
    if wpf != corpus.words_per_function:
        raise ValueError(f"corpus has {corpus.words_per_function} words per function, n={n} needs {wpf}")
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    algorithms = [a for a in ALGORITHMS if a in algorithms]
    if not algorithms:
        return BenchReport(n, corpus.function_count, [])

    size = 1 << n
    count = corpus.function_count
    raw = Path(corpus.path).read_bytes()
    if len(raw) != 8 * corpus.word_count:
        raise ValueError("corpus file size disagrees with its metadata")

    # untimed unpacking: per-function word lists and byte-per-coordinate rows
    flat = np.frombuffer(raw, dtype="<u8")
    word_rows = [[int(w) for w in flat[i * wpf : (i + 1) * wpf]] for i in range(count)]
    bit_matrix = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little").reshape(count, wpf * 64)
    byte_rows = [bit_matrix[i, :size].tobytes() for i in range(count)]

    wt = cached_weight_table(n)
    seq = wlo_bucket(n)
    rev_order = seq.order[::-1]
    ms = masks_recursive(n)
    mask_words = [np.frombuffer(m.bits.to_bytes(8 * wpf, "little"), dtype="<u8").tolist() for m in ms.masks]
    rank_from_end = {s: i + 1 for i, s in enumerate(rev_order)}

    results = []
    outcomes = {}
    for algo in algorithms:
        if algo == "exhaustive":
            res = [None] * count
            t0 = time.perf_counter()
            for fi in range(count):
                row = byte_rows[fi]
                best = -1
                best_w = -1
                for i, v in enumerate(row):
                    if v and wt[i] >= best_w:
                        best_w = wt[i]
                        best = i
                res[fi] = best_w if best >= 0 else -1
            seconds = time.perf_counter() - t0
            ops = count * size
        elif algo == "wlo":
            res = [None] * count
            t0 = time.perf_counter()
            for fi in range(count):
                row = byte_rows[fi]
                hit = -1
                for s in rev_order:
                    if row[s]:
                        hit = s
                        break
                res[fi] = wt[hit] if hit >= 0 else -1
            seconds = time.perf_counter() - t0
            ops = 0
            for fi in range(count):
                row = byte_rows[fi]
                hit = next((s for s in rev_order if row[s]), None)
                ops += rank_from_end[hit] if hit is not None else size
        else:  # bitwise
            res = [None] * count
            t0 = time.perf_counter()
            for fi in range(count):
                fw = word_rows[fi]
                found = -1
                for row in range(n, -1, -1):
                    mrow = mask_words[row]
                    done = False
                    for col in range(wpf):
                        if fw[col] & mrow[col]:
                            found = row
                            done = True
                            break
                    if done:
                        break
                res[fi] = found
            seconds = time.perf_counter() - t0
            ops = 0
            for fi in range(count):
                fw = word_rows[fi]
                stopped = False
                for row in range(n, -1, -1):
                    mrow = mask_words[row]
                    for col in range(wpf):
                        ops += 1
                        if fw[col] & mrow[col]:
                            stopped = True
                            break
                    if stopped:
                        break
        hist: dict[int, int] = {}
        for r in res:
            hist[r] = hist.get(r, 0) + 1
        outcomes[algo] = hist
        results.append(AlgoResult(algo, seconds, ops, hist))

    # correctness gate: every algorithm must see the same weight distribution
    first = results[0].histogram
    for r in results[1:]:
        if r.histogram != first:
            raise AssertionError(f"result histograms differ: {results[0].algorithm} vs {r.algorithm}")
    return BenchReport(n, count, results)


def median_wlo_probes(corpus: Corpus, n: int) -> float:
    """Median per-function probe count of the WLO search over a corpus."""
    check_dim(n)
    wpf = word_count(n)
    raw = Path(corpus.path).read_bytes()
    count = corpus.function_count
    size = 1 << n
    bit_matrix = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little").reshape(count, wpf * 64)
    rev_order = wlo_bucket(n).order[::-1]
    probes = []
    for fi in range(count):
        row = bit_matrix[fi]
        p = size
        for i, s in enumerate(rev_order):
            if row[s]:
                p = i + 1
                break
        probes.append(p)
    probes.sort()
    mid = len(probes) // 2
    if len(probes) % 2:
        return float(probes[mid])
    return (probes[mid - 1] + probes[mid]) / 2.0


def write_report(report: BenchReport, path) -> None:
    """CSV report: header n,functions,algorithm,seconds,ops; one row per algorithm."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "functions", "algorithm", "seconds", "ops"])
        for r in report.results:
            writer.writerow([report.n, report.function_count, r.algorithm, repr(r.seconds), r.ops])


def read_report(path) -> BenchReport:
    """Parse a CSV report back (histograms are not serialized)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["n", "functions", "algorithm", "seconds", "ops"]:
        raise ValueError("not a bench report")
    results = [AlgoResult(r[2], float(r[3]), int(r[4])) for r in rows[1:]]
    n = int(rows[1][0]) if len(rows) > 1 else 0
    functions = int(rows[1][1]) if len(rows) > 1 else 0
    return BenchReport(n, functions, results)
