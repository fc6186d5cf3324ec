import hashlib
from pathlib import Path

import pytest

from wlocube.bench import (
    ALGORITHMS,
    BenchReport,
    Corpus,
    _load_tables,
    gen_corpus,
    load_corpus,
    median_wlo_probes,
    run_bench,
    splitmix64,
    write_report,
)
from wlocube.masks import TruthTable, word_count


def checksum(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_splitmix64_deterministic():
    a = splitmix64(42)
    b = splitmix64(42)
    xs = [next(a) for _ in range(10)]
    assert xs == [next(b) for _ in range(10)]
    assert all(0 <= x < 1 << 64 for x in xs)
    assert xs != [next(splitmix64(43)) for _ in range(10)]


def test_gen_corpus_size_and_determinism(tmp_path):
    p1 = tmp_path / "c1.bin"
    p2 = tmp_path / "c2.bin"
    c = gen_corpus(100, 6, 42, p1)
    gen_corpus(100, 6, 42, p2)
    assert p1.stat().st_size == 800
    assert checksum(p1) == checksum(p2)
    assert c == Corpus(p1, 6, 100, 42) == load_corpus(p1)
    assert Path(str(p1) + ".meta").read_text() == "n=6\ncount=100\nseed=42\n"


def test_gen_corpus_multiword(tmp_path):
    c = gen_corpus(10**4, 8, 7, tmp_path / "n8.bin")
    assert c.count == 10**4
    assert (tmp_path / "n8.bin").stat().st_size == 8 * 4 * 10**4


def test_gen_corpus_masks_small_dims(tmp_path):
    p = tmp_path / "n4.bin"
    for n in range(1, 7):
        gen_corpus(50, n, 3, p)
        data = p.read_bytes()
        words = [int.from_bytes(data[8 * i : 8 * i + 8], "little") for i in range(50)]
        assert all(w < 1 << (1 << n) for w in words)
        # below n=6 the high bits are zeroed, not drawn again: the low bits
        # are the stream's
        stream = splitmix64(3)
        assert words == [next(stream) & ((1 << min(1 << n, 64)) - 1) for _ in range(50)]


def test_run_bench_histograms_agree(tmp_path):
    p = tmp_path / "n8.bin"
    corpus = gen_corpus(500, 8, 11, p)
    report = run_bench(corpus, ALGORITHMS)
    assert report.n == 8 and report.function_count == 500
    assert [r.algorithm for r in report.results] == list(ALGORITHMS)
    hists = [r.histogram for r in report.results]
    assert hists[0] == hists[1] == hists[2]
    assert sum(hists[0].values()) == 500
    assert all(r.seconds >= 0 for r in report.results)
    # exhaustive op count is exact; the others early-exit
    ex, wlo, bw = report.results
    assert ex.ops == 500 * 256
    assert 0 < wlo.ops < ex.ops
    assert 0 < bw.ops


def test_run_bench_determinism(tmp_path):
    corpus = gen_corpus(200, 6, 5, tmp_path / "n6.bin")
    r1 = run_bench(corpus, ("wlo", "bitwise"))
    r2 = run_bench(corpus, ("wlo", "bitwise"))
    assert [(r.algorithm, r.ops, r.histogram) for r in r1.results] == [
        (r.algorithm, r.ops, r.histogram) for r in r2.results
    ]


def test_run_bench_empty_algorithm_set(tmp_path):
    corpus = gen_corpus(10, 6, 5, tmp_path / "c.bin")
    report = run_bench(corpus, ())
    assert report.results == []


def test_run_bench_validation(tmp_path):
    corpus = gen_corpus(10, 6, 5, tmp_path / "c.bin")
    # a Corpus that claims another n than its file holds
    with pytest.raises(ValueError, match="file size"):
        run_bench(Corpus(corpus.path, 8, 10, 5), ALGORITHMS)
    with pytest.raises(ValueError):
        run_bench(corpus, ("nope",))


def test_median_probes_small(tmp_path):
    corpus = gen_corpus(2000, 8, 19, tmp_path / "n8.bin")
    assert median_wlo_probes(corpus) <= 10


def test_write_report_format(tmp_path):
    corpus = gen_corpus(100, 6, 23, tmp_path / "n6.bin")
    report = run_bench(corpus, ALGORITHMS)
    out = tmp_path / "report.csv"
    write_report(report, out)
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n,functions,algorithm,seconds,ops"
    assert len(lines) == 4
    for line in lines[1:]:
        float(line.split(",")[3])  # seconds parse with '.' separator


# sha256 of gen_corpus's file, pinned when the call took the word count and
# the last word's bit count beside n: a seed still means the same tables
PINNED_CORPORA = {
    (1, 64, 3): "881709858e3ac462b0d7b94fe44fb4de40257dee25eea1d89868be6f6eb0d668",
    (4, 64, 3): "7eb04dd9d2506d401fcb857290a312a566d8e5c4fae63f670f7fa506b1e5e49d",
    (5, 64, 3): "f817ef535be9f210105d2e65166f4466d6e921d6861236b5a145ebbd18352c7a",
    (6, 100, 42): "e65e1748a9c5ad4d9a7c858579bfa82db17b75c8970e44b1c956c118001497c3",
    (7, 20, 9): "d1688b005604dddc1cbd55ac86f5ef8aa97ff7aab981bed1237aa0e0aa1caa5b",
    (10, 1000, 1): "be236ba7ae5bb8ce21310afb893dcdceb36e8f8a58cbb5d0cb6c7ac837120ffc",
}


@pytest.mark.parametrize("n, count, seed", sorted(PINNED_CORPORA))
def test_gen_corpus_bytes_are_pinned(tmp_path, n, count, seed):
    path = tmp_path / "c.bin"
    gen_corpus(count, n, seed, path)
    assert checksum(path) == PINNED_CORPORA[n, count, seed]
    assert path.stat().st_size == 8 * word_count(n) * count


def test_gen_corpus_rejects_bad_arguments(tmp_path):
    for count, n in ((0, 4), (-1, 4), (10, 0), (10, 31)):
        with pytest.raises(ValueError):
            gen_corpus(count, n, 1, tmp_path / "c.bin")
    assert list(tmp_path.iterdir()) == []


# computed by the per-word writer that gen_corpus replaced: each spans
# several of the about 1 MiB batches it now writes, the last one partial
PINNED_MULTI_BATCH = {
    (10, 20000, 1): "bf51c997fe855a9d0395697e7143f54bb669b4478aa88d01be0be6cc675f2ff6",
    (17, 70, 2): "836d31a7cbe0cbeb200290c9e97d69e08bdb214d41da96aeb8d12e2dcb771716",
}


@pytest.mark.parametrize("n, count, seed", sorted(PINNED_MULTI_BATCH))
def test_gen_corpus_bytes_across_write_batches(tmp_path, n, count, seed):
    path = tmp_path / "c.bin"
    gen_corpus(count, n, seed, path)
    assert checksum(path) == PINNED_MULTI_BATCH[n, count, seed]


def test_run_bench_parses_every_table_before_timing(tmp_path):
    # from_raw would defer the parse of a bytes table at n >= 17 into the
    # first timed pass; the loader hands it memoryviews, parsed at once
    corpus = gen_corpus(3, 17, 5, tmp_path / "c.bin")
    tables = _load_tables(corpus)
    assert [type(tt) for tt in tables] == [TruthTable] * 3
    raw = (tmp_path / "c.bin").read_bytes()
    assert [tt.bits for tt in tables] == [int.from_bytes(raw[i : i + (1 << 14)], "little") for i in range(0, len(raw), 1 << 14)]
    report = run_bench(corpus)
    assert len({tuple(sorted(r.histogram.items())) for r in report.results}) == 1
