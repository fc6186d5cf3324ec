import hashlib

import pytest

from wlocube.bench import (
    ALGORITHMS,
    BenchReport,
    Corpus,
    gen_corpus,
    load_corpus,
    median_wlo_probes,
    run_bench,
    splitmix64,
    write_report,
)


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
    c = gen_corpus(100, 1, 42, p1)
    gen_corpus(100, 1, 42, p2)
    assert p1.stat().st_size == 800
    assert checksum(p1) == checksum(p2)
    assert c.word_count == 100 and c.function_count == 100
    loaded = load_corpus(p1)
    assert loaded == Corpus(p1, 100, 1, 42)


def test_gen_corpus_multiword(tmp_path):
    c = gen_corpus(10**4, 4, 7, tmp_path / "n8.bin")
    assert c.function_count == 10**4
    assert (tmp_path / "n8.bin").stat().st_size == 8 * 4 * 10**4


def test_gen_corpus_masks_small_dims(tmp_path):
    p = tmp_path / "n4.bin"
    gen_corpus(50, 1, 3, p, significant_bits=16)
    data = p.read_bytes()
    for i in range(50):
        w = int.from_bytes(data[8 * i : 8 * i + 8], "little")
        assert w < 1 << 16


def test_run_bench_histograms_agree(tmp_path):
    p = tmp_path / "n8.bin"
    corpus = gen_corpus(500, 4, 11, p)
    report = run_bench(corpus, 8, ALGORITHMS)
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
    corpus = gen_corpus(200, 1, 5, tmp_path / "n6.bin")
    r1 = run_bench(corpus, 6, ("wlo", "bitwise"))
    r2 = run_bench(corpus, 6, ("wlo", "bitwise"))
    assert [(r.algorithm, r.ops, r.histogram) for r in r1.results] == [
        (r.algorithm, r.ops, r.histogram) for r in r2.results
    ]


def test_run_bench_empty_algorithm_set(tmp_path):
    corpus = gen_corpus(10, 1, 5, tmp_path / "c.bin")
    report = run_bench(corpus, 6, ())
    assert report.results == []


def test_run_bench_validation(tmp_path):
    corpus = gen_corpus(10, 1, 5, tmp_path / "c.bin")
    with pytest.raises(ValueError):
        run_bench(corpus, 8, ALGORITHMS)
    with pytest.raises(ValueError):
        run_bench(corpus, 6, ("nope",))


def test_median_probes_small(tmp_path):
    corpus = gen_corpus(2000, 4, 19, tmp_path / "n8.bin")
    assert median_wlo_probes(corpus, 8) <= 10


def test_write_report_format(tmp_path):
    corpus = gen_corpus(100, 1, 23, tmp_path / "n6.bin")
    report = run_bench(corpus, 6, ALGORITHMS)
    out = tmp_path / "report.csv"
    write_report(report, out)
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n,functions,algorithm,seconds,ops"
    assert len(lines) == 4
    for line in lines[1:]:
        float(line.split(",")[3])  # seconds parse with '.' separator
