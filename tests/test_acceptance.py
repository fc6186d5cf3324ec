"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` reports the same outcomes through test status.
"""

import math
import random
import time
from pathlib import Path

from wlocube import (
    SearchStats,
    TruthTable,
    algebraic_degree,
    bitwise_search_max,
    count_max_chains_precedes,
    count_max_chains_wo,
    count_weight_orders,
    exhaustive_max,
    layer_support,
    mask_paper_serial,
    masks_from_wlo,
    masks_recursive,
    mobius_transform,
    oracle_count_chains,
    oracle_count_linear_extensions,
    oracle_count_shortest_paths,
    wlo_bucket,
    wlo_recursive,
    wlo_search_max,
)
from wlocube.bench import ALGORITHMS, gen_corpus, median_wlo_probes, run_bench
from wlocube.cli import main
from wlocube.fixtures import parse_bfile
from wlocube.masks import word_count

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TABLE1 = {
    1: [0, 1],
    2: [0, 1, 2, 3],
    3: [0, 1, 2, 4, 3, 5, 6, 7],
    4: [0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15],
    5: [0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 15, 23, 27, 29, 30, 31],
}

TABLE2 = {
    1: (2, 1),
    2: (8, 6, 1),
    3: (128, 104, 22, 1),
    4: (32768, 26752, 5736, 278, 1),
}


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_wlo_sequences():
    t0 = time.perf_counter()
    for n, row in TABLE1.items():
        assert wlo_bucket(n).order == row
        assert wlo_recursive(n).order == row
    for n in range(1, 17):
        oracle = sorted(range(1 << n), key=lambda s: (s.bit_count(), s))
        assert wlo_bucket(n).order == oracle
        assert wlo_recursive(n).order == oracle
    fixture = [v for _, v in parse_bfile(FIXTURES / "b294648.txt")]
    flattened = []
    n = 1
    while len(flattened) < len(fixture):
        flattened.extend(wlo_bucket(n).order)
        n += 1
    assert flattened[: len(fixture)] == fixture
    assert time.perf_counter() - t0 < 10
    report("WLO sequences")


def test_masks():
    t0 = time.perf_counter()
    for n in range(1, 17):
        a = masks_from_wlo(wlo_bucket(n))
        b = masks_recursive(n)
        for k in range(n + 1):
            assert a[k].bits == b[k].bits
    for n, expected in TABLE2.items():
        got = tuple(mask_paper_serial(m) for m in masks_recursive(n).masks)
        assert got == expected
    fixture = [v for _, v in parse_bfile(FIXTURES / "b305860.txt")]
    flattened = []
    n = 1
    while len(flattened) < len(fixture):
        flattened.extend(mask_paper_serial(m) for m in masks_recursive(n).masks)
        n += 1
    assert flattened[: len(fixture)] == fixture
    assert time.perf_counter() - t0 < 10
    report("Masks")


def test_example_end_to_end():
    tt = TruthTable.from_bits(4, {0, 3, 5, 6, 8, 10, 12})
    seq = wlo_bucket(4)
    ms = masks_recursive(4)
    stats = SearchStats()
    hit = wlo_search_max(tt, seq, stats)
    assert (hit.serial, hit.weight) == (12, 2)
    assert stats.probes == 6
    stats = SearchStats()
    assert bitwise_search_max(tt, ms, stats) == 2
    assert stats.rows_tested == 3
    assert layer_support(tt, ms[2]) == [3, 5, 6, 10, 12]
    report("Example 2 end-to-end")


def test_enumeration():
    t0 = time.perf_counter()
    assert [count_weight_orders(n) for n in range(1, 5)] == [1, 2, 36, 414720]
    assert [count_max_chains_wo(n) for n in range(1, 6)] == [1, 2, 9, 96, 2500]
    assert [count_max_chains_precedes(n) for n in range(1, 21)] == [math.factorial(n) for n in range(1, 21)]
    for n in range(1, 6):
        assert oracle_count_chains(n, "precedes") == math.factorial(n)
    for n in range(1, 5):
        assert oracle_count_chains(n, "weight_order") == count_max_chains_wo(n)
    for n in range(1, 4):
        assert oracle_count_linear_extensions(n) == count_weight_orders(n)
    for n in range(1, 11):
        assert oracle_count_shortest_paths(n) == math.factorial(n)
    assert time.perf_counter() - t0 < 60
    report("Enumeration")


def test_search_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    mismatches = 0
    for n in (4, 6, 8, 10, 12):
        seq = wlo_bucket(n)
        ms = masks_recursive(n)
        size = 1 << n
        for _ in range(10**4):
            tt = TruthTable(n, rng.getrandbits(size))
            ex = exhaustive_max(tt)
            wl = wlo_search_max(tt, seq)
            bw = bitwise_search_max(tt, ms)
            if ex is None:
                if wl is not None or bw is not None:
                    mismatches += 1
            elif wl != ex or bw != ex.weight:
                mismatches += 1
    assert mismatches == 0
    assert time.perf_counter() - t0 < 60
    report("Search equivalence")


def test_degree_pipeline():
    rng = random.Random(0xDE6)
    for n in range(1, 13):
        size = 1 << n
        ms = masks_recursive(n)
        for _ in range(10**3):
            tt = TruthTable(n, rng.getrandbits(size))
            assert mobius_transform(mobius_transform(tt)) == tt
        for _ in range(200):
            anf = TruthTable(n, rng.getrandbits(size))
            v = anf.bits
            oracle = max((i.bit_count() for i in range(size) if (v >> i) & 1), default=None)
            assert algebraic_degree(anf, ms) == oracle
    report("Degree pipeline")


def test_performance(tmp_path):
    t0 = time.perf_counter()
    n = 10
    corpus = gen_corpus(10**5, word_count(n), 0xBE7C4, tmp_path / "n10.bin")
    rep = run_bench(corpus, n, ALGORITHMS)
    seconds = {r.algorithm: r.seconds for r in rep.results}
    assert seconds["wlo"] <= seconds["exhaustive"] / 10
    assert seconds["bitwise"] <= seconds["exhaustive"] / 10
    assert median_wlo_probes(corpus, n) <= n + 2
    assert time.perf_counter() - t0 < 120
    report(
        "Performance (exhaustive {:.2f}s, wlo {:.3f}s, bitwise {:.3f}s)".format(
            seconds["exhaustive"], seconds["wlo"], seconds["bitwise"]
        )
    )


def test_cli(capsys):
    assert main(["wlo", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 2 4 8 3 5 6 9 10 12 7 11 13 14 15"
    assert main(["search", "--n", "4", "--tt", "1001011010101000"]) == 0
    assert capsys.readouterr().out.strip() == "12 2"
    assert main(["enumerate", "--seq", "A001142", "--upto", "5"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "5 2500"
    assert main(["fixtures", "--dir", str(FIXTURES)]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 6 and "FAIL" not in out
    report("CLI")
