"""The WLO scans against a literal walk over seq.order.

wlo_search_max/_min AND the table against one layer mask at a time and
derive the probe count from the hit's colex rank; the oracle here probes
one serial of seq.order at a time and counts every probe, as the paper's
scan does.
"""

import copy
import pickle
import random
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wlocube import (
    SearchHit,
    SearchStats,
    TruthTable,
    exhaustive_max,
    masks_recursive,
    wlo_bucket,
    wlo_search_max,
    wlo_search_min,
)
from wlocube.cube import cached_weight_table

# wlo_bucket rebuilds the sequence on every call
wlo = lru_cache(maxsize=None)(wlo_bucket)


def literal_scan(bits, serials):
    """(hit, probes) of a serial-by-serial walk, stopping at the first set bit."""
    text = format(bits, "b")[::-1]  # text[s] is bit s; a shift per probe is too slow at n=20
    probes = 0
    for s in serials:
        probes += 1
        if s < len(text) and text[s] == "1":
            return SearchHit(s, s.bit_count()), probes
    return None, probes


def check_both_ends(tt):
    seq = wlo(tt.n)
    for search, serials in ((wlo_search_max, seq.order[::-1]), (wlo_search_min, seq.order)):
        stats = SearchStats()
        hit = search(tt, seq, stats)
        assert (hit, stats.probes) == literal_scan(tt.bits, serials)
        # seq is only checked for its dimension
        assert search(tt) == hit


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_function_matches_literal_scan(n):
    for bits in range(1 << (1 << n)):
        check_both_ends(TruthTable(n, bits))


@pytest.mark.parametrize("n", [16, 20])
def test_single_bits_at_large_n_match_literal_scan(n):
    # past Hypothesis's n <= 12: the colex rank against the walk over 2^n serials
    serials = [0, (1 << n) - 1, *random.Random(n).sample(range(1 << n), 3)]
    if n == 20:
        serials.append(699050)  # weight 10, the middle layer
    check_both_ends(TruthTable(n, 0))
    for s in serials:
        check_both_ends(TruthTable(n, 1 << s))


@st.composite
def sparse_tables(draw):
    n = draw(st.integers(1, 12))
    ones = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    return TruthTable.from_bits(n, ones)


@st.composite
def dense_tables(draw):
    n = draw(st.integers(1, 12))
    return TruthTable(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


@given(sparse_tables())
def test_sparse_matches_literal_scan(tt):
    check_both_ends(tt)


@given(dense_tables())
def test_dense_matches_literal_scan(tt):
    check_both_ends(tt)


def test_miss_on_a_fresh_sequence_counts_every_probe():
    for n in (1, 3, 9):
        for search in (wlo_search_max, wlo_search_min):
            stats = SearchStats()
            assert search(TruthTable(n, 0), wlo_bucket(n), stats) is None
            assert stats.probes == 1 << n


def test_scanned_sequence_copies():
    seq = wlo_bucket(6)
    tt = TruthTable(6, 1 << 21)
    hit = wlo_search_max(tt, seq)
    for clone in (pickle.loads(pickle.dumps(seq)), copy.deepcopy(seq)):
        assert clone == seq
        assert wlo_search_max(tt, clone) == hit and wlo_search_min(tt, clone) == hit


def test_threads_sharing_a_fresh_sequence():
    # the searches share only the per-n caches of masks_recursive and
    # cached_weight_table; threads that race the first calls at a fresh n
    # must each get the literal scan's answer, whichever thread filled them
    rng = random.Random(5)
    cases = {}
    for n in (6, 9, 12):
        seq = wlo(n)
        tables = [TruthTable(n, 1 << rng.randrange(1 << n)) for _ in range(8)]
        tables += [TruthTable(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n)) for _ in range(4)]
        cases[n] = [
            (tt, literal_scan(tt.bits, seq.order[::-1])[0], literal_scan(tt.bits, seq.order)[0]) for tt in tables
        ]
    wrong = []

    def work(n, seed):
        for tt, top, bottom in random.Random(seed).sample(cases[n], len(cases[n])):
            try:
                got = (wlo_search_max(tt), wlo_search_min(tt), exhaustive_max(tt))
            except Exception as exc:  # a thread's exception would otherwise pass unseen
                got = exc
            if got != (top, bottom, top):
                wrong.append((n, tt.bits, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            for n in cases:
                masks_recursive.cache_clear()
                cached_weight_table.cache_clear()
                threads = [threading.Thread(target=work, args=(n, 4 * trial + i)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
                assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
