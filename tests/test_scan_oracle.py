"""The WLO scans and layer_support against literal walks over serials.

wlo_search_max/_min AND the table against one layer mask at a time and
derive the probe count from the hit's colex rank; the oracle here probes
one serial of seq.order at a time and counts every probe, as the paper's
scan does.  layer_support peels up to a budget of set bits and byte-scans
the rest; its oracle tests every serial of the layer.
"""

import copy
import pickle
import random
import sys
import threading
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wlocube import (
    SearchHit,
    SearchStats,
    TruthTable,
    exhaustive_max,
    layer_serials,
    layer_support,
    masks_recursive,
    wlo_bucket,
    wlo_search_max,
    wlo_search_min,
)
from wlocube.cube import cached_weight_table
from wlocube.search import _PEEL_BUDGET, _PEEL_WINDOW

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


def check_layer_support(tt, k):
    expected = [s for s in layer_serials(tt.n, k) if tt.bits >> s & 1]
    assert layer_support(tt, masks_recursive(tt.n)[k]) == expected
    return expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_layer_support_every_function_every_layer(n):
    for bits in range(1 << (1 << n)):
        for k in range(n + 1):
            check_layer_support(TruthTable(n, bits), k)


# support sizes around the peel budget, or "full" for the whole layer
SUPPORT_SIZES = (0, 1, _PEEL_BUDGET - 1, _PEEL_BUDGET, _PEEL_BUDGET + 1, "full")


@st.composite
def tables_with_one_layer_support(draw):
    """(table, k, size): exactly `size` of layer k's serials set, any bits in other layers."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    layer = list(layer_serials(n, k))
    size = draw(st.sampled_from([s for s in SUPPORT_SIZES if s == "full" or s <= len(layer)]))
    chosen = layer if size == "full" else draw(st.lists(st.sampled_from(layer), min_size=size, max_size=size, unique=True))
    noise = draw(st.integers(0, (1 << (1 << n)) - 1)) & ~masks_recursive(n)[k].bits
    return TruthTable(n, TruthTable.from_bits(n, chosen).bits | noise), k, size


@given(tables_with_one_layer_support())
def test_layer_support_at_the_peel_budget(case):
    tt, k, size = case
    support = check_layer_support(tt, k)
    assert len(support) == (comb(tt.n, k) if size == "full" else size)


@pytest.mark.parametrize("size", [_PEEL_BUDGET - 1, _PEEL_BUDGET, _PEEL_BUDGET + 1])
def test_layer_support_at_the_budget_past_the_peel_window(size):
    # at n=16 the AND is longer than the peel window: the top serials of a
    # layer crowd into it, a random sample spreads far below it
    n, k = 16, 12
    layer = list(layer_serials(n, k))
    assert layer[-1] - layer[-size] < _PEEL_WINDOW < layer[-1] - layer[0]
    for chosen in (layer[-size:], random.Random(size).sample(layer, size), layer[-size + 1:] + layer[:1]):
        assert len(check_layer_support(TruthTable.from_bits(n, chosen), k)) == size


@pytest.mark.parametrize("k", [8, 14])
def test_layer_support_dense_tables_at_n16(k):
    # the middle layer and layer n-2 of random tables, past any peel budget
    rng = random.Random(k)
    for _ in range(3):
        check_layer_support(TruthTable(16, rng.getrandbits(1 << 16)), k)
