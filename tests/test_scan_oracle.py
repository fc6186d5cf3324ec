"""The searches and layer_support against literal walks.

wlo_search_max/_min find the first nonempty layer of the table and
derive the probe count from the hit's colex rank; the oracle here probes
one serial of seq.order at a time and counts every probe, as the paper's
scan does.  The heavy end bisects the unions MaskSet.above; its oracle
is the paper's bitwise loop, one AND per layer from n down.
layer_support peels up to a budget of set bits and byte-scans the rest;
its oracle tests every serial of the layer.
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
    algebraic_degree,
    bitwise_search_max,
    exhaustive_max,
    layer_serials,
    layer_support,
    masks_from_wlo,
    masks_recursive,
    wlo_bucket,
    wlo_search_max,
    wlo_search_min,
)
from wlocube.cube import cached_weight_table
from wlocube.search import _PEEL_BUDGET, _PEEL_WINDOW, _first_layer

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


def top_down_scan(tt, ms):
    """The paper's bitwise loop: the first layer from n down that meets the table."""
    return next((k for k in range(tt.n, -1, -1) if tt.bits & ms[k].bits), None)


def check_heavy_end(tt, ms):
    """The heavy-end searches against top_down_scan; returns its layer."""
    k = top_down_scan(tt, ms)
    assert _first_layer(tt.bits, ms, True) == (0 if k is None else tt.bits & ms[k].bits)
    assert bitwise_search_max(tt, ms) == k
    assert algebraic_degree(tt, ms) == k
    stats = SearchStats()
    hit = wlo_search_max(tt, None, stats)
    assert (hit, stats.probes) == literal_scan(tt.bits, wlo(tt.n).order[::-1])
    assert (hit and hit.weight) == k
    return k


def mask_sets(n):
    return masks_recursive(n), masks_from_wlo(wlo(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heavy_end_every_function(n):
    for ms in mask_sets(n):
        for bits in range(1 << (1 << n)):
            check_heavy_end(TruthTable(n, bits), ms)


@pytest.mark.parametrize("n", range(1, 9))
def test_heavy_end_every_single_bit(n):
    for s in range(1 << n):
        assert check_heavy_end(TruthTable(n, 1 << s), masks_recursive(n)) == s.bit_count()


@pytest.mark.parametrize("n", [1, 4, 12, 16, 20])
def test_heavy_end_zero_table(n):
    ms = masks_recursive(n)
    assert _first_layer(0, ms, True) == 0
    assert bitwise_search_max(TruthTable(n, 0), ms) is None and wlo_search_max(TruthTable(n, 0)) is None


@st.composite
def tables_bounded_below(draw):
    """A table whose top set bit t is lighter than a set bit h < t below it.

    h and t share the bits above some position q; t has bit q and nothing
    below it, h has at least two bits below q.
    """
    n = draw(st.integers(3, 12))
    q = draw(st.integers(2, n - 1))
    a, b = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
    high = draw(st.integers(0, (1 << n) - 1)) >> (q + 1) << (q + 1)
    h = high | 1 << a | 1 << b | draw(st.integers(0, (1 << q) - 1))
    t = high | 1 << q
    noise = draw(st.integers(0, (1 << t) - 1)) if draw(st.booleans()) else 0
    return TruthTable(n, 1 << t | 1 << h | noise)


@st.composite
def tables_bounded_at(draw):
    """A table whose top set bit is also its heaviest, other bits at random below it."""
    n = draw(st.integers(1, 12))
    t = draw(st.integers(0, (1 << n) - 1))
    ms = masks_recursive(n)
    light = sum(ms[j].bits for j in range(t.bit_count() + 1))
    return TruthTable(n, 1 << t | draw(st.integers(0, (1 << t) - 1)) & light)


@given(tables_bounded_below())
def test_heavy_end_bound_below_the_answer(tt):
    top = (tt.bits.bit_length() - 1).bit_count()
    assert check_heavy_end(tt, masks_recursive(tt.n)) > top


@given(tables_bounded_at())
def test_heavy_end_bound_is_the_answer(tt):
    top = (tt.bits.bit_length() - 1).bit_count()
    assert check_heavy_end(tt, masks_recursive(tt.n)) == top


@pytest.mark.parametrize("n", range(1, 9))
def test_unions_above(n):
    for ms in mask_sets(n):
        above = ms.above
        assert len(above) == n + 2
        assert above[0] == (1 << (1 << n)) - 1 and above[n + 1] == 0
        for k in range(n + 1):
            assert above[k] == above[k + 1] | ms[k].bits
    assert mask_sets(n)[0].above == mask_sets(n)[1].above


class CountingInt(int):
    """An int that counts the ANDs it takes part in."""

    ands = 0

    def __and__(self, other):
        CountingInt.ands += 1
        return int.__and__(self, other)

    __rand__ = __and__


@pytest.mark.parametrize("n", [16, 20])
def test_heavy_end_ands_per_single_bit(n):
    # at most ceil(log2 n) + 1 ANDs for one bit of any weight: the top row
    # costs none, the bisection ceil(log2 n), and the final AND one; the
    # walk down the layers took n + 1 for a bit of weight 0
    budget = (n - 1).bit_length() + 1
    ms = masks_recursive(n)
    rng = random.Random(n)
    spent = []
    for w in range(n + 1):
        lowest = (1 << w) - 1
        for s in (lowest, lowest << (n - w), *(sum(1 << b for b in rng.sample(range(n), w)) for _ in range(2))):
            tt = TruthTable(n, CountingInt(1 << s))
            for search in (lambda: bitwise_search_max(tt, ms), lambda: algebraic_degree(tt, ms), lambda: wlo_search_max(tt).weight):
                CountingInt.ands = 0
                assert search() == w
                spent.append(CountingInt.ands)
                assert CountingInt.ands <= budget, (n, s, CountingInt.ands)
    assert max(spent) > 0  # the counter sees the kernel's ANDs


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
