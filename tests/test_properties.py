"""Property tests over random truth tables for n = 1..12."""

from functools import lru_cache

from hypothesis import given
from hypothesis import strategies as st

from wlocube import (
    SearchStats,
    TruthTable,
    bitwise_search_max,
    layer_support,
    masks_recursive,
    mobius_transform,
    wlo_bucket,
    wlo_search_max,
    wlo_search_min,
)
from wlocube.masks import word_count

dims = st.integers(1, 12)


@st.composite
def tables(draw):
    n = draw(dims)
    return TruthTable(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


# wlo_bucket and masks_recursive rebuild their structure on every call
wlo = lru_cache(maxsize=None)(wlo_bucket)
masks = lru_cache(maxsize=None)(masks_recursive)


@given(tables())
def test_raw_round_trip(tt):
    raw = tt.bits.to_bytes(8 * word_count(tt.n), "little")
    assert TruthTable.from_raw(tt.n, raw) == tt


@given(tables())
def test_bitstring_round_trip(tt):
    s = tt.to_bitstring()
    assert len(s) == 1 << tt.n
    assert TruthTable.from_bitstring(tt.n, s) == tt


@given(tables())
def test_mobius_involution(tt):
    assert mobius_transform(mobius_transform(tt)) == tt


@given(tables())
def test_min_weight_at_most_max_weight(tt):
    seq = wlo(tt.n)
    lo, hi = wlo_search_min(tt, seq), wlo_search_max(tt, seq)
    if tt.bits == 0:
        assert lo is None and hi is None
    else:
        assert lo.weight <= hi.weight


@given(tables())
def test_bitwise_agrees_with_wlo_scan(tt):
    ms = masks(tt.n)
    hit = wlo_search_max(tt, wlo(tt.n))
    row = bitwise_search_max(tt, ms)
    if hit is None:
        assert row is None
    else:
        assert row == hit.weight
        assert layer_support(tt, ms[row])[-1] == hit.serial


@given(tables())
def test_search_commutes_with_complement(tt):
    # g(s) = f(s ^ (2^n - 1)): reversing the bit string complements every serial
    n, full = tt.n, (1 << tt.n) - 1
    g = TruthTable.from_bitstring(n, tt.to_bitstring()[::-1])
    seq = wlo(n)
    hi, lo = wlo_search_max(g, seq), wlo_search_min(tt, seq)
    if lo is None:
        assert hi is None
    else:
        assert (hi.serial, hi.weight) == (lo.serial ^ full, n - lo.weight)


@given(tables())
def test_search_counters(tt):
    n, size = tt.n, 1 << tt.n
    seq, ms = wlo(n), masks(n)
    hi_stats, lo_stats, row_stats = SearchStats(), SearchStats(), SearchStats()
    hi = wlo_search_max(tt, seq, hi_stats)
    lo = wlo_search_min(tt, seq, lo_stats)
    row = bitwise_search_max(tt, ms, row_stats)
    if tt.bits == 0:
        assert hi_stats.probes == lo_stats.probes == size
        assert row_stats.rows_tested == n + 1
    else:
        assert hi_stats.probes == size - seq.order.index(hi.serial)
        assert lo_stats.probes == seq.order.index(lo.serial) + 1
        assert row_stats.rows_tested == n - row + 1
    assert row_stats.word_ops == row_stats.rows_tested * word_count(n)


@given(dims)
def test_masks_partition_the_cube(n):
    acc = 0
    for mask in masks(n).masks:
        assert acc & mask.bits == 0
        acc |= mask.bits
    assert acc == (1 << (1 << n)) - 1
