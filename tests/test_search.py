import random

import pytest

from wlocube import (
    SearchHit,
    SearchStats,
    TruthTable,
    algebraic_degree,
    bitwise_search_max,
    exhaustive_max,
    layer_support,
    masks_recursive,
    mobius_transform,
    wlo_bucket,
    wlo_search_max,
    wlo_search_min,
)

EX2_BITS = {0, 3, 5, 6, 8, 10, 12}  # the worked 4-variable function


def make_tt(n, bits):
    return TruthTable.from_bits(n, bits)


def random_tt(rng, n):
    return TruthTable(n, rng.getrandbits(1 << n))


def test_truth_table_construction():
    tt = TruthTable.from_bitstring(4, "1001011010101000")
    assert tt == make_tt(4, EX2_BITS)
    assert tt.to_bitstring() == "1001011010101000"
    raw = tt.bits.to_bytes(8, "little")
    assert TruthTable.from_raw(4, raw) == tt
    with pytest.raises(ValueError):
        TruthTable.from_bitstring(4, "10")
    with pytest.raises(ValueError):
        TruthTable(4, (0, 0))
    # a bytearray fill would wrap -1 onto the top bit, and 2^n past the end
    for n in (1, 3, 10):
        for ones in ([-1], [1 << n]):
            with pytest.raises(ValueError):
                TruthTable.from_bits(n, ones)


def test_exhaustive_examples():
    assert exhaustive_max(make_tt(4, EX2_BITS)) == SearchHit(12, 2)
    assert exhaustive_max(make_tt(5, set())) is None
    for n in (3, 6):
        assert exhaustive_max(make_tt(n, {(1 << n) - 1})) == SearchHit((1 << n) - 1, n)


def test_wlo_search_examples():
    seq = wlo_bucket(4)
    stats = SearchStats()
    assert wlo_search_max(make_tt(4, EX2_BITS), seq, stats) == SearchHit(12, 2)
    assert stats.probes == 6
    assert wlo_search_max(make_tt(4, set()), seq) is None
    stats = SearchStats()
    assert wlo_search_max(make_tt(4, set(range(16))), seq, stats) == SearchHit(15, 4)
    assert stats.probes == 1


def test_wlo_search_min_examples():
    seq = wlo_bucket(4)
    assert wlo_search_min(make_tt(4, EX2_BITS), seq) == SearchHit(0, 0)
    assert wlo_search_min(make_tt(4, set()), seq) is None
    assert wlo_search_min(make_tt(4, {6, 15}), seq) == SearchHit(6, 2)


def test_bitwise_search_examples():
    ms = masks_recursive(4)
    stats = SearchStats()
    assert bitwise_search_max(make_tt(4, EX2_BITS), ms, stats) == 2
    assert stats.rows_tested == 3
    assert bitwise_search_max(make_tt(4, set()), ms) is None
    assert bitwise_search_max(make_tt(4, {0}), ms) == 0


def test_layer_support():
    ms = masks_recursive(4)
    assert layer_support(make_tt(4, EX2_BITS), ms[2]) == [3, 5, 6, 10, 12]
    assert layer_support(make_tt(4, EX2_BITS), ms[4]) == []
    assert layer_support(make_tt(4, set(range(16))), ms[3]) == [7, 11, 13, 14]


def test_dimension_mismatch():
    seq = wlo_bucket(5)
    ms = masks_recursive(5)
    tt = make_tt(4, {1})
    with pytest.raises(ValueError):
        wlo_search_max(tt, seq)
    with pytest.raises(ValueError):
        bitwise_search_max(tt, ms)
    with pytest.raises(ValueError):
        layer_support(tt, ms[0])


def test_search_equivalence_random():
    rng = random.Random(2024)
    for n in range(4, 11):
        seq = wlo_bucket(n)
        ms = masks_recursive(n)
        for _ in range(300):
            tt = random_tt(rng, n)
            ex = exhaustive_max(tt)
            wl = wlo_search_max(tt, seq)
            bw = bitwise_search_max(tt, ms)
            if ex is None:
                assert wl is None and bw is None
            else:
                assert wl == ex
                assert bw == ex.weight
                support = layer_support(tt, ms[bw])
                assert support and support[-1] == wl.serial


def test_mobius_hand_examples():
    assert mobius_transform(make_tt(2, set())) == make_tt(2, set())
    assert mobius_transform(make_tt(2, {0, 1, 2, 3})) == make_tt(2, {0})
    assert mobius_transform(make_tt(2, {1, 2})) == make_tt(2, {1, 2})


def test_mobius_matches_reference():
    # reference: elementwise in-place butterflies on a list
    def reference(bits, n):
        a = list(bits)
        for s in range(n):
            step = 1 << s
            for i in range(1 << n):
                if i & step:
                    a[i] ^= a[i - step]
        return a

    rng = random.Random(5)
    for n in (1, 3, 5, 6, 7, 8):
        for _ in range(20):
            tt = random_tt(rng, n)
            bits = [(tt.bits >> i) & 1 for i in range(1 << n)]
            expect = reference(bits, n)
            got = mobius_transform(tt)
            assert [(got.bits >> i) & 1 for i in range(1 << n)] == expect


def test_mobius_involution():
    rng = random.Random(11)
    for n in range(1, 13):
        for _ in range(25):
            tt = random_tt(rng, n)
            assert mobius_transform(mobius_transform(tt)) == tt


def test_algebraic_degree():
    ms = masks_recursive(4)
    assert algebraic_degree(make_tt(4, {15}), ms) == 4
    assert algebraic_degree(make_tt(4, {0}), ms) == 0
    assert algebraic_degree(make_tt(4, {3, 5, 9}), ms) == 2
    assert algebraic_degree(make_tt(4, set()), ms) is None


def test_algebraic_degree_matches_popcount_oracle():
    rng = random.Random(13)
    for n in range(1, 13):
        ms = masks_recursive(n)
        for _ in range(40):
            anf = random_tt(rng, n)
            v = anf.bits
            oracle = max((i.bit_count() for i in range(1 << n) if (v >> i) & 1), default=None)
            assert algebraic_degree(anf, ms) == oracle


def test_probe_bound_for_heavy_support():
    rng = random.Random(17)
    for n in range(4, 11):
        seq = wlo_bucket(n)
        for _ in range(50):
            tt = random_tt(rng, n)
            hit = wlo_search_max(tt, seq)
            if hit is not None and hit.weight >= n - 1:
                stats = SearchStats()
                wlo_search_max(tt, seq, stats)
                assert stats.probes <= n + 1
