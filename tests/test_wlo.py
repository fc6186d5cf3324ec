import math

import pytest

from wlocube import layer_serials, layer_slice, wlo_bucket, wlo_recursive

TABLE_ROWS = {
    1: [0, 1],
    2: [0, 1, 2, 3],
    3: [0, 1, 2, 4, 3, 5, 6, 7],
    4: [0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15],
}


def sort_oracle(n):
    return sorted(range(1 << n), key=lambda s: (s.bit_count(), s))


def test_bucket_known_rows():
    for n, row in TABLE_ROWS.items():
        assert wlo_bucket(n).order == row


def test_recursive_known_rows():
    for n, row in TABLE_ROWS.items():
        assert wlo_recursive(n).order == row
    assert wlo_recursive(5).order[:17] == [0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 7]


def test_generators_agree_and_match_oracle():
    for n in range(1, 13):
        a = wlo_bucket(n)
        b = wlo_recursive(n)
        assert a.order == b.order == sort_oracle(n)
        assert a.layer_offsets == b.layer_offsets
        assert [s for k in range(n + 1) for s in layer_serials(n, k)] == a.order


def test_layer_slices():
    seq = wlo_bucket(4)
    assert layer_slice(seq, 2) == [3, 5, 6, 9, 10, 12]
    assert layer_slice(seq, 0) == [0]
    assert layer_slice(seq, 4) == [15]
    with pytest.raises(ValueError):
        layer_slice(seq, 5)
    with pytest.raises(ValueError):
        layer_slice(seq, -1)


def test_layer_invariants():
    for n in range(1, 13):
        seq = wlo_bucket(n)
        assert seq.layer_offsets[0] == 0 and seq.layer_offsets[-1] == 1 << n
        for k in range(n + 1):
            sl = layer_slice(seq, k)
            assert len(sl) == math.comb(n, k)
            assert all(s.bit_count() == k for s in sl)
            assert sl == sorted(sl)


def test_order_is_permutation_with_nondecreasing_weights():
    for n in range(1, 13):
        order = wlo_bucket(n).order
        assert sorted(order) == list(range(1 << n))
        weights = [s.bit_count() for s in order]
        assert weights == sorted(weights)


def test_dim_out_of_range():
    for bad in (0, 31):
        with pytest.raises(ValueError):
            wlo_bucket(bad)
        with pytest.raises(ValueError):
            wlo_recursive(bad)
