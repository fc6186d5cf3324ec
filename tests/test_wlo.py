import math
import sys
import tracemalloc
from array import array

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
        assert wlo_bucket(n).order.tolist() == row


def test_recursive_known_rows():
    for n, row in TABLE_ROWS.items():
        assert wlo_recursive(n).order.tolist() == row
    assert wlo_recursive(5).order[:17].tolist() == [0, 1, 2, 4, 8, 16, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 7]


def test_generators_agree_and_match_oracle():
    # n = 17 is the first dimension whose serials set a bit in the third of
    # the four bytes wlo_bucket packs each serial into
    for n in (*range(1, 13), 17):
        a = wlo_bucket(n)
        b = wlo_recursive(n)
        assert a.order.tolist() == b.order.tolist() == sort_oracle(n)
        assert (a.order.typecode, len(a.order)) == (b.order.typecode, len(b.order)) == ("I", 1 << n)
        assert a.layer_offsets == b.layer_offsets
        assert [s for k in range(n + 1) for s in layer_serials(n, k)] == a.order.tolist()


def test_bucket_memory_is_four_bytes_a_serial():
    # order is one array('I') allocated at its exact size: 4*2^n bytes
    # past the empty array's, with no growth over-allocation.  The last row
    # is written straight into it, and each layer of the packed row before
    # it is freed after its last read, so the peak is the allocation of
    # order beside that whole row (half its size): measured 1.545 x 4*2^16
    # bytes, 1.0 KB retained over 4*2^16 (CPython 3.11, x86-64).  The slack
    # is the small objects.  A list of the 2^16 ints alone would be about
    # 2.4 MB.
    n, slack = 16, 8 << 10
    tracemalloc.start()
    try:
        seq = wlo_bucket(n)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seq.order) == 1 << n
    assert sys.getsizeof(seq.order) == sys.getsizeof(array("I")) + (4 << n)
    assert retained <= (4 << n) + slack
    assert peak <= 1.6 * (4 << n) + slack


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
