import math

import pytest

import wlocube
from wlocube import TruthTable, mask_paper_serial, mask_test, masks_from_wlo, masks_recursive, wlo_bucket
from wlocube.masks import mask_bit_groups, mask_bit_rows, word_count

PAPER_SERIALS = {
    1: (2, 1),
    2: (8, 6, 1),
    3: (128, 104, 22, 1),
    4: (32768, 26752, 5736, 278, 1),
}


def bits_of(mask):
    return {i for i in range(1 << mask.n) if (mask.bits >> i) & 1}


def test_word_count():
    assert word_count(1) == word_count(6) == 1
    assert word_count(7) == 2
    assert word_count(10) == 16


def test_masks_from_wlo_examples():
    ms = masks_from_wlo(wlo_bucket(4))
    assert bits_of(ms[2]) == {3, 5, 6, 9, 10, 12}
    assert bits_of(ms[0]) == {0}
    ms3 = masks_from_wlo(wlo_bucket(3))
    assert bits_of(ms3[1]) == {1, 2, 4}


def test_constructions_agree():
    for n in range(1, 13):
        a = masks_from_wlo(wlo_bucket(n))
        b = masks_recursive(n)
        for k in range(n + 1):
            assert a[k].bits == b[k].bits
            # masks_recursive builds its masks without the range check
            assert b[k] == a[k] == TruthTable(n, b[k].bits)


def test_per_bit_oracle_and_popcount():
    for n in range(1, 11):
        ms = masks_recursive(n)
        for k in range(n + 1):
            bits = bits_of(ms[k])
            assert len(bits) == math.comb(n, k)
            assert bits == {i for i in range(1 << n) if i.bit_count() == k}


def test_disjoint_and_complete():
    for n in range(1, 13):
        ms = masks_recursive(n)
        acc = 0
        for k in range(n + 1):
            assert acc & ms[k].bits == 0
            acc |= ms[k].bits
        assert acc == (1 << (1 << n)) - 1


def test_paper_serials_match_table():
    for n, expected in PAPER_SERIALS.items():
        ms = masks_recursive(n)
        assert tuple(mask_paper_serial(m) for m in ms) == expected
    for n in range(1, 9):
        assert mask_paper_serial(masks_recursive(n)[n]) == 1


def test_paper_serial_recursion_identity():
    prev = masks_recursive(1)
    for n in range(2, 9):
        cur = masks_recursive(n)
        shift = 1 << (1 << (n - 1))
        for i in range(1, n):
            lhs = mask_paper_serial(cur[i])
            rhs = shift * mask_paper_serial(prev[i]) + mask_paper_serial(prev[i - 1])
            assert lhs == rhs
        prev = cur


def test_paper_serial_is_the_mirror_layer():
    # reversing the coordinates maps serial i to 2^n - 1 - i, of weight
    # n - wt(i); masks --paper-serials and A305860 print the mirror's bits
    for n in range(1, 13):
        for source in (masks_recursive(n), masks_from_wlo(wlo_bucket(n))):
            assert [mask_paper_serial(m) for m in source] == [m.bits for m in reversed(source)]


def test_mask_test():
    ms = masks_recursive(4)
    assert mask_test(ms[2], 12)
    assert not mask_test(ms[2], 0)
    assert mask_test(masks_recursive(5)[3], 7)
    with pytest.raises(ValueError):
        mask_test(ms[2], 16)


def test_bit_rows_rendering():
    ms = masks_recursive(4)
    assert mask_bit_rows(ms[0]) == "10000000 00000000"
    assert mask_bit_rows(ms[2]) == "00010110 01101000"
    assert mask_bit_rows(ms[4]) == "00000000 00000001"
    # the streamed groups agree with slicing the bit string, where n < 3 is
    # one group shorter than 8
    for n in range(1, 11):
        for mask in masks_recursive(n):
            bits = mask.to_bitstring()
            assert list(mask_bit_groups(mask)) == [bits[i : i + 8] for i in range(0, len(bits), 8)]


def test_every_export_resolves():
    # a stale name in __all__ makes the star import raise AttributeError
    namespace = {}
    exec("from wlocube import *", namespace)
    assert set(wlocube.__all__) <= namespace.keys()
