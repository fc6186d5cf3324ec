import random

import pytest

from wlocube import adjacent_split, build_weight_table, hamming_distance, precedes, weight_of
from wlocube.cube import MAX_DIM, cached_weight_table


def test_weight_of_examples():
    assert weight_of(26, 6) == 3
    assert weight_of(0, 5) == 0
    assert weight_of(15, 4) == 4


def test_weight_of_domain_errors():
    with pytest.raises(ValueError):
        weight_of(64, 6)
    with pytest.raises(ValueError):
        weight_of(-1, 6)
    with pytest.raises(ValueError):
        weight_of(0, 0)
    with pytest.raises(ValueError):
        weight_of(0, 31)


def test_weight_table_examples():
    assert build_weight_table(3) == [0, 1, 1, 2, 1, 2, 2, 3]
    assert build_weight_table(1) == [0, 1]
    table = build_weight_table(4)
    assert table == [weight_of(i, 4) for i in range(16)]


def test_weight_table_halves():
    for n in range(2, 11):
        table = build_weight_table(n)
        half = 1 << (n - 1)
        assert table[0] == 0 and table[-1] == n
        assert table[half:] == [w + 1 for w in table[:half]]


def test_weight_table_matches_popcount():
    # past n = 8 the table is joined from 256-byte blocks, and past n = 16
    # the blocks are indexed by a table that is itself joined
    for n in range(1, 21):
        assert cached_weight_table(n) == bytes(i.bit_count() for i in range(1 << n))


def test_cached_weight_table_prefixes():
    # the first 2^m serials of the n-cube are the m-cube's
    for n in range(2, 21):
        table = cached_weight_table(n)
        for m in range(1, n):
            assert table[: 1 << m] == cached_weight_table(m)


def test_cached_weight_table_type_and_length():
    for n in range(1, 23):
        table = cached_weight_table(n)
        assert type(table) is bytes and len(table) == 1 << n
        assert table[-1] == n and table[-2] == n - 1
    with pytest.raises(ValueError):
        cached_weight_table(0)
    with pytest.raises(ValueError):
        cached_weight_table(MAX_DIM + 1)


def test_hamming_distance_examples():
    assert hamming_distance(26, 45, 6) == 5
    assert hamming_distance(37, 37, 6) == 0
    for n in (1, 4, 9):
        assert hamming_distance(0, (1 << n) - 1, n) == n


def test_hamming_distance_is_weight_of_xor():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 16)
        a = rng.randrange(1 << n)
        b = rng.randrange(1 << n)
        assert hamming_distance(a, b, n) == weight_of(a ^ b, n)


def test_precedes_examples():
    # (1,0,0,0) and (0,1,1,0) are incomparable
    assert not precedes(8, 6, 4)
    assert not precedes(6, 8, 4)
    assert precedes(0, 13, 4)
    assert precedes(26, 30, 6)


def test_precedes_implies_weight_order():
    for n in range(1, 11):
        for a in range(1 << n):
            wa = a.bit_count()
            for b in range(1 << n):
                if (a & b) == a:
                    assert wa <= b.bit_count()


def test_precedes_antisymmetric():
    for n in range(1, 9):
        for a in range(1 << n):
            for b in range(1 << n):
                if (a & b) == a and (b & a) == b:
                    assert a == b


def test_adjacent_split_examples():
    assert adjacent_split(6, 3) == ([2, 4], [7])
    assert adjacent_split(0, 4) == ([], [1, 2, 4, 8])
    assert adjacent_split(8, 4) == ([0], [9, 10, 12])


def test_adjacent_split_sizes():
    for n in range(2, 11):
        for a in range(1 << n):
            lower, upper = adjacent_split(a, n)
            k = a.bit_count()
            assert len(lower) == k and len(upper) == n - k
            assert lower == sorted(lower) and upper == sorted(upper)
            for v in lower + upper:
                assert hamming_distance(a, v, n) == 1


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(3, 70, 6)
    with pytest.raises(ValueError):
        precedes(70, 3, 6)
