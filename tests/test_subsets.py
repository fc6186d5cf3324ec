import math
import random

import pytest

from wlocube import (
    SubsetUniverse,
    k_subsets,
    precedes,
    rank,
    set_op,
    subsets_in_cardinality_order,
    unrank,
    wlo_bucket,
)
from wlocube.subsets import members_in_order

U6 = SubsetUniverse(("a", "b", "c", "d", "e", "f"))


def test_universe_validation():
    with pytest.raises(ValueError):
        SubsetUniverse(("a", "a"))
    with pytest.raises(ValueError):
        SubsetUniverse(())
    with pytest.raises(ValueError):
        SubsetUniverse(tuple(f"x{i}" for i in range(31)))


def test_rank_examples():
    assert rank(U6, {"b", "c", "e"}).serial == 26
    assert rank(U6, set()).serial == 0
    assert rank(U6, {"c", "a", "f", "d"}).serial == 45
    with pytest.raises(ValueError):
        rank(U6, {"z"})


def test_unrank_examples():
    assert unrank(U6, 45) == {"a", "c", "d", "f"}
    assert unrank(U6, 63) == set(U6.elements)
    assert unrank(U6, 26) == {"b", "c", "e"}
    with pytest.raises(ValueError):
        unrank(U6, 64)


def test_round_trip():
    for n in (1, 4, 8, 12):
        u = SubsetUniverse(tuple(f"e{i}" for i in range(n)))
        for s in range(1 << n):
            assert rank(u, unrank(u, s)).serial == s


def test_set_op_examples():
    x = rank(U6, {"b", "c", "e"})
    y = rank(U6, {"a", "c", "d", "f"})
    assert set_op(x, y, "intersection").serial == 8
    assert unrank(U6, set_op(x, y, "intersection").serial) == {"c"}
    empty = rank(U6, set())
    assert set_op(x, empty, "union") == x
    assert set_op(x, x, "symmetric_difference").serial == 0


def test_set_op_isomorphism():
    rng = random.Random(3)
    for n in (2, 5, 9, 12):
        u = SubsetUniverse(tuple(f"e{i}" for i in range(n)))
        universe = set(u.elements)
        for _ in range(50):
            a = rank(u, {e for e in u.elements if rng.random() < 0.5})
            b = rank(u, {e for e in u.elements if rng.random() < 0.5})
            sa, sb = unrank(u, a.serial), unrank(u, b.serial)
            assert unrank(u, set_op(a, b, "union").serial) == sa | sb
            assert unrank(u, set_op(a, b, "intersection").serial) == sa & sb
            assert unrank(u, set_op(a, b, "symmetric_difference").serial) == sa ^ sb
            assert unrank(u, set_op(a, b, "complement_of_a").serial) == universe - sa


def test_set_op_errors():
    other = SubsetUniverse(("a", "b", "c", "d", "e", "g"))
    with pytest.raises(ValueError):
        set_op(rank(U6, {"a"}), rank(other, {"a"}), "union")
    with pytest.raises(ValueError):
        set_op(rank(U6, {"a"}), rank(U6, {"b"}), "bogus")


def test_subset_inclusion_matches_precedes():
    for n in range(1, 9):
        u = SubsetUniverse(tuple(f"e{i}" for i in range(n)))
        for a in range(1 << n):
            sa = unrank(u, a)
            for b in range(1 << n):
                assert (sa <= unrank(u, b)) == precedes(a, b, n)


def test_cardinality_order():
    u3 = SubsetUniverse(("a", "b", "c"))
    handles = list(subsets_in_cardinality_order(u3))
    assert [h.serial for h in handles] == [0, 1, 2, 4, 3, 5, 6, 7]
    assert [members_in_order(h) for h in handles] == [
        [],
        ["c"],
        ["b"],
        ["a"],
        ["b", "c"],
        ["a", "c"],
        ["a", "b"],
        ["a", "b", "c"],
    ]
    u1 = SubsetUniverse(("a",))
    assert [h.serial for h in subsets_in_cardinality_order(u1)] == [0, 1]


def test_cardinality_order_matches_wlo():
    for n in range(1, 12):
        u = SubsetUniverse(tuple(f"e{i}" for i in range(n)))
        serials = [h.serial for h in subsets_in_cardinality_order(u)]
        assert serials == wlo_bucket(n).order.tolist()
        sizes = [len(unrank(u, s)) for s in serials]
        assert sizes == sorted(sizes)
        assert len(set(serials)) == 1 << n
        # first C(n,1) entries after the empty set are the singletons
        singles = serials[1 : 1 + n]
        assert all(s.bit_count() == 1 for s in singles)


def test_k_subsets():
    u4 = SubsetUniverse(("a", "b", "c", "d"))
    assert [h.serial for h in k_subsets(u4, 2)] == [3, 5, 6, 9, 10, 12]
    assert [h.serial for h in k_subsets(u4, 0)] == [0]
    assert [h.serial for h in k_subsets(u4, 4)] == [15]
    for n in (3, 6):
        u = SubsetUniverse(tuple(f"e{i}" for i in range(n)))
        for k in range(n + 1):
            assert sum(1 for _ in k_subsets(u, k)) == math.comb(n, k)
    with pytest.raises(ValueError):
        list(k_subsets(u4, 5))
