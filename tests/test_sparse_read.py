"""The sparse read: searches on a table from_raw has not parsed, with at most
_SPARSE_BUDGET set bytes, each of one bit, answered from its set serials.

Every answer and counter must equal the parsed route's, TruthTable(n, bits);
a table the read decides stays unparsed and builds no mask, and any other
table falls back to the parse.
"""

import random

import pytest

from wlocube import SearchStats, TruthTable, bitwise_search_max, layer_support, masks_recursive, wlo_search_max, wlo_search_min
from wlocube.masks import _slot_bits, mask_unions
from wlocube.search import _SPARSE_BUDGET

DIMS = (16, 17, 18, 19, 20)


def raw_of(n, bits):
    return bits.to_bytes(1 << (n - 3), "little")


def is_unparsed(tt):
    return _slot_bits(tt).__class__ is bytes


def of_weight(rng, n, w):
    return sum(1 << v for v in rng.sample(range(n), w))


def in_bytes(rng, byte_list):
    """One set bit, at random, in each of the given bytes."""
    return [j << 3 | rng.randrange(8) for j in byte_list]


def apart(rng, n, weights):
    """One serial of each weight, in distinct bytes."""
    out, used = [], set()
    for w in weights:
        s = of_weight(rng, n, w)
        while s >> 3 in used:
            s = of_weight(rng, n, w)
        used.add(s >> 3)
        out.append(s)
    return out


def sparse_cases(n, rng):
    """(serials, whether the sparse read decides the table)."""
    nbytes = 1 << (n - 3)
    cases = []
    for count in range(_SPARSE_BUDGET + 2):  # 0 to budget + 1 set bytes
        cases.append(in_bytes(rng, rng.sample(range(nbytes), count)))
    # set bytes inside the 64-byte end windows, at and past the budget
    for low, high in ((8, 8), (9, 8), (16, 0), (17, 0), (64, 0), (0, 16), (0, 17), (3, 2)):
        cases.append(in_bytes(rng, rng.sample(range(64), low) + rng.sample(range(nbytes - 64, nbytes), high)))
    # the last 16 and the last 17 bytes all set, and the top and the bottom serials
    cases += [in_bytes(rng, range(nbytes - c, nbytes)) for c in (16, 17)]
    cases.append([0, (1 << n) - 1])
    cases.append([(1 << n) - 1 - (1 << i) for i in range(0, n, 3)])
    # ties at the top weight, and at the bottom weight
    cases.append(apart(rng, n, [n - 3] * 5 + [n - 5, 4, 2]))
    cases.append(apart(rng, n, [3] * 5 + [7, n - 2]))
    cases.append(apart(rng, n, [n // 2] * _SPARSE_BUDGET))
    out = [(c, len({s >> 3 for s in c}) == len(c) <= _SPARSE_BUDGET) for c in cases]
    # two bits in one byte fall back to the parse, alone and among others
    s = rng.randrange(1 << n) & ~1
    out += [([s, s | 1], False), ([s, s | 1, *in_bytes(rng, [0, nbytes - 1])], False)]
    return out


def bits_of(serials):
    return sum(1 << s for s in set(serials))


def searches(tt, ms):
    """Every search's answer and counters on tt."""
    out = []
    for search in (wlo_search_max, wlo_search_min):
        stats = SearchStats()
        out.append((search(tt, stats=stats), stats))
    stats = SearchStats()
    out.append((bitwise_search_max(tt, ms, stats), stats))
    return out


@pytest.mark.parametrize("n", DIMS)
def test_sparse_read_agrees_with_the_parsed_route(n):
    rng = random.Random(200 + n)
    ms = masks_recursive(n)
    for serials, decided in sparse_cases(n, rng):
        bits = bits_of(serials)
        want = searches(TruthTable(n, bits), ms)
        tt = TruthTable.from_raw(n, raw_of(n, bits))
        assert searches(tt, ms) == want, (n, serials)
        assert is_unparsed(tt) == decided, (n, serials)
        parsed_at_once = TruthTable.from_raw(n, bytearray(raw_of(n, bits)))
        assert type(parsed_at_once) is TruthTable and searches(parsed_at_once, ms) == want


@pytest.mark.parametrize("n", DIMS)
def test_sparse_layer_support_agrees_with_the_parsed_route_at_every_layer(n):
    rng = random.Random(300 + n)
    ms = masks_recursive(n)
    for serials, decided in sparse_cases(n, rng):
        bits = bits_of(serials)
        parsed = TruthTable(n, bits)
        for k in range(n + 1):
            tt = TruthTable.from_raw(n, raw_of(n, bits))
            assert layer_support(tt, ms[k]) == layer_support(parsed, ms[k]), (n, k, serials)
            assert is_unparsed(tt) == decided


def test_ties_go_as_in_the_scan():
    # the greatest serial of the top weight from the heavy end, the least
    # serial of the bottom weight from the light end
    n = 16
    heavy = [0b0111 << 12, 0b1110 << 4, 0b1011 << 8, 1]
    light = [0b11 << 14, 0b11 << 2, 0b101 << 6, 0xFFF]
    for serials, search, want in ((heavy, wlo_search_max, (0b0111 << 12, 3)), (light, wlo_search_min, (0b11 << 2, 2))):
        tt = TruthTable.from_raw(n, raw_of(n, bits_of(serials)))
        assert search(tt) == want == search(TruthTable(n, bits_of(serials)))
        assert is_unparsed(tt)


def test_a_decided_table_stays_unparsed_and_builds_no_masks():
    rng = random.Random(5)
    for n in DIMS:
        ms = masks_recursive(n)
        mask_unions(n)
        decided = [(bits_of(c), searches(TruthTable(n, bits_of(c)), ms)) for c, ok in sparse_cases(n, rng) if ok]
        supports = [[layer_support(TruthTable(n, bits), m) for m in ms] for bits, _ in decided]
        before = masks_recursive.cache_info(), mask_unions.cache_info()
        for (bits, want), support in zip(decided, supports):
            tt = TruthTable.from_raw(n, raw_of(n, bits))
            assert searches(tt, ms) == want
            assert [layer_support(tt, m) for m in ms] == support
            assert is_unparsed(tt)
        assert (masks_recursive.cache_info(), mask_unions.cache_info()) == before
