"""The deferred parse of from_raw at n >= 16, and wlo_search_max's end read.

wlo_search_max on a table from_raw has not parsed reads the heavy end's
first n + 1 probes from the raw bytes, and a search decided there must
leave the table unparsed; the other searches parse it unless it is
sparse (test_sparse_read).  Every answer and counter must equal the
parsed route's.
"""

import copy
import pickle
import random
import sys
import threading

import pytest

from wlocube import (
    SearchStats,
    TruthTable,
    bitwise_search_max,
    exhaustive_max,
    layer_support,
    masks_recursive,
    mobius_transform,
    wlo_search_max,
    wlo_search_min,
)
from wlocube.masks import DEFER_PARSE_MIN_N, _DeferredTable, _slot_bits

DIMS = (16, 17, 18, 19, 20)


def raw_of(n, bits):
    return bits.to_bytes(1 << (n - 3), "little")


def is_unparsed(tt):
    return _slot_bits(tt).__class__ is bytes


def lowdeg_bits(rng, n):
    """perfbench's lowdeg recipe: one monomial of degree d in 1..6 and up to
    64 of lower degree, XORed into an ANF, then Moebius to a truth table."""
    d = rng.randint(1, 6)
    anf = 0
    for degree in [d] + [rng.randrange(d) for _ in range(rng.randint(0, 64))]:
        anf ^= 1 << sum(1 << v for v in rng.sample(range(n), degree))
    return mobius_transform(TruthTable(n, anf)).bits


def end_serials(n):
    """Every serial of layers n, n - 1, 1 and 0."""
    top = (1 << n) - 1
    return [top] + [top ^ (1 << i) for i in range(n)] + [0] + [1 << i for i in range(n)]


def tables(n, rng):
    size = 1 << n
    out = [0, (1 << size) - 1, rng.getrandbits(size)]
    out += [sum(1 << s for s in rng.sample(range(size), rng.randint(1, 8))) for _ in range(8)]
    out += [lowdeg_bits(rng, n) for _ in range(6)]
    for s in end_serials(n):
        out += [1 << s, 1 << s | 1 << rng.randrange(size)]
    return out


def assert_same_searches(n, bits, ms):
    parsed = TruthTable(n, bits)
    raw = raw_of(n, bits)
    for search in (wlo_search_max, wlo_search_min):
        want_stats, got_stats = SearchStats(), SearchStats()
        assert search(TruthTable.from_raw(n, raw), stats=got_stats) == search(parsed, stats=want_stats)
        assert got_stats == want_stats
    want_stats, got_stats = SearchStats(), SearchStats()
    assert bitwise_search_max(TruthTable.from_raw(n, raw), ms, got_stats) == bitwise_search_max(parsed, ms, want_stats)
    assert got_stats == want_stats


@pytest.mark.parametrize("n", DIMS)
def test_end_read_agrees_with_the_parsed_route(n):
    rng = random.Random(n)
    ms = masks_recursive(n)
    for bits in tables(n, rng):
        assert_same_searches(n, bits, ms)


@pytest.mark.parametrize("n", DIMS)
def test_layer_support_agrees_with_the_parsed_route_at_every_layer(n):
    rng = random.Random(100 + n)
    ms = masks_recursive(n)
    # the dense tables' middle layers are long; two of them per dimension
    picked = [(1 << (1 << n)) - 1, rng.getrandbits(1 << n)]
    picked += [t for t in tables(n, rng) if t.bit_count() < 1 << 10]
    for bits in picked:
        parsed, raw = TruthTable(n, bits), raw_of(n, bits)
        for k in range(n + 1):
            assert layer_support(TruthTable.from_raw(n, raw), ms[k]) == layer_support(parsed, ms[k]), (n, k)


def test_end_probes_alone_and_with_one_other_bit():
    # each end serial on its own is the hit from its end; a second bit
    # decides by l_n order, which the parsed route gives
    n = DEFER_PARSE_MIN_N
    top = (1 << n) - 1
    for s in end_serials(n):
        tt = TruthTable.from_raw(n, raw_of(n, 1 << s))
        if s.bit_count() >= n - 1:
            assert wlo_search_max(tt) == (s, s.bit_count())
        else:
            assert wlo_search_min(tt) == (s, s.bit_count())
    both = TruthTable.from_raw(n, raw_of(n, 1 << (top ^ 1) | 1 << (top ^ 2)))
    assert wlo_search_max(both) == (top ^ 1, n - 1)
    assert is_unparsed(both)
    assert layer_support(both, masks_recursive(n)[n - 1]) == [top ^ 2, top ^ 1]


def test_a_decided_search_leaves_the_table_unparsed_and_builds_no_masks():
    n = 19
    rng = random.Random(7)
    top = (1 << n) - 1
    # decided at layer n, in the last byte, and at layer n - 1 past it
    heavy = [1 << top | rng.getrandbits(1 << n), 1 << (top ^ (1 << 13)), 1 << (top ^ 1) | 1 << 5]
    wanted = []
    for bits in heavy:
        want = SearchStats()
        wanted.append((wlo_search_max(TruthTable(n, bits), stats=want), want))
    before = masks_recursive.cache_info()
    decided = []
    for bits, want in zip(heavy, wanted):
        tt = TruthTable.from_raw(n, raw_of(n, bits))
        got = SearchStats()
        decided.append((tt, wlo_search_max(tt, stats=got)))
        assert is_unparsed(tt)
        assert (decided[-1][1], got) == want
    assert masks_recursive.cache_info() == before
    # the bitwise route and the light end agree with the end read; they
    # parse the dense table, and read the sparse ones from their set bytes
    ms = masks_recursive(n)
    for tt, hit in decided:
        row = bitwise_search_max(tt, ms)
        assert hit.weight == row >= n - 1
        assert layer_support(tt, ms[row])[-1] == hit.serial
        assert is_unparsed(tt) == (tt is not decided[0][0])
    tt = TruthTable.from_raw(n, raw_of(n, 1 | 1 << 40))
    assert wlo_search_min(tt) == (0, 0)
    assert is_unparsed(tt)
    # a table neither the end probes nor the sparse read decide, here for
    # two bits in one byte, is parsed, once, on the way to the kernel
    tt = TruthTable.from_raw(n, raw_of(n, 1 << 1000 | 1 << 1001))
    assert wlo_search_max(tt) == (1001, 7)
    assert wlo_search_min(tt) == (1000, 6)
    assert not is_unparsed(tt)


def test_from_raw_defers_only_bytes_at_n_16_and_up():
    rng = random.Random(3)
    for n in (6, 10, 16, 17, 20):
        bits = rng.getrandbits(1 << n)
        raw = raw_of(n, bits)
        tt = TruthTable.from_raw(n, raw)
        assert type(tt) is (_DeferredTable if n >= DEFER_PARSE_MIN_N else TruthTable)
        assert is_unparsed(tt) == (n >= DEFER_PARSE_MIN_N)
        assert tt.bits == bits and not is_unparsed(tt)
        for buf in (bytearray(raw), memoryview(raw)):
            assert type(TruthTable.from_raw(n, buf)) is TruthTable


def test_a_bytearray_changed_after_from_raw_leaves_the_table_as_it_was():
    for n in (10, 17):
        buf = bytearray(raw_of(n, 1 << 5))
        tt = TruthTable.from_raw(n, buf)
        buf[-1] = 0xFF
        buf[0] = 0
        assert tt.bits == 1 << 5
        assert wlo_search_max(tt) == (5, 2)


def test_a_deferred_table_behaves_as_a_value():
    n = 17
    bits = random.Random(11).getrandbits(1 << n)
    parsed = TruthTable(n, bits)

    def fresh():
        return TruthTable.from_raw(n, raw_of(n, bits))

    assert fresh() == parsed and parsed == fresh() and fresh() == fresh()
    assert fresh() != TruthTable(n, bits ^ 1) and fresh() != bits
    assert hash(fresh()) == hash(parsed)
    assert len({fresh(), parsed}) == 1
    assert repr(fresh()) == repr(parsed) == f"TruthTable(n=17, bits={bits:#x})"
    assert eval(repr(fresh())) == parsed
    assert fresh().to_bitstring() == parsed.to_bitstring()
    assert mobius_transform(fresh()) == mobius_transform(parsed)
    assert exhaustive_max(fresh()) == exhaustive_max(parsed)
    for clone in (pickle.loads(pickle.dumps(fresh())), copy.copy(fresh()), copy.deepcopy(fresh())):
        assert type(clone) is TruthTable and clone == parsed
    tt = fresh()
    for name in ("n", "bits", "other"):
        with pytest.raises(AttributeError):
            setattr(tt, name, 0)
        with pytest.raises(AttributeError):
            delattr(tt, name)
    assert is_unparsed(tt) and tt == parsed


def test_threads_that_race_on_the_first_read_see_one_value():
    # every thread may parse the bytes and store its int; each stores the same
    n, rounds, workers = 17, 40, 8
    rng = random.Random(13)
    values = [rng.getrandbits(1 << n) for _ in range(rounds)]
    shared = [TruthTable.from_raw(n, raw_of(n, v)) for v in values]
    seen = [[None] * rounds for _ in range(workers)]
    start = threading.Barrier(workers)

    def read(w):
        start.wait(timeout=10)
        for i, tt in enumerate(shared):
            seen[w][i] = (tt.bits, wlo_search_min(tt), tt.bits)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for w in range(workers):
        for i, v in enumerate(values):
            assert seen[w][i] == (v, wlo_search_min(TruthTable(n, v)), v)
    assert not any(is_unparsed(tt) for tt in shared)
