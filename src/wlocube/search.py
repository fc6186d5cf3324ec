"""Max/min-weight support search over truth tables.

A truth table (masks.TruthTable, re-exported here) is one non-negative
int of 2^n bits, bit i being f at the vector with serial i, and each
layer mask is the truth table of one layer.  Three routes reach the same
answer: a full linear scan, a scan along the WLO sequence that stops at
the first hit, and a layer scan that ANDs the table against one layer
mask at a time.  The module also computes the algebraic degree of a
function from its ANF coefficient vector, which shares the truth-table
layout; mobius_transform maps a truth table to that vector in n steps
read from a step table cached per n.

wlo_search_max first reads the scan's first n + 1 probes, layers n and
n - 1, when the table is one that from_raw has not parsed yet (n >= 17,
masks.DEFER_PARSE_MIN_N).  They lie in n - 2 bytes: one itemgetter picks
those, a translate maps them to 0/1 flags, and find(1) is the first hit in
l_n order.  Dense and low-degree tables mostly stop there, with the table
unparsed and no layer mask built.  The light end and the bitwise route
parse: read from the bytes they too ran 3.5-4.3x faster, but a call decided
there costs a few cache misses rather than work, so its time follows the
caller's cache traffic, and the benchmark's runs of them spread too far
to bound against the parsed route (README, Search).
Every other search parses the table and runs one kernel (_first_layer):
it finds the first layer k from one end whose mask meets the table, and
returns their AND.  Both ends bisect the unions of the masks
(MaskSet.above) from the weight of the table's top set bit, a free bound
on either extreme.  The heavy end spends at most ceil(log2 n) + 1 ANDs,
the light end at most 2 more, for layers 0 and 1 first; a walk over the
layers spends up to n + 1.  The paper's WLO scan stops at the first
support vector along l_n; inside a layer l_n ascends, so that vector is
the highest set bit of the AND from the heavy end and the lowest from the
light end.  SearchStats.probes is still the number of serials the paper's
scan probes: the hit's position in l_n, which is the layers below it plus
its colex rank inside its layer, or 2^n on a miss.

The bitwise route returns only the weight; layer_support then reads the
witnesses out of that layer's AND.  It costs the AND, then one XOR over it
per window of witnesses, except the window that reaches the layer's least
serial 2^k - 1, which costs none, and the window that holds every bit
left, which costs one compare; past 16 witnesses, one byte scan reads the
rest.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import NamedTuple, Optional

from .cube import cached_weight_table
from .masks import DEFER_PARSE_MIN_N, MaskSet, TruthTable, _slot_bits, masks_recursive, word_count
from .wlo import WloSequence


class SearchHit(NamedTuple):
    serial: int
    weight: int


@dataclass
class SearchStats:
    """Optional probe/word-op counters for the search routines.

    rows_tested and word_ops are the counts of the paper's bitwise loop,
    which ANDs one layer row at a time from n down: the rows down to the
    hit, and word_count(n) 64-bit words of the raw format per row.  Both
    are derived from the hit; they are not the ANDs the kernel spends.
    """

    probes: int = 0
    word_ops: int = 0
    rows_tested: int = 0


_new_hit = tuple.__new__
# per byte value: the positions of its set bits, and a 0/1 nonzero flag
_BYTE_ONES = tuple(tuple(b for b in range(8) if (v >> b) & 1) for v in range(256))
_NONZERO_BYTE = bytes([0] + [1] * 255)
# layer_support peels up to _PEEL_BUDGET witnesses, from windows of the top
# _PEEL_WINDOW bits of what is left of the AND; unbounded, the peel is
# quadratic in a dense support, and a crowded window wastes at most the
# budget's small-int peels before the byte scan takes over
_PEEL_BUDGET = 16
_PEEL_WINDOW = 1 << 12
_WINDOW_TOP = 1 << (_PEEL_WINDOW - 1)
# The heavy end's first n + 1 probes, in the raw bytes (serial i is bit
# i & 7 of byte i >> 3): 2^n - 1 and then 2^n - 1 - 2^i, for i = 0..n-1.
# The first four share the last byte, as its bits 7, 6, 5, 3; every other
# probe is the top bit of byte 2^(n-3) - 1 - 2^(i-3).
_HEAVY_END = tuple(bytes(v >> b & 1 for b in (7, 6, 5, 3)) for v in range(256))
_TOP_BIT = bytes(v >> 7 for v in range(256))


def _check_same_dim(n: int, other: int, what: str) -> None:
    if n != other:
        raise ValueError(f"dimension mismatch: truth table has n={n}, {what} has n={other}")


def exhaustive_max(tt: TruthTable, stats: Optional[SearchStats] = None) -> Optional[SearchHit]:
    """Linear scan of all 2^n coordinates.

    Ties among maximal-weight witnesses go to the greatest serial, matching
    the WLO scan, so the two routes agree exactly.
    """
    wt = cached_weight_table(tt.n)
    best = -1
    best_w = -1
    for i, c in enumerate(tt.to_bitstring()):
        if c == "1" and wt[i] >= best_w:
            best_w = wt[i]
            best = i
    if stats is not None:
        stats.probes += 1 << tt.n
    if best < 0:
        return None
    return SearchHit(best, best_w)


def _first_layer(bits: int, ms: MaskSet, heavy: bool) -> int:
    """bits & mask k for the first layer k in scan order whose AND is nonzero.

    The heavy end finds the greatest such k, the light end the least.  0
    when every AND is zero.  Every set bit of the result has weight k.

    Both ends bisect the unions ms.above from the weight of the table's
    top set bit, a bound that comes free.  At the heavy end it bounds k
    from below and is n iff the top row is set, which dense tables hit
    half the time at no AND; k is the greatest layer with bits & above[k]
    nonzero, and that AND is bits & mask k, since every layer above k
    misses.  At the light end it bounds k from above; after one AND each
    for layers 0 and 1, where dense and low-degree tables stop, k is the
    least layer with bits & above[k + 1] != bits.  So the heavy end costs
    at most ceil(log2 n) + 1 ANDs and the light end at most
    2 + ceil(log2(n - 1)) + 1, where a walk over the layers spent n + 1.
    """
    if not heavy:
        masks = ms.masks
        x = bits & masks[0].bits or bits & masks[1].bits
        if x or not bits:
            return x
        k, hi, above = 2, (bits.bit_length() - 1).bit_count(), ms.above
        while k < hi:
            mid = (k + hi) >> 1
            if bits & above[mid + 1] != bits:
                hi = mid
            else:
                k = mid + 1
        return bits & masks[k].bits
    if not bits:
        return 0
    k, hi, x = (bits.bit_length() - 1).bit_count(), ms.n - 1, 0
    if k > hi:  # the top row: its one serial is the table's top set bit
        return ms.masks[k].bits
    if k < hi:  # dense tables mostly stop at k == n-1 and skip this
        above = ms.above
        while k < hi:
            mid = (k + hi + 1) >> 1
            y = bits & above[mid]
            if y:
                k, x = mid, y
            else:
                hi = mid - 1
    # x, when set, is the AND at the final k; else k is still the bound
    return x or bits & ms.masks[k].bits


@lru_cache(maxsize=None)
def _end_getter(n: int) -> itemgetter:
    """For n >= 5: the bytes of the heavy end's probes 4..n."""
    last = (1 << (n - 3)) - 1
    return itemgetter(*(last - (1 << i) for i in range(n - 3)))


def _end_hit(tt: TruthTable, n: int) -> int:
    """The heavy end's first hit among its first n + 1 probes, read from the
    raw bytes of a table from_raw has not parsed; -1 for a parsed table, or
    when no probe fires."""
    raw = _slot_bits(tt)
    if raw.__class__ is not bytes:
        return -1
    # the last byte holds the first four probes, where most tables stop
    j = _HEAVY_END[raw[-1]].find(1)
    if j < 0:
        j = bytes(_end_getter(n)(raw)).translate(_TOP_BIT).find(1)
        if j < 0:
            return -1
        j += 4
    # probe 0 is 2^n - 1, probe j >= 1 is 2^n - 1 - 2^(j-1)
    return (1 << n) - 1 - (1 << j >> 1)


def _wlo_position(n: int, s: int) -> int:
    """Index of serial s in l_n.

    The layers below wt(s) come first.  Inside its layer l_n ascends, which
    is the colex order of k-subsets, so the rank of s there is the sum of
    C(c_i, i) over its set-bit positions c_1 < ... < c_k (TAOCP 4A,
    7.2.1.3, Theorem L).
    """
    k = s.bit_count()
    pos = sum(comb(n, j) for j in range(k))
    for i in range(1, k + 1):
        low = s & -s
        pos += comb(low.bit_length() - 1, i)
        s ^= low
    return pos


def _wlo_scan(tt: TruthTable, seq: Optional[WloSequence], heavy: bool, stats: Optional[SearchStats]) -> Optional[SearchHit]:
    """The paper's scan of l_n from one end: the extreme serial of the first nonempty layer.

    probes is the hit's 1-based position in the scan, 2^n on a miss.
    """
    n = tt.n
    if seq is not None and seq.n != n:
        _check_same_dim(n, seq.n, "sequence")
    if n < DEFER_PARSE_MIN_N or not heavy or (s := _end_hit(tt, n)) < 0:
        x = _first_layer(tt.bits, masks_recursive(n), heavy)
        if not x:
            if stats is not None:
                stats.probes += 1 << n
            return None
        s = x.bit_length() - 1 if heavy else (x & -x).bit_length() - 1
    if stats is not None:
        # complementing maps l_n read from its heavy end onto l_n, so the
        # heavy end's 2^n - pos(s) is pos(~s) + 1, a rank over few bits
        stats.probes += _wlo_position(n, s ^ ((1 << n) - 1) if heavy else s) + 1
    # the named tuple's own __new__ is a Python-level wrapper round this call
    return _new_hit(SearchHit, (s, s.bit_count()))


def wlo_search_max(tt: TruthTable, seq: Optional[WloSequence] = None, stats: Optional[SearchStats] = None) -> Optional[SearchHit]:
    """Scan the WLO sequence from its heavy end; stop at the first hit.

    seq, when given, is only checked against tt's dimension: the scan reads
    the layer masks, and the result is the same without it.
    """
    return _wlo_scan(tt, seq, True, stats)


def wlo_search_min(tt: TruthTable, seq: Optional[WloSequence] = None, stats: Optional[SearchStats] = None) -> Optional[SearchHit]:
    """Scan the WLO sequence from its light end; stop at the first hit (seq as for wlo_search_max)."""
    return _wlo_scan(tt, seq, False, stats)


def bitwise_search_max(tt: TruthTable, ms: MaskSet, stats: Optional[SearchStats] = None) -> Optional[int]:
    """The heaviest layer that meets the table: the paper's AND against
    layer masks from the top layer down, bisected over ms.above.

    Only the maximal weight is returned; witnesses are recovered separately
    via layer_support.
    """
    if tt.n != ms.n:
        _check_same_dim(tt.n, ms.n, "mask set")
    x = _first_layer(tt.bits, ms, True)
    hit = (x.bit_length() - 1).bit_count() if x else None
    if stats is not None:
        # a miss tests every row, as a hit on row 0 does
        tested = tt.n + 1 - (hit or 0)
        stats.rows_tested += tested
        stats.word_ops += tested * word_count(tt.n)
    return hit


def layer_support(tt: TruthTable, mask: TruthTable) -> list[int]:
    """Ascending serials of set bits of (tt AND mask).

    mask must be one layer's mask, masks_recursive(n)[k] or
    masks_from_wlo(seq)[k]: the peel stops at that layer's least serial,
    2^k - 1, and reads no bit below it.

    An AND that fits in one _PEEL_WINDOW is peeled as it is.  A longer one
    is read a window at a time: a right shift takes its top _PEEL_WINDOW
    bits, their witnesses are peeled as small ints, and one XOR clears the
    window from the AND.  The window that reaches 2^k - 1 holds all that is
    left, so it needs no XOR, and a window found equal to all that is left
    needs none either.  Past _PEEL_BUDGET (16) witnesses, so after at most
    16 XORs, one byte scan reads what is left.
    """
    if tt.n != mask.n:
        _check_same_dim(tt.n, mask.n, "mask")
    x = tt.bits & mask.bits
    peeled = []
    low = x.bit_length() - _PEEL_WINDOW
    if low <= 0:  # one window, as at every n <= 12: peel x itself
        while x and len(peeled) < _PEEL_BUDGET:
            b = x.bit_length() - 1
            peeled.append(b)
            x ^= 1 << b
        if not x:
            return peeled[::-1]
    else:
        # the layer's least serial, 2^k - 1 for the weight k of the top bit
        floor = (1 << (low + _PEEL_WINDOW - 1).bit_count()) - 1
        while True:
            if low < floor:
                low = floor
            w = v = x >> low
            # a lone witness, on the window's top bit, needs no small-int
            # peel, and 1 << it is cheaper to build than the equal w << low
            lone = w == _WINDOW_TOP
            if lone:
                peeled.append(low + _PEEL_WINDOW - 1)
                v = 0
            while v and len(peeled) < _PEEL_BUDGET:
                b = v.bit_length() - 1
                peeled.append(low + b)
                v ^= 1 << b
            if low == floor and not v:  # no bit lies below 2^k - 1
                return peeled[::-1]
            c = 1 << peeled[-1] if lone else (w ^ v) << low
            # the window held every bit left: the XOR would walk all of x down
            # to 0, where a compare reads x once and allocates nothing
            if x == c:
                return peeled[::-1]
            x ^= c
            if v or len(peeled) == _PEEL_BUDGET:
                break
            low = x.bit_length() - _PEEL_WINDOW
    view = x.to_bytes((x.bit_length() + 7) >> 3, "little")
    flags = view.translate(_NONZERO_BYTE)
    out = []
    j = flags.find(1)
    while j >= 0:
        out.extend((j << 3) + b for b in _BYTE_ONES[view[j]])
        j = flags.find(1, j + 1)
    out.extend(reversed(peeled))
    return out


@lru_cache(maxsize=None)
def _butterfly_steps(n: int) -> tuple[tuple[int, int], ...]:
    """(2^s, P_s) for s < n, P_s the 2^n-bit int with bit i set iff bit s of i is 0.

    Built by doubling a block of 2^s ones followed by 2^s zeros.
    """
    size = 1 << n
    steps = []
    for s in range(n):
        p = (1 << (1 << s)) - 1
        width = 2 << s
        while width < size:
            p |= p << width
            width <<= 1
        steps.append((1 << s, p))
    return tuple(steps)


def mobius_transform(tt: TruthTable) -> TruthTable:
    """Binary Moebius (butterfly) transform over GF(2); an involution.

    Maps a truth table to its ANF coefficient vector and back.  Step s
    XORs every coordinate whose serial has bit s clear into its partner
    2^s above: v ^= (v & P_s) << 2^s (TAOCP 4A, 7.1.3), from a step table
    of (2^s, P_s) built once per n.
    """
    v = tt.bits
    for d, p in _butterfly_steps(tt.n):
        v ^= (v & p) << d
    return TruthTable._trusted(tt.n, v)


def algebraic_degree(anf: TruthTable, ms: MaskSet) -> Optional[int]:
    """Maximal weight of a serial with nonzero ANF coefficient.

    None for the zero function, whose degree is left undefined.
    """
    return bitwise_search_max(anf, ms)
