"""Max/min-weight support search over truth tables.

A truth table (masks.TruthTable, re-exported here) is one non-negative
int of 2^n bits, bit i being f at the vector with serial i, and each
layer mask is the truth table of one layer.  Three routes reach the same
answer: a full linear scan, a scan along the WLO sequence that stops at
the first hit, and a layer scan that ANDs the table against one layer
mask at a time.  The module also computes the algebraic degree of a
function from its ANF coefficient vector, which shares the truth-table
layout.

Every search runs one kernel (_first_layer): it finds the first layer k
from one end whose mask meets the table, and returns their AND.  The
light end ANDs the table against the masks from layer 0 up and stops at
the first nonzero AND.  The heavy end bisects the unions of the masks
(MaskSet.above) from the weight of the table's top set bit, so it spends
at most ceil(log2 n) + 1 ANDs where the paper's loop spends one per
layer from n down.  The paper's WLO scan stops at the first support
vector along l_n; inside a layer l_n ascends, so that vector is the
highest set bit of the AND from the heavy end and the lowest from the
light end.  SearchStats.probes is still the number of serials the
paper's scan probes: the hit's position in l_n, which is the layers
below it plus its colex rank inside its layer, or 2^n on a miss.

The bitwise route returns only the weight; layer_support then reads the
witnesses out of that layer's AND.  It costs at most 16 passes over the
AND for up to 16 witnesses, plus one byte scan beyond that.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple, Optional

from .cube import cached_weight_table
from .masks import MaskSet, TruthTable, masks_recursive, word_count
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


# per byte value: the positions of its set bits, and a 0/1 nonzero flag
_BYTE_ONES = tuple(tuple(b for b in range(8) if (v >> b) & 1) for v in range(256))
_NONZERO_BYTE = bytes([0] + [1] * 255)
# layer_support's peel: unbounded, it is quadratic in a dense support, and
# without the window test a crowded top costs up to 1.6x the byte scan
_PEEL_BUDGET = 16
_PEEL_WINDOW = 1 << 12


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

    The heavy end bisects the unions ms.above: k is the greatest layer
    with bits & above[k] nonzero, and that AND is bits & mask k, since
    every layer above k misses.  The weight of the table's top set bit
    bounds k from below for free, and it is n iff the top row is set,
    which dense tables hit half the time at no AND.  So the heavy end
    costs at most ceil(log2 n) + 1 ANDs, where a walk down the layers
    spent one per empty layer.  The light end walks the masks from layer 0
    up: dense and low-degree tables stop at once, and no bound comes free
    at that end, since the lowest set bit costs a two's-complement pass
    over the table.
    """
    if not heavy:
        for mask in ms.masks:
            x = bits & mask.bits
            if x:
                return x
        return 0
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
    return SearchHit(s, s.bit_count())


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

    It costs at most 16 (_PEEL_BUDGET) passes over the AND for up to 16
    witnesses, plus one byte scan beyond that: the highest set bits are
    peeled one pass each, and only what the budget leaves is scanned.  When
    the top _PEEL_WINDOW bits of the AND alone hold more set bits than the
    budget, the peel is skipped and the byte scan reads the whole AND.
    """
    _check_same_dim(tt.n, mask.n, "mask")
    x = tt.bits & mask.bits
    peeled = []
    low = x.bit_length() - _PEEL_WINDOW
    if low <= 0 or (x >> low).bit_count() <= _PEEL_BUDGET:
        while x and len(peeled) < _PEEL_BUDGET:
            b = x.bit_length() - 1
            peeled.append(b)
            x ^= 1 << b
        if not x:
            return peeled[::-1]
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
def _butterfly_patterns(n: int) -> tuple[int, ...]:
    """P_s for s < n: the 2^n-bit int with bit i set iff bit s of i is 0.

    Built by doubling a block of 2^s ones followed by 2^s zeros.
    """
    size = 1 << n
    patterns = []
    for s in range(n):
        p = (1 << (1 << s)) - 1
        width = 2 << s
        while width < size:
            p |= p << width
            width <<= 1
        patterns.append(p)
    return tuple(patterns)


def mobius_transform(tt: TruthTable) -> TruthTable:
    """Binary Moebius (butterfly) transform over GF(2); an involution.

    Maps a truth table to its ANF coefficient vector and back.  Step s
    XORs every coordinate whose serial has bit s clear into its partner
    2^s above: v ^= (v & P_s) << 2^s (TAOCP 4A, 7.1.3).
    """
    v = tt.bits
    for s, p in enumerate(_butterfly_patterns(tt.n)):
        v ^= (v & p) << (1 << s)
    return TruthTable(tt.n, v)


def algebraic_degree(anf: TruthTable, ms: MaskSet) -> Optional[int]:
    """Maximal weight of a serial with nonzero ANF coefficient.

    None for the zero function, whose degree is left undefined.
    """
    return bitwise_search_max(anf, ms)
