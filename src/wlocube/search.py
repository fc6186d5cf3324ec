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

A table that from_raw has not parsed yet (n >= 16, DEFER_PARSE_MIN_N)
is read from its bytes first.  wlo_search_max tests the scan's first
n + 1 probes, layers n and n - 1, in l_n order from a (byte, bit, serial)
list cached per n; dense and low-degree tables mostly stop there.  Then
every search, and layer_support, takes its answer from the set serials
of a sparse table: one with at most _SPARSE_BUDGET (16) set bytes, each
of one bit.  Exact tests of the budget on the end bytes reject a denser
table in about 0.5 us; one they let through costs finds (memchr) and a
compare, up to a parse at n = 16 and a quarter of one at n = 18.  A
search decided there leaves the table unparsed.
Every other search parses the table and runs one kernel (_scan_hit),
which returns the serial where the paper's WLO scan stops: the first
support vector along l_n.  That lies in the first layer k from one end
that meets the table, and inside a layer l_n ascends, so it is the
highest set bit of the table's layer k from the heavy end and the lowest
from the light end.  Both ends bisect the unions of the masks,
mask_unions(n), from the weight of the table's top set bit, a free bound
on either extreme.  From the heavy end that bit is the hit unless a
heavier layer meets the table, so the heavy end reads no mask and spends
at most ceil(log2 n) ANDs; the light end ANDs masks 0 and 1 first and
its layer's mask last, at most 3 more.  A walk over the layers spends up
to n + 1.  SearchStats.probes is still the number of serials the paper's
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
from typing import NamedTuple, Optional

from .cube import cached_weight_table
from .masks import DEFER_PARSE_MIN_N, TruthTable, _slot_bits, mask_unions, masks_recursive, word_count
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


def _scan_hit(bits: int, n: int, heavy: bool) -> int:
    """The serial where the paper's scan of l_n stops from one end; -1
    for an empty table.

    The hit lies in the first layer k in scan order that meets the table.
    Both ends bisect the unions above = mask_unions(n) from the weight of
    the table's top set bit, a bound that comes free.  At the heavy end it
    bounds k from below, and the top bit is the hit unless a heavier layer,
    below n, meets the table; then k is the greatest layer with
    bits & above[k] nonzero, that AND is the table's layer k, and its top
    bit is the hit.  So the heavy end reads no mask and spends at most
    ceil(log2 n) ANDs, none when the top bit weighs n - 1 or n.  At the
    light end the bound is from above; after one AND each with masks 0 and
    1, where dense and low-degree tables stop, k is the least layer with
    bits & above[k + 1] != bits, and the hit is the lowest bit of the AND
    with mask k: at most 2 + ceil(log2(n - 1)) + 1 ANDs.  A walk over the
    layers spent up to n + 1.
    """
    if not heavy:
        ms = masks_recursive(n)
        x = bits & ms[0].bits or bits & ms[1].bits
        if not x and bits:
            k, hi, above = 2, (bits.bit_length() - 1).bit_count(), mask_unions(n)
            while k < hi:
                mid = (k + hi) >> 1
                if bits & above[mid + 1] != bits:
                    hi = mid
                else:
                    k = mid + 1
            x = bits & ms[k].bits
        return (x & -x).bit_length() - 1  # -1 for x == 0, an empty table
    s = bits.bit_length() - 1
    k, hi = s.bit_count(), n - 1
    if s > 0 and k < hi:  # dense tables mostly stop at k >= n - 1 and skip this
        above = mask_unions(n)
        while k < hi:
            mid = (k + hi + 1) >> 1
            y = bits & above[mid]
            if y:
                k, s = mid, y.bit_length() - 1
            else:
                hi = mid - 1
    return s


@lru_cache(maxsize=None)
def _end_probes(n: int) -> tuple[tuple[int, int, int], ...]:
    """The heavy end's first n + 1 probes, 2^n - 1 and then 2^n - 1 - 2^i
    for i = 0..n-1, as (byte, bit, serial) in the raw bytes, where serial s
    is bit s & 7 of byte s >> 3."""
    top = (1 << n) - 1
    return tuple((s >> 3, 1 << (s & 7), s) for s in (top, *(top ^ (1 << i) for i in range(n))))


def _end_hit(tt: TruthTable, n: int) -> Optional[int]:
    """The heavy end's first hit among its first n + 1 probes, read from the
    raw bytes of a table from_raw has not parsed; None for a parsed table,
    or when no probe fires."""
    raw = _slot_bits(tt)
    if raw.__class__ is bytes:
        for byte, bit, s in _end_probes(n):
            if raw[byte] & bit:
                return s
    return None


_SPARSE_BUDGET = 16  # the most set bytes, each of one bit, of a table read from its bytes


def _sparse_serials(tt: TruthTable) -> Optional[list[int]]:
    """Ascending set serials of a table from_raw has not parsed, if at most
    _SPARSE_BUDGET of its bytes are set, each to one bit; else None."""
    raw = _slot_bits(tt)
    # over the budget if more than 16 of the first 64 bytes, which the parse
    # reads first, or of the 128 end bytes are nonzero
    if raw.__class__ is not bytes or (z := raw.count(0, 0, 64)) < 64 - _SPARSE_BUDGET or z + raw.count(0, -64) < 128 - _SPARSE_BUDGET:
        return None
    found, rebuilt = [], bytearray(len(raw))
    for b in range(8):
        j = raw.find(1 << b)
        while j >= 0:
            if len(found) == _SPARSE_BUDGET:
                return None
            found.append(j << 3 | b)
            rebuilt[j] = 1 << b
            j = raw.find(1 << b, j + 1)
    # equal only if no byte but those found is set
    return sorted(found) if rebuilt == raw else None


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
    s = None
    if n >= DEFER_PARSE_MIN_N:
        if heavy:
            s = _end_hit(tt, n)
        # ties go as in l_n: the greatest serial heavy, the least light
        if s is None and (ones := _sparse_serials(tt)) is not None:
            s = max(reversed(ones), key=int.bit_count, default=-1) if heavy else min(ones, key=int.bit_count, default=-1)
    if s is None:
        s = _scan_hit(tt.bits, n, heavy)
    if s < 0:
        if stats is not None:
            stats.probes += 1 << n
        return None
    if stats is not None:
        # complementing maps l_n read from its heavy end onto l_n, so the
        # heavy end's 2^n - pos(s) is pos(~s) + 1, a rank over few bits
        stats.probes += _wlo_position(n, s ^ ((1 << n) - 1) if heavy else s) + 1
    # the named tuple's own __new__ is a Python-level wrapper round this call
    return _new_hit(SearchHit, (s, s.bit_count()))


def wlo_search_max(tt: TruthTable, seq: Optional[WloSequence] = None, stats: Optional[SearchStats] = None) -> Optional[SearchHit]:
    """Scan the WLO sequence from its heavy end; stop at the first hit.

    seq, when given, is only checked against tt's dimension: the scan reads
    the unions of the layer masks, and the result is the same without it.
    """
    return _wlo_scan(tt, seq, True, stats)


def wlo_search_min(tt: TruthTable, seq: Optional[WloSequence] = None, stats: Optional[SearchStats] = None) -> Optional[SearchHit]:
    """Scan the WLO sequence from its light end; stop at the first hit (seq as for wlo_search_max)."""
    return _wlo_scan(tt, seq, False, stats)


def bitwise_search_max(tt: TruthTable, ms: tuple[TruthTable, ...], stats: Optional[SearchStats] = None) -> Optional[int]:
    """The heaviest layer that meets the table: the paper's AND against
    the layer masks ms from the top layer down, bisected over mask_unions(n).

    ms, like wlo_search_max's seq, is only checked against tt's dimension:
    the search reads the unions, and only when the table's top set bit
    weighs less than n - 1.  Only the maximal weight is returned;
    witnesses are recovered separately via layer_support.
    """
    n = tt.n
    if n != ms[0].n:
        _check_same_dim(n, ms[0].n, "mask tuple")
    if n < DEFER_PARSE_MIN_N or (ones := _sparse_serials(tt)) is None:
        s = _scan_hit(tt.bits, n, True)
        hit = s.bit_count() if s >= 0 else None
    else:
        hit = max(map(int.bit_count, ones), default=None)
    if stats is not None:
        # a miss tests every row, as a hit on row 0 does
        tested = n + 1 - (hit or 0)
        stats.rows_tested += tested
        stats.word_ops += tested * word_count(n)
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
    n = tt.n
    if n != mask.n:
        _check_same_dim(n, mask.n, "mask")
    if n >= DEFER_PARSE_MIN_N and (ones := _sparse_serials(tt)) is not None:
        # the layer's top serial, (2^k - 1) << (n - k), weighs k
        k = (mask.bits.bit_length() - 1).bit_count()
        return [s for s in ones if s.bit_count() == k]
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


def algebraic_degree(anf: TruthTable, ms: tuple[TruthTable, ...]) -> Optional[int]:
    """Maximal weight of a serial with nonzero ANF coefficient.

    None for the zero function, whose degree is left undefined.
    """
    return bitwise_search_max(anf, ms)
