"""Truth tables, and the layer masks as the truth tables of the layers.

A truth table is one non-negative int of 2^n bits in which bit i is the
function's value at the vector with serial i.  The mask of layer k is the
characteristic vector of that layer, that is the truth table of the
indicator of wt(alpha) == k, so a layer test is a single `&` of two
tables.  The MSB-first "serial number of a mask" convention (coordinate 0
as the most significant of the 2^n bits) is honored only when rendering
with mask_paper_serial.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .cube import MAX_DIM, check_dim, check_serial
from .wlo import WloSequence, layer_slice


def word_count(n: int) -> int:
    """64-bit words in the raw I/O format of 2^n bits: 1 for n <= 6, else 2^(n-6)."""
    return 1 << max(0, n - 6)


# from_raw defers the parse of a bytes table of 2^17 bits (16 KiB) or more,
# so a wlo_search_max that its first n + 1 probes decide reads n - 2 of its
# bytes.
# A deferred table that is parsed after all pays 0.3-0.5 us for its bits
# property: 3.4-4.5% of the parse at n=16, 2.2-2.3% at n=17 and 0.6-1.0% at
# n=18 (CPython 3.11, x86-64), so smaller tables are parsed at once
DEFER_PARSE_MIN_N = 17


class TruthTable:
    """A Boolean function of n variables as one int of 2^n bits.

    Bit i is f(alpha) for the vector with serial i.  The same layout
    stores ANF coefficient vectors and the layer masks.

    An immutable value, equal and hashed by (n, bits).  It is slotted, not
    a frozen dataclass, whose __init__ was 84% of from_raw at n=10 (CPython
    3.11, x86-64).  TruthTable(n, bits) checks both; _trusted checks
    nothing, and is only for bits the library bounded itself: from_bits,
    the masks, mobius_transform, and from_raw at n >= 6, whose 2^(n-3)
    bytes are 2^n bits.

    At n >= DEFER_PARSE_MIN_N (17), from_raw given a bytes object returns
    a private subclass that keeps those bytes in the bits slot and parses
    them on the first read of bits; wlo_search_max reads its first probes
    from the bytes instead.  Below 17 that property would cost 3.4% or
    more of the parse it defers, so from_raw parses at once, as it does for
    a bytearray or any other buffer, which can change after the call.  The
    two classes compare, hash, print and pickle alike.
    """

    __slots__ = ("n", "bits")

    def __new__(cls, n: int, bits: int):
        check_dim(n)
        if not isinstance(bits, int) or bits < 0 or bits >> (1 << n):
            raise ValueError(f"truth table bits must be an int in [0, 2^{1 << n}) for n={n}")
        return cls._trusted(n, bits)

    @classmethod
    def _trusted(cls, n: int, bits: int) -> "TruthTable":
        self = _new(cls)
        _set_n(self, n)
        _set_bits(self, bits)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"TruthTable is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (self.n, self.bits) == (other.n, other.bits) if isinstance(other, TruthTable) else NotImplemented

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"TruthTable(n={self.n!r}, bits={self.bits!r})"

    def __reduce__(self):
        return TruthTable, (self.n, self.bits)

    @classmethod
    def from_bits(cls, n: int, ones: Iterable[int]) -> "TruthTable":
        """The table whose set bits are the given serials, each in [0, 2^n)."""
        check_dim(n)
        size = 1 << n
        buf = bytearray((size + 7) >> 3)
        for i in ones:
            # a bytearray would wrap a negative index onto the top byte
            if not 0 <= i < size:
                raise ValueError(f"serial must be in [0, {size}) for n={n}, got {i}")
            buf[i >> 3] |= 1 << (i & 7)
        return cls._trusted(n, int.from_bytes(buf, "little"))

    @classmethod
    def from_bitstring(cls, n: int, s: str) -> "TruthTable":
        """Parse a string of 2^n '0'/'1' characters, coordinate 0 first."""
        check_dim(n)
        if len(s) != 1 << n:
            raise ValueError(f"truth table string must be {1 << n} characters of 0/1 for n={n}, got {len(s)}")
        if set(s) - {"0", "1"}:
            raise ValueError(f"truth table string must hold only 0/1, got {sorted(set(s) - {'0', '1'})}")
        return cls(n, int(s[::-1], 2))

    @classmethod
    def from_raw(cls, n: int, data: bytes) -> "TruthTable":
        """Parse raw little-endian 64-bit words (the corpus file format)."""
        # a valid table at n >= 6 is 2^(n-3) bytes: parsed at once below 17,
        # kept unparsed from 17 when it is bytes; the rest is checked below
        if n.__class__ is int and 6 <= n < DEFER_PARSE_MIN_N and len(data) == 1 << (n - 3):
            return cls._trusted(n, int.from_bytes(data, "little"))
        if data.__class__ is bytes and n.__class__ is int and DEFER_PARSE_MIN_N <= n <= MAX_DIM and len(data) == 1 << (n - 3):
            return _DeferredTable._trusted(n, data)
        check_dim(n)
        w = word_count(n)
        if len(data) != 8 * w:
            raise ValueError(f"expected {8 * w} bytes for n={n}, got {len(data)}")
        # below n=6 the one word holds bits past 2^n, which the check rejects;
        # from 17 a buffer other than bytes is parsed here, at once
        return cls(n, int.from_bytes(data, "little"))

    def to_bitstring(self) -> str:
        return format(self.bits, f"0{1 << self.n}b")[::-1]


# the slot descriptors store past the __setattr__ that keeps tables immutable
_new, _set_n, _set_bits = object.__new__, TruthTable.n.__set__, TruthTable.bits.__set__
# the bits slot itself, which holds a deferred table's raw bytes until parsed
_slot_bits = TruthTable.bits.__get__


class _DeferredTable(TruthTable):
    """A table from from_raw whose bits slot holds the raw bytes until first read."""

    __slots__ = ()

    @property
    def bits(self) -> int:
        v = _slot_bits(self)
        if v.__class__ is bytes:
            # threads that race here store equal ints
            v = int.from_bytes(v, "little")
            _set_bits(self, v)
        return v


@dataclass(frozen=True)
class MaskSet:
    """All n+1 layer masks, masks[k] for layer k; pairwise disjoint, union all-ones.

    above[k] is the union of masks k..n, as an int, for k in [0, n+1], with
    above[n+1] = 0: the table of wt(alpha) >= k.  The searches from both
    ends bisect over these unions.  They are built on first use, not with
    the masks, and hold n+1 ints of up to 2^n bits beside them: about
    2.6 MiB at n=20 and 11 MiB at n=22.
    """

    n: int
    masks: tuple[TruthTable, ...]
    # holds the unions once built.  A field set in __init__, not a
    # functools.cached_property: that writes through the instance __dict__,
    # which on CPython 3.11 slows every later attribute read of the mask
    # set about 3x, and the searches read ms.n and ms.masks on every call
    _above: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __getitem__(self, k: int) -> TruthTable:
        return self.masks[k]

    @property
    def above(self) -> tuple[int, ...]:
        if not self._above:
            acc, unions = 0, [0]
            for mask in reversed(self.masks):
                acc |= mask.bits
                unions.append(acc)
            # threads that race here build equal tuples; readers take the first
            self._above.append(tuple(reversed(unions)))
        return self._above[0]


def masks_from_wlo(seq: WloSequence) -> MaskSet:
    """Build the masks from the layer slices of a WLO sequence."""
    return MaskSet(seq.n, tuple(TruthTable.from_bits(seq.n, layer_slice(seq, k)) for k in range(seq.n + 1)))


@lru_cache(maxsize=None)
def masks_recursive(n: int) -> MaskSet:
    """Build the masks by doubling from dimension 1; cached per n.

    The layer-i mask for dimension r is the layer-i mask of dimension r-1
    in the low 2^(r-1) bits and the layer-(i-1) mask in the high half
    (prefixing a vector with 1 adds 2^(r-1) to its serial): one shift and
    one OR per row.
    """
    check_dim(n)
    rows = [0b01, 0b10]  # n=1: {bit 0}, {bit 1}
    for r in range(2, n + 1):
        half = 1 << (r - 1)
        rows = [low | (high << half) for low, high in zip(rows + [0], [0] + rows)]
    return MaskSet(n, tuple(TruthTable._trusted(n, bits) for bits in rows))


def mask_test(mask: TruthTable, serial: int) -> bool:
    """Whether bit `serial` is set in the mask."""
    check_serial(serial, mask.n)
    return bool((mask.bits >> serial) & 1)


def mask_paper_serial(mask: TruthTable) -> int:
    """The mask as one big integer, coordinate 0 most significant."""
    return int(mask.to_bitstring(), 2)


# the 8-bit group of each table byte: its bits, lowest first
_BIT_GROUPS = tuple(format(v, "08b")[::-1] for v in range(256))


def mask_bit_groups(mask: TruthTable) -> Iterator[str]:
    """The 8-bit groups of mask_bit_rows, streamed: one lookup per byte."""
    if mask.n < 3:  # shorter than one group
        return iter((mask.to_bitstring(),))
    return map(_BIT_GROUPS.__getitem__, mask.bits.to_bytes(1 << (mask.n - 3), "little"))


def mask_bit_rows(mask: TruthTable) -> str:
    """Render as a 0/1 string, coordinate 0 first, grouped in 8-bit blocks."""
    return " ".join(mask_bit_groups(mask))
