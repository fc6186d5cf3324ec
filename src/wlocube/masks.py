"""Characteristic vectors (masks) of the weight layers.

A mask is one non-negative int of 2^n bits in which bit i is cube
coordinate i, the layout of truth tables, so a layer test is a single
`&`.  The MSB-first "serial number of a mask" convention (coordinate 0
as the most significant of the 2^n bits) is honored only when rendering
with mask_paper_serial.
"""

from dataclasses import dataclass
from functools import lru_cache

from .cube import check_dim, check_serial
from .wlo import WloSequence, layer_slice


def word_count(n: int) -> int:
    """64-bit words in the raw I/O format of 2^n bits: 1 for n <= 6, else 2^(n-6)."""
    return 1 << max(0, n - 6)


@dataclass(frozen=True)
class LayerMask:
    """Indicator of layer k: bit i set iff wt(i) == k."""

    n: int
    k: int
    bits: int


@dataclass(frozen=True)
class MaskSet:
    """All n+1 layer masks; pairwise disjoint, union all-ones."""

    n: int
    masks: tuple[LayerMask, ...]

    def __getitem__(self, k: int) -> LayerMask:
        return self.masks[k]


def masks_from_wlo(seq: WloSequence) -> MaskSet:
    """Build the masks by setting one bit per entry of each layer slice."""
    n = seq.n
    masks = []
    for k in range(n + 1):
        buf = bytearray(((1 << n) + 7) >> 3)
        for serial in layer_slice(seq, k):
            buf[serial >> 3] |= 1 << (serial & 7)
        masks.append(LayerMask(n, k, int.from_bytes(buf, "little")))
    return MaskSet(n, tuple(masks))


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
    return MaskSet(n, tuple(LayerMask(n, k, bits) for k, bits in enumerate(rows)))


def mask_test(mask: LayerMask, serial: int) -> bool:
    """Whether bit `serial` is set in the mask."""
    check_serial(serial, mask.n)
    return bool((mask.bits >> serial) & 1)


def mask_paper_serial(mask: LayerMask) -> int:
    """The mask as one big integer, coordinate 0 most significant.

    This bit order is the reverse of the storage layout, so the result is
    the 2^n-bit reversal of `mask.bits`.
    """
    return int(format(mask.bits, f"0{1 << mask.n}b")[::-1], 2)


def mask_bit_rows(mask: LayerMask) -> str:
    """Render as a 0/1 string, coordinate 0 first, grouped in 8-bit blocks."""
    size = 1 << mask.n
    bits = format(mask.bits, f"0{size}b")[::-1]
    return " ".join(bits[i : i + 8] for i in range(0, size, 8))
