"""Generation of the weight-lexicographic-order (WLO) sequence.

The WLO sequence lists the serials 0..2^n-1 sorted first by Hamming weight
and then by serial value.  It is built by the paper's doubling recurrence:
layer k of row r is layer k of row r-1 followed by layer k-1 of row r-1
with bit r-1 set.  wlo_bucket runs it on packed serials at C speed and
keeps them packed: `order` is an array('I'), 4 bytes a serial, not a list
of 2^n Python ints, and the last row is written straight into it.
wlo_recursive runs the same recurrence on Python lists and is the oracle
the tests hold it to.  The checks independent of the recurrence are the
sort definition in the tests, layer_serials (Gosper's hack, which streams
one layer without building the sequence) and the OEIS A294648 b-file.

Inside layer k the sequence ascends, which is the colex order of the
k-subsets of the coordinates; the WLO scan in search.py relies on this to
find its hit with one AND per layer and to count its probes by rank.
"""

import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterator

from .cube import check_dim

# wlo_bucket packs each serial as one native C unsigned int, which must be
# 4 bytes wide for the byte arithmetic below
if array("I").itemsize != 4:
    raise ImportError(f"wlocube.wlo needs 4-byte unsigned ints, array('I') has {array('I').itemsize}")

# _SET_BIT[j] is the bytes.translate table that sets bit j of a byte
_SET_BIT = tuple(bytes(v | 1 << j for v in range(256)) for j in range(8))
# bit b of a packed serial lies in byte (b >> 3) ^ _BYTE_XOR of its 4 bytes
_BYTE_XOR = 0 if sys.byteorder == "little" else 3


@dataclass(frozen=True)
class WloSequence:
    """The sequence l_n plus O(1) addressing of its layer subsequences.

    `order` is an array('I') of the 2^n serials, 4 bytes each: 4 MiB at
    n=20, where a list of ints would take 36 MiB.  layer_offsets[k] is
    the start of the weight-k slice in `order`; layer_offsets[n+1] == 2^n.
    The searches in search.py do not read `order`: they take a
    WloSequence only to check its dimension.
    """

    n: int
    order: array
    layer_offsets: list[int]


def _with_bit(packed: bytes, b: int) -> bytearray:
    """The packed serials with bit b set in each: one strided translate."""
    out = bytearray(packed)
    i = (b >> 3) ^ _BYTE_XOR
    out[i::4] = out[i::4].translate(_SET_BIT[b & 7])
    return out


def wlo_bucket(n: int) -> WloSequence:
    """The WLO sequence l_n, built by the doubling recurrence on packed serials.

    Each layer is a bytes object of 4-byte native unsigned ints.  Row r
    appends to layer k a copy of layer k-1 of row r-1 with bit r-1 set, so
    every layer stays ascending and no Python loop runs per serial.  The
    last row is never built as layers: each of its layers is written
    straight into one array('I') allocated at its exact size (frombytes
    would over-allocate by up to 1/16), so `order` holds 4*2^n bytes and
    no serial becomes a Python int.  Each layer of row n-1 is freed after
    its last read, so the build's peak is that array's allocation beside
    the whole of row n-1 (half its size): about 1.53 x 4*2^n bytes.
    """
    check_dim(n)
    layers = [bytes(4)]
    for b in range(n - 1):
        layers = [low + _with_bit(high, b) for low, high in zip(layers + [b""], [b""] + layers)]
    order = array("I", bytes(4)) * (1 << n)
    offsets, pos, high = [0], 0, b""
    layers.append(b"")
    with memoryview(order).cast("B") as view:
        for k in range(n + 1):
            # layer k of row n-1 is read here and for layer k+1, then freed
            low, layers[k] = layers[k], None
            view[pos : pos + len(low)] = low
            pos += len(low)
            view[pos : pos + len(high)] = _with_bit(high, n - 1)
            pos += len(high)
            offsets.append(pos >> 2)
            high = low
    return WloSequence(n, order, offsets)


def wlo_recursive(n: int) -> WloSequence:
    """The list-level oracle of wlo_bucket: row r built from row r-1.

    Layer k of row r is layer k of row r-1 followed by layer k-1 of row
    r-1 with 2^(r-1) added to every element (prefixing a vector with 1):
    the doubling of masks_recursive, on serial lists.  `order` is
    returned as the same array('I') as wlo_bucket's.
    """
    check_dim(n)
    layers = [[0], [1]]
    for r in range(2, n + 1):
        m = 1 << (r - 1)
        layers = [low + [s | m for s in high] for low, high in zip(layers + [[]], [[]] + layers)]
    order = array("I", chain.from_iterable(layers))
    return WloSequence(n, order, list(accumulate(map(len, layers), initial=0)))


def layer_serials(n: int, k: int) -> Iterator[int]:
    """The C(n,k) weight-k serials in ascending order: layer k of l_n.

    Each serial is the next larger integer of the same weight (Gosper's
    hack, HAKMEM 175), so no 2^n structure is built.
    """
    check_dim(n)
    if not isinstance(k, int) or not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}: must be in [0, {n}]")
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    top = 1 << n
    while v < top:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def layer_slice(seq: WloSequence, k: int) -> list[int]:
    """The contiguous subsequence of weight-k serials, length C(n,k), as ints."""
    if not 0 <= k <= seq.n:
        raise ValueError(f"layer index {k} out of range for n={seq.n}")
    return seq.order[seq.layer_offsets[k] : seq.layer_offsets[k + 1]].tolist()
