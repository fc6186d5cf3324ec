"""Generation of the weight-lexicographic-order (WLO) sequence.

The WLO sequence lists the serials 0..2^n-1 sorted first by Hamming weight
and then by serial value.  Two independent generators are provided: a
bucket pass driven by the weight table, and a Pascal-triangle-shaped
recursion that builds row n from row n-1.  layer_serials streams one
layer at a time without building either.

Inside layer k the sequence ascends, which is the colex order of the
k-subsets of the coordinates; the WLO scan in search.py relies on this to
find its hit with one AND per layer and to count its probes by rank.
"""

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Iterator

from .cube import cached_weight_table, check_dim


@dataclass(frozen=True)
class WloSequence:
    """The sequence l_n plus O(1) addressing of its layer subsequences.

    layer_offsets[k] is the start of the weight-k slice in `order`;
    layer_offsets[n+1] == 2^n.  The searches in search.py do not read
    `order`: they take a WloSequence only to check its dimension.
    """

    n: int
    order: list[int]
    layer_offsets: list[int]


def _layer_offsets(n: int) -> list[int]:
    return list(accumulate((comb(n, k) for k in range(n + 1)), initial=0))


def wlo_bucket(n: int) -> WloSequence:
    """Bucket generator: one pass over serials in lexicographic order.

    Appending serial i to bucket wt(i) keeps each bucket strictly
    increasing, so the concatenation is the WLO sequence.  Buckets are
    preallocated contiguous slices sized from the binomial table, making
    the final concatenation free.
    """
    check_dim(n)
    wt = cached_weight_table(n)
    offsets = _layer_offsets(n)
    cursor = offsets[:-1].copy()
    order = [0] * (1 << n)
    for i in range(1 << n):
        k = wt[i]
        order[cursor[k]] = i
        cursor[k] += 1
    return WloSequence(n, order, offsets)


def wlo_recursive(n: int) -> WloSequence:
    """Recursive generator: row r built from row r-1.

    Layer k of row r is layer k of row r-1 followed by layer k-1 of row
    r-1 with 2^(r-1) added to every element (prefixing a vector with 1):
    the doubling of masks_recursive, on serial lists.
    """
    check_dim(n)
    layers = [[0], [1]]
    for r in range(2, n + 1):
        m = 1 << (r - 1)
        layers = [low + [s | m for s in high] for low, high in zip(layers + [[]], [[]] + layers)]
    order = [s for layer in layers for s in layer]
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
    """The contiguous subsequence of weight-k serials, length C(n,k)."""
    if not 0 <= k <= seq.n:
        raise ValueError(f"layer index {k} out of range for n={seq.n}")
    return seq.order[seq.layer_offsets[k] : seq.layer_offsets[k + 1]]
