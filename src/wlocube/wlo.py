"""Generation of the weight-lexicographic-order (WLO) sequence.

The WLO sequence lists the serials 0..2^n-1 sorted first by Hamming weight
and then by serial value.  Two independent generators are provided: a
bucket pass driven by the weight table, and a Pascal-triangle-shaped
recursion that builds row n from row n-1.

Inside layer k the sequence ascends, which is the colex order of the
k-subsets of the coordinates; the WLO scan in search.py relies on this to
find its hit with one AND per layer and to count its probes by rank.
"""

from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .cube import cached_weight_table, check_dim


@dataclass(frozen=True)
class PascalTables:
    """Binomial coefficients and per-row layer start offsets, rows 0..n."""

    n: int
    binom: tuple[tuple[int, ...], ...]
    subseq_begin: tuple[tuple[int, ...], ...]


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

    @property
    def size(self) -> int:
        return 1 << self.n


def build_pascal_tables(n: int) -> PascalTables:
    """Triangular binomial table and its rowwise prefix sums."""
    check_dim(n)
    binom = tuple(tuple(comb(r, c) for c in range(r + 1)) for r in range(n + 1))
    begins = tuple(tuple(accumulate(row[:-1], initial=0)) for row in binom)
    return PascalTables(n, binom, begins)


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

    Layer k of row r is the layer-k slice of row r-1 followed by the
    layer-(k-1) slice with 2^(r-1) added to every element; the boundary
    layers are [0] and [2^r-1].  Two ping-pong buffers of size 2^n replace
    the naive n-row square array.
    """
    check_dim(n)
    pt = build_pascal_tables(n)
    cur = [0, 1]
    for r in range(2, n + 1):
        m = 1 << (r - 1)
        prev_len = pt.binom[r - 1]
        prev_beg = pt.subseq_begin[r - 1]
        nxt = [0] * (1 << r)
        pos = 1
        for c in range(1, r + 1):
            if c <= r - 1:
                beg = prev_beg[c]
                for j in range(prev_len[c]):
                    nxt[pos] = cur[beg + j]
                    pos += 1
            beg = prev_beg[c - 1]
            for j in range(prev_len[c - 1]):
                nxt[pos] = cur[beg + j] + m
                pos += 1
        cur = nxt
    return WloSequence(n, cur, _layer_offsets(n))


def layer_slice(seq: WloSequence, k: int) -> list[int]:
    """The contiguous subsequence of weight-k serials, length C(n,k)."""
    if not 0 <= k <= seq.n:
        raise ValueError(f"layer index {k} out of range for n={seq.n}")
    return seq.order[seq.layer_offsets[k] : seq.layer_offsets[k + 1]]
