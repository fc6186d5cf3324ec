"""Generation of the weight-lexicographic-order (WLO) sequence.

The WLO sequence lists the serials 0..2^n-1 sorted first by Hamming weight
and then by serial value.  Two independent generators are provided: a
bucket pass driven by the weight table, and a Pascal-triangle-shaped
recursion that builds row n from row n-1.

Each end of the sequence can also be read as byte runs for the WLO scan:
in the truth-table layout serial s is bit s & 7 of byte s >> 3, and inside
one weight layer the serials of one byte are consecutive, so a run of
them is tested by one AND of that byte against a mask.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from math import comb
from threading import Lock

from .cube import cached_weight_table, check_dim


@dataclass(frozen=True)
class PascalTables:
    """Binomial coefficients and per-row layer start offsets, rows 0..n."""

    n: int
    binom: tuple[tuple[int, ...], ...]
    subseq_begin: tuple[tuple[int, ...], ...]


# the bits of a byte whose position p has weight 0, 1, 2 and 3
_BYTE_WEIGHT_MASKS = (0x01, 0x16, 0x68, 0x80)


def _layer_byte_runs(n: int, order: list[int], offsets: list[int], k: int) -> tuple[list[int], bytes]:
    """Layer k of `order` as ascending byte runs: (byte indices, byte masks).

    Serial 8b + p has weight wt(b) + wt(p), so byte b holds weight-k serials
    at the bits of weight k - wt(b).  The byte indices of weight w are the
    first C(n-3, w) serials of layer w, so the indices are at most four
    slices of `order` merged by one sort (the ints are those of `order`),
    and the masks are their weights looked up and translated.
    """
    if n < 3:  # the whole cube is byte 0
        return [0], bytes([_BYTE_WEIGHT_MASKS[k] & ((1 << (1 << n)) - 1)])
    index = []
    for w in range(max(0, k - 3), min(k, n - 3) + 1):
        index += order[offsets[w] : offsets[w] + comb(n - 3, w)]
    index.sort()
    to_mask = bytes(_BYTE_WEIGHT_MASKS[k - w] if 0 <= k - w <= 3 else 0 for w in range(256))
    return index, bytes(map(cached_weight_table(n).__getitem__, index)).translate(to_mask)


class ScanRuns:
    """One end of a WLO scan as byte runs, in scan order, built a layer at a time.

    entries is (byte indices, byte masks) for the first `built` layers of
    the scan: run i tests byte entries[0][i] of the table against mask
    entries[1][i].  Both only ever grow, by whole layers, under a lock, so
    a scan that reads `built` and then iterates entries tests at least
    those layers, even while another thread grows them.
    """

    __slots__ = ("entries", "built", "_starts", "_n", "_layer", "_heavy", "_lock")

    def __init__(self, n: int, order: list[int], offsets: list[int], heavy: bool):
        self.entries = ([], bytearray())
        self.built = 0
        self._starts = [0]  # _starts[j]: where the j-th layer of the scan begins
        self._n = n
        self._layer = partial(_layer_byte_runs, n, order, offsets)
        self._heavy = heavy
        self._lock = Lock()

    def grow(self, built: int):
        """(runs of the layers from the `built`-th on, the new built count).

        Builds the next layer when the caller has read every built one;
        (None, built) once every layer is in.
        """
        with self._lock:
            index, mask = self.entries
            if built < self.built:
                start = self._starts[built]
                return (index[start:], mask[start:]), self.built
            if built > self._n:
                return None, built
            runs = self._layer(self._n - built if self._heavy else built)
            if self._heavy:
                runs = runs[0][::-1], runs[1][::-1]
            index += runs[0]
            mask += runs[1]
            self._starts.append(len(index))
            self.built = built + 1
            return runs, self.built


@dataclass(frozen=True)
class WloSequence:
    """The sequence l_n plus O(1) addressing of its layer subsequences.

    layer_offsets[k] is the start of the weight-k slice in `order`;
    layer_offsets[n+1] == 2^n.  scan_runs reads `order` from either end as
    the byte runs the WLO scan tests (see ScanRuns), built lazily per layer
    and cached here; wlo_bucket and wlo_recursive build none of them.
    """

    n: int
    order: list[int]
    layer_offsets: list[int]

    @cached_property
    def scan_runs(self) -> tuple[ScanRuns, ScanRuns]:
        """`order` read from the light end and from the heavy end, as byte runs.

        Each end builds a layer's runs the first time a scan from that end
        reaches it, so a scan that stops in the first layer builds one run.
        """
        args = self.n, self.order, self.layer_offsets
        return ScanRuns(*args, heavy=False), ScanRuns(*args, heavy=True)

    def __getstate__(self):
        # scan_runs is a cache, and its locks cannot be pickled: copies rebuild it
        return {"n": self.n, "order": self.order, "layer_offsets": self.layer_offsets}

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
