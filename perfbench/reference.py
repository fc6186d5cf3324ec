"""Independent answers for every benchmark input, computed with numpy only.

Nothing here imports wlocube: the answers must not share code with the
library they check.  They are computed once per input, before and outside
every timed region.
"""

import numpy as np

from families import mobius_bits

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def weights(n: int) -> np.ndarray:
    """Hamming weight of every serial 0..2^n-1, via a byte popcount table."""
    serials = np.arange(1 << n, dtype=np.uint32)
    return (_POP8[serials & 0xFF] + _POP8[(serials >> 8) & 0xFF] + _POP8[(serials >> 16) & 0xFF]).astype(np.int64)


def unpack(table: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(table, dtype=np.uint8), bitorder="little")


def max_min_hit(bits: np.ndarray, wt: np.ndarray) -> tuple:
    """(serial, weight) of the max- and min-weight support points, or None twice.

    Ties go to the greatest serial for the maximum and to the least serial
    for the minimum, the order in which a WLO scan meets them.
    """
    support = np.flatnonzero(bits)
    if support.size == 0:
        return None, None
    w = wt[support]
    top, low = w.max(), w.min()
    return (int(support[w == top][-1]), int(top)), (int(support[w == low][0]), int(low))


def degree(bits: np.ndarray, wt: np.ndarray):
    """Algebraic degree: the largest weight of a serial with a nonzero ANF coefficient."""
    coeffs = np.flatnonzero(mobius_bits(bits))
    return int(wt[coeffs].max()) if coeffs.size else None


def answers(n: int, tables: list[bytes], known_degrees: list) -> dict[str, list]:
    """Expected result of every route for every table.

    Raises ValueError when a degree known by construction disagrees with
    the butterfly transform, because then the reference itself is wrong.
    """
    wt = weights(n)
    out = {"max": [], "min": [], "degree": []}
    for i, table in enumerate(tables):
        bits = unpack(table)
        hi, lo = max_min_hit(bits, wt)
        deg = degree(bits, wt)
        if known_degrees[i] is not None and deg != known_degrees[i]:
            raise ValueError(f"table {i}: butterfly degree {deg} != constructed degree {known_degrees[i]}")
        out["max"].append(hi)
        out["min"].append(lo)
        out["degree"].append(deg)
    return out
