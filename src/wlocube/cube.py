"""Core vocabulary of the Boolean cube.

Every vector of {0,1}^n is identified with its serial number: the integer
whose n-digit binary expansion, most significant digit first, equals the
vector's coordinates.  All operations below work on serials; no
coordinate-tuple type exists.
"""

from functools import lru_cache

# 2^30 serials keep every 2^n-sized structure desk-scale while a serial
# still fits comfortably in one 64-bit word.
MAX_DIM = 30


def check_dim(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be an integer in [1, {MAX_DIM}], got {n!r}")


def check_serial(serial: int, n: int) -> None:
    check_dim(n)
    if not isinstance(serial, int) or not 0 <= serial < (1 << n):
        raise ValueError(f"serial {serial!r} out of range for n={n}")


def weight_of(serial: int, n: int) -> int:
    """Hamming weight of the vector with the given serial number."""
    check_serial(serial, n)
    return serial.bit_count()


def build_weight_table(n: int) -> list[int]:
    """Weights of all 2^n vectors, indexed by serial number."""
    return list(cached_weight_table(n))


# bytes.translate table that adds 1 to every byte value
_PLUS_ONE = bytes(range(1, 256)) + bytes(1)


@lru_cache(maxsize=None)
def cached_weight_table(n: int) -> bytes:
    """Immutable weight table, one byte per serial; cached per n.

    Built by the doubling recurrence: the second half of the table is the
    first half with 1 added elementwise (the lower-half vectors are the
    upper-half vectors prefixed by 1).
    """
    check_dim(n)
    table = bytes([0, 1])
    for _ in range(n - 1):
        table += table.translate(_PLUS_ONE)
    return table


def hamming_distance(a: int, b: int, n: int) -> int:
    """Number of coordinates in which the two vectors differ."""
    check_serial(a, n)
    check_serial(b, n)
    return (a ^ b).bit_count()


def precedes(a: int, b: int, n: int) -> bool:
    """Coordinatewise <= on vectors: every 1-coordinate of a is set in b."""
    check_serial(a, n)
    check_serial(b, n)
    return (a & b) == a


def adjacent_split(a: int, n: int) -> tuple[list[int], list[int]]:
    """Neighbors of a vector, split by layer.

    Returns (lower, upper): serials reached by clearing one set bit (weight
    wt(a)-1) and by setting one clear bit (weight wt(a)+1), each list sorted
    ascending.
    """
    check_serial(a, n)
    lower = sorted(a ^ (1 << i) for i in range(n) if (a >> i) & 1)
    upper = sorted(a | (1 << i) for i in range(n) if not (a >> i) & 1)
    return lower, upper
