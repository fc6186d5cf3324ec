"""Subsets of an ordered universe as characteristic vectors.

Element at position i (0-based) maps to the most-significant-first
coordinate a_{i+1}, so rank values are bit-exact with the serial-number
convention: position 0 contributes 2^(n-1).
"""

from dataclasses import dataclass
from typing import Iterator

from .cube import MAX_DIM, check_serial
from .wlo import layer_serials

SET_OPS = ("union", "intersection", "complement_of_a", "symmetric_difference")


@dataclass(frozen=True)
class SubsetUniverse:
    """Ordered ground set of distinct labels, 1 <= n <= 30."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.elements) <= MAX_DIM:
            raise ValueError(f"universe size must be in [1, {MAX_DIM}]")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("universe labels must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class SubsetHandle:
    """A subset identified by the serial of its characteristic vector."""

    universe: SubsetUniverse
    serial: int

    def __post_init__(self):
        check_serial(self.serial, self.universe.n)


def rank(universe: SubsetUniverse, members) -> SubsetHandle:
    """Serial of the characteristic vector of the given member set."""
    n = universe.n
    serial = 0
    for label in members:
        try:
            pos = universe.elements.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in universe") from None
        serial |= 1 << (n - 1 - pos)
    return SubsetHandle(universe, serial)


def unrank(universe: SubsetUniverse, serial: int) -> set[str]:
    """Inverse of rank: the member set of a characteristic-vector serial."""
    return set(members_in_order(SubsetHandle(universe, serial)))


def set_op(a: SubsetHandle, b: SubsetHandle, op: str) -> SubsetHandle:
    """Set algebra by the corresponding bitwise operation on serials."""
    if a.universe != b.universe:
        raise ValueError("subset handles belong to different universes")
    n = a.universe.n
    if op == "union":
        serial = a.serial | b.serial
    elif op == "intersection":
        serial = a.serial & b.serial
    elif op == "complement_of_a":
        serial = a.serial ^ ((1 << n) - 1)
    elif op == "symmetric_difference":
        serial = a.serial ^ b.serial
    else:
        raise ValueError(f"unknown set operation {op!r}; expected one of {SET_OPS}")
    return SubsetHandle(a.universe, serial)


def k_subsets(universe: SubsetUniverse, k: int) -> Iterator[SubsetHandle]:
    """All C(n,k) size-k subsets, serial-ascending (reverse lexicographic)."""
    for serial in layer_serials(universe.n, k):
        yield SubsetHandle(universe, serial)


def subsets_in_cardinality_order(universe: SubsetUniverse) -> Iterator[SubsetHandle]:
    """All subsets in WLO order of their serials, streamed layer by layer."""
    for k in range(universe.n + 1):
        yield from k_subsets(universe, k)


def members_in_order(handle: SubsetHandle) -> list[str]:
    """Member labels in universe order, for printing."""
    u = handle.universe
    return [u.elements[i] for i in range(u.n) if (handle.serial >> (u.n - 1 - i)) & 1]
