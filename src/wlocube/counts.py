"""Exact counts of weight-order combinatorics, with brute-force oracles.

The closed forms are products of binomials and factorials; all arithmetic
is exact Python integers.  Each closed form is paired with an independent
exhaustive oracle that validates it on small cubes.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from typing import Callable

from .cube import cached_weight_table, precedes
from .wlo import layer_serials

ORACLE_CHAINS_PRECEDES_MAX_N = 5
ORACLE_CHAINS_WO_MAX_N = 4
ORACLE_LINEXT_MAX_N = 3
ORACLE_PATHS_MAX_N = 10


def _check_positive(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def count_weight_orders(n: int) -> int:
    """Number of total orders refining the weight order: prod C(n,k)!."""
    _check_positive(n)
    return math.prod(math.factorial(math.comb(n, k)) for k in range(n + 1))


def count_max_chains_wo(n: int) -> int:
    """Maximum chains under the weight order: prod C(n,k)."""
    _check_positive(n)
    return math.prod(math.comb(n, k) for k in range(n + 1))


def count_max_chains_precedes(n: int) -> int:
    """Maximum chains under coordinatewise precedence: n!."""
    _check_positive(n)
    return math.factorial(n)


def oracle_count_chains(n: int, relation: str) -> int:
    """Count maximum chains by depth-first enumeration, one pick per layer.

    relation 'weight_order': picks from distinct layers are always related,
    so every combination counts.  relation 'precedes': consecutive picks
    must additionally be comparable coordinatewise.
    """
    if relation == "precedes":
        bound = ORACLE_CHAINS_PRECEDES_MAX_N
    elif relation == "weight_order":
        bound = ORACLE_CHAINS_WO_MAX_N
    else:
        raise ValueError(f"unknown relation {relation!r}")
    _check_positive(n)
    if n > bound:
        raise ValueError(f"oracle_count_chains({relation!r}) is bounded at n <= {bound}")

    layers = [list(layer_serials(n, k)) for k in range(n + 1)]

    def extend(k: int, prev: int) -> int:
        if k > n:
            return 1
        total = 0
        for s in layers[k]:
            if relation == "weight_order" or precedes(prev, s, n):
                total += extend(k + 1, s)
        return total

    return sum(extend(1, s) for s in layers[0])


def oracle_count_linear_extensions(n: int) -> int:
    """Count linear extensions of the weight-order poset by downset DP.

    State = set of already-placed serials (bitmask over 2^n elements); a
    serial is placeable once every strictly lighter serial is placed.
    """
    _check_positive(n)
    if n > ORACLE_LINEXT_MAX_N:
        raise ValueError(f"oracle_count_linear_extensions is bounded at n <= {ORACLE_LINEXT_MAX_N}")
    wt = cached_weight_table(n)
    size = 1 << n
    lighter = [0] * size  # mask of all serials of strictly smaller weight
    for s in range(size):
        for t in range(size):
            if wt[t] < wt[s]:
                lighter[s] |= 1 << t
    full = (1 << size) - 1
    memo = {full: 1}

    def count(placed: int) -> int:
        if placed in memo:
            return memo[placed]
        total = 0
        for s in range(size):
            bit = 1 << s
            if not placed & bit and placed & lighter[s] == lighter[s]:
                total += count(placed | bit)
        memo[placed] = total
        return total

    return count(0)


def oracle_count_linear_extensions_by_permutations(n: int) -> int:
    """Cross-check oracle: filter all (2^n)! permutations. n <= 2 only."""
    _check_positive(n)
    if n > 2:
        raise ValueError("permutation filtering is bounded at n <= 2")
    wt = cached_weight_table(n)
    good = 0
    for perm in permutations(range(1 << n)):
        if all(wt[perm[i]] <= wt[perm[i + 1]] for i in range(len(perm) - 1)):
            good += 1
    return good


def oracle_count_shortest_paths(n: int) -> int:
    """Count shortest paths from the zero vector to the all-ones vector.

    Breadth-first search over the cube graph accumulating per-node path
    counts; equals n!.
    """
    _check_positive(n)
    if n > ORACLE_PATHS_MAX_N:
        raise ValueError(f"oracle_count_shortest_paths is bounded at n <= {ORACLE_PATHS_MAX_N}")
    size = 1 << n
    dist = [-1] * size
    paths = [0] * size
    dist[0] = 0
    paths[0] = 1
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for i in range(n):
            u = v ^ (1 << i)
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
            if dist[u] == dist[v] + 1:
                paths[u] += paths[v]
    return paths[size - 1]


@dataclass(frozen=True)
class CountingSequence:
    """A closed form, its brute-force oracle and their domain bounds.

    The oracle is feasible for n <= oracle_max_n.  upto_max caps how far
    `wlocube enumerate` computes and prints the closed form: each bound
    keeps a run of 1..upto_max near one second.
    """

    closed_form: Callable[[int], int]
    oracle: Callable[[int], int]
    oracle_max_n: int
    upto_max: int


# OEIS name -> the closed form that produces it
SEQUENCES = {
    "A000142": CountingSequence(
        count_max_chains_precedes, partial(oracle_count_chains, relation="precedes"), ORACLE_CHAINS_PRECEDES_MAX_N, 2000
    ),
    "A001142": CountingSequence(
        count_max_chains_wo, partial(oracle_count_chains, relation="weight_order"), ORACLE_CHAINS_WO_MAX_N, 300
    ),
    "A051459": CountingSequence(count_weight_orders, oracle_count_linear_extensions, ORACLE_LINEXT_MAX_N, 16),
}
