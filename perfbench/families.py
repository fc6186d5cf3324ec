"""Seeded input families for the benchmark.

Each family returns a list of truth tables as raw little-endian bytes (bit i
of the table is byte i // 8, bit i % 8), the format `TruthTable.from_raw`
reads.  Only numpy is used and nothing is imported from wlocube, so two
versions of the library receive byte-identical inputs for the same seed.
"""

import hashlib

import numpy as np

SPARSE_MAX_BITS = 8
LOWDEG_MAX_DEGREE = 6
LOWDEG_MAX_LOWER = 64


def mobius_bits(bits: np.ndarray) -> np.ndarray:
    """Binary Moebius transform of a 0/1 uint8 vector of length 2^n.

    For each s, entry i | 2^s is XORed with entry i.  The transform is an
    involution: it maps a truth table to its ANF coefficients and back.
    """
    out = bits.copy()
    size = out.size
    stride = 1
    while stride < size:
        view = out.reshape(-1, 2, stride)
        view[:, 1, :] ^= view[:, 0, :]
        stride <<= 1
    return out


def pack(bits: np.ndarray) -> bytes:
    return np.packbits(bits, bitorder="little").tobytes()


def dense(rng: np.random.Generator, n: int, count: int) -> tuple[list[bytes], list[None]]:
    """Uniform random truth tables."""
    nbytes = (1 << n) // 8
    raw = rng.integers(0, 256, size=(count, nbytes), dtype=np.uint8)
    return [row.tobytes() for row in raw], [None] * count


def sparse(rng: np.random.Generator, n: int, count: int) -> tuple[list[bytes], list[None]]:
    """Supports of 1..SPARSE_MAX_BITS set bits at uniform random distinct positions."""
    tables = []
    for _ in range(count):
        k = int(rng.integers(1, SPARSE_MAX_BITS + 1))
        bits = np.zeros(1 << n, dtype=np.uint8)
        bits[rng.choice(1 << n, size=k, replace=False)] = 1
        tables.append(pack(bits))
    return tables, [None] * count


def lowdeg(rng: np.random.Generator, n: int, count: int) -> tuple[list[bytes], list[int]]:
    """Random ANFs of exact degree d in 1..LOWDEG_MAX_DEGREE, as truth tables.

    The ANF is one monomial of degree d plus up to LOWDEG_MAX_LOWER
    monomials of lower degree, XORed together; the degree-d monomial cannot
    cancel, so the degree is exactly d.  Returns the tables and their degrees.
    """
    tables, degrees = [], []
    for _ in range(count):
        d = int(rng.integers(1, LOWDEG_MAX_DEGREE + 1))
        anf = np.zeros(1 << n, dtype=np.uint8)
        anf[_monomial(rng, n, d)] ^= 1
        for _ in range(int(rng.integers(0, LOWDEG_MAX_LOWER + 1))):
            anf[_monomial(rng, n, int(rng.integers(0, d)))] ^= 1
        tables.append(pack(mobius_bits(anf)))
        degrees.append(d)
    return tables, degrees


def _monomial(rng: np.random.Generator, n: int, degree: int) -> int:
    """Serial of a uniformly random set of `degree` variables."""
    return int(sum(1 << int(v) for v in rng.choice(n, size=degree, replace=False)))


FAMILIES = {"dense": dense, "sparse": sparse, "lowdeg": lowdeg}


def generate(family: str, n: int, count: int, seed: int) -> tuple[list[bytes], list, str]:
    """Tables, per-table construction facts (degree or None) and a sha256 of the bytes."""
    tables, known = FAMILIES[family](np.random.default_rng(seed), n, count)
    digest = hashlib.sha256(b"".join(tables)).hexdigest()
    return tables, known, digest
