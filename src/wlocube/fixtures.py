"""Validation of committed OEIS-style b-files against recomputed values.

A b-file holds one "index value" pair per line; '#' comments and blank
lines are ignored.  Each known sequence maps an index to a value; the two
triangle sequences are compared against lazily flattened rows.
"""

from pathlib import Path
from typing import Callable, Iterator

from .counts import SEQUENCES
from .masks import mask_paper_serial, masks_recursive
from .wlo import wlo_bucket


def parse_bfile(path) -> list[tuple[int, int]]:
    """Read (index, value) pairs, skipping comments and blank lines."""
    pairs = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'index value', got {line!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def _wlo_triangle() -> Iterator[int]:
    n = 1
    while True:
        yield from wlo_bucket(n).order
        n += 1


def _mask_serial_triangle() -> Iterator[int]:
    n = 1
    while True:
        ms = masks_recursive(n)
        for mask in ms.masks:
            yield mask_paper_serial(mask)
        n += 1


# name -> (first index, index -> value)
_VALUE_SEQUENCES: dict[str, tuple[int, Callable[[int], int]]] = {
    "A000120": (0, lambda i: i.bit_count()),
    **{name: (1, seq.closed_form) for name, seq in SEQUENCES.items()},
}

# name -> (first index, flattened-triangle generator)
_TRIANGLE_SEQUENCES: dict[str, tuple[int, Callable[[], Iterator[int]]]] = {
    "A294648": (1, _wlo_triangle),
    "A305860": (1, _mask_serial_triangle),
}

KNOWN_SEQUENCES = tuple(sorted(_VALUE_SEQUENCES) + sorted(_TRIANGLE_SEQUENCES))


def validate_bfile(name: str, path) -> list[tuple[int, int, int]]:
    """Compare a b-file against recomputed terms.

    Returns mismatches as (index, expected, got); an empty list is a pass.
    Raises ValueError for unparseable files or non-contiguous indices.
    """
    pairs = parse_bfile(path)
    if not pairs:
        raise ValueError(f"{path}: empty fixture")
    mismatches = []
    if name in _VALUE_SEQUENCES:
        first, fn = _VALUE_SEQUENCES[name]
        for pos, (idx, got) in enumerate(pairs):
            if idx != first + pos:
                raise ValueError(f"{path}: indices must be contiguous from {first}")
            want = fn(idx)
            if got != want:
                mismatches.append((idx, want, got))
    elif name in _TRIANGLE_SEQUENCES:
        first, gen = _TRIANGLE_SEQUENCES[name]
        stream = gen()
        for pos, (idx, got) in enumerate(pairs):
            if idx != first + pos:
                raise ValueError(f"{path}: indices must be contiguous from {first}")
            want = next(stream)
            if got != want:
                mismatches.append((idx, want, got))
    else:
        raise ValueError(f"unknown sequence {name!r}")
    return mismatches


def validate_directory(directory) -> dict[str, list[tuple[int, int, int]]]:
    """Validate every known b-file present in a directory.

    Returns {name: mismatches} for the files found; missing files are
    simply absent from the result.
    """
    directory = Path(directory)
    results = {}
    for name in KNOWN_SEQUENCES:
        path = directory / f"b{name[1:]}.txt"
        if path.exists():
            results[name] = validate_bfile(name, path)
    return results
