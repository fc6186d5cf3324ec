"""Validation of committed OEIS-style b-files against recomputed values.

A b-file holds one "index value" pair per line; '#' comments and blank
lines are ignored.  Each known sequence is a lazy stream of its terms
from its first index on; the two triangle sequences stream their
flattened rows.
"""

from itertools import count
from pathlib import Path
from typing import Callable, Iterator

from .counts import SEQUENCES
from .masks import masks_recursive
from .wlo import wlo_bucket


# int() of a str longer than this is never refused, whatever the process's
# digit limit (Python 3.11+ and 3.10.7+: 4300 by default, 640 at least)
_SAFE_DIGITS = 640


def _parse_int(text: str) -> int:
    """int(text) for any number of digits, leaving the digit limit alone."""
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    sign = -1 if text[0] == "-" else 1
    digits = text[1:] if text[0] in "+-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer of {len(text)} characters: {text[:20]}...")
    value = 0
    for i in range(0, len(digits), _SAFE_DIGITS):
        chunk = digits[i : i + _SAFE_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


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
        pairs.append((int(parts[0]), _parse_int(parts[1])))
    return pairs


def _wlo_triangle() -> Iterator[int]:
    for n in count(1):
        yield from wlo_bucket(n).order


def _mask_serial_triangle() -> Iterator[int]:
    # the paper serial of mask k is the bits of mask n - k (see cli masks)
    for n in count(1):
        yield from (mask.bits for mask in reversed(masks_recursive(n)))


# name -> (first index, a fresh stream of the terms from that index on)
_SEQUENCES: dict[str, tuple[int, Callable[[], Iterator[int]]]] = {
    "A000120": (0, lambda: map(int.bit_count, count(0))),
    **{name: (1, lambda f=seq.closed_form: map(f, count(1))) for name, seq in SEQUENCES.items()},
    "A294648": (1, _wlo_triangle),
    "A305860": (1, _mask_serial_triangle),
}

KNOWN_SEQUENCES = tuple(sorted(_SEQUENCES))


def validate_bfile(name: str, path) -> list[tuple[int, int, int]]:
    """Compare a b-file against recomputed terms.

    Returns mismatches as (index, expected, got); an empty list is a pass.
    Raises ValueError for unparseable files or non-contiguous indices.
    """
    pairs = parse_bfile(path)
    if not pairs:
        raise ValueError(f"{path}: empty fixture")
    if name not in _SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}")
    first, terms = _SEQUENCES[name]
    stream = terms()
    mismatches = []
    for pos, (idx, got) in enumerate(pairs):
        if idx != first + pos:
            raise ValueError(f"{path}: indices must be contiguous from {first}")
        want = next(stream)
        if got != want:
            mismatches.append((idx, want, got))
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
