import sys
from pathlib import Path

import pytest

from wlocube.counts import SEQUENCES
from wlocube.fixtures import KNOWN_SEQUENCES, parse_bfile, validate_bfile, validate_directory

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_known_sequence_names():
    assert set(KNOWN_SEQUENCES) == {"A000120", "A000142", "A001142", "A051459", "A294648", "A305860"}


def test_parse_bfile_skips_comments(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("# comment\n\n0 1\n1 5\n")
    assert parse_bfile(p) == [(0, 1), (1, 5)]


def test_parse_bfile_rejects_malformed(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        parse_bfile(p)


def test_committed_fixtures_all_pass():
    results = validate_directory(FIXTURES)
    assert set(results) == set(KNOWN_SEQUENCES)
    assert all(not mismatches for mismatches in results.values())


def test_single_value_corruption_is_located(tmp_path):
    src = (FIXTURES / "b294648.txt").read_text().splitlines()
    idx, value = src[7].split()
    src[7] = f"{idx} {int(value) + 3}"
    p = tmp_path / "b294648.txt"
    p.write_text("\n".join(src) + "\n")
    mismatches = validate_bfile("A294648", p)
    assert len(mismatches) == 1
    assert mismatches[0][0] == int(idx)
    assert mismatches[0][2] == mismatches[0][1] + 3


def test_noncontiguous_indices_rejected(tmp_path):
    p = tmp_path / "b000142.txt"
    p.write_text("1 1\n3 6\n")
    with pytest.raises(ValueError):
        validate_bfile("A000142", p)


def test_unknown_sequence_rejected(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("1 1\n")
    with pytest.raises(ValueError):
        validate_bfile("A999999", p)


def test_long_terms_parse_under_the_digit_limit(tmp_path):
    # A051459(12) has 9535 digits; Python 3.11+ and 3.10.7+ refuse int() of
    # a str over 4300 digits unless the process-wide limit is lifted
    terms = [SEQUENCES["A051459"].closed_form(n) for n in range(1, 13)]
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = "".join(f"{n} {t}\n" for n, t in enumerate(terms, 1))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert max(len(line) for line in text.splitlines()) > 9000
    p = tmp_path / "b051459.txt"
    p.write_text(text)
    assert [v for _, v in parse_bfile(p)] == terms
    assert validate_bfile("A051459", p) == []
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_parse_bfile_long_signed_and_malformed_terms(tmp_path):
    digits = "7" * 1500  # over the 640 digits that int() always accepts
    p = tmp_path / "b.txt"
    p.write_text(f"1 -{digits}\n2 +{digits}\n3 {digits}\n")
    assert parse_bfile(p) == [(1, -int(digits)), (2, int(digits)), (3, int(digits))]
    p.write_text(f"1 {digits}x\n")
    with pytest.raises(ValueError):
        parse_bfile(p)
