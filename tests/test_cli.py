import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wlocube import TruthTable, wlo_bucket, wlo_search_max
from wlocube import bench as bench_mod
from wlocube import wlo as wlo_mod
from wlocube.cli import main
from wlocube.masks import word_count

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def labels(m):
    """A --universe of m distinct labels."""
    return ",".join(f"x{i}" for i in range(m))


def test_wlo_golden(capsys):
    code, out, _ = run(capsys, "wlo", "--n", "4")
    assert code == 0
    assert out.strip() == "0 1 2 4 8 3 5 6 9 10 12 7 11 13 14 15"


def test_wlo_layer_and_out(capsys, tmp_path):
    code, out, _ = run(capsys, "wlo", "--n", "4", "--layer", "2")
    assert code == 0 and out.strip() == "3 5 6 9 10 12"
    target = tmp_path / "l4.txt"
    code, out, _ = run(capsys, "wlo", "--n", "3", "--out", str(target))
    assert code == 0
    assert target.read_text().splitlines() == ["0", "1", "2", "4", "3", "5", "6", "7"]


def test_search_golden(capsys):
    code, out, _ = run(capsys, "search", "--n", "4", "--tt", "1001011010101000")
    assert code == 0 and out.strip() == "12 2"


def test_search_min_and_none(capsys):
    code, out, _ = run(capsys, "search", "--n", "4", "--tt", "0000001000000010", "--min")
    assert code == 0 and out.strip() == "6 2"
    code, out, _ = run(capsys, "search", "--n", "4", "--tt", "0" * 16)
    assert code == 0 and out.strip() == "none"


def test_search_builds_no_wlo_sequence(capsys, monkeypatch):
    bits = "1001011010101000"  # Example 2

    def no_sequence(n):
        raise AssertionError("search built the WLO sequence")

    monkeypatch.setattr(wlo_mod, "wlo_bucket", no_sequence)
    code, out, _ = run(capsys, "search", "--n", "4", "--tt", bits)
    assert code == 0 and out.strip() == "12 2"
    code, out, _ = run(capsys, "search", "--n", "4", "--tt", bits, "--min")
    assert code == 0 and out.strip() == "0 0"
    # wlo streams the sequence layer by layer
    code, out, _ = run(capsys, "wlo", "--n", "4")
    assert code == 0 and out.strip() == "0 1 2 4 8 3 5 6 9 10 12 7 11 13 14 15"
    code, out, _ = run(capsys, "wlo", "--n", "4", "--layer", "2")
    assert code == 0 and out.strip() == "3 5 6 9 10 12"
    # seq is only checked for its dimension, so the answer is the same without it
    tt = TruthTable.from_bitstring(4, bits)
    assert wlo_search_max(tt) == wlo_search_max(tt, wlo_bucket(4))


def run_limited(*argv):
    """Run the CLI in a child limited to 1.5 GiB of address space, so that
    an allocation of 2^30-bit structures fails fast in the child only."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "wlocube", *argv],
        env=env, capture_output=True, text=True, preexec_fn=limit_memory, timeout=60,
    )


def test_wlo_layer_streams_at_n30():
    # layer 1 of l_30 is 30 serials; the whole sequence would need tens of
    # GiB, so it must not be built
    proc = run_limited("wlo", "--n", "30", "--layer", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == " ".join(str(1 << i) for i in range(30)) + "\n"


def test_out_of_memory_is_one_error_line():
    # the n=30 masks would hold 31 x 128 MiB
    proc = run_limited("masks", "--n", "30", "--paper-serials")
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "--n 30" in proc.stderr


def test_search_from_raw_file(capsys, tmp_path):
    tt_file = tmp_path / "tt.bin"
    value = sum(1 << i for i in {0, 3, 5, 6, 8, 10, 12})
    tt_file.write_bytes(value.to_bytes(8, "little"))
    code, out, _ = run(capsys, "search", "--n", "4", "--tt", str(tt_file))
    assert code == 0 and out.strip() == "12 2"


def test_table_string_and_raw_file_agree_at_n8_and_n10(capsys, tmp_path):
    # a 0/1 string of 2^n >= 256 characters is too long a name for a file
    rng = random.Random(8)
    for n in (8, 10):
        for bits in (rng.getrandbits(1 << n), 1 << rng.randrange(1 << n) | 1 << 3, 0):
            tt = TruthTable(n, bits)
            raw = tmp_path / f"tt{n}.bin"
            raw.write_bytes(bits.to_bytes(8 * word_count(n), "little"))
            for argv in (("search", "--tt"), ("search", "--min", "--tt"), ("degree", "--anf"), ("degree", "--from-tt", "--anf")):
                outs = []
                for spec in (tt.to_bitstring(), str(raw)):
                    code, out, err = run(capsys, *argv[:-1], "--n", str(n), argv[-1], spec)
                    assert code == 0 and err == "", (argv, err)
                    outs.append(out)
                assert outs[0] == outs[1] and outs[0].strip(), (n, argv, outs)
    code, out, err = run(capsys, "search", "--n", "8", "--tt", str(tmp_path / "nope.bin"))
    assert code == 1 and out == "" and "--tt: no such file, and " in err


def test_search_rejects_stray_high_bits(capsys, tmp_path):
    # at n=4 a raw word carries 16 coordinates; the other 48 bits must be 0
    tt_file = tmp_path / "tt.bin"
    tt_file.write_bytes(b"\xff" * 8)
    code, out, err = run(capsys, "search", "--n", "4", "--tt", str(tt_file))
    assert code == 1 and out == "" and "error:" in err


def test_enumerate_golden(capsys):
    code, out, _ = run(capsys, "enumerate", "--seq", "A001142", "--upto", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "5 2500"
    assert lines == ["1 1", "2 2", "3 9", "4 96", "5 2500"]


def test_enumerate_with_oracle(capsys):
    code, out, _ = run(capsys, "enumerate", "--seq", "A051459", "--upto", "6", "--oracle")
    assert code == 0
    assert out.splitlines()[2] == "3 36"


def test_enumerate_rejects_upto_out_of_range(capsys):
    code, out, err = run(capsys, "enumerate", "--seq", "A051459", "--upto", "40")
    assert code == 1 and out == ""
    assert "--upto" in err and "[1, 16]" in err


def test_masks_outputs(capsys):
    code, out, _ = run(capsys, "masks", "--n", "2", "--paper-serials")
    assert code == 0 and out.split() == ["8", "6", "1"]
    code, out, _ = run(capsys, "masks", "--n", "4")
    rows = out.strip().splitlines()
    assert rows[2] == "00010110 01101000"  # the weight-2 mask, coordinate 0 first


def test_outputs_beyond_default_digit_limit(capsys):
    # A051459(12) and the n=14 mask serials have more than 4300 decimal
    # digits, the default int-to-text limit of Python 3.11+ and 3.10.7+
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(capsys, "enumerate", "--seq", "A051459", "--upto", "12")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 12 and lines[-1].startswith("12 ")
    code, out, err = run(capsys, "masks", "--n", "14", "--paper-serials")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 15 and lines[-1] == "1"
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_degree(capsys):
    code, out, _ = run(capsys, "degree", "--n", "4", "--anf", "0001010001000000")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "degree", "--n", "4", "--anf", "0" * 16)
    assert code == 0 and out.strip() == "none"
    # --from-tt, coordinate 0 first: serials 8..15 are x1, serials 12..15 are x1 x2
    for tt, want in (("0000000011111111", "1"), ("0000000000001111", "2"), ("1" * 16, "0"), ("0" * 16, "none")):
        code, out, _ = run(capsys, "degree", "--n", "4", "--anf", tt, "--from-tt")
        assert code == 0 and out.strip() == want, tt


def test_subsets_commands(capsys):
    code, out, _ = run(capsys, "subsets", "--universe", "a,b,c", "--all")
    assert code == 0
    assert out.splitlines() == ["", "c", "b", "a", "b,c", "a,c", "a,b", "a,b,c"]
    code, out, _ = run(capsys, "subsets", "--universe", "a,b,c,d,e,f", "--rank", "b,c,e")
    assert code == 0 and out.strip() == "26"
    code, out, _ = run(capsys, "subsets", "--universe", "a,b,c,d,e,f", "--unrank", "45")
    assert code == 0 and out.strip() == "a,c,d,f"
    code, out, _ = run(capsys, "subsets", "--universe", "a,b,c,d", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["c,d", "b,d", "b,c", "a,d", "a,c", "a,b"]
    # --rank and --unrank print one line at any universe size
    code, out, _ = run(capsys, "subsets", "--universe", labels(30), "--rank", "x0,x29")
    assert code == 0 and out.strip() == str((1 << 29) + 1)
    code, out, _ = run(capsys, "subsets", "--universe", labels(30), "--unrank", str((1 << 30) - 1))
    assert code == 0 and out.strip() == labels(30)


def test_bench_gen_and_run(capsys, tmp_path):
    corpus = tmp_path / "c.bin"
    code, _, _ = run(capsys, "bench", "--gen", "--n", "6", "--corpus", str(corpus), "--count", "200", "--seed", "9")
    assert code == 0
    report = tmp_path / "r.csv"
    code, out, _ = run(capsys, "bench", "--run", "--n", "6", "--corpus", str(corpus), "--report", str(report))
    assert code == 0
    assert report.read_text().splitlines()[0] == "n,functions,algorithm,seconds,ops"
    assert "exhaustive:" in out and "wlo:" in out and "bitwise:" in out
    code, out, _ = run(capsys, "bench", "--run", "--n", "6", "--corpus", str(corpus), "--algorithms", "bitwise,wlo")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == ["wlo", "bitwise"]
    code, out, err = run(capsys, "bench", "--run", "--n", "6", "--corpus", str(corpus), "--algorithms", "nope")
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_bench_gen_rejects_bad_dimension(capsys, tmp_path):
    corpus = tmp_path / "c.bin"
    code, out, err = run(capsys, "bench", "--gen", "--n", "0", "--corpus", str(corpus), "--count", "10")
    assert code == 1 and out == "" and err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_bench_run_rejects_meta_missing_key(capsys, tmp_path):
    corpus = tmp_path / "c.bin"
    corpus.write_bytes(bytes(8))
    meta = tmp_path / "c.bin.meta"
    meta.write_text("seed=1\n")
    code, out, err = run(capsys, "bench", "--run", "--n", "6", "--corpus", str(corpus))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(meta) in err and "word_count" in err


def test_bench_run_rejects_meta_non_integer(capsys, tmp_path):
    corpus = tmp_path / "c.bin"
    corpus.write_bytes(bytes(8))
    meta = tmp_path / "c.bin.meta"
    meta.write_text("word_count=1\nwords_per_function=1\nseed=x1\n")
    code, out, err = run(capsys, "bench", "--run", "--n", "6", "--corpus", str(corpus))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(meta) in err and "'seed'" in err and "x1" in err


def test_bench_gen_rejects_oversized_corpus(capsys, tmp_path, monkeypatch):
    # at n=30 one function is 2^27 bytes, so the default --count asks for 1.3 TB;
    # gen_corpus is stubbed so that a missing check fails instead of writing
    def no_write(*args, **kwargs):
        raise AssertionError("gen_corpus called for an oversized corpus")

    monkeypatch.setattr(bench_mod, "gen_corpus", no_write)
    corpus = tmp_path / "c.bin"
    for argv in (("--n", "30"), ("--n", "20", "--count", "100000")):
        code, out, err = run(capsys, "bench", "--gen", *argv, "--corpus", str(corpus))
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "--count" in err and "--n" in err and str(bench_mod.MAX_CORPUS_BYTES) in err
    assert list(tmp_path.iterdir()) == []


def test_bench_gen_rejects_nonpositive_count(capsys, tmp_path):
    corpus = tmp_path / "c.bin"
    max_count = bench_mod.MAX_CORPUS_BYTES // (8 * bench_mod.word_count(10))
    for count in ("0", "-3"):
        code, out, err = run(capsys, "bench", "--gen", "--n", "10", "--count", count, "--corpus", str(corpus))
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "--count" in err and f"[1, {max_count}]" in err
    assert list(tmp_path.iterdir()) == []


def test_bench_gen_size_limit_is_inclusive(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_mod, "MAX_CORPUS_BYTES", 8 * 100)
    corpus = tmp_path / "c.bin"
    code, _, err = run(capsys, "bench", "--gen", "--n", "6", "--corpus", str(corpus), "--count", "101")
    assert code == 1 and "error:" in err and not corpus.exists()
    code, _, _ = run(capsys, "bench", "--gen", "--n", "6", "--corpus", str(corpus), "--count", "100")
    assert code == 0 and corpus.stat().st_size == 800


def test_fixtures_pass(capsys):
    code, out, _ = run(capsys, "fixtures", "--dir", str(FIXTURES))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.endswith(": pass") for line in lines)


def test_fixtures_detects_corruption(capsys, tmp_path):
    for f in FIXTURES.iterdir():
        shutil.copy(f, tmp_path / f.name)
    path = tmp_path / "b001142.txt"
    lines = path.read_text().splitlines()
    idx, value = lines[3].split()
    lines[3] = f"{idx} {int(value) + 1}"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert code == 1
    assert f"A001142: FAIL at index {idx}" in out


def test_domain_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "wlo", "--n", "0")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "search", "--n", "4", "--tt", "0101")
    assert code == 1
    # one error line that names the option and what it accepts, before any output
    missing = str(tmp_path / "missing.bin")
    target = tmp_path / "l.txt"
    for argv, needles in (
        (("wlo", "--n", "4", "--layer", "5", "--out", str(target)), ("--layer", "[0, 4]")),
        (("wlo", "--n", "4", "--layer", "-1"), ("--layer", "[0, 4]")),
        # more than 2^24 serials: the whole of l_25, or C(30, 15) of layer 15
        (("wlo", "--n", "25"), ("--n 25", "33554432", "16777216")),
        (("wlo", "--n", "30", "--layer", "15", "--out", str(target)), ("--layer 15", "155117520", "16777216")),
        (("subsets", "--universe", "a,b,c", "--k", "5"), ("k=5", "[0, 3]")),
        # more than 2^24 lines: every subset of 25 labels, or C(30, 15) of 30
        (("subsets", "--universe", labels(25), "--all"), ("--all", "--universe of 25", "33554432", "16777216")),
        (("subsets", "--universe", labels(30), "--k", "15"), ("--k 15", "--universe of 30", "155117520", "16777216")),
        (("search", "--n", "10", "--tt", missing), ("--tt", "no such file", "1024", f"got {len(missing)}")),
        (("degree", "--n", "10", "--anf", missing), ("--anf", "no such file", "1024", f"got {len(missing)}")),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error:") and all(s in err for s in needles), err
    assert not target.exists()
    # --n is checked once, before any command runs
    for n in ("0", "31"):
        for argv in (
            ("wlo", "--n", n, "--out", str(target)),
            ("masks", "--n", n),
            ("search", "--n", n, "--tt", "01"),
            ("degree", "--n", n, "--anf", "01"),
            ("bench", "--gen", "--n", n, "--count", "1", "--corpus", str(tmp_path / "c.bin")),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and len(err.splitlines()) == 1, argv
            assert err.startswith("error:") and "--n" in err and "[1, 30]" in err, err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wlo"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
