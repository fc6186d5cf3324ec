import os
import random
import resource
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from wlocube import TruthTable, wlo_bucket, wlo_search_max
from wlocube import bench as bench_mod
from wlocube import cli as cli_mod
from wlocube import wlo as wlo_mod
from wlocube.cli import _decimal, main
from wlocube.counts import SEQUENCES
from wlocube.fixtures import _parse_int as parse_int
from wlocube.masks import mask_bit_rows, mask_paper_serial, masks_recursive, word_count
from wlocube.subsets import SubsetUniverse, k_subsets, members_in_order, subsets_in_cardinality_order

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


def test_out_of_memory_is_one_error_line(tmp_path):
    # the n=30 masks that degree builds would hold 31 x 128 MiB; the table
    # is a sparse file of 2^27 zero bytes
    anf = tmp_path / "zero.bin"
    with open(anf, "wb") as f:
        f.truncate(1 << 27)
    proc = run_limited("degree", "--n", "30", "--anf", str(anf))
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr == "error: ran out of memory at --n 30\n"


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


def test_unreadable_table_path_names_the_option(capsys, tmp_path, monkeypatch):
    # a directory, or a file that cannot be read, is neither form --tt/--anf takes
    for argv in (("search", "--n", "4", "--tt"), ("degree", "--n", "4", "--anf")):
        code, out, err = run(capsys, *argv, str(tmp_path))
        assert code == 1 and out == "" and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: {argv[-1]}: cannot read ") and f"; {argv[-1]} takes a raw word file or a string of 16 0/1" in err, err
    tt_file = tmp_path / "tt.bin"
    tt_file.write_bytes(bytes(8))

    def denied(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_bytes", denied)
    code, out, err = run(capsys, "search", "--n", "4", "--tt", str(tt_file))
    assert code == 1 and out == "" and err.startswith("error: --tt: cannot read ") and "Permission denied" in err, err


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


def test_masks_bit_rows_stream_as_mask_bit_rows(capsys):
    # n = 1 and 2 are shorter than one 8-bit group
    for n in range(1, 10):
        code, out, err = run(capsys, "masks", "--n", str(n))
        assert (code, err) == (0, "")
        assert out == "".join(mask_bit_rows(m) + "\n" for m in masks_recursive(n))


@contextmanager
def digit_limit(limit):
    """Set the int-to-text digit limit inside the block, on a Python that has
    one (3.11+, 3.10.7+); 0 lifts it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    setter, old = sys.set_int_max_str_digits, sys.get_int_max_str_digits()
    setter(limit)
    try:
        yield
    finally:
        setter(old)


def test_outputs_beyond_default_digit_limit(capsys, tmp_path):
    # A051459(12) and the n=14 mask serials have more than 4300 decimal
    # digits, the default int-to-text limit of Python 3.11+ and 3.10.7+.
    # The CLI prints them whole at that default and at 640, the least a
    # process may set, and never sets the process-wide limit itself
    def no_switch(limit):
        raise AssertionError(f"the CLI set the int-to-text digit limit to {limit}")

    for limit in (4300, 640):
        with digit_limit(limit), pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys, "set_int_max_str_digits", no_switch, raising=False)
            code, out, err = run(capsys, "enumerate", "--seq", "A051459", "--upto", "12")
            assert code == 0 and err == ""
            lines = out.splitlines()
            assert [tuple(map(parse_int, line.split())) for line in lines] == [(n, SEQUENCES["A051459"].closed_form(n)) for n in range(1, 13)]
            assert len(lines[-1]) > 9000
            code, out, err = run(capsys, "masks", "--n", "14", "--paper-serials")
            assert code == 0 and err == ""
            assert [parse_int(line) for line in out.splitlines()] == [mask_paper_serial(m) for m in masks_recursive(14)]
            # a b-file whose term 12 is wrong in its last digit and whose term 13 is negative
            want = lines[-1].split()[1]
            got = want[:-1] + str((int(want[-1]) + 1) % 10)
            (tmp_path / "b051459.txt").write_text("\n".join([*lines[:11], f"12 {got}", "13 -" + "9" * 5000]) + "\n")
            code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
            assert code == 1 and err == ""
            assert out == f"A051459: FAIL at index 12 (expected {want}, got {got})\n"


def test_decimal_rendering_matches_str():
    # _decimal divides once by 10^_HALF_DIGITS up to _SPLIT_BITS, and splits
    # longer ints to leaves of _DECIMAL_LEAF_BITS; the masks at n >= 15 are
    # longer.  Under a digit limit below the default it takes the last path
    rng = random.Random(17)
    values = [0, 1, 10**cli_mod._HALF_DIGITS, 10**cli_mod._HALF_DIGITS - 1, 10**5000, 3**40000]
    for w in (cli_mod._DECIMAL_LEAF_BITS, cli_mod._SPLIT_BITS, 2 * cli_mod._SPLIT_BITS):
        for b in (w - 1, w, w + 1):
            values += [(1 << b) - 1, 1 << b, rng.getrandbits(b) | 1 << (b - 1)]
    values += [mask_paper_serial(m) for n in range(1, 17) for m in masks_recursive(n)]
    values += [-v for v in values]
    with digit_limit(0):
        want = [str(v) for v in values]
    for limit in (0, 4300, 640):
        with digit_limit(limit):
            assert [_decimal(v) for v in values] == want, limit


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


def test_subsets_lines_match_the_handles(capsys):
    # the CLI renders serials by table lookup; the library's handles are the reference
    for universe in ("a", "p,,q", labels(5), labels(7)):
        u = SubsetUniverse(tuple(universe.split(",")))
        cases = [("--all",), *(("--k", str(k)) for k in range(u.n + 1))]
        for opt in cases:
            handles = subsets_in_cardinality_order(u) if opt == ("--all",) else k_subsets(u, int(opt[1]))
            code, out, err = run(capsys, "subsets", "--universe", universe, *opt)
            assert code == 0 and err == ""
            assert out == "".join(",".join(members_in_order(h)) + "\n" for h in handles), (universe, opt)


def test_subsets_output_size_is_counted_exactly(capsys):
    rng = random.Random(5)
    universes = ["a", "p,,q", labels(7), "é,ß,x,∑", ",".join("y" * rng.randrange(40) + str(i) for i in range(9))]
    for universe in universes:
        elements = universe.split(",")
        lengths = [len(e.encode()) for e in elements]
        for opt in [("--all",), *(("--k", str(k)) for k in range(len(elements) + 1))]:
            layers = range(len(elements) + 1) if opt == ("--all",) else (int(opt[1]),)
            code, out, _ = run(capsys, "subsets", "--universe", universe, *opt)
            assert code == 0
            assert len(out.encode()) == cli_mod._subsets_bytes(lengths, layers), (universe, opt)
    # every subset of x0..x19 stays inside the bound
    code, out, err = run(capsys, "subsets", "--universe", labels(20), "--all")
    assert code == 0 and err == "" and len(out) == 36_700_161 <= cli_mod.MAX_SUBSETS_BYTES
    # a label byte that is not UTF-8 is counted, and printed, as one byte
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    env["PYTHONIOENCODING"] = "utf-8:surrogateescape"
    proc = subprocess.run([sys.executable, "-m", "wlocube", "subsets", "--universe", b"a\xff,b", "--all"], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == b"\nb\na\xff\na\xff,b\n", proc.stderr


def test_subsets_refuses_too_many_bytes(capsys, monkeypatch):
    # the refusal comes before any line is rendered
    def no_render(*args):
        raise AssertionError("labels rendered for a refused request")

    monkeypatch.setattr(cli_mod, "_label_lists", no_render)
    universe = ",".join(f"x{i}".ljust(5000, "a") for i in range(20))
    code, out, err = run(capsys, "subsets", "--universe", universe, "--all")
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: --all of a --universe of 20 labels")
    assert "52439285761" in err and str(cli_mod.MAX_SUBSETS_BYTES) in err
    monkeypatch.undo()
    # the bound is inclusive: a,b,c --k 2 is "b,c\na,c\na,b\n", 12 bytes
    for bound, want in ((12, 0), (11, 1)):
        monkeypatch.setattr(cli_mod, "MAX_SUBSETS_BYTES", bound)
        code, out, err = run(capsys, "subsets", "--universe", "a,b,c", "--k", "2")
        assert code == want and (out == "b,c\na,c\na,b\n") == (want == 0), (bound, err)


def test_write_joined_batches_by_characters(monkeypatch):
    monkeypatch.setattr(cli_mod, "_WRITE_CHARS", 1000)

    class Out:
        def __init__(self):
            self.writes = []

        def write(self, s):
            self.writes.append(s)

    for width, count in ((3, 2000), (99, 300), (2500, 7)):
        items = [str(i % 10) * width for i in range(count)]
        out = Out()
        cli_mod._write_joined(out, iter(items), "\n", width)
        assert "".join(out.writes) == "\n".join(items) + "\n"
        # a write holds at most one item past the character budget
        assert max(map(len, out.writes)) <= max(1000, width + 1), width


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
    assert str(meta) in err and "'n'" in err


def test_bench_run_rejects_old_meta(capsys, tmp_path):
    # the sidecar of a corpus written when it held the word counts, not n
    corpus = tmp_path / "c.bin"
    corpus.write_bytes(bytes(8 * 64))
    meta = tmp_path / "c.bin.meta"
    meta.write_text("word_count=64\nwords_per_function=1\nseed=3\n")
    code, out, err = run(capsys, "bench", "--run", "--n", "4", "--corpus", str(corpus))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(meta) in err and "missing key 'n'" in err


def test_bench_run_rejects_another_n(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "c.bin"
    code, _, _ = run(capsys, "bench", "--gen", "--n", "4", "--corpus", str(corpus), "--count", "64", "--seed", "3")
    assert code == 0

    # the check comes before any table is read
    def no_read(*args, **kwargs):
        raise AssertionError("tables read for a corpus of another n")

    monkeypatch.setattr(bench_mod, "_load_tables", no_read)
    for k in ("1", "5", "6", "7"):
        code, out, err = run(capsys, "bench", "--run", "--n", k, "--corpus", str(corpus))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: --n {k} ") and str(corpus) in err and "n=4" in err, err


def test_bench_run_rejects_meta_non_integer(capsys, tmp_path):
    corpus = tmp_path / "c.bin"
    corpus.write_bytes(bytes(8))
    meta = tmp_path / "c.bin.meta"
    meta.write_text("n=6\ncount=1\nseed=x1\n")
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


def test_domain_error_exit_code(capsys, tmp_path, tmp_path_factory):
    code, _, err = run(capsys, "wlo", "--n", "0")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "search", "--n", "4", "--tt", "0101")
    assert code == 1
    # one error line that names the option and what it accepts, before any output
    missing = str(tmp_path / "missing.bin")
    target = tmp_path / "l.txt"
    # raw word files that from_raw refuses: the wrong size, and bits past 2^4 at n=4
    inputs = tmp_path_factory.mktemp("inputs")
    short, high = inputs / "short.bin", inputs / "high.bin"
    short.write_bytes(bytes(3))
    high.write_bytes(b"\xff" * 8)
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
        # masks: more than 2^24 bits a row, or 2^21 bits a decimal serial
        (("masks", "--n", "25"), ("--n 25", "bit rows", "33554432", "16777216", "(--n 24)")),
        (("masks", "--n", "26"), ("--n 26", "bit rows", "67108864", "16777216", "(--n 24)")),
        (("masks", "--n", "22", "--paper-serials"), ("--n 22 --paper-serials", "4194304", "2097152", "(--n 21)")),
        (("masks", "--n", "30", "--paper-serials"), ("--n 30 --paper-serials", "1073741824", "2097152", "(--n 21)")),
        (("search", "--n", "10", "--tt", missing), ("--tt", "no such file", "1024", f"got {len(missing)}")),
        (("degree", "--n", "10", "--anf", missing), ("--anf", "no such file", "1024", f"got {len(missing)}")),
        (("search", "--n", "4", "--tt", str(short)), (f"error: --tt: {str(short)!r}: expected 8 bytes for n=4, got 3\n",)),
        (
            ("degree", "--n", "4", "--anf", str(high)),
            (f"error: --anf: {str(high)!r}: truth table bits must be an int in [0, 2^16) for n=4\n",),
        ),
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
