"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad values, failed validation),
2 usage error (argparse's default).
"""

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice
from math import comb
from pathlib import Path

from . import bench as bench_mod
from . import fixtures as fixtures_mod
from .counts import SEQUENCES
from .cube import MAX_DIM
from .masks import TruthTable, mask_bit_rows, mask_paper_serial, masks_recursive, word_count
from .search import algebraic_degree, mobius_transform, wlo_search_max, wlo_search_min
from .subsets import SubsetHandle, SubsetUniverse, k_subsets, members_in_order, rank, subsets_in_cardinality_order
from .wlo import layer_serials

# wlo refuses a request for more serials, and subsets --all/--k for more
# subsets: 2^24 serials are 140 MB of text and several seconds, 2^30 would
# be 10 GB and minutes
MAX_WLO_SERIALS = 1 << 24


def _load_truth_table(n: int, spec: str, option: str) -> TruthTable:
    """Interpret --tt/--anf: an existing file of raw little-endian words,
    otherwise a string of 2^n '0'/'1' characters, coordinate 0 first."""
    # os.path.exists is False where Path.exists raises before Python 3.12,
    # for a name too long to be a file: the 0/1 string of a table at n >= 8
    if os.path.exists(spec):
        return TruthTable.from_raw(n, Path(spec).read_bytes())
    try:
        return TruthTable.from_bitstring(n, spec)
    except ValueError as exc:
        raise ValueError(f"{option}: no such file, and {exc}") from None


def _cmd_wlo(args) -> int:
    n = args.n
    if args.layer is None:
        layers, count, asked = range(n + 1), 1 << n, f"--n {n}"
    elif 0 <= args.layer <= n:
        layers, count, asked = (args.layer,), comb(n, args.layer), f"--n {n} --layer {args.layer}"
    else:
        raise ValueError(f"--layer must be in [0, {n}] at --n {n}, got {args.layer}")
    if count > MAX_WLO_SERIALS:
        raise ValueError(f"{asked} asks for {count} serials; wlo prints at most {MAX_WLO_SERIALS}")
    # streamed a chunk of serials at a time, so memory stays flat at any n
    serials = chain.from_iterable(layer_serials(n, k) for k in layers)
    sep = "\n" if args.out else " "
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        out.write(str(next(serials)))
        for chunk in iter(lambda: list(islice(serials, 1 << 16)), []):
            out.write(sep + sep.join(map(str, chunk)))
        out.write("\n")
    return 0


def _cmd_masks(args) -> int:
    ms = masks_recursive(args.n)
    if args.paper_serials:
        for mask in ms.masks:
            print(mask_paper_serial(mask))
    else:
        for mask in ms.masks:
            print(mask_bit_rows(mask))
    return 0


def _cmd_search(args) -> int:
    tt = _load_truth_table(args.n, args.tt, "--tt")
    hit = wlo_search_min(tt) if args.min else wlo_search_max(tt)
    print("none" if hit is None else f"{hit.serial} {hit.weight}")
    return 0


def _cmd_degree(args) -> int:
    anf = _load_truth_table(args.n, args.anf, "--anf")
    if args.from_tt:
        anf = mobius_transform(anf)
    deg = algebraic_degree(anf, masks_recursive(args.n))
    print("none" if deg is None else deg)
    return 0


def _cmd_enumerate(args) -> int:
    seq = SEQUENCES[args.seq]
    if not 1 <= args.upto <= seq.upto_max:
        raise ValueError(f"--upto must be in [1, {seq.upto_max}] for {args.seq}, got {args.upto}")
    for n in range(1, args.upto + 1):
        value = seq.closed_form(n)
        if args.oracle and n <= seq.oracle_max_n:
            check = seq.oracle(n)
            if check != value:
                raise ValueError(f"oracle disagrees at n={n}: closed form {value}, oracle {check}")
        print(f"{n} {value}")
    return 0


def _cmd_subsets(args) -> int:
    universe = SubsetUniverse(tuple(args.universe.split(",")))
    size = universe.n
    if args.all or args.k is not None:
        if args.all:
            handles, count, asked = subsets_in_cardinality_order(universe), 1 << size, "--all"
        else:
            # comb is 0 for k > size; k_subsets then names the range of --k
            handles, count, asked = k_subsets(universe, args.k), comb(size, max(args.k, 0)), f"--k {args.k}"
        if count > MAX_WLO_SERIALS:
            raise ValueError(
                f"{asked} of a --universe of {size} labels asks for {count} subsets; subsets prints at most {MAX_WLO_SERIALS}"
            )
        for handle in handles:
            print(",".join(members_in_order(handle)))
    elif args.rank is not None:
        members = [m for m in args.rank.split(",") if m]
        print(rank(universe, members).serial)
    else:
        print(",".join(members_in_order(SubsetHandle(universe, args.unrank))))
    return 0


def _cmd_bench(args) -> int:
    if args.gen:
        wpf = word_count(args.n)
        max_count = bench_mod.MAX_CORPUS_BYTES // (8 * wpf)
        if not 1 <= args.count <= max_count:
            raise ValueError(
                f"--count must be in [1, {max_count}] at --n {args.n}, for a corpus of at most"
                f" {bench_mod.MAX_CORPUS_BYTES} bytes; got {args.count}"
            )
        bench_mod.gen_corpus(args.count, wpf, args.seed, args.corpus, significant_bits=1 << args.n)
        print(f"wrote {args.count} functions of {args.n} variables to {args.corpus}")
        return 0
    corpus = bench_mod.load_corpus(args.corpus)
    algorithms = args.algorithms.split(",") if args.algorithms else list(bench_mod.ALGORITHMS)
    report = bench_mod.run_bench(corpus, args.n, algorithms)
    for r in report.results:
        print(f"{r.algorithm}: {r.seconds:.6f} s, {r.ops} ops")
    if args.report:
        bench_mod.write_report(report, args.report)
    return 0


def _cmd_fixtures(args) -> int:
    results = fixtures_mod.validate_directory(args.dir)
    if not results:
        print(f"no known fixture files found in {args.dir}", file=sys.stderr)
        return 1
    failed = False
    for name, mismatches in results.items():
        if mismatches:
            failed = True
            idx, want, got = mismatches[0]
            print(f"{name}: FAIL at index {idx} (expected {want}, got {got})")
        else:
            print(f"{name}: pass")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wlocube", description="Weight-order tools for the Boolean cube")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wlo", help="print the WLO sequence or one layer of it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layer", type=int, default=None)
    p.add_argument("--out", default=None, help="write one serial per line to this file")
    p.set_defaults(func=_cmd_wlo)

    p = sub.add_parser("masks", help="print the layer masks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--paper-serials", action="store_true", dest="paper_serials", help="print decimal mask serials")
    p.set_defaults(func=_cmd_masks)

    p = sub.add_parser("search", help="max/min-weight vector in a function's support")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tt", required=True, help="raw word file or 0/1 string, coordinate 0 first")
    p.add_argument("--min", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("degree", help="algebraic degree from an ANF coefficient vector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--anf", required=True, help="raw word file or 0/1 string, coordinate 0 first")
    p.add_argument("--from-tt", action="store_true", dest="from_tt", help="input is a truth table; transform first")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("enumerate", help="closed-form counting sequences")
    p.add_argument("--seq", choices=sorted(SEQUENCES), required=True)
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with the brute-force oracle where feasible")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("subsets", help="subset generation and ranking/unranking")
    p.add_argument("--universe", required=True, help="comma-separated distinct labels")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="all subsets in cardinality order")
    group.add_argument("--k", type=int, default=None, help="only the k-element subsets")
    group.add_argument("--rank", default=None, help="comma-separated members; prints the serial")
    group.add_argument("--unrank", type=int, default=None, help="serial; prints the members")
    p.set_defaults(func=_cmd_subsets)

    p = sub.add_parser("bench", help="generate corpora and time the search algorithms")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--gen", action="store_true")
    mode.add_argument("--run", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--count", type=int, default=10000, help=f"functions to generate, at most {bench_mod.MAX_CORPUS_BYTES} bytes in all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--algorithms", default=None, help="comma-separated subset of exhaustive,wlo,bitwise")
    p.add_argument("--report", default=None, help="write a CSV report here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fixtures", help="validate committed OEIS b-files")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Counts and mask serials run to tens of thousands of digits. Python
    # 3.11+ and 3.10.7+ cap int-to-text conversion at 4300 digits unless
    # lifted; earlier releases have no cap and no setter.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        # every command that takes --n checks it here, before it writes anything
        if hasattr(args, "n") and not 1 <= args.n <= MAX_DIM:
            raise ValueError(f"--n must be in [1, {MAX_DIM}], got {args.n}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        at = f" at --n {args.n}" if hasattr(args, "n") else ""
        print(f"error: ran out of memory{at}", file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
