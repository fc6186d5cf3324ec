"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad values, failed validation),
2 usage error (argparse's default).
"""

import argparse
import os
import sys
from contextlib import nullcontext
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from itertools import chain, islice
from math import comb
from pathlib import Path
from typing import Iterator, Sequence

from . import bench as bench_mod
from . import fixtures as fixtures_mod
from .counts import SEQUENCES
from .cube import MAX_DIM
from .masks import TruthTable, mask_bit_groups, masks_recursive, word_count
from .search import algebraic_degree, mobius_transform, wlo_search_max, wlo_search_min
from .subsets import SubsetHandle, SubsetUniverse, members_in_order, rank
from .wlo import layer_serials

# wlo refuses a request for more serials, and subsets --all/--k for more
# subsets: 2^24 serials are 140 MB of text and 3 to 7 s on a 2-vCPU x86-64
# machine, 2^30 would be 10 GB and minutes
MAX_WLO_SERIALS = 1 << 24

# subsets also refuses more bytes of output, counted from the label lengths:
# on that machine 1 GiB of long lines takes about 2 s through a pipe, and
# 1 GB of 2^24 short lines about 8 s; 20 labels of 5000 characters would
# be 52 GB
MAX_SUBSETS_BYTES = 1 << 30

# masks refuses a larger --n, per form, near wlo's time bound: on that
# machine --n 24 writes 25 bit rows, 472 MB, in about 5.5 s, and --n 21
# --paper-serials 13 MB of decimals in about 5 s; each 1 added to n costs 2-2.6x
MAX_MASKS_ROWS_N = 24
MAX_MASKS_SERIALS_N = 21


def _load_truth_table(n: int, spec: str, option: str) -> TruthTable:
    """Interpret --tt/--anf: an existing file of raw little-endian words,
    otherwise a string of 2^n '0'/'1' characters, coordinate 0 first."""
    # os.path.exists is False where Path.exists raises before Python 3.12,
    # for a name too long to be a file: the 0/1 string of a table at n >= 8
    if os.path.exists(spec):
        try:
            return TruthTable.from_raw(n, Path(spec).read_bytes())
        except OSError as exc:  # a directory, say: neither form the option takes
            raise ValueError(f"{option}: cannot read {spec!r} ({exc.strerror}); {option} takes a raw word file or a string of {1 << n} 0/1 characters") from None
        except ValueError as exc:  # the wrong size, or bits past 2^n below n=6
            raise ValueError(f"{option}: {spec!r}: {exc}") from None
    try:
        return TruthTable.from_bitstring(n, spec)
    except ValueError as exc:
        raise ValueError(f"{option}: no such file, and {exc}") from None


# _write_joined joins at most about this many characters before a write
_WRITE_CHARS = 1 << 18


def _write_joined(out, items, sep: str, width: int) -> None:
    """Write the strings of items joined by sep, then a newline; items holds
    at least one, each of at most width characters.  Items are joined
    _WRITE_CHARS characters' worth at a time, so memory stays flat at any
    count and any width."""
    out.write(next(items))
    batch = max(1, _WRITE_CHARS // (width + len(sep)))
    for chunk in iter(lambda: list(islice(items, batch)), []):
        out.write(sep + sep.join(chunk))
    out.write("\n")


def _layer_stream(n: int, k: int | None, asked: str, noun: str) -> tuple[Sequence[int], Iterator[int]]:
    """Layer k of l_n, or all layers if k is None, and their serials,
    streamed: the serials of wlo and subsets --all/--k.  asked names the
    request in the refusals."""
    if k is None:
        layers, count = range(n + 1), 1 << n
    elif 0 <= k <= n:
        layers, count = (k,), comb(n, k)
    else:
        raise ValueError(f"{asked} asks for layer k={k}; the layers are [0, {n}]")
    if count > MAX_WLO_SERIALS:
        raise ValueError(f"{asked} asks for {count} {noun}; at most {MAX_WLO_SERIALS} are printed")
    return layers, chain.from_iterable(layer_serials(n, j) for j in layers)


def _cmd_wlo(args) -> int:
    n = args.n
    asked = f"--n {n}" if args.layer is None else f"--n {n} --layer {args.layer}"
    _, serials = _layer_stream(n, args.layer, asked, "serials")
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        _write_joined(out, map(str, serials), "\n" if args.out else " ", len(str((1 << n) - 1)))
    return 0


# Below 2^_SPLIT_BITS, 8429 digits, one division by 10^_HALF_DIGITS leaves
# two parts under the 4300 digits that Python 3.11+ and 3.10.7+ convert by
# default.  Longer ints are split down to leaves of _DECIMAL_LEAF_BITS, 617
# digits, under the 640 always allowed
_SPLIT_BITS = 28000
_HALF_DIGITS = 4200
_DECIMAL_LEAF_BITS = 2048
_HALF = 10**_HALF_DIGITS


def _decimal(v: int) -> str:
    """str(v) for any int v, in subquadratic time and under any digit limit.

    str() of an int is quadratic in its length before Python 3.12.  Past
    _SPLIT_BITS, v is split in halves on powers of 2, joined back in a
    Decimal, whose long products are subquadratic: CPython 3.12's _pylong.
    """
    if v < 0:
        return "-" + _decimal(-v)
    if v.bit_length() <= _SPLIT_BITS:
        try:
            high, low = divmod(v, _HALF)
            return f"{high}{low:0{_HALF_DIGITS}}" if high else str(low)
        except ValueError:  # a digit limit set below the default
            pass
    powers = {}

    def pow2(w: int) -> Decimal:
        p = powers.get(w)
        if p is None:
            h = w >> 1
            p = powers[w] = Decimal(1 << w) if w <= _DECIMAL_LEAF_BITS else pow2(h) * pow2(w - h)
        return p

    def join(x: int, w: int) -> Decimal:
        # 0 <= x < 2^w
        if w <= _DECIMAL_LEAF_BITS:
            return Decimal(x)
        h = w >> 1
        high = x >> h
        return join(high, w - h) * pow2(h) + join(x - (high << h), h)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        # an inexact step would be a wrong digit: raise instead
        ctx.traps[Inexact] = True
        return str(join(v, v.bit_length()))


def _cmd_masks(args) -> int:
    n = args.n
    if args.paper_serials:
        asked, form, bound = f"--n {n} --paper-serials", "serials", MAX_MASKS_SERIALS_N
    else:
        asked, form, bound = f"--n {n}", "bit rows", MAX_MASKS_ROWS_N
    if n > bound:
        raise ValueError(f"{asked} asks for {n + 1} {form} of {1 << n} bits; masks prints {form} of at most {1 << bound} bits (--n {bound})")
    masks = masks_recursive(n)
    if args.paper_serials:
        # reversing the 2^n coordinates maps serial i to 2^n - 1 - i, of
        # weight n - wt(i): mask_paper_serial(masks[k]) is masks[n - k].bits
        for mask in reversed(masks):
            print(_decimal(mask.bits))
    else:
        for mask in masks:
            _write_joined(sys.stdout, mask_bit_groups(mask), " ", 8)
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
                raise ValueError(f"oracle disagrees at n={n}: closed form {_decimal(value)}, oracle {_decimal(check)}")
        print(n, _decimal(value))
    return 0


def _label_lists(labels: tuple[str, ...]) -> list[str]:
    """Per serial of len(labels) bits, its member labels, each followed by a
    comma; labels[0] is the top bit, as in SubsetHandle."""
    table = [""]
    for label in reversed(labels):
        table += [label + "," + t for t in table]
    return table


def _subsets_bytes(lengths: list[int], layers: Sequence[int]) -> int:
    """Bytes that subsets prints for these layers, given each label's length
    in bytes: per k-subset, its k labels, k - 1 commas and a newline."""
    n, total = len(lengths), sum(lengths)
    return sum(comb(n - 1, k - 1) * total + comb(n, k) * k if k else 1 for k in layers)


def _cmd_subsets(args) -> int:
    universe = SubsetUniverse(tuple(args.universe.split(",")))
    size = universe.n
    if args.all or args.k is not None:
        asked = f"{'--all' if args.all else f'--k {args.k}'} of a --universe of {size} labels"
        layers, serials = _layer_stream(size, args.k, asked, "subsets")
        # an argument byte that is not UTF-8 arrives as a lone surrogate, and
        # stdout writes it back as that one byte
        lengths = [len(label.encode(errors="surrogateescape")) for label in universe.elements]
        total = _subsets_bytes(lengths, layers)
        if total > MAX_SUBSETS_BYTES:
            raise ValueError(f"{asked} asks for {total} bytes of output; subsets prints at most {MAX_SUBSETS_BYTES} bytes")
        # each line is two table lookups, one per half of the serial
        low = size >> 1
        high, rest = _label_lists(universe.elements[: size - low]), _label_lists(universe.elements[size - low :])
        mask = (1 << low) - 1
        _write_joined(sys.stdout, ((high[s >> low] + rest[s & mask])[:-1] for s in serials), "\n", sum(lengths) + size)
    elif args.rank is not None:
        members = [m for m in args.rank.split(",") if m]
        print(rank(universe, members).serial)
    else:
        print(",".join(members_in_order(SubsetHandle(universe, args.unrank))))
    return 0


def _cmd_bench(args) -> int:
    if args.gen:
        max_count = bench_mod.MAX_CORPUS_BYTES // (8 * word_count(args.n))
        if not 1 <= args.count <= max_count:
            raise ValueError(
                f"--count must be in [1, {max_count}] at --n {args.n}, for a corpus of at most"
                f" {bench_mod.MAX_CORPUS_BYTES} bytes; got {args.count}"
            )
        bench_mod.gen_corpus(args.count, args.n, args.seed, args.corpus)
        print(f"wrote {args.count} functions of {args.n} variables to {args.corpus}")
        return 0
    corpus = bench_mod.load_corpus(args.corpus)
    if corpus.n != args.n:
        raise ValueError(f"--n {args.n} disagrees with corpus {args.corpus}, which holds functions of n={corpus.n} variables")
    algorithms = args.algorithms.split(",") if args.algorithms else list(bench_mod.ALGORITHMS)
    report = bench_mod.run_bench(corpus, algorithms)
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
    for name, mismatches in results.items():
        if mismatches:
            idx, want, got = mismatches[0]
            print(f"{name}: FAIL at index {idx} (expected {_decimal(want)}, got {_decimal(got)})")
        else:
            print(f"{name}: pass")
    return 1 if any(results.values()) else 0


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
    p.add_argument("--count", type=int, default=10000, help=f"functions to generate, at most {bench_mod.MAX_CORPUS_BYTES} bytes in all;"
                   " a corpus that large takes about 110 s to write (CPython 3.11, x86-64)")
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


if __name__ == "__main__":
    sys.exit(main())
