"""Command-line front end.

Verbs: witness, complexity, bound, verify, oracle, conjecture, monoid.
Exit codes: 0 when everything matched or was skipped, 1 on any ABOVE-BOUND
cell or oracle disagreement, 2 on usage errors and when memory runs out.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds, verify
from .minimize import DEFAULT_SUBSET_CAP, SubsetCapExceeded
from .core import write_dfa
from .witnesses import build, monoid_size, parse_witness


def _parse_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(lo)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or LO..HI, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def _positive_int(text: str) -> int:
    value = int(text) if text.isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        m, sep, n = chunk.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"expected M:N pairs, got {chunk!r}"
            )
        try:
            pairs.append((int(m), int(n)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad pair {chunk!r}") from None
    return pairs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starbench",
        description=(
            "Measure the state complexity of star/product/boolean combined "
            "operations on witness DFAs and check the closed-form bounds."
        ),
        epilog=(
            "Operation names accept shell-safe aliases: "
            + ", ".join(f"{a} = {op}" for a, op in bounds.ALIASES.items())
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("witness", help="print a witness DFA in text format")
    p.add_argument("spec", help="witness name, e.g. U:n=5:order=dcba")

    p = sub.add_parser("complexity", help="measured size of one cell")
    p.add_argument("op")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_SUBSET_CAP)

    p = sub.add_parser("bound", help="bound formula value (or 'all' as CSV)")
    p.add_argument("op")
    p.add_argument("--m", type=_parse_range, default=None)
    p.add_argument("--n", type=_parse_range, required=True)

    p = sub.add_parser("verify", help="measure cells and compare to bounds")
    p.add_argument("op", help="an operation name or 'all'")
    p.add_argument("--m", type=_parse_range, default=[3, 4, 5, 6])
    p.add_argument("--n", type=_parse_range, default=[3, 4, 5, 6])
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_SUBSET_CAP)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser("oracle", help="pipeline vs split-point semantics")
    p.add_argument("op")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--words", default=500, help="sample size, or 'all' for exhaustive",
        type=lambda text: text if text == "all" else _positive_int(text))
    p.add_argument("--maxlen", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("conjecture", help="starred-intersection scan")
    p.add_argument("--pairs", type=_parse_pairs, required=True,
                   help="comma-separated M:N pairs, e.g. 3:3,3:4")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_SUBSET_CAP)
    p.add_argument("--jo6", action="store_true",
                   help="also run the six-letter starred-difference cells")

    p = sub.add_parser("monoid", help="transition monoid size of a witness")
    p.add_argument("spec")
    p.add_argument("--letters", default=None,
                   help="generator letters, e.g. ab (default: all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # `--words all` prints exact word counts of any size, past the int-to-str
    # cap of newer Pythons; the caller's cap is put back on return
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _dispatch(args)
    except ValueError as e:  # bounds.UnknownOperation among them
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SubsetCapExceeded as e:  # a skip, as in a skipped cell
        print(e.note, file=sys.stderr)
        return 0
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _dispatch(args: argparse.Namespace) -> int:
    if args.verb == "witness":
        print(write_dfa(build(parse_witness(args.spec))), end="")
        return 0

    if args.verb == "complexity":
        cell = verify.verify_cell(args.op, args.m, args.n, args.cap)
        if cell.measured is not None:
            print(cell.measured)
        if cell.note:
            print(cell.note, file=sys.stderr)
        return 1 if verify.any_above_bound([cell]) else 0

    if args.verb in ("bound", "verify"):  # --m x --n, m None without --m
        pairs = [(m, n) for m in args.m or [None] for n in args.n]

    if args.verb == "bound":
        if args.op == "all":
            print(bounds.table_csv(pairs), end="")
            return 0
        cells = bounds.cells([args.op], pairs)
        for _, m, n in cells:
            value = bounds.evaluate(args.op, m, n)
            if len(cells) > 1:
                value = f"{'-' if m is None else m},{n},{value}"
            print(value)
        return 0

    if args.verb == "verify":
        ops = None if args.op == "all" else [args.op]
        cells = verify.verify_table(ops, pairs, args.cap, args.jobs)
        renderer = {
            "text": verify.render_text,
            "csv": verify.render_csv,
            "json": verify.render_json,
        }[args.format]
        print(renderer(cells), end="")
        return 1 if verify.any_above_bound(cells) else 0

    if args.verb == "oracle":
        if args.words == "all":
            words = verify.exhaustive_word_count(args.op, args.m, args.n,
                                                 args.maxlen)
            print(f"checking all {words} words up to length {args.maxlen}",
                  file=sys.stderr)
            report = verify.exhaustive_oracle(args.op, args.m, args.n, args.maxlen)
        else:
            report = verify.membership_oracle(
                args.op, args.m, args.n, args.words, args.maxlen, args.seed
            )
        seed = "-" if report.seed is None else report.seed
        print(
            f"op={report.op} m={'-' if report.m is None else report.m} "
            f"n={report.n} words={report.words} maxlen={report.maxlen} "
            f"seed={seed} disagreements={report.disagreements}"
        )
        if report.example is not None:
            print(f"disagreeing word: {''.join(report.example)!r}")
        return 1 if report.disagreements else 0

    if args.verb == "conjecture":
        ops = ["(K∩L)*-conjecture"] + (["(K\\L)*"] if args.jo6 else [])
        cells = verify.verify_table(ops, args.pairs, args.cap)
        print(verify.render_text(cells), end="")
        return 1 if verify.any_above_bound(cells) else 0

    if args.verb == "monoid":
        dfa = build(parse_witness(args.spec))
        letters = None if args.letters is None else tuple(args.letters)
        print(monoid_size(dfa, letters))
        return 0

    raise AssertionError(f"unhandled verb {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
