"""Verification harness: run construction pipelines, compare measured
minimal-DFA sizes against the bound table, and report.

Each registry shape's construction is one row of `_SHAPES`: an NFA, or
the ProductDfa of a closing boolean product. `run_pipeline` determinizes
an NFA and minimizes every row's SubsetDfa or ProductDfa at its one final
site. Every cell is a pure computation (build witnesses, construct,
determinize, minimize, count), so tables can fan out over a process pool;
assembly and ordering stay sequential and deterministic. An ABOVE-BOUND
verdict is the loud one: a measured size above a proved upper bound means
a broken pipeline or a refuted claim, and it alone fails the process.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

from . import bounds
from .core import Dfa, EpsNfa, write_dfa
from .minimize import (
    DEFAULT_SUBSET_CAP,
    SubsetCapExceeded,
    SubsetDfa,
    determinize,
    minimal_dfa,
    minimize,
)
from .ops import (
    BooleanOp,
    ProductDfa,
    concat_nfa,
    dfa_to_nfa,
    product_dfa,
    reverse_nfa,
    star_eps_nfa,
    star_nfa,
    union_nfa,
)
from .oracle import SemanticOracle
from .witnesses import build

_DIAG_DFA_LIMIT = 2000
_DIAG_LABELS = 20


@dataclass(frozen=True)
class VerificationCell:
    op: str
    status: str
    m: int | None
    n: int
    expected: int | None  # None for the open operation
    measured: int | None  # None when skipped
    verdict: str  # match | below-bound | ABOVE-BOUND | open-measured | skipped
    millis: int
    witnesses: str
    note: str = ""
    diagnostics: str = ""


@dataclass(frozen=True)
class OracleReport:
    op: str
    m: int | None
    n: int
    words: int
    maxlen: int
    seed: int | None  # None for exhaustive enumeration
    disagreements: int
    example: tuple[str, ...] | None = None


# Each registry shape's construction over the operands K, L, the entry's
# boolean operation b and the subset cap: an NFA or, for a shape that ends
# in a boolean product, that ProductDfa, which run_pipeline makes minimal.
# Rows call every layer through this module's names, the names that
# bench/tracing.py patches to time each layer.
_SHAPES: dict[str, Callable[[Dfa | None, Dfa, BooleanOp | None, int],
                            EpsNfa | ProductDfa]] = {
    "star": lambda k, l, b, cap: star_nfa(l),
    "reversal": lambda k, l, b, cap: reverse_nfa(l),
    "product": lambda k, l, b, cap: concat_nfa(dfa_to_nfa(k), dfa_to_nfa(l)),
    "k_lstar": lambda k, l, b, cap: concat_nfa(dfa_to_nfa(k), star_nfa(l)),
    "kstar_l": lambda k, l, b, cap: concat_nfa(star_nfa(k), dfa_to_nfa(l)),
    "kstar_lstar": lambda k, l, b, cap: concat_nfa(star_nfa(k), star_nfa(l)),
    # star the m+n-state concatenation NFA directly: starring the
    # determinized KL DFA instead sends the subset frontier past any
    # reasonable cap already at small sizes
    "product_star": lambda k, l, b, cap: star_eps_nfa(
        concat_nfa(dfa_to_nfa(k), dfa_to_nfa(l))),
    # likewise the (m+n)-state union NFA stays in an m+n+1-bit subset
    # space, where starring the mn-state union product blows past the cap
    # already for medium sizes (union products have many final pairs, so
    # the star's loop-backs fan out)
    "union_star": lambda k, l, b, cap: star_eps_nfa(
        union_nfa(dfa_to_nfa(k), dfa_to_nfa(l))),
    # star the minimal product, whose fewer states mean fewer subsets
    "boolean_star": lambda k, l, b, cap: star_nfa(
        minimize(product_dfa(k, l, b))),
    "boolean": lambda k, l, b, cap: product_dfa(k, l, b),
    "k_circ_lstar": lambda k, l, b, cap: product_dfa(
        k, minimal_dfa(star_nfa(l), cap), b),
    "lstar_circ_k": lambda k, l, b, cap: product_dfa(
        minimal_dfa(star_nfa(l), cap), k, b),
    "kstar_circ_lstar": lambda k, l, b, cap: product_dfa(
        minimal_dfa(star_nfa(k), cap), minimal_dfa(star_nfa(l), cap), b),
}


def run_pipeline(
    op: str, left: Dfa | None, right: Dfa, cap: int = DEFAULT_SUBSET_CAP
) -> tuple[Dfa, SubsetDfa | None]:
    """The construction for one operation, its registry shape's _SHAPES
    row, determinized if it is an NFA and minimized here for every row:
    the subset DFA or the product, which draws its own refinement keys.

    Also returns the subset DFA whose minimization is that final DFA, so a
    mismatch audit decodes labels of the measured automaton; None when the
    row ends in a boolean product, which has no subset labels.
    """
    entry = bounds.lookup(op)
    boolean = None if entry.boolean is None else BooleanOp(entry.boolean)
    built = _SHAPES[entry.shape](left, right, boolean, cap)
    if not isinstance(built, EpsNfa):
        return minimize(built), None
    sd = determinize(built, cap)
    return minimize(sd), sd


def _diagnostics(final: Dfa, labels: Iterable[frozenset[int]] | None) -> str:
    """The offending DFA, then the first _DIAG_LABELS subset labels; only
    those are drawn from `labels`, which may be lazy."""
    parts = []
    if final.size <= _DIAG_DFA_LIMIT:
        parts.append(write_dfa(final))
    else:
        parts.append(f"(minimal DFA with {final.size} states not dumped)\n")
    shown = [
        "{" + ",".join(str(q) for q in sorted(label)) + "}"
        for label in itertools.islice(labels or (), _DIAG_LABELS)
    ]
    if shown:
        parts.append("subset labels: " + " ".join(shown) + "\n")
    return "".join(parts)


def verify_cell(
    op: str, m: int | None, n: int, cap: int = DEFAULT_SUBSET_CAP
) -> VerificationCell:
    """Execute one (operation, m, n) check against its bound; the cell is
    skipped when its bound or its subset frontier exceeds `cap`."""
    entry = bounds.lookup(op)
    cell_m = None if entry.arity == 1 else m
    start = time.perf_counter()
    try:
        final, sd = run_pipeline(op, *_operands_for(op, m, n, cap), cap)
    except SubsetCapExceeded as e:
        # the note alone: the exception's traceback holds this frame, so
        # keeping it would keep the walk's masks and index until a full gc
        final, skip = None, e.note
    millis = int((time.perf_counter() - start) * 1000)
    expected = None if entry.formula is None else bounds.evaluate(op, m, n)
    names = entry.witness_names(m, n)
    if final is None:
        return VerificationCell(
            entry.op, entry.status, cell_m, n, expected, None, "skipped",
            millis, names, note=skip,
        )
    measured = final.size
    note = ""
    diagnostics = ""
    if expected is None:
        verdict = "open-measured"
    elif measured == expected:
        verdict = "match"
    elif measured < expected:
        verdict = "below-bound"
        note = (
            "finding: conjectured witnesses miss the bound"
            if entry.status == "conjecture"
            else "witnesses fell short of the proved bound"
        )
    else:
        verdict = "ABOVE-BOUND"
        note = "measured size exceeds a proved upper bound: pipeline bug or refuted claim"
    if verdict in ("below-bound", "ABOVE-BOUND"):
        diagnostics = _diagnostics(
            final, None if sd is None else map(sd.label, range(sd.dfa.size)))
    return VerificationCell(
        entry.op, entry.status, cell_m, n, expected, measured, verdict, millis,
        names, note, diagnostics,
    )


def verify_table(
    ops: list[str] | None,
    pairs: list[tuple[int | None, int]],
    cap: int = DEFAULT_SUBSET_CAP,
    jobs: int = 1,
) -> list[VerificationCell]:
    """The cells bounds.cells names, all range-checked before any is run, on
    at most `jobs` worker processes, and never more than there are cells or
    CPUs: a fork-started pool starts all its workers at the first submit."""
    cells = bounds.cells(ops, pairs)
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers <= 1:
        return [verify_cell(op, m, n, cap) for op, m, n in cells]
    # imported here, so importing starbench loads no process machinery
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(verify_cell, *zip(*cells), [cap] * len(cells),
                             chunksize=1))


def summary_counts(cells: list[VerificationCell]) -> dict[str, int]:
    counts = {"match": 0, "mismatch": 0, "open": 0, "skip": 0}
    for cell in cells:
        if cell.verdict == "match":
            counts["match"] += 1
        elif cell.verdict in ("below-bound", "ABOVE-BOUND"):
            counts["mismatch"] += 1
        elif cell.verdict == "open-measured":
            counts["open"] += 1
        else:
            counts["skip"] += 1
    return counts


def any_above_bound(cells: list[VerificationCell]) -> bool:
    return any(c.verdict == "ABOVE-BOUND" for c in cells)


def render_text(cells: list[VerificationCell]) -> str:
    header = ("op", "status", "m", "n", "expected", "measured", "verdict",
              "millis", "witnesses")
    rows = [header]
    for c in cells:
        rows.append((
            c.op, c.status,
            "-" if c.m is None else str(c.m), str(c.n),
            "open" if c.expected is None else str(c.expected),
            "-" if c.measured is None else str(c.measured),
            c.verdict, str(c.millis), c.witnesses,
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [
        "  ".join(v.ljust(widths[i]) for i, v in enumerate(row)).rstrip()
        for row in rows
    ]
    for c in cells:
        if c.note:
            m = "-" if c.m is None else c.m
            lines.append(f"  note [{c.op} m={m} n={c.n}]: {c.note}")
        if c.diagnostics:
            lines.append(c.diagnostics.rstrip("\n"))
    counts = summary_counts(cells)
    lines.append(
        "summary: match={match} mismatch={mismatch} open={open} skip={skip}".format(**counts)
    )
    return "\n".join(lines) + "\n"


def render_csv(cells: list[VerificationCell]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["op", "status", "m", "n", "expected", "measured", "verdict", "millis",
         "note"]
    )
    for c in cells:
        writer.writerow([
            c.op, c.status,
            "" if c.m is None else c.m, c.n,
            "open" if c.expected is None else c.expected,
            "" if c.measured is None else c.measured,
            c.verdict, c.millis, c.note,
        ])
    return out.getvalue()


def render_json(cells: list[VerificationCell]) -> str:
    return json.dumps([asdict(c) for c in cells], ensure_ascii=False, indent=2) + "\n"


def _operands_for(
    op: str, m: int | None, n: int, cap: int = DEFAULT_SUBSET_CAP
) -> tuple[Dfa | None, Dfa]:
    """The operand DFAs of a cell, named by tag or alias; the open
    operation gets its candidate pair. The registry checks m and n, and a
    bound above `cap` raises SubsetCapExceeded before any witness is
    built."""
    entry = bounds.lookup(op)
    left_spec, right_spec = entry.witnesses(m, n)
    if entry.formula is not None:
        bound = entry.formula(m, n)
        if bound > cap:
            raise SubsetCapExceeded(bound, cap, bound=True)
    left = build(left_spec) if left_spec is not None else None
    right = build(right_spec)
    if entry.restrict_right:
        right = right.restrict(entry.restrict_right)
    if entry.complement_right:
        right = right.complement()
    return left, right


def _sampled_words(
    alphabet: Sequence, count: int, maxlen: int, seed: int
) -> Iterable[tuple]:
    """`count` seeded words up to maxlen letters long. A letter is drawn by
    the getrandbits loop of CPython's random.Random.choice, without its call
    overhead, so every seed still gives the words that rng.choice gave. The
    draws depend only on len(alphabet), so the alphabet (0, 1, ...) gives
    the same words as letter indices."""
    rng = random.Random(seed)
    randint, getrandbits = rng.randint, rng.getrandbits
    size = len(alphabet)
    bits = size.bit_length()
    for _ in range(count):
        word = []
        for _ in range(randint(0, maxlen)):
            r = getrandbits(bits)
            while r >= size:
                r = getrandbits(bits)
            word.append(alphabet[r])
        yield tuple(word)


def _check_maxlen(maxlen: int) -> None:
    if maxlen < 0:
        raise ValueError(f"maxlen must be at least 0, got {maxlen}")


def exhaustive_word_count(op: str, m: int | None, n: int, maxlen: int) -> int:
    """How many words exhaustive_oracle checks: every word over the cell's
    alphabet of length at most maxlen, a geometric sum, as every registry
    alphabet has at least two letters. A cell whose bound is over the
    default cap raises SubsetCapExceeded, as the oracle would."""
    _check_maxlen(maxlen)
    letters = len(_operands_for(op, m, n)[1].alphabet)
    return (letters ** (maxlen + 1) - 1) // (letters - 1)


def _oracle(
    op: str, m: int | None, n: int, maxlen: int, seed: int | None,
    count: int | None,
) -> OracleReport:
    """Compare the pipeline DFA with the direct semantics on `count`
    seeded random words, or on every word up to maxlen when count is None."""
    if count is not None and count < 1:
        raise ValueError(f"the word count must be at least 1, got {count}")
    if count is not None and not isinstance(seed, int):
        raise ValueError(f"sampled words need an int seed, got {seed!r}")
    _check_maxlen(maxlen)
    left, right = _operands_for(op, m, n)
    final, _ = run_pipeline(op, left, right)
    oracle = SemanticOracle(op, left, right)
    if count is None:
        checked, disagreements, example = oracle.compare_all(final, maxlen)
    else:
        checked, disagreements, example = oracle.compare(
            final, _sampled_words(tuple(range(len(right.alphabet))), count,
                                  maxlen, seed))
    return OracleReport(oracle.op, None if left is None else m, n, checked,
                        maxlen, seed, disagreements, example)


def membership_oracle(
    op: str,
    m: int | None,
    n: int,
    count: int = 500,
    maxlen: int = 12,
    seed: int = 0,
) -> OracleReport:
    """Sample seeded random words; compare pipeline DFA vs direct semantics."""
    return _oracle(op, m, n, maxlen, seed, count)


def exhaustive_oracle(
    op: str, m: int | None, n: int, maxlen: int
) -> OracleReport:
    """Compare pipeline vs semantics on every word up to maxlen."""
    return _oracle(op, m, n, maxlen, None, None)
