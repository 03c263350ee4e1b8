"""Verification harness: run construction pipelines, compare measured
minimal-DFA sizes against the bound table, and report.

Every cell is a pure computation (build witnesses, construct, determinize,
minimize, count), so tables can fan out over a process pool; assembly and
ordering stay sequential and deterministic. An ABOVE-BOUND verdict is the
loud one: a measured size above a proved upper bound means a broken
pipeline or a refuted claim, and it alone fails the process.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from . import bounds
from .bounds import BOOLEAN_OF, Recipe, TABLE
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
    concat_nfa,
    dfa_to_nfa,
    product_dfa,
    reverse_nfa,
    star_eps_nfa,
    star_nfa,
)
from .oracle import SemanticOracle
from .witnesses import WitnessSpec, build

DEFAULT_BIT_CAP = 26
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


def build_operands(rec: Recipe) -> tuple[Dfa | None, Dfa]:
    """Materialize a recipe's operand DFAs, applying its transforms."""
    left = build(rec.left) if rec.left is not None else None
    right = build(rec.right)
    if rec.restrict_right:
        right = right.restrict(rec.restrict_right)
    if rec.complement_right:
        right = right.complement()
    return left, right


_STAR_OF_BOOLEAN = {"(K∪L)*", "(K∩L)*-conjecture", "(K\\L)*", "(K⊕L)*-open"}


def _union_nfa(d1: Dfa, d2: Dfa) -> EpsNfa:
    """Disjoint union with both initial states initial: an (m+n)-state NFA
    for K ∪ L. Starring this stays in an m+n+1-bit subset space, where
    starring the mn-state union product blows past the cap already for
    medium sizes (union products have many final pairs, so the star's
    loop-backs fan out)."""
    off = d1.size
    moves: dict[tuple[int, str], frozenset[int]] = {
        (s, x): frozenset((t.image[s],))
        for x, t in d1.delta.items()
        for s in range(d1.size)
    }
    for x, t in d2.delta.items():
        for s in range(d2.size):
            moves[(s + off, x)] = frozenset((t.image[s] + off,))
    return EpsNfa(
        size=d1.size + d2.size,
        alphabet=d1.alphabet,
        moves=moves,
        epsilon={},
        initials=frozenset((d1.initial, d2.initial + off)),
        finals=d1.finals | frozenset(f + off for f in d2.finals),
    )


def _dialect_star_nfa(d: Dfa) -> EpsNfa:
    """Star shape for a witness operand, loop-backs hung from the family's
    canonical final state n-1 and acceptance at d's own finals plus the new
    state. For an {n-1}-final operand this IS star_nfa(d). A {0}-final
    dialect needs this shape: its language contains the empty word and is
    closed under concatenation, so its literal star is itself (m states) and
    the starred-difference/symmetric-difference bounds would be unreachable.
    """
    base = Dfa(d.size, d.alphabet, dict(d.delta), d.initial,
               frozenset((d.size - 1,)))
    nfa = star_nfa(base)
    return EpsNfa(nfa.size, nfa.alphabet, nfa.moves, nfa.epsilon,
                  nfa.initials, d.finals | {d.size})


def run_pipeline(
    op: str, left: Dfa | None, right: Dfa, cap: int | None = DEFAULT_SUBSET_CAP
) -> tuple[Dfa, SubsetDfa | None]:
    """The construction for one operation, ending in a minimal DFA.

    Also returns the last determinization (None when the pipeline ends in
    a plain product), whose subset labels a mismatch audit decodes.
    """
    if op == "star":
        sd = determinize(star_nfa(right), cap)
        return minimize(sd.dfa), sd
    if op == "reversal":
        sd = determinize(reverse_nfa(right), cap)
        return minimize(sd.dfa), sd
    if op == "product":
        assert left is not None
        sd = determinize(concat_nfa(dfa_to_nfa(left), dfa_to_nfa(right)), cap)
        return minimize(sd.dfa), sd

    boolean = BooleanOp(BOOLEAN_OF[op]) if op in BOOLEAN_OF else None
    if op.startswith("bool-"):
        assert left is not None and boolean is not None
        return minimize(product_dfa(left, right, boolean)), None
    if op in ("K∪L*", "K∩L*", "K⊕L*", "K\\L*", "L*\\K"):
        assert left is not None and boolean is not None
        sd = determinize(star_nfa(right), cap)
        lstar = minimize(sd.dfa)
        if op == "L*\\K":
            prod = product_dfa(lstar, left, boolean)
        else:
            prod = product_dfa(left, lstar, boolean)
        return minimize(prod), sd
    if op in ("K*∪L*", "K*∩L*", "K*\\L*", "K*⊕L*"):
        assert left is not None and boolean is not None
        kstar = minimal_dfa(_dialect_star_nfa(left), cap)
        sd = determinize(_dialect_star_nfa(right), cap)
        lstar = minimize(sd.dfa)
        return minimize(product_dfa(kstar, lstar, boolean)), sd
    if op == "KL*":
        assert left is not None
        sd = determinize(concat_nfa(dfa_to_nfa(left), star_nfa(right)), cap)
        return minimize(sd.dfa), sd
    if op == "K*L":
        assert left is not None
        sd = determinize(concat_nfa(star_nfa(left), dfa_to_nfa(right)), cap)
        return minimize(sd.dfa), sd
    if op == "K*L*":
        assert left is not None
        sd = determinize(concat_nfa(star_nfa(left), star_nfa(right)), cap)
        return minimize(sd.dfa), sd
    if op == "(KL)*":
        # star the m+n-state concatenation NFA directly: starring the
        # determinized KL DFA instead sends the subset frontier past any
        # reasonable cap already at small sizes
        assert left is not None
        inner = concat_nfa(dfa_to_nfa(left), dfa_to_nfa(right))
        sd = determinize(star_eps_nfa(inner), cap)
        return minimize(sd.dfa), sd
    if op == "(K∪L)*":
        assert left is not None
        sd = determinize(star_eps_nfa(_union_nfa(left, right)), cap)
        return minimize(sd.dfa), sd
    if op in _STAR_OF_BOOLEAN:
        assert left is not None and boolean is not None
        prod = minimize(product_dfa(left, right, boolean))
        sd = determinize(star_nfa(prod), cap)
        return minimize(sd.dfa), sd
    raise bounds.UnknownOperation(f"unknown operation {op!r}")


def measure_operands(
    op: str, left: Dfa | None, right: Dfa, cap: int | None = DEFAULT_SUBSET_CAP
) -> int:
    """Measured state complexity of the operation on given operands."""
    final, _ = run_pipeline(op, left, right, cap)
    return final.size


def _open_candidate(m: int, n: int) -> Recipe:
    """Witness candidates for the open operation: the five-letter pair.
    Measured only; nothing is asserted."""
    return Recipe(
        WitnessSpec("U5", m), WitnessSpec("U5", n, tuple("ecbad")),
        pipeline=("P = minimize(product_dfa(K, L, symmetric-difference)); "
                  "det-min(star_nfa(P))"),
    )


def _diagnostics(final: Dfa, labels: tuple[frozenset[int], ...] | None) -> str:
    parts = []
    if final.size <= _DIAG_DFA_LIMIT:
        parts.append(write_dfa(final))
    else:
        parts.append(f"(minimal DFA with {final.size} states not dumped)\n")
    if labels:
        shown = [
            "{" + ",".join(str(q) for q in sorted(label)) + "}"
            for label in labels[:_DIAG_LABELS]
        ]
        parts.append("subset labels: " + " ".join(shown) + "\n")
    return "".join(parts)


def verify_cell(
    op: str, m: int | None, n: int, cap: int | None = DEFAULT_SUBSET_CAP
) -> VerificationCell:
    """Execute one (operation, m, n) check against its bound."""
    entry = TABLE.get(op)
    if entry is None:
        raise bounds.UnknownOperation(f"unknown operation {op!r}")
    cell_m = None if entry.arity == 1 else m
    if entry.arity == 2 and m is None:
        raise ValueError(f"operation {op} needs m")
    start = time.perf_counter()

    if entry.status == "open":
        rec = _open_candidate(m or n, n)
        expected = None
    else:
        rec = bounds.recipe(op, m if m is not None else n, n)
        expected = bounds.evaluate(op, m if m is not None else n, n)
    names = rec.witness_names()

    try:
        left, right = build_operands(rec)
        final, sd = run_pipeline(op, left, right, cap)
        measured: int | None = final.size
    except SubsetCapExceeded as e:
        millis = int((time.perf_counter() - start) * 1000)
        return VerificationCell(
            op, entry.status, cell_m, n, expected, None, "skipped", millis,
            names, note=f"skipped: cap ({e.discovered} > {e.cap} subsets)",
        )

    millis = int((time.perf_counter() - start) * 1000)
    note = ""
    diagnostics = ""
    if entry.status == "open":
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
        diagnostics = _diagnostics(final, None if sd is None else sd.labels)
    return VerificationCell(
        op, entry.status, cell_m, n, expected, measured, verdict, millis,
        names, note, diagnostics,
    )


def _cell_args(
    ops: list[str] | None, ms: list[int], ns: list[int]
) -> list[tuple[str, int | None, int]]:
    chosen = list(TABLE) if ops is None else [bounds.resolve_op(o) for o in ops]
    ordered = [op for op in TABLE if op in set(chosen)]
    args: list[tuple[str, int | None, int]] = []
    for op in ordered:
        if TABLE[op].arity == 1:
            args.extend((op, None, n) for n in ns)
        else:
            args.extend((op, m, n) for m in ms for n in ns)
    return args


def _cell_worker(packed: tuple[str, int | None, int, int | None]) -> VerificationCell:
    op, m, n, cap = packed
    return verify_cell(op, m, n, cap)


def verify_table(
    ops: list[str] | None,
    ms: list[int],
    ns: list[int],
    cap: int | None = DEFAULT_SUBSET_CAP,
    jobs: int = 1,
) -> list[VerificationCell]:
    """All requested cells in deterministic (op, m, n) order."""
    for v in itertools.chain(ms, ns):
        if not 3 <= v <= 12:
            raise ValueError(f"m/n ranges must lie within [3, 12], got {v}")
    args = [(op, m, n, cap) for op, m, n in _cell_args(ops, ms, ns)]
    if jobs <= 1 or len(args) <= 1:
        return [_cell_worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_cell_worker, args, chunksize=1))


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
            lines.append(f"  note [{c.op} m={c.m} n={c.n}]: {c.note}")
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
        ["op", "status", "m", "n", "expected", "measured", "verdict", "millis"]
    )
    for c in cells:
        writer.writerow([
            c.op, c.status,
            "" if c.m is None else c.m, c.n,
            "open" if c.expected is None else c.expected,
            "" if c.measured is None else c.measured,
            c.verdict, c.millis,
        ])
    return out.getvalue()


def render_json(cells: list[VerificationCell]) -> str:
    return json.dumps([asdict(c) for c in cells], ensure_ascii=False, indent=2) + "\n"


def _operands_for(op: str, m: int | None, n: int) -> tuple[Dfa | None, Dfa, str]:
    entry = TABLE[op]
    if entry.arity == 2 and m is None:
        raise ValueError(f"operation {op} needs m")
    if entry.status == "open":
        rec = _open_candidate(m or n, n)
    else:
        rec = bounds.recipe(op, m if m is not None else n, n)
    left, right = build_operands(rec)
    return left, right, rec.witness_names()


def membership_oracle(
    op: str,
    m: int | None,
    n: int,
    count: int = 500,
    maxlen: int = 12,
    seed: int = 0,
    cap: int | None = DEFAULT_SUBSET_CAP,
) -> OracleReport:
    """Sample seeded random words; compare pipeline DFA vs direct semantics."""
    op = bounds.resolve_op(op)
    left, right, _ = _operands_for(op, m, n)
    final, _ = run_pipeline(op, left, right, cap)
    oracle = SemanticOracle(op, left, right)
    rng = random.Random(seed)
    alphabet = right.alphabet
    disagreements = 0
    example: tuple[str, ...] | None = None
    for _ in range(count):
        length = rng.randint(0, maxlen)
        word = tuple(rng.choice(alphabet) for _ in range(length))
        if final.run(word) != oracle.member(word):
            disagreements += 1
            if example is None:
                example = word
    cell_m = None if TABLE[op].arity == 1 else m
    return OracleReport(op, cell_m, n, count, maxlen, seed, disagreements, example)


def exhaustive_oracle(
    op: str,
    m: int | None,
    n: int,
    maxlen: int,
    cap: int | None = DEFAULT_SUBSET_CAP,
) -> OracleReport:
    """Compare pipeline vs semantics on every word up to maxlen."""
    op = bounds.resolve_op(op)
    left, right, _ = _operands_for(op, m, n)
    final, _ = run_pipeline(op, left, right, cap)
    oracle = SemanticOracle(op, left, right)
    alphabet = right.alphabet
    disagreements = 0
    words = 0
    example: tuple[str, ...] | None = None
    for length in range(maxlen + 1):
        for word in itertools.product(alphabet, repeat=length):
            words += 1
            if final.run(word) != oracle.member(word):
                disagreements += 1
                if example is None:
                    example = word
    cell_m = None if TABLE[op].arity == 1 else m
    return OracleReport(op, cell_m, n, words, maxlen, None, disagreements, example)


def conjecture_scan(
    pairs: list[tuple[int, int]],
    cap: int | None = DEFAULT_SUBSET_CAP,
    bit_cap: int = DEFAULT_BIT_CAP,
    include_jo6: bool = False,
) -> list[VerificationCell]:
    """Run the starred-intersection conjecture cells (and optionally the
    six-letter starred-difference cells) over the given (m, n) pairs."""
    ops = ["(K∩L)*-conjecture"]
    if include_jo6:
        ops.append("(K\\L)*")
    cells = []
    for op in ops:
        for m, n in pairs:
            if m * n > bit_cap:
                expected = bounds.evaluate(op, m, n)
                cells.append(VerificationCell(
                    op, TABLE[op].status, m, n, expected, None, "skipped", 0,
                    bounds.recipe(op, m, n).witness_names(),
                    note=f"skipped: bit cap (mn={m * n} > {bit_cap})",
                ))
            else:
                cells.append(verify_cell(op, m, n, cap))
    return cells
