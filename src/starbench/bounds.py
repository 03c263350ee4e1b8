"""The operation registry: one entry per operation, holding its closed-form
bound, the witness pair claimed to meet it, its shell-safe alias, and the
shape and boolean operation that the pipeline (verify.run_pipeline) and the
membership oracle (oracle.SemanticOracle) dispatch on.

Each operation carries a status: theorem bounds are asserted exactly,
the conjecture entry is evaluated but mismatches are findings rather than
failures, and the open entry has no formula at all; its witness pair is a
candidate that is measured but never asserted. All arithmetic is
integer-exact.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable

from .witnesses import WitnessSpec, format_witness, parse_witness


class NoKnownBound(ValueError):
    """Evaluation of the open operation's bound, which has no formula."""


class UnknownOperation(ValueError):
    pass


def _compile(text: str) -> Callable[[int, int], int]:
    """The bound formula as a function of (m, n): `^` is power, and no name
    but m and n may appear, so the text cannot reach anything else."""
    code = compile(text.replace("^", "**"), text, "eval")
    if not set(code.co_names) <= {"m", "n"}:
        raise ValueError(f"formula {text!r} may use only m and n")
    return lambda m, n: eval(code, {"__builtins__": {}}, {"m": m, "n": n})


@dataclass(frozen=True)
class BoundEntry:
    """One operation.

    `left` and `right` name the witness pair in the README's witness
    syntax without the size (`U`, `U:order=bac`), the `witnesses` method
    adding m and n; a unary operation has no left witness. `shape`
    selects the construction and the oracle semantics; `boolean` is the
    BooleanOp value the operation embeds, if any. `formula` is compiled
    from `formula_text`, its only spelling. `restrict_right` and
    `complement_right` make the right witness the paper's operand: the
    `star` witness restricted to `ab`, `(K\\L)*`'s JO6L complemented. An
    entry names its operands but never builds them; `verify` does.
    """

    op: str
    alias: str | None
    status: str  # theorem | conjecture | open
    shape: str
    formula_text: str | None
    left: str | None
    right: str
    boolean: str | None = None
    complement_right: bool = False
    restrict_right: tuple[str, ...] | None = None
    formula: Callable[[int, int], int] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        text = self.formula_text
        if (self.status == "open") != (text is None):
            raise ValueError(f"entry {self.op}: an entry has no formula "
                             "exactly when its status is open")
        object.__setattr__(self, "formula", text and _compile(text))

    @property
    def arity(self) -> int:
        return 1 if self.left is None else 2

    def check_range(self, m: int | None, n: int) -> None:
        """The sizes a cell of this operation accepts, the only such rule:
        m, n >= 3 with no upper limit, and a unary operation ignores m."""
        if self.arity == 2 and m is None:
            raise ValueError(f"operation {self.op} needs m")
        if n < 3 or (self.arity == 2 and m < 3):
            raise ValueError(
                f"{self.op} requires m, n >= 3, got m={m}, n={n}")

    def witnesses(
        self, m: int | None, n: int
    ) -> tuple[WitnessSpec | None, WitnessSpec]:
        """The witness pair at (m, n); for the open operation, its candidate
        pair. m is ignored by unary operations."""
        self.check_range(m, n)
        left = (None if self.left is None
                else parse_witness(f"{self.left}:n={m}"))
        return left, parse_witness(f"{self.right}:n={n}")

    def witness_names(self, m: int | None, n: int) -> str:
        """The operands at (m, n) as the reports spell them."""
        left, right = self.witnesses(m, n)
        names = format_witness(right)
        if self.restrict_right:
            names += "|" + "".join(self.restrict_right)
        if self.complement_right:
            names = f"complement({names})"
        if left is None:
            return names
        return f"{format_witness(left)}, {names}"


_K_CIRC_LSTAR = "m*(2^(n-1) + 2^(n-2) - 1) + 1"
_KSTAR_CIRC_LSTAR = "(2^(m-1) + 2^(m-2) - 1)*(2^(n-1) + 2^(n-2) - 1) + 1"
_MN_STAR = "2^(m*n-1) + 2^(m*n-2)"

_ENTRIES = (
    BoundEntry("star", None, "theorem", "star", "2^(n-1) + 2^(n-2)",
               None, "U", restrict_right=("a", "b")),
    BoundEntry("reversal", None, "theorem", "reversal", "2^n", None, "U"),
    BoundEntry("product", None, "theorem", "product", "(m-1)*2^n + 2^(n-1)",
               "U", "U"),
    BoundEntry("bool-union", None, "theorem", "boolean", "m*n",
               "U", "U:order=bac", "union"),
    BoundEntry("bool-intersection", None, "theorem", "boolean", "m*n",
               "U", "U:order=bac", "intersection"),
    BoundEntry("bool-difference", None, "theorem", "boolean", "m*n",
               "U", "U:order=bac", "difference"),
    BoundEntry("bool-symdiff", None, "theorem", "boolean", "m*n",
               "U", "U:order=bac", "symmetric-difference"),
    BoundEntry("K∪L*", "KuLs", "theorem", "k_circ_lstar", _K_CIRC_LSTAR,
               "U", "U:order=bac", "union"),
    BoundEntry("K∩L*", "KiLs", "theorem", "k_circ_lstar", _K_CIRC_LSTAR,
               "U0", "U:order=bac", "intersection"),
    BoundEntry("K⊕L*", "KxLs", "theorem", "k_circ_lstar", _K_CIRC_LSTAR,
               "U", "U:order=bac", "symmetric-difference"),
    BoundEntry("K\\L*", "KdLs", "theorem", "k_circ_lstar", _K_CIRC_LSTAR,
               "U0", "U:order=bac", "difference"),
    BoundEntry("L*\\K", "LsdK", "theorem", "lstar_circ_k", _K_CIRC_LSTAR,
               "U", "U:order=bac", "difference"),
    BoundEntry("K*∪L*", "KsuLs", "theorem", "kstar_circ_lstar",
               _KSTAR_CIRC_LSTAR, "W", "W:order=dcba", "union"),
    BoundEntry("K*∩L*", "KsiLs", "theorem", "kstar_circ_lstar",
               _KSTAR_CIRC_LSTAR, "W", "W:order=dcba", "intersection"),
    BoundEntry("K*\\L*", "KsdLs", "theorem", "kstar_circ_lstar",
               _KSTAR_CIRC_LSTAR, "W0E", "W:order=dcba", "difference"),
    BoundEntry("K*⊕L*", "KsxLs", "theorem", "kstar_circ_lstar",
               _KSTAR_CIRC_LSTAR, "W0E", "W:order=dcba",
               "symmetric-difference"),
    # the KL* and K*L* formulas hold for L with L* ≠ L; where L* = L (as
    # for U0, whose only final state is its initial one) KL* is KL and
    # K*L* is K*L, whose sizes can exceed them
    BoundEntry("KL*", "KLs", "theorem", "k_lstar",
               "m*(2^(n-1) + 2^(n-2)) - 2^(n-2)", "T", "T:order=bac"),
    BoundEntry("K*L", "KsL", "theorem", "kstar_l",
               "5*2^(m+n-3) - 2^(m-1) - 2^n + 1",
               "U:order=abcd", "U:order=dcba"),
    BoundEntry("K*L*", "KsLs", "theorem", "kstar_lstar",
               "2^(m+n-1) - 2^(m-1) - 3*2^(n-2) + 2",
               "U:order=abcd", "U:order=dcba"),
    BoundEntry("(KL)*", "KL-s", "theorem", "product_star",
               "2^(m+n-1) + 2^(m+n-4) - (2^(m-1) + 2^(n-1) - m - 1)",
               "W", "W:order=dcba"),
    BoundEntry("(K∪L)*", "KuL-s", "theorem", "union_star",
               "2^(m+n-1) - (2^(m-1) + 2^(n-1) - 1)", "S", "S:order=ba",
               "union"),
    BoundEntry("(K∩L)*-conjecture", "KiL-s", "conjecture", "boolean_star",
               _MN_STAR, "U5L", "U5L:order=ecbad", "intersection"),
    BoundEntry("(K\\L)*", "KdL-s", "theorem", "boolean_star", _MN_STAR,
               "JO6K", "JO6L", "difference", complement_right=True),
    BoundEntry("(K⊕L)*-open", "KxL-s", "open", "boolean_star", None,
               "U5L", "U5L:order=ecbad", "symmetric-difference"),
)

TABLE: dict[str, BoundEntry] = {e.op: e for e in _ENTRIES}

# Shell-safe spellings, which `lookup` accepts alongside the canonical tags.
ALIASES: dict[str, str] = {e.alias: e.op for e in _ENTRIES if e.alias}


def lookup(name: str) -> BoundEntry:
    """The registry entry of an operation, by canonical tag or alias."""
    entry = TABLE.get(ALIASES.get(name, name))
    if entry is None:
        raise UnknownOperation(
            f"unknown operation {name!r}; known: {', '.join(TABLE)}")
    return entry


def evaluate(op: str, m: int | None, n: int) -> int:
    """Exact integer value of the bound formula at (m, n); m is ignored by
    unary operations."""
    entry = lookup(op)
    if entry.formula is None:
        raise NoKnownBound(f"no known bound for {op}")
    entry.check_range(m, n)
    return entry.formula(m, n)


def cells(
    ops: list[str] | None, pairs: list[tuple[int | None, int]]
) -> list[tuple[str, int | None, int]]:
    """The (op, m, n) cells of the named operations (every one when ops is
    None) over the (m, n) pairs, in table order: a unary operation has one
    cell per distinct n, with m None. Every cell is checked by its entry's
    `check_range` before any is returned, so a binary operation with m
    None is refused."""
    chosen = TABLE if ops is None else {lookup(o).op for o in ops}
    unary = [(None, n) for n in dict.fromkeys(n for _, n in pairs)]
    cells = []
    for entry in TABLE.values():
        if entry.op in chosen:
            for m, n in unary if entry.arity == 1 else pairs:
                entry.check_range(m, n)
                cells.append((entry.op, m, n))
    return cells


def table_csv(pairs: list[tuple[int | None, int]]) -> str:
    """Dump the bound table over the (m, n) pairs as CSV: op, status,
    formula-text, m, n, value."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["op", "status", "formula", "m", "n", "value"])
    for op, m, n in cells(None, pairs):
        entry = TABLE[op]
        value = "open" if entry.formula is None else entry.formula(m, n)
        writer.writerow(
            [op, entry.status, entry.formula_text or "open",
             "-" if m is None else m, n, value]
        )
    return out.getvalue()
