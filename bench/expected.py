"""The benchmark's own expected values.

These are kept apart from ``starbench.bounds`` on purpose: that module is
code under test, so a wrong bound there must not also become the value the
benchmark checks against. The closed forms are the ones stated in README.md
and PAPER.md, together with the classical single-operation results
(reversal 2^n, concatenation (m-1)2^n + 2^(n-1), boolean operations mn).
They are cross-checked at import against worked values quoted in the README
and against the five measured `large` counts pinned below.
"""

from __future__ import annotations


def _star(n: int) -> int:
    return 2 ** (n - 1) + 2 ** (n - 2)


def _k_circ_lstar(m: int, n: int) -> int:
    return m * (_star(n) - 1) + 1


def _kstar_circ_lstar(m: int, n: int) -> int:
    return (_star(m) - 1) * (_star(n) - 1) + 1


def _mn_star(m: int, n: int) -> int:
    return 2 ** (m * n - 1) + 2 ** (m * n - 2)


UNARY = ("star", "reversal")

# Minimal-DFA state count of every theorem row measured by the `table`
# workload, as f(m, n); unary rows ignore m. `(K\L)*` is a theorem row too,
# but its count is mn-exponential, so no workload runs it.
THEOREM_STATES = {
    "star": lambda m, n: _star(n),
    "reversal": lambda m, n: 2 ** n,
    "product": lambda m, n: (m - 1) * 2 ** n + 2 ** (n - 1),
    "bool-union": lambda m, n: m * n,
    "bool-intersection": lambda m, n: m * n,
    "bool-difference": lambda m, n: m * n,
    "bool-symdiff": lambda m, n: m * n,
    "K∪L*": _k_circ_lstar,
    "K∩L*": _k_circ_lstar,
    "K⊕L*": _k_circ_lstar,
    "K\\L*": _k_circ_lstar,
    "L*\\K": _k_circ_lstar,
    "K*∪L*": _kstar_circ_lstar,
    "K*∩L*": _kstar_circ_lstar,
    "K*\\L*": _kstar_circ_lstar,
    "K*⊕L*": _kstar_circ_lstar,
    "KL*": lambda m, n: m * _star(n) - 2 ** (n - 2),
    "K*L": lambda m, n: 5 * 2 ** (m + n - 3) - 2 ** (m - 1) - 2 ** n + 1,
    "K*L*": lambda m, n: 2 ** (m + n - 1) - 2 ** (m - 1) - 3 * 2 ** (n - 2) + 2,
    "(KL)*": lambda m, n: (2 ** (m + n - 1) + 2 ** (m + n - 4)
                           - (2 ** (m - 1) + 2 ** (n - 1) - m - 1)),
    "(K∪L)*": lambda m, n: 2 ** (m + n - 1) - (2 ** (m - 1) + 2 ** (n - 1) - 1),
}

CONJECTURE = "(K∩L)*-conjecture"

# Measured once and pinned: the `large` cells (op, m, n, minimal states).
LARGE_CELLS = (
    (CONJECTURE, 3, 5, 24_576),
    (CONJECTURE, 4, 4, 49_152),
    ("K*L", 8, 8, 40_577),
    ("(KL)*", 8, 8, 36_617),
    ("K*∪L*", 8, 8, 36_482),
)

# Worked values quoted in README.md: (op, m, n, minimal states).
WORKED = (
    ("K*L", 4, 5, 281),
    ("(KL)*", 4, 5, 269),
    ("star", None, 5, 24),
)

# Alphabet size of each combined operation's witness pair, which fixes how
# many words an exhaustive oracle run must visit.
COMBINED_ALPHABET = {
    "K∪L*": 3, "K∩L*": 3, "K⊕L*": 3, "K\\L*": 3, "L*\\K": 3,
    "K*∪L*": 4, "K*∩L*": 4, "K*⊕L*": 4, "K*\\L*": 4,
    "KL*": 3, "K*L": 4, "K*L*": 4, "(KL)*": 4,
}


def states(op: str, m: int | None, n: int) -> int:
    """Expected minimal-DFA size of a cell."""
    if op == CONJECTURE:
        return _mn_star(m, n)
    return THEOREM_STATES[op](m, n)


def exhaustive_words(op: str, maxlen: int) -> int:
    """Number of words of length 0..maxlen over the operation's alphabet."""
    k = COMBINED_ALPHABET[op]
    return sum(k ** length for length in range(maxlen + 1))


def _cross_check() -> None:
    for op, m, n, count in WORKED + LARGE_CELLS:
        if states(op, m, n) != count:
            raise RuntimeError(
                f"benchmark closed form for {op} at ({m},{n}) gives "
                f"{states(op, m, n)}, pinned value is {count}"
            )


_cross_check()
