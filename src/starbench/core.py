"""Core value types: complete DFAs, epsilon-NFAs, DFA text output; kernels.

Everything here is immutable after construction and safe to share between
workers. A DFA letter is a single printable symbol; its action on the state
set is its row, the tuple of each state's target, a total self-map. Words
act left to right: the first letter is applied first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence


def _check_state(n: int, s: int, what: str) -> None:
    if not 0 <= s < n:
        raise ValueError(f"{what} {s} out of range [0, {n})")


def _check_mask(n: int, mask: int, what: str) -> None:
    if type(mask) is not int:
        raise ValueError(f"{what} are a {type(mask).__name__}, not an int mask")
    if mask < 0:
        raise ValueError(f"{what} are a negative mask {mask}")
    if mask >> n:
        _check_state(n, mask.bit_length() - 1, f"{what} hold state")


def _check_letters(rows: dict, alphabet: tuple[str, ...], what: str) -> None:
    if set(rows) != set(alphabet):
        raise ValueError(
            f"{what} letters {sorted(rows)} != alphabet {sorted(alphabet)}")


def _check_row(what: str, row: tuple[int, ...], n: int) -> None:
    if not isinstance(row, tuple):
        raise ValueError(f"{what} row is a {type(row).__name__}, not a tuple")
    if len(row) != n:
        raise ValueError(f"{what} has {len(row)} targets, expected {n}")


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError(f"alphabet letters must be distinct: {alphabet}")
    for x in alphabet:
        if len(x) != 1 or not x.isprintable() or x.isspace():
            raise ValueError(f"letter must be a single printable symbol: {x!r}")


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton over an ordered alphabet.

    delta maps every letter to its row, the tuple of each state's target,
    of length `size`, so the automaton is total by construction.
    """

    size: int
    alphabet: tuple[str, ...]
    delta: dict[str, tuple[int, ...]]
    initial: int
    finals: frozenset[int]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be positive")
        _check_alphabet(self.alphabet)
        _check_letters(self.delta, self.alphabet, "delta")
        for x, row in self.delta.items():
            _check_row(f"letter {x!r}", row, self.size)
            if min(row) < 0 or max(row) >= self.size:
                # the per-target check names the first offender
                for s, t in enumerate(row):
                    _check_state(self.size, t, f"letter {x!r} sends state {s} to")
        _check_state(self.size, self.initial, "initial state")
        if self.finals and (min(self.finals) < 0 or max(self.finals) >= self.size):
            for f in self.finals:
                _check_state(self.size, f, "final state")

    def with_finals(self, finals: Iterable[int]) -> "Dfa":
        """The same transitions with another final set."""
        return Dfa(self.size, self.alphabet, dict(self.delta), self.initial,
                   frozenset(finals))

    def complement(self) -> "Dfa":
        """Flip final and non-final states; complete DFAs make this exact."""
        return self.with_finals(frozenset(range(self.size)) - self.finals)

    def restrict(self, letters: Iterable[str]) -> "Dfa":
        """Project onto a sub-alphabet, keeping the original letter order."""
        keep = set(letters)
        unknown = keep - set(self.alphabet)
        if unknown:
            raise ValueError(f"letters not in alphabet: {sorted(unknown)}")
        alphabet = tuple(x for x in self.alphabet if x in keep)
        return Dfa(
            self.size,
            alphabet,
            {x: self.delta[x] for x in alphabet},
            self.initial,
            self.finals,
        )


@dataclass(frozen=True)
class EpsNfa:
    """Nondeterministic automaton with epsilon edges and initial sets.

    Every set of states is an int bit mask, state q at bit q. moves maps
    every letter to its row, the target mask of each state, as Dfa.delta
    does; epsilon is the row of each state's epsilon-target mask.
    """

    size: int
    alphabet: tuple[str, ...]
    moves: dict[str, tuple[int, ...]]
    epsilon: tuple[int, ...]
    initials: int
    finals: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be positive")
        _check_alphabet(self.alphabet)
        _check_letters(self.moves, self.alphabet, "move")
        rows = [(f"letter {x!r}", row) for x, row in self.moves.items()]
        for what, row in rows + [("epsilon", self.epsilon)]:
            _check_row(what, row, self.size)
            if set(map(type, row)) != {int} or min(row) < 0 or max(row) >> self.size:
                # the per-mask check names the first offender
                for s, targets in enumerate(row):
                    _check_mask(self.size, targets, f"{what} targets of state {s}")
        _check_mask(self.size, self.initials, "initials")
        _check_mask(self.size, self.finals, "finals")

    def closure(self) -> list[int]:
        """Per state, the mask of its epsilon-closure, the state included:
        each search adds the epsilon targets of the states it last added."""
        closure = []
        for q in range(self.size):
            mask = new = 1 << q
            while new:
                new = image(self.epsilon, new) & ~mask
                mask |= new
            closure.append(mask)
        return closure

    def reverse(self) -> "EpsNfa":
        """NFA for the reversed language: every move and epsilon edge
        flipped, initials and finals swapped."""
        return EpsNfa(
            size=self.size,
            alphabet=self.alphabet,
            moves={x: transpose(row, self.size) for x, row in self.moves.items()},
            epsilon=transpose(self.epsilon, self.size),
            initials=self.finals,
            finals=self.initials,
        )


def bits(mask: int) -> Iterator[int]:
    """The states whose bits are set in a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(row: Sequence[int], mask: int) -> int:
    """The OR of row[q] over the states q of mask: where a row sends a set."""
    targets = 0
    for q in bits(mask):
        targets |= row[q]
    return targets


def transpose(row: Sequence[int], size: int) -> tuple[int, ...]:
    """The row of the reversed edges, one mask per state t < size: t sends
    to s where s sent to t."""
    back = [0] * size
    for s, targets in enumerate(row):
        for t in bits(targets):
            back[t] |= 1 << s
    return tuple(back)


@cache
def kernel(source: Callable[..., str], *shape) -> Callable:
    """The function `kernel` that source(*shape) defines, compiled on the
    first call with this source and shape and cached: a shape names a
    loop's form, such as its letter count, never its input's size."""
    scope: dict = {}
    exec(compile(source(*shape), source.__name__, "exec"), scope)
    return scope["kernel"]


def write_dfa(d: Dfa) -> str:
    """Serialize to the line-oriented text format (LF, trailing newline)."""
    lines = [
        f"dfa {d.size}",
        "alphabet " + " ".join(d.alphabet),
        f"initial {d.initial}",
        ("finals " + " ".join(str(f) for f in sorted(d.finals))).rstrip(),
    ]
    for x in d.alphabet:
        lines.append(x + " " + " ".join(map(str, d.delta[x])))
    return "\n".join(lines) + "\n"
