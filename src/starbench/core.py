"""Core value types: complete DFAs, epsilon-NFAs, and DFA text I/O.

Everything here is immutable after construction and safe to share between
workers. A DFA letter is a single printable symbol; its action on the state
set is its row, the tuple of each state's target, a total self-map. Words
act left to right: the first letter is applied first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence


class DfaFormatError(ValueError):
    """Raised when DFA text cannot be parsed; message names line and cause."""


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


def _parse_int(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DfaFormatError(f"line {lineno}: {what} is not an integer: {text!r}") from None


def _at_line(lineno: int, make: Callable[..., Any], *args: Any) -> Any:
    """make(*args), its ValueError re-raised as a format error on the line."""
    try:
        return make(*args)
    except ValueError as e:
        raise DfaFormatError(f"line {lineno}: {e}") from None


def read_dfa(text: str) -> Dfa:
    """Parse the text format produced by write_dfa; strict line order."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def get(idx: int, what: str) -> tuple[int, list[str]]:
        if idx >= len(lines):
            raise DfaFormatError(f"line {idx + 1}: missing {what} line")
        return idx + 1, lines[idx].split(" ")

    lineno, parts = get(0, "'dfa <n>'")
    if len(parts) != 2 or parts[0] != "dfa":
        raise DfaFormatError(f"line {lineno}: expected 'dfa <n>', got {lines[0]!r}")
    size = _parse_int(parts[1], lineno, "state count")
    if size < 1:
        raise DfaFormatError(f"line {lineno}: state count must be positive")

    lineno, parts = get(1, "'alphabet'")
    if parts[0] != "alphabet" or len(parts) < 2:
        raise DfaFormatError(f"line {lineno}: expected 'alphabet <letters>'")
    alphabet = tuple(parts[1:])
    _at_line(lineno, _check_alphabet, alphabet)

    lineno, parts = get(2, "'initial'")
    if parts[0] != "initial" or len(parts) != 2:
        raise DfaFormatError(f"line {lineno}: expected 'initial <state>'")
    initial = _parse_int(parts[1], lineno, "initial state")
    _at_line(lineno, _check_state, size, initial, "initial state")

    lineno, parts = get(3, "'finals'")
    if parts[0] != "finals":
        raise DfaFormatError(f"line {lineno}: expected 'finals <states>'")
    finals_list = [_parse_int(p, lineno, "final state") for p in parts[1:] if p != ""]
    if finals_list != sorted(set(finals_list)):
        raise DfaFormatError(f"line {lineno}: finals must be strictly ascending")
    for f in finals_list:
        _at_line(lineno, _check_state, size, f, "final state")

    delta: dict[str, tuple[int, ...]] = {}
    for i, x in enumerate(alphabet):
        idx = 4 + i
        if idx >= len(lines):
            raise DfaFormatError(
                f"line {idx + 1}: incomplete delta (missing row for letter {x!r})"
            )
        lineno, parts = idx + 1, lines[idx].split(" ")
        if parts[0] != x:
            raise DfaFormatError(
                f"line {lineno}: expected row for letter {x!r}, got {parts[0]!r}"
            )
        targets = [_parse_int(p, lineno, "target state") for p in parts[1:] if p != ""]
        if len(targets) != size:
            raise DfaFormatError(
                f"line {lineno}: incomplete delta row for {x!r}: "
                f"{len(targets)} targets, expected {size}"
            )
        for t in targets:
            _at_line(lineno, _check_state, size, t, "target state")
        delta[x] = tuple(targets)

    extra = 4 + len(alphabet)
    if extra < len(lines):
        raise DfaFormatError(f"line {extra + 1}: trailing content: {lines[extra]!r}")

    return Dfa(size, alphabet, delta, initial, frozenset(finals_list))
