"""Core value types: state transformations, complete DFAs, epsilon-NFAs.

Everything here is immutable after construction and safe to share between
workers. A DFA letter is a single printable symbol; its action on the state
set is a total self-map (Transformation). Words act left to right: the first
letter is applied first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable


class DfaFormatError(ValueError):
    """Raised when DFA text cannot be parsed; message names line and cause."""


def _check_state(n: int, s: int, what: str) -> None:
    if not 0 <= s < n:
        raise ValueError(f"{what} {s} out of range [0, {n})")


@dataclass(frozen=True)
class Transformation:
    """A total self-map of {0..n-1}, stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if n == 0:
            raise ValueError("degree must be positive")
        if min(self.image) < 0 or max(self.image) >= n:
            for i, t in enumerate(self.image):
                _check_state(n, t, f"image[{i}] =")

    @property
    def degree(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(tuple(range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Transformation":
        """The full cycle 0 -> 1 -> ... -> n-1 -> 0."""
        return cls(tuple((i + 1) % n for i in range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Transformation":
        """Swap states i and j, fix the rest; i and j must differ."""
        _check_state(n, i, "transposition index")
        _check_state(n, j, "transposition index")
        if i == j:
            raise ValueError("transposition needs two distinct states")
        img = list(range(n))
        img[i], img[j] = j, i
        return cls(tuple(img))

    @classmethod
    def singular(cls, n: int, i: int, j: int) -> "Transformation":
        """Send state i to state j, fix all other states."""
        _check_state(n, i, "singular source")
        _check_state(n, j, "singular target")
        img = list(range(n))
        img[i] = j
        return cls(tuple(img))

    @classmethod
    def subcycle(cls, n: int, lo: int, hi: int) -> "Transformation":
        """Cyclically permute lo -> lo+1 -> ... -> hi -> lo, fix the rest."""
        _check_state(n, lo, "subcycle lo")
        _check_state(n, hi, "subcycle hi")
        if lo > hi:
            raise ValueError(f"subcycle needs lo <= hi, got ({lo}, {hi})")
        img = list(range(n))
        for s in range(lo, hi + 1):
            img[s] = lo if s == hi else s + 1
        return cls(tuple(img))


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

    delta maps every letter to a Transformation of degree `size`, so the
    automaton is total by construction.
    """

    size: int
    alphabet: tuple[str, ...]
    delta: dict[str, Transformation]
    initial: int
    finals: frozenset[int]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be positive")
        _check_alphabet(self.alphabet)
        if set(self.delta) != set(self.alphabet):
            raise ValueError(
                f"delta letters {sorted(self.delta)} != alphabet {sorted(self.alphabet)}"
            )
        for x, t in self.delta.items():
            if t.degree != self.size:
                raise ValueError(
                    f"letter {x!r} has degree {t.degree}, expected {self.size}"
                )
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

    moves holds only nonempty target sets; absent (state, letter) pairs mean
    no move. epsilon likewise holds only states with outgoing epsilon edges.
    """

    size: int
    alphabet: tuple[str, ...]
    moves: dict[tuple[int, str], frozenset[int]]
    epsilon: dict[int, frozenset[int]]
    initials: frozenset[int]
    finals: frozenset[int]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be positive")
        _check_alphabet(self.alphabet)
        letters = set(self.alphabet)
        sources, used = zip(*self.moves) if self.moves else ((), ())
        states = set(sources).union(self.epsilon, *self.moves.values(),
                                    *self.epsilon.values())
        if not letters.issuperset(used) or states and (
                min(states) < 0 or max(states) >= self.size):
            # the per-item checks name the first offender
            for (s, x), targets in self.moves.items():
                _check_state(self.size, s, "move source")
                if x not in letters:
                    raise ValueError(f"move on unknown letter {x!r}")
                for t in targets:
                    _check_state(self.size, t, "move target")
            for s, targets in self.epsilon.items():
                _check_state(self.size, s, "epsilon source")
                for t in targets:
                    _check_state(self.size, t, "epsilon target")
        for s in self.initials:
            _check_state(self.size, s, "initial state")
        for s in self.finals:
            _check_state(self.size, s, "final state")

    def eps_closure(self, states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            s = stack.pop()
            for t in self.epsilon.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def reverse(self) -> "EpsNfa":
        """NFA for the reversed language: every move and epsilon edge
        flipped, initials and finals swapped."""
        moves: dict[tuple[int, str], set[int]] = {}
        for (s, x), targets in self.moves.items():
            for t in targets:
                moves.setdefault((t, x), set()).add(s)
        epsilon: dict[int, set[int]] = {}
        for s, targets in self.epsilon.items():
            for t in targets:
                epsilon.setdefault(t, set()).add(s)
        return EpsNfa(
            size=self.size,
            alphabet=self.alphabet,
            moves={k: frozenset(v) for k, v in moves.items()},
            epsilon={k: frozenset(v) for k, v in epsilon.items()},
            initials=self.finals,
            finals=self.initials,
        )


def write_dfa(d: Dfa) -> str:
    """Serialize to the line-oriented text format (LF, trailing newline)."""
    lines = [
        f"dfa {d.size}",
        "alphabet " + " ".join(d.alphabet),
        f"initial {d.initial}",
        ("finals " + " ".join(str(f) for f in sorted(d.finals))).rstrip(),
    ]
    for x in d.alphabet:
        lines.append(x + " " + " ".join(str(t) for t in d.delta[x].image))
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

    delta: dict[str, Transformation] = {}
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
        delta[x] = _at_line(lineno, Transformation, tuple(targets))

    extra = 4 + len(alphabet)
    if extra < len(lines):
        raise DfaFormatError(f"line {extra + 1}: trailing content: {lines[extra]!r}")

    return Dfa(size, alphabet, delta, initial, frozenset(finals_list))
