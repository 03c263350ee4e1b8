"""Declarative factory for the witness DFA families and their dialects.

Every family assigns canonical roles (cycle, transposition, singular, ...)
to the letters a, b, c, ... in order. A letter_order permutation reassigns
the roles: order "dcba" gives the cycle to d, the transposition to c, and
so on, leaving the alphabet itself in canonical order so operand pairs stay
compatible. Finals are {n-1}, except in S and in the dialects, which are
families of their own sharing their base's roles: U0 is {0}-final, W0E
{0, n-1}-final.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import Dfa

CANONICAL_LETTERS = "abcdef"

# monoid_size holds at most this many elements times states: 2,000,000
# elements at n = 9, 60,000 at n = 300
MONOID_BUDGET = 18_000_000

_Row = tuple[int, ...]


def _last(n: int) -> frozenset[int]:
    return frozenset((n - 1,))


def _zero(n: int) -> frozenset[int]:
    return frozenset((0,))


def _row(n: int, *moves: tuple[int, int]) -> _Row:
    """The row sending s to t for each (s, t) of moves, fixing the rest."""
    row = list(range(n))
    for s, t in moves:
        row[s] = t
    return tuple(row)


def _cycle(n: int, lo: int = 0) -> _Row:
    """The row of lo -> lo+1 -> ... -> n-1 -> lo, fixing the states below lo."""
    return (*range(lo), *range(lo + 1, n), lo)


@dataclass(frozen=True)
class Family:
    """The roles and finals of a witness family at one arity. FAMILIES
    files it under its witness-syntax name and its arity."""

    arity: int
    roles: Callable[[int], tuple[_Row, ...]]
    finals: Callable[[int], frozenset[int]]


def _u_roles(n: int) -> tuple[_Row, ...]:
    # n-cycle, (0,1) transposition, n-1 -> 0
    return _cycle(n), _row(n, (0, 1), (1, 0)), _row(n, (n - 1, 0))


def _u4_roles(n: int) -> tuple[_Row, ...]:
    # U plus an identity letter
    return _u_roles(n) + (_row(n),)


def _w_roles(n: int) -> tuple[_Row, ...]:
    # transposition moved to (n-2, n-1), singular 1 -> 0, plus identity
    return (_cycle(n), _row(n, (n - 2, n - 1), (n - 1, n - 2)),
            _row(n, (1, 0)), _row(n))


def _by_name(*rows: tuple[str, Family]) -> dict[str, dict[int, Family]]:
    families: dict[str, dict[int, Family]] = {}
    for name, fam in rows:
        families.setdefault(name, {})[fam.arity] = fam
    return families


FAMILIES = _by_name(
    ("U", Family(3, _u_roles, _last)),
    ("U0", Family(3, _u_roles, _zero)),
    # like U but the singular sends 1 -> 0
    ("T", Family(3, lambda n: (_cycle(n), _row(n, (0, 1), (1, 0)),
                               _row(n, (1, 0))),
                 _last)),
    ("W", Family(4, _w_roles, _last)),
    ("W0E", Family(4, _w_roles, lambda n: frozenset((0, n - 1)))),
    ("U", Family(4, _u4_roles, _last)),
    ("U0", Family(4, _u4_roles, _zero)),
    # the four-letter U plus the subcycle on 1..n-1
    ("U5L", Family(5, lambda n: _u4_roles(n) + (_cycle(n, 1),), _last)),
    # binary: cycle and 0 -> 1, final {0}
    ("S", Family(2, lambda n: (_cycle(n), _row(n, (0, 1))), _zero)),
    # the six-letter intersection pair
    ("JO6K", Family(6, lambda n: (_cycle(n), _row(n), _cycle(n, 1), _row(n),
                                  _row(n, (1, 0)), _row(n)),
                    _last)),
    ("JO6L", Family(6, lambda n: (_cycle(n), _cycle(n), _row(n), _cycle(n, 1),
                                  _row(n), _row(n, (1, 0))),
                    _last)),
)


@dataclass(frozen=True)
class WitnessSpec:
    """One witness DFA: a family by its witness-syntax name (`U`, `U5L`,
    `JO6K`, ...), the size n, and the letter order, whose i-th letter
    performs role i. The order's length picks the family's arity; without
    an order the smallest arity performs its roles in canonical order, and
    that order given explicitly is stored as None; any other is stored as
    a tuple."""

    family: str
    n: int
    letter_order: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arities = FAMILIES.get(self.family)
        if arities is None:
            raise ValueError(f"unknown witness family {self.family!r}; "
                             f"known: {sorted(FAMILIES)}")
        default = min(arities)
        order = None if self.letter_order is None else tuple(self.letter_order)
        arity = default if order is None else len(order)
        if arity not in arities:
            raise ValueError(f"family {self.family!r} does not come with "
                             f"{arity} letters")
        if self.n < 3:
            raise ValueError(f"witness size must be >= 3, got {self.n}")
        canonical = tuple(CANONICAL_LETTERS[:arity])
        if order is not None and sorted(order) != list(canonical):
            raise ValueError(
                f"letter_order {order} is not a permutation of {canonical}")
        if order == canonical and arity == default:
            order = None
        object.__setattr__(self, "letter_order", order)

    @property
    def order(self) -> tuple[str, ...]:
        if self.letter_order is not None:
            return self.letter_order
        return tuple(CANONICAL_LETTERS[:min(FAMILIES[self.family])])


def build(spec: WitnessSpec) -> Dfa:
    """Materialize the witness over the canonical alphabet, initial 0,
    letter order[i] performing role i."""
    order = spec.order
    fam = FAMILIES[spec.family][len(order)]
    return Dfa(spec.n, tuple(sorted(order)),
               dict(zip(order, fam.roles(spec.n))), 0, fam.finals(spec.n))


def monoid_size(d: Dfa, letters: Iterable[str] | None = None) -> int:
    """Size of the transition monoid generated by the given letters
    (all letters by default), including the empty word's identity. An
    element holds one character per state, so a monoid of more than
    MONOID_BUDGET // d.size elements raises ValueError as soon as that
    many are held; the full one on n states has n^n."""
    chosen = tuple(letters) if letters is not None else d.alphabet
    if not chosen:
        raise ValueError("letters must be nonempty")
    unknown = set(chosen) - set(d.alphabet)
    if unknown:
        raise ValueError(f"letters not in alphabet: {sorted(unknown)}")
    gens = [d.delta[x] for x in chosen]
    limit = MONOID_BUDGET // d.size
    # an element is the str of chr(target) per state, 1 to 4 bytes each,
    # and str.translate composes it with a letter's row in C
    identity = "".join(map(chr, range(d.size)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for img in frontier:
            for g in gens:
                prod = img.translate(g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > limit:
                        raise ValueError(
                            f"transition monoid has more than {limit} "
                            f"elements, the limit for {d.size} states")
        frontier = nxt
    return len(seen)


def parse_witness(text: str) -> WitnessSpec:
    """Parse a witness name like `U:n=5:order=dcba` or `JO6K:n=4`."""
    name, *fields = text.split(":")
    n = None
    order: tuple[str, ...] | None = None
    keys = [field.partition("=")[0] for field in fields]
    for field in fields:
        key, sep, value = field.partition("=")
        if not sep:
            raise ValueError(f"bad witness field {field!r}, expected key=value")
        if key == "n":
            try:
                n = int(value)
            except ValueError:
                raise ValueError(f"bad witness size {value!r}") from None
        elif key == "order":
            order = tuple(value)
        else:
            raise ValueError(f"unknown witness field {key!r}")
        if keys.count(key) > 1:
            raise ValueError(f"repeated witness field {key!r}")
    if n is None:
        raise ValueError(f"witness {text!r} is missing n=<size>")
    return WitnessSpec(name, n, order)


def format_witness(spec: WitnessSpec) -> str:
    """Inverse of parse_witness."""
    text = f"{spec.family}:n={spec.n}"
    if spec.letter_order is not None:
        text += ":order=" + "".join(spec.letter_order)
    return text
