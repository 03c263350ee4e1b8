"""Declarative factory for the witness DFA families and their dialects.

Every family assigns canonical roles (cycle, transposition, singular, ...)
to the letters a, b, c, ... in order. A letter_order permutation reassigns
the roles: order "dcba" gives the cycle to d, the transposition to c, and
so on, leaving the alphabet itself in canonical order so operand pairs stay
compatible. Finals are {n-1}, except in S and in the {0}-final dialects,
which are families of their own (U0, W0) sharing their base's roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import Dfa, Transformation
from .minimize import DEFAULT_SUBSET_CAP

CANONICAL_LETTERS = "abcdef"

_T = Transformation


def _last(n: int) -> frozenset[int]:
    return frozenset((n - 1,))


def _zero(n: int) -> frozenset[int]:
    return frozenset((0,))


@dataclass(frozen=True)
class Family:
    """A witness family. `cli_name` is its CLI spelling; families sharing
    one differ in arity, and the smallest arity is the default."""

    name: str
    cli_name: str
    arity: int
    roles: Callable[[int], tuple[Transformation, ...]]
    finals: Callable[[int], frozenset[int]]


def _u_roles(n: int) -> tuple[Transformation, ...]:
    # n-cycle, (0,1) transposition, n-1 -> 0
    return _T.cycle(n), _T.transposition(n, 0, 1), _T.singular(n, n - 1, 0)


def _u4_roles(n: int) -> tuple[Transformation, ...]:
    # U plus an identity letter
    return _u_roles(n) + (_T.identity(n),)


def _w_roles(n: int) -> tuple[Transformation, ...]:
    # transposition moved to (n-2, n-1), singular 1 -> 0, plus identity
    return (_T.cycle(n), _T.transposition(n, n - 2, n - 1),
            _T.singular(n, 1, 0), _T.identity(n))


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family("U3", "U", 3, _u_roles, _last),
        Family("U0_3", "U0", 3, _u_roles, _zero),
        # like U but the singular sends 1 -> 0
        Family("T3", "T", 3,
               lambda n: (_T.cycle(n), _T.transposition(n, 0, 1),
                          _T.singular(n, 1, 0)),
               _last),
        Family("W4", "W", 4, _w_roles, _last),
        Family("W0_4", "W0", 4, _w_roles, _zero),
        Family("U4", "U", 4, _u4_roles, _last),
        Family("U0_4", "U0", 4, _u4_roles, _zero),
        # U4 plus the subcycle on 1..n-1
        Family("U5", "U5L", 5,
               lambda n: _u4_roles(n) + (_T.subcycle(n, 1, n - 1),),
               _last),
        # binary: cycle and 0 -> 1, final {0}
        Family("S2", "S", 2,
               lambda n: (_T.cycle(n), _T.singular(n, 0, 1)),
               _zero),
        # the six-letter intersection pair
        Family("JO6_K", "JO6K", 6,
               lambda n: (_T.cycle(n), _T.identity(n),
                          _T.subcycle(n, 1, n - 1), _T.identity(n),
                          _T.singular(n, 1, 0), _T.identity(n)),
               _last),
        Family("JO6_L", "JO6L", 6,
               lambda n: (_T.cycle(n), _T.cycle(n),
                          _T.identity(n), _T.subcycle(n, 1, n - 1),
                          _T.identity(n), _T.singular(n, 1, 0)),
               _last),
    )
}


@dataclass(frozen=True)
class WitnessSpec:
    """One witness DFA, named by family, size, and letter-role order."""

    family: str
    n: int
    letter_order: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        fam = FAMILIES.get(self.family)
        if fam is None:
            raise ValueError(f"unknown witness family {self.family!r}")
        if self.n < 3:
            raise ValueError(f"witness size must be >= 3, got {self.n}")
        canonical = self.canonical_order()
        if self.letter_order is not None:
            if sorted(self.letter_order) != sorted(canonical):
                raise ValueError(
                    f"letter_order {self.letter_order} is not a permutation "
                    f"of {canonical}"
                )
            if self.letter_order == canonical:
                # one spec per witness: the canonical order is the default
                object.__setattr__(self, "letter_order", None)

    def canonical_order(self) -> tuple[str, ...]:
        return tuple(CANONICAL_LETTERS[: FAMILIES[self.family].arity])

    @property
    def order(self) -> tuple[str, ...]:
        return self.letter_order or self.canonical_order()


def build(spec: WitnessSpec) -> Dfa:
    """Materialize the witness over the canonical alphabet, initial 0,
    letter order[i] performing role i."""
    fam = FAMILIES[spec.family]
    return Dfa(spec.n, spec.canonical_order(),
               dict(zip(spec.order, fam.roles(spec.n))), 0, fam.finals(spec.n))


def monoid_size(d: Dfa, letters: Iterable[str] | None = None) -> int:
    """Size of the transition monoid generated by the given letters
    (all letters by default), including the empty word's identity. A monoid
    of more than DEFAULT_SUBSET_CAP elements raises ValueError as soon as
    that many are held, as the full one on n states has n^n."""
    chosen = tuple(letters) if letters is not None else d.alphabet
    if not chosen:
        raise ValueError("letters must be nonempty")
    unknown = set(chosen) - set(d.alphabet)
    if unknown:
        raise ValueError(f"letters not in alphabet: {sorted(unknown)}")
    gens = [d.delta[x].image for x in chosen]
    # an element is the str of chr(image) per state, 1 to 4 bytes each,
    # and str.translate composes it with a letter's image in C
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
                    if len(seen) > DEFAULT_SUBSET_CAP:
                        raise ValueError(f"transition monoid has more than "
                                         f"{DEFAULT_SUBSET_CAP} elements")
        frontier = nxt
    return len(seen)


def _cli_arities(name: str) -> dict[int, str]:
    """Arity -> family for one CLI family name."""
    return {f.arity: f.name for f in FAMILIES.values() if f.cli_name == name}


def parse_witness(text: str) -> WitnessSpec:
    """Parse a CLI witness name like `U:n=5:order=dcba` or `JO6K:n=4`."""
    parts = text.split(":")
    name = parts[0]
    arities = _cli_arities(name)
    if not arities:
        known = sorted({f.cli_name for f in FAMILIES.values()})
        raise ValueError(f"unknown witness family {name!r}; known: {known}")
    n = None
    order: tuple[str, ...] | None = None
    keys = [part.partition("=")[0] for part in parts[1:]]
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"bad witness field {part!r}, expected key=value")
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
    arity = len(order) if order is not None else min(arities)
    family = arities.get(arity)
    if family is None:
        raise ValueError(
            f"family {name!r} does not come with {arity} letters"
        )
    return WitnessSpec(family, n, order)


def format_witness(spec: WitnessSpec) -> str:
    """Inverse of parse_witness; order spelled out whenever it carries
    information (non-canonical, or arity above the CLI default)."""
    fam = FAMILIES[spec.family]
    text = f"{fam.cli_name}:n={spec.n}"
    if (spec.order != spec.canonical_order()
            or fam.arity != min(_cli_arities(fam.cli_name))):
        text += ":order=" + "".join(spec.order)
    return text
