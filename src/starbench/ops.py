"""Language operations as automaton constructions.

Star and concatenation are wired with epsilon edges on EpsNfa values;
boolean operations go through the reachable direct product of two DFAs,
a ProductDfa that draws its own refinement keys. Inputs stay unmodified.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator
from enum import Enum
from itertools import compress, count
from operator import and_, itemgetter, or_, xor
from typing import NamedTuple

from .core import Dfa, EpsNfa, Transformation


class BooleanOp(Enum):
    UNION = "union"
    INTERSECTION = "intersection"
    DIFFERENCE = "difference"  # left \ right
    SYMDIFF = "symmetric-difference"

    @property
    def combine(self) -> Callable[[int, int], int]:
        """The op on two truth values, or bitwise on two ints of them."""
        return _COMBINE[self]


# difference is a & (a ^ b): ~ on a bool is deprecated since Python 3.12
_COMBINE = {BooleanOp.UNION: or_, BooleanOp.INTERSECTION: and_,
            BooleanOp.DIFFERENCE: lambda left, right: left & (left ^ right),
            BooleanOp.SYMDIFF: xor}


def dfa_to_nfa(d: Dfa) -> EpsNfa:
    """Embed a DFA as an EpsNfa with singleton moves and no epsilon edges."""
    moves = {
        (s, x): frozenset((t.image[s],))
        for x, t in d.delta.items()
        for s in range(d.size)
    }
    return EpsNfa(
        size=d.size,
        alphabet=d.alphabet,
        moves=moves,
        epsilon={},
        initials=frozenset((d.initial,)),
        finals=d.finals,
    )


def star_nfa(d: Dfa) -> EpsNfa:
    """NFA for L(d)*: star_eps_nfa of d's embedding, so the new state copies
    the initial state's moves."""
    return star_eps_nfa(dfa_to_nfa(d))


def star_eps_nfa(base: EpsNfa) -> EpsNfa:
    """NFA for L(base)*: a new sole-initial final state s with the moves of
    all initials, plus epsilon edges from every final back to the initials.
    Keeps the state count at base.size + 1, which matters when the operand
    is itself a construction (starring its determinized DFA instead can
    explode the subset space).
    """
    s = base.size
    start = base.eps_closure(base.initials)
    moves = dict(base.moves)
    for x in base.alphabet:
        targets: set[int] = set()
        for i in start:
            targets.update(base.moves.get((i, x), ()))
        if targets:
            moves[(s, x)] = frozenset(targets)
    epsilon = dict(base.epsilon)
    for f in base.finals:
        epsilon[f] = epsilon.get(f, frozenset()) | base.initials
    return EpsNfa(
        size=base.size + 1,
        alphabet=base.alphabet,
        moves=moves,
        epsilon=epsilon,
        initials=frozenset((s,)),
        finals=base.finals | {s},
    )


def _shift(states: frozenset[int], off: int) -> frozenset[int]:
    return frozenset(s + off for s in states)


def _side_by_side(
    left: EpsNfa, right: EpsNfa
) -> tuple[dict[tuple[int, str], frozenset[int]], dict[int, frozenset[int]], int]:
    """Moves and epsilon edges of the disjoint union, right's states shifted
    past left's; returns them with the shift."""
    if left.alphabet != right.alphabet:
        raise ValueError(
            f"alphabet mismatch: {left.alphabet} vs {right.alphabet}"
        )
    off = left.size
    moves = dict(left.moves)
    for (s, x), targets in right.moves.items():
        moves[(s + off, x)] = _shift(targets, off)
    epsilon = dict(left.epsilon)
    for s, targets in right.epsilon.items():
        epsilon[s + off] = _shift(targets, off)
    return moves, epsilon, off


def concat_nfa(left: EpsNfa, right: EpsNfa) -> EpsNfa:
    """NFA for L(left)·L(right): disjoint union with epsilon edges from the
    finals of left to the initials of right; left finals become non-final.
    """
    moves, epsilon, off = _side_by_side(left, right)
    shifted_initials = _shift(right.initials, off)
    for f in left.finals:
        epsilon[f] = epsilon.get(f, frozenset()) | shifted_initials
    return EpsNfa(
        size=left.size + right.size,
        alphabet=left.alphabet,
        moves=moves,
        epsilon=epsilon,
        initials=left.initials,
        finals=_shift(right.finals, off),
    )


def union_nfa(left: EpsNfa, right: EpsNfa) -> EpsNfa:
    """NFA for L(left) ∪ L(right): disjoint union, initials and finals of
    both sides kept."""
    moves, epsilon, off = _side_by_side(left, right)
    return EpsNfa(
        size=left.size + right.size,
        alphabet=left.alphabet,
        moves=moves,
        epsilon=epsilon,
        initials=left.initials | _shift(right.initials, off),
        finals=left.finals | _shift(right.finals, off),
    )


def reverse_nfa(d: Dfa) -> EpsNfa:
    """NFA for the reversal of L(d): d's embedding reversed by
    `EpsNfa.reverse`, the one construction that flips edges."""
    return dfa_to_nfa(d).reverse()


class ProductDfa(NamedTuple):
    """A product result: the DFA, its two operands, the boolean op and,
    per DFA state s, its pair (pairs[0][s], pairs[1][s]) of operand states,
    from which `minimize` has it draw its keys, as it has a SubsetDfa."""

    dfa: Dfa
    left: Dfa
    right: Dfa
    op: BooleanOp
    pairs: tuple[array, array]

    def _keys(self, limit: int) -> Iterator[int]:
        """Per state (p, q) in state order, the bits j with (p, q)
        accepting w_j, for the first `limit` distinct vectors R_w of a
        breadth-first walk. R_w holds one digit per operand state, left's
        then right's, 1 where that state accepts w: R_ε is the finals, and
        R_xw = pre_x(R_w) is one gather by x's column. (p, q) accepts
        w when the op of its two digits is 1, so bit 0 is finality and
        pairs with different keys are inequivalent. The walk runs at the
        first key drawn."""
        left, right, m = self.left, self.right, self.left.size
        gathers = [itemgetter(*left.delta[x].image,
                              *(t + m for t in right.delta[x].image))
                   for x in left.alphabet]
        start = bytes(b"01"[s in d.finals]
                      for d in (left, right) for s in range(d.size))
        seen = {start}
        vectors = [start]
        for vector in vectors:  # grows as new vectors are found
            if len(vectors) >= limit:
                break
            for gather in gathers:
                found = bytes(gather(vector))
                if found not in seen:
                    seen.add(found)
                    vectors.append(found)
        # a state's digits, the last word's first, are its bits in base 2
        bits = [int(bytes(digits), 2) for digits in zip(*reversed(vectors[:limit]))]
        yield from map(self.op.combine,
                       map(bits.__getitem__, self.pairs[0]),
                       map(bits[m:].__getitem__, self.pairs[1]))


def product_dfa(d1: Dfa, d2: Dfa, op: BooleanOp) -> ProductDfa:
    """Reachable direct product of two DFAs, finals per the boolean op.

    Pairs are discovered by BFS from the initial pair in alphabet order, so
    unreachable pairs never materialize and the numbering is the canonical
    one `minimize` expects of a construction result. Each letter's column
    is appended as its pairs are expanded.
    """
    if d1.alphabet != d2.alphabet:
        raise ValueError(f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
    alphabet = d1.alphabet
    columns: list[list[int]] = [[] for _ in alphabet]
    letters = [(d1.delta[x].image, d2.delta[x].image, column)
               for x, column in zip(alphabet, columns)]

    start = (d1.initial, d2.initial)
    index: dict[tuple[int, int], int] = {start: 0}
    order = [start]
    for p, q in order:  # grows as new pairs are discovered
        for t1, t2, column in letters:
            target = (t1[p], t2[q])
            ti = index.get(target)
            if ti is None:
                ti = len(order)
                index[target] = ti
                order.append(target)
            column.append(ti)

    delta = {x: Transformation(tuple(col)) for x, col in zip(alphabet, columns)}
    lefts = array("I", map(itemgetter(0), order))
    rights = array("I", map(itemgetter(1), order))
    finals = frozenset(compress(count(), map(
        op.combine, map(d1.finals.__contains__, lefts),
        map(d2.finals.__contains__, rights))))
    dfa = Dfa(len(order), alphabet, delta, 0, finals)
    return ProductDfa(dfa, d1, d2, op, (lefts, rights))
