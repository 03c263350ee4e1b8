"""Language operations as automaton constructions.

Star and concatenation are wired with epsilon edges on EpsNfa mask rows;
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

from .core import Dfa, EpsNfa, image


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
    return EpsNfa(
        size=d.size,
        alphabet=d.alphabet,
        moves={x: tuple(1 << t for t in row) for x, row in d.delta.items()},
        epsilon=(0,) * d.size,
        initials=1 << d.initial,
        finals=sum(1 << f for f in d.finals),
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
    start = image(base.closure(), base.initials)
    return EpsNfa(
        size=base.size + 1,
        alphabet=base.alphabet,
        moves={x: row + (image(row, start),) for x, row in base.moves.items()},
        epsilon=_linked(base.epsilon, base.finals, base.initials) + (0,),
        initials=1 << s,
        finals=base.finals | 1 << s,
    )


def _linked(epsilon: tuple[int, ...], finals: int, targets: int) -> tuple[int, ...]:
    """epsilon with an edge from every state of finals to every state of
    targets."""
    return tuple(e | targets if finals >> q & 1 else e
                 for q, e in enumerate(epsilon))


def _side_by_side(
    left: EpsNfa, right: EpsNfa
) -> tuple[dict[str, tuple[int, ...]], tuple[int, ...], int]:
    """Moves and epsilon rows of the disjoint union, right's states shifted
    past left's; returns them with the shift."""
    if left.alphabet != right.alphabet:
        raise ValueError(
            f"alphabet mismatch: {left.alphabet} vs {right.alphabet}"
        )
    off = left.size
    moves = {x: row + tuple(t << off for t in right.moves[x])
             for x, row in left.moves.items()}
    epsilon = left.epsilon + tuple(t << off for t in right.epsilon)
    return moves, epsilon, off


def concat_nfa(left: EpsNfa, right: EpsNfa) -> EpsNfa:
    """NFA for L(left)·L(right): disjoint union with epsilon edges from the
    finals of left to the initials of right; left finals become non-final.
    """
    moves, epsilon, off = _side_by_side(left, right)
    return EpsNfa(
        size=left.size + right.size,
        alphabet=left.alphabet,
        moves=moves,
        epsilon=_linked(epsilon, left.finals, right.initials << off),
        initials=left.initials,
        finals=right.finals << off,
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
        initials=left.initials | right.initials << off,
        finals=left.finals | right.finals << off,
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
        accepting w_j, for the first `limit` distinct pairs (L_w, R_w) of
        a breadth-first walk. An operand's vector holds one digit per
        state, 1 where that state accepts w: the finals for ε, and
        pre_x(vector) for xw, one gather by x's column. (p, q) accepts w
        when the op of its two digits is 1, so bit 0 is finality and
        pairs with different keys are inequivalent. The walk runs at the
        first key drawn."""
        left_bits, right_bits = _pair_walk(self.left, self.right, limit)
        yield from map(self.op.combine,
                       map(left_bits.__getitem__, self.pairs[0]),
                       map(right_bits.__getitem__, self.pairs[1]))


def _pair_walk(left: Dfa, right: Dfa, limit: int) -> list[list[int]]:
    """Per operand, per state, the bits j with that state accepting w_j,
    for the first `limit` distinct pairs (L_w, R_w) of membership vectors
    that a breadth-first walk reaches: ε first, then xw for each found w
    and letter x in alphabet order. This is the search product_dfa makes,
    on the operands' reverse DFAs, and each operand gathers pre_x of each
    of its distinct vectors once, the first time a pair needs it. A vector
    holds the digits b"0" or b"1" of its states, then a constant pad digit,
    so a gather takes two or more indices even on a one-state operand."""
    start = tuple(bytes(b"01"[s in d.finals] for s in range(d.size)) + b"0"
                  for d in (left, right))
    letters = [(itemgetter(*left.delta[x], left.size), {},
                itemgetter(*right.delta[x], right.size), {})
               for x in left.alphabet]
    seen = {start}
    pairs = [start]
    for v, u in pairs:  # grows as new pairs are found
        if len(pairs) >= limit:
            break
        for gather_v, pre_v, gather_u, pre_u in letters:
            # a vector is never empty, so a memo hit is never falsy
            pair = (pre_v.get(v) or pre_v.setdefault(v, bytes(gather_v(v))),
                    pre_u.get(u) or pre_u.setdefault(u, bytes(gather_u(u))))
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    # a state's digits, the last word's first, are its bits in base 2
    return [[int(bytes(digits), 2) for digits in zip(*vectors)][:-1]
            for vectors in zip(*reversed(pairs[:limit]))]


def product_dfa(d1: Dfa, d2: Dfa, op: BooleanOp) -> ProductDfa:
    """Reachable direct product of two DFAs, finals per the boolean op.

    Pairs are discovered by BFS from the initial pair in alphabet order, so
    unreachable pairs never materialize and the numbering is the canonical
    one `minimize` expects of a construction result. Each letter's column
    is appended as its pairs are expanded. The search keys pair (p, q) by
    the int p·|Q2| + q, cheaper to hash than a tuple, and `pairs` gets its
    operand states when it is found.
    """
    if d1.alphabet != d2.alphabet:
        raise ValueError(f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
    alphabet, n2 = d1.alphabet, d2.size
    columns: list[list[int]] = [[] for _ in alphabet]
    letters = [([p * n2 for p in d1.delta[x]], d2.delta[x], column)
               for x, column in zip(alphabet, columns)]

    index = {d1.initial * n2 + d2.initial: 0}
    lefts, rights = array("I", [d1.initial]), array("I", [d2.initial])
    for p, q in zip(lefts, rights):  # grow as new pairs are discovered
        for t1, t2, column in letters:
            target = t1[p] + t2[q]
            ti = index.get(target)
            if ti is None:
                ti = index[target] = len(index)
                lefts.append(target // n2)
                rights.append(target % n2)
            column.append(ti)

    delta = {x: tuple(col) for x, col in zip(alphabet, columns)}
    finals = frozenset(compress(count(), map(
        op.combine, map(d1.finals.__contains__, lefts),
        map(d2.finals.__contains__, rights))))
    dfa = Dfa(len(lefts), alphabet, delta, 0, finals)
    return ProductDfa(dfa, d1, d2, op, (lefts, rights))
