"""Language operations as automaton constructions.

Star and concatenation are wired with epsilon edges on EpsNfa values;
boolean operations go through the reachable direct product of two DFAs.
Inputs are never modified.
"""

from __future__ import annotations

from enum import Enum

from .core import Dfa, EpsNfa, Transformation


class BooleanOp(Enum):
    UNION = "union"
    INTERSECTION = "intersection"
    DIFFERENCE = "difference"  # left \ right
    SYMDIFF = "symmetric-difference"

    def combine(self, left: bool, right: bool) -> bool:
        if self is BooleanOp.UNION:
            return left or right
        if self is BooleanOp.INTERSECTION:
            return left and right
        if self is BooleanOp.DIFFERENCE:
            return left and not right
        return left != right


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


def product_dfa(d1: Dfa, d2: Dfa, op: BooleanOp) -> Dfa:
    """Reachable direct product of two DFAs, finals per the boolean op.

    Pairs are discovered by BFS from the initial pair in alphabet order, so
    unreachable pairs never materialize and numbering is deterministic.
    Each letter's column is appended as its pairs are expanded.
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
    # accept[f1][f2]: op.combine on the finality of each side
    accept = [[op.combine(f1, f2) for f2 in (False, True)] for f1 in (False, True)]
    in1 = list(map(d1.finals.__contains__, range(d1.size)))
    in2 = list(map(d2.finals.__contains__, range(d2.size)))
    finals = frozenset(
        i for i, (p, q) in enumerate(order) if accept[in1[p]][in2[q]]
    )
    return Dfa(len(order), alphabet, delta, 0, finals)
