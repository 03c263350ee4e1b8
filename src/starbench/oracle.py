"""Independent word-membership semantics for every operation.

The measured pipeline goes through epsilon constructions and the subset
construction; this module never does. Membership is decided directly from
the operand DFAs with split-point dynamic programming, one letter at a
time: after reading w[:j], an operand carries one bit mask per state, the
start positions i <= j whose substring w[i:j] leads there. The column of
positions i with w[i:j] accepted is the OR over the final states, and star
and product memberships are reach masks over positions, each extended by
at most one bit per letter. A letter costs O(|Q|) big-int operations. The
exhaustive walk shares every prefix's work with all its extensions, and
prefixes of one length that reach the same node and pipeline state share
it with each other too.
Disagreement with the pipeline is data, never tolerated.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Sequence

from .bounds import lookup
from .core import Dfa

# a word as the indices of its letters in the oracle's alphabet
Indices = Sequence[int]
# The state after a prefix: (membership of the prefix, left operand's
# masks, right operand's masks, reach mask a, reach mask b).
Node = tuple
Result = tuple[int, int, "tuple[str, ...] | None"]
# the most keys one group's expansion in compare_all considers, as a group
# holds at most _LEVEL_LIMIT // |Σ| keys; 1024 keeps the walk's memory near
# a plain depth-first walk's
_LEVEL_LIMIT = 1024


def _lambda(args: str, body: str) -> Callable:
    """A mask function compiled from an expression over m[state]; bodies
    are built from state numbers only."""
    return eval(f"lambda {args}: {body}", {"__builtins__": {}})


def _ors(states: Iterable[int]) -> str:
    return " | ".join(f"m[{s}]" for s in states) or "0"


class _Runner:
    """An operand DFA read from every start position at once, its letters
    indexed by position in the oracle's alphabet. moves[li](masks, bit) is
    the masks one letter on, where `bit` is the new position, which starts
    at the initial state; each letter's is compiled to one tuple
    expression, as the step is the oracle's inner loop.

    For reversal (`reverse`), the operand carries q -> final(δ(q, reversed
    prefix)) instead; reading x prepends x to the reversed word.
    """

    def __init__(self, d: Dfa, alphabet: tuple[str, ...], reverse: bool = False):
        self.initial = d.initial
        self.moves = []
        for x in alphabet:
            image = d.delta[x].image
            if reverse:
                cells = [f"m[{t}]" for t in image]
            else:
                cells = [_ors(s for s in range(d.size) if image[s] == t)
                         for t in range(d.size)]
                cells[d.initial] += " | b"
            self.moves.append(_lambda("m, b", f"({', '.join(cells)},)"))
        self.start = tuple(s in d.finals if reverse else int(s == d.initial)
                           for s in range(d.size))
        # the start positions whose substring up to here is accepted, and
        # those whose substring ends in the last state
        self.column = _lambda("m", _ors(sorted(d.finals)))
        self.last_column = _lambda("m", _ors([d.size - 1]))


# Boolean operations on bit masks of positions; on single bools they give
# the boolean result. Difference is a & (a ^ b), not a & ~b: ~ on a bool
# is deprecated since Python 3.12.
_ROW_COMBINE: dict[str, Callable[[int, int], int]] = {
    "union": lambda a, b: a | b,
    "intersection": lambda a, b: a & b,
    "difference": lambda a, b: a & (a ^ b),
    "symmetric-difference": lambda a, b: a ^ b,
}


class SemanticOracle:
    """Word membership for one operation over materialized operand DFAs:
    `step` folded along a word from `start` ends in a node whose first
    field says whether the word is a member.

    The operands are the actual DFAs fed to the pipeline (already
    complemented/restricted where the recipe says so), so oracle and
    pipeline answer the exact same question by different routes. Words are
    over the right operand's alphabet. The operation's registry shape names
    the method that makes a node from the operands' masks after a letter,
    the reach masks a and b before it, and the new position `bit`. Its
    defaults are the reach masks before position 0, so on the start masks
    it makes the node of the empty word.
    """

    def __init__(self, op: str, left: Dfa | None, right: Dfa):
        entry = lookup(op)
        self.op = entry.op
        self.alphabet = right.alphabet
        k = self.left = None if left is None else _Runner(left, self.alphabet)
        l = self.right = _Runner(right, self.alphabet, entry.shape == "reversal")
        self.combine = _ROW_COMBINE.get(entry.boolean)
        self.kc, self.lc = k and k.column, l.column  # the operands' columns
        logic = getattr(self, "_" + entry.shape)
        k_moves = k.moves if k else [lambda m, b: None] * len(self.alphabet)
        l_moves = l.moves

        def step(node: Node, li: int, bit: int) -> Node:
            _, km, lm, a, b = node
            return logic(k_moves[li](km, bit), l_moves[li](lm, bit), a, b, bit)

        self.step: Callable[[Node, int, int], Node] = step
        self.start: Node = logic(k and k.start, l.start)

    def compare(self, final: Dfa, words: Iterable[Indices]) -> Result:
        """(words, disagreements, first disagreeing word) of the pipeline
        DFA `final` against these semantics, folding both along each word.
        A word is given as the indices of its letters in the alphabet; the
        example is returned in letters."""
        images = [final.delta[x].image for x in self.alphabet]
        step = self.step
        checked = disagreements = 0
        example = None
        for w in words:
            node, s = self.start, final.initial
            for j, li in enumerate(w, 1):
                node = step(node, li, 1 << j)
                s = images[li][s]
            checked += 1
            if node[0] != (s in final.finals):
                disagreements += 1
                if example is None:
                    example = tuple(self.alphabet[i] for i in w)
        return checked, disagreements, example

    def compare_all(self, final: Dfa, maxlen: int) -> Result:
        """compare() on every word up to maxlen, with the example the
        shortlex-least disagreeing word.

        Words of one length that reach the same (node, pipeline state) have
        the same future, as a step depends only on the node, the letter and
        the length. So the word tree is walked depth first over groups, each
        mapping such a key to the number of words that reach it and the
        least of them. Expanding a group checks each key and merges the
        keys' children into a fresh group, yielded to be walked as soon as
        it fills, or returned at the end to take its parent's place on the
        stack; a word of length maxlen is checked at its parent's step and
        never stored."""
        images = [final.delta[x].image for x in self.alphabet]
        is_final = tuple(s in final.finals for s in range(final.size))
        step, size = self.step, len(self.alphabet)
        fill = max(1, _LEVEL_LIMIT // size)
        checked = disagreements = 0
        example = None

        def expand(group: dict, depth: int) -> Generator[dict, None, dict]:
            # keys, and a depth's groups in walk order, are in lex order of
            # their least words: a depth's first disagreeing key holds its
            # least disagreeing word, and only a shorter word replaces it
            nonlocal checked, disagreements, example
            bit, below = 2 << depth, {}
            for (node, s), (count, word) in group.items():
                checked += count
                if node[0] != is_final[s]:
                    disagreements += count
                    if example is None or depth < len(example):
                        example = word
                if depth + 1 < maxlen:
                    for li, image in enumerate(images):
                        key = step(node, li, bit), image[s]
                        if key in below:
                            below[key][0] += count
                        else:
                            below[key] = [count, word + (li,)]
                            if len(below) == fill:
                                yield below
                                below = {}
                elif depth < maxlen:
                    checked += count * size
                    for li, image in enumerate(images):
                        if step(node, li, bit)[0] != is_final[image[s]]:
                            disagreements += count
                            if example is None or depth + 1 < len(example):
                                example = word + (li,)
            return below

        stack = [(expand({(self.start, final.initial): [1, ()]}, 0), 0)]
        while stack:
            expansion, depth = stack[-1]
            try:
                group = next(expansion)
            except StopIteration as end:
                stack.pop()
                group = end.value
            if group:
                stack.append((expand(group, depth + 1), depth + 1))
        if example is not None:
            example = tuple(self.alphabet[i] for i in example)
        return checked, disagreements, example

    # -- unary -----------------------------------------------------------
    def _star(self, km, lm, a=1, b=0, bit=1) -> Node:
        if a & self.lc(lm):
            a |= bit
        return a & bit != 0, km, lm, a, b

    def _reversal(self, km, lm, a=0, b=0, bit=1) -> Node:
        return lm[self.right.initial], km, lm, a, b

    # -- products; bit 0 of K's column says whether K accepts the prefix --
    def _product(self, km, lm, a=0, b=0, bit=1) -> Node:
        if self.kc(km) & 1:
            a |= bit
        return a & self.lc(lm) != 0, km, lm, a, b

    def _k_lstar(self, km, lm, a=0, b=0, bit=1) -> Node:
        if self.kc(km) & 1 or a & self.lc(lm):
            a |= bit
        return a & bit != 0, km, lm, a, b

    def _kstar_l(self, km, lm, a=1, b=0, bit=1) -> Node:
        if a & self.kc(km):
            a |= bit
        return a & self.lc(lm) != 0, km, lm, a, b

    def _kstar_lstar(self, km, lm, a=1, b=1, bit=1) -> Node:
        if a & self.kc(km):
            a |= bit
        if a & bit or b & self.lc(lm):
            b |= bit
        return b & bit != 0, km, lm, a, b

    def _product_star(self, km, lm, a=0, b=1, bit=1) -> Node:
        # b: positions after whole KL chunks; a: after a further K chunk. A K
        # or L holding the empty word links the two at the same position,
        # so the L test runs again after the K test.
        l_col = self.lc(lm)
        if a & l_col:
            b |= bit
        if b & self.kc(km):
            a |= bit
            if a & l_col:
                b |= bit
        return b & bit != 0, km, lm, a, b

    # -- boolean families --------------------------------------------------
    def _boolean(self, km, lm, a=0, b=0, bit=1) -> Node:
        return self.combine(self.kc(km) & 1, self.lc(lm) & 1), km, lm, a, b

    def _k_circ_lstar(self, km, lm, a=1, b=0, bit=1) -> Node:
        star = self._star(km, lm, a, b, bit)
        return self.combine(self.kc(km) & 1, star[0]), *star[1:]

    def _lstar_circ_k(self, km, lm, a=1, b=0, bit=1) -> Node:
        star = self._star(km, lm, a, b, bit)
        return self.combine(star[0], self.kc(km) & 1), *star[1:]

    def _kstar_circ_lstar(self, km, lm, a=1, b=1, bit=1) -> Node:
        # the doubly-starred boolean family stars witnesses whose final set
        # may be the {0} dialect; chunks before the last follow the
        # {n-1}-final base shape, as in the pipeline. A member is the empty
        # word or base chunks followed by one chunk the operand accepts,
        # which is plain star membership for an {n-1}-final operand.
        if a & self.left.last_column(km):
            a |= bit
        if b & self.right.last_column(lm):
            b |= bit
        in_k = bit == 1 or a & self.kc(km) != 0
        in_l = bit == 1 or b & self.lc(lm) != 0
        return self.combine(in_k, in_l), km, lm, a, b

    def _boolean_star(self, km, lm, a=1, b=0, bit=1) -> Node:
        if a & self.combine(self.kc(km), self.lc(lm)):
            a |= bit
        return a & bit != 0, km, lm, a, b

    # (K∪L)* is built from an NFA union rather than a product; its
    # semantics are the starred boolean ones
    _union_star = _boolean_star
