"""Independent word-membership semantics for every operation.

The measured pipeline goes through epsilon constructions and the subset
construction; this module never does. Membership is decided directly from
the operand DFAs with split-point dynamic programming, one letter at a
time: after reading w[:j], an operand carries one bit mask per state, the
start positions i <= j whose substring w[i:j] leads there. The column of
positions i with w[i:j] accepted is the OR over the final states, and star
and product memberships are reach masks over positions, each extended by
at most one bit per letter. A letter is one step compiled over both
operands' masks and final columns with one call to the shape, still
O(|Q|) big-int operations. The exhaustive walk shares every prefix's work
with all its extensions, and prefixes of one length that reach the same
node and pipeline state share it with each other too.
Disagreement with the pipeline is data, never tolerated.
"""

from __future__ import annotations

from operator import and_, or_, xor
from types import SimpleNamespace
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


class _Runner:
    """An operand DFA read from every start position at once, as source
    for the oracle's compiled steps: over the masks that `masks` names, one
    per state, cells[li] is them one letter on, where `bit` is the new
    position, which starts at the initial state, and columns[li] the start
    positions whose substring up to that letter is accepted, the OR of the
    final states' cells. Letters are indexed by position in the oracle's
    alphabet; the source holds state numbers only.

    For reversal (`reverse`), the operand carries q -> final(δ(q, reversed
    prefix)) instead; reading x prepends x to the reversed word, and the
    column is the initial state's digit.
    """

    def __init__(self, d: Dfa, alphabet: tuple[str, ...], name: str,
                 reverse: bool = False):
        names = [f"{name}{q}" for q in range(d.size)]
        self.masks = f"({', '.join(names)},)"
        self.cells, self.columns = [], []
        accepting = [d.initial] if reverse else sorted(d.finals)
        for x in alphabet:
            row = d.delta[x]
            if reverse:
                cells = [names[t] for t in row]
            else:
                cells = [" | ".join(names[s] for s in range(d.size)
                                    if row[s] == t) or "0"
                         for t in range(d.size)]
                cells[d.initial] += " | bit"
            self.cells.append(f"({', '.join(cells)},)")
            self.columns.append(" | ".join(cells[q] for q in accepting) or "0")
        self.start = tuple(s in d.finals if reverse else int(s == d.initial)
                           for s in range(d.size))


# One letter's whole step, from both operands' columns and cells
_STEP = """def step(node, bit):
    _, {km}, {lm}, a, b = node
    member, a, b = shape({kc}, {lc}, a, b, bit)
    return member, {k_cells}, {l_cells}, a, b
"""

# Boolean operations on bit masks of positions; on single bools they give
# the boolean result. Difference is a & (a ^ b), not a & ~b: ~ on a bool
# is deprecated since Python 3.12.
_ROW_COMBINE: dict[str, Callable[[int, int], int]] = {
    "union": or_,
    "intersection": and_,
    "difference": lambda a, b: a & (a ^ b),
    "symmetric-difference": xor,
}


class SemanticOracle:
    """Word membership for one operation over materialized operand DFAs:
    `step` folded along a word from `start` ends in a node whose first
    field says whether the word is a member.

    The operands are the actual DFAs fed to the pipeline (already
    complemented/restricted where the recipe says so), so oracle and
    pipeline answer the exact same question by different routes. Words are
    over the right operand's alphabet. The operation's registry shape names
    the method that makes membership and reach masks from the operands'
    columns after a letter, the reach masks a and b before it, and the new
    position `bit`. Its defaults are the reach masks before position 0, so
    on the empty prefix's columns it makes the node of the empty word.
    """

    def __init__(self, op: str, left: Dfa | None, right: Dfa):
        entry = lookup(op)
        self.op = entry.op
        self.alphabet = right.alphabet
        self.combine = _ROW_COMBINE.get(entry.boolean)
        logic = getattr(self, "_" + entry.shape)
        size = len(self.alphabet)
        l = _Runner(right, self.alphabet, "l", entry.shape == "reversal")
        # a unary operation has no left masks: its nodes carry None
        k = (_Runner(left, self.alphabet, "k") if left is not None else
             SimpleNamespace(masks="km", cells=["km"] * size,
                             columns=["None"] * size, start=None))
        scope = {"__builtins__": {}, "shape": logic}
        self.steps: list[Callable[[Node, int], Node]] = []
        for li in range(size):  # a source per letter keeps the parser small
            exec(_STEP.format(km=k.masks, kc=k.columns[li],
                              k_cells=k.cells[li], lm=l.masks,
                              lc=l.columns[li], l_cells=l.cells[li]), scope)
            self.steps.append(scope.pop("step"))
        member, a, b = logic(left is not None and left.initial in left.finals,
                             right.initial in right.finals)
        self.start: Node = member, k.start, l.start, a, b

    def step(self, node: Node, li: int, bit: int) -> Node:
        """steps[li], letter li's compiled step: the node one letter on."""
        return self.steps[li](node, bit)

    def compare(self, final: Dfa, words: Iterable[Indices]) -> Result:
        """(words, disagreements, first disagreeing word) of the pipeline
        DFA `final` against these semantics, folding both along each word.
        A word is given as the indices of its letters in the alphabet; the
        example is returned in letters."""
        rows = [final.delta[x] for x in self.alphabet]
        steps = self.steps
        checked = disagreements = 0
        example = None
        for w in words:
            node, s = self.start, final.initial
            for j, li in enumerate(w, 1):
                node = steps[li](node, 1 << j)
                s = rows[li][s]
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
        rows = [final.delta[x] for x in self.alphabet]
        is_final = tuple(s in final.finals for s in range(final.size))
        steps, size = self.steps, len(self.alphabet)
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
                    for li, row in enumerate(rows):
                        key = steps[li](node, bit), row[s]
                        if key in below:
                            below[key][0] += count
                        else:
                            below[key] = [count, word + (li,)]
                            if len(below) == fill:
                                yield below
                                below = {}
                elif depth < maxlen:
                    checked += count * size
                    for li, row in enumerate(rows):
                        if steps[li](node, bit)[0] != is_final[row[s]]:
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
    def _star(self, kc, lc, a=1, b=0, bit=1):
        if a & lc:
            a |= bit
        return a & bit != 0, a, b

    def _reversal(self, kc, lc, a=0, b=0, bit=1):
        return lc, a, b

    # -- products; bit 0 of K's column says whether K accepts the prefix --
    def _product(self, kc, lc, a=0, b=0, bit=1):
        if kc & 1:
            a |= bit
        return a & lc != 0, a, b

    def _k_lstar(self, kc, lc, a=0, b=0, bit=1):
        if kc & 1 or a & lc:
            a |= bit
        return a & bit != 0, a, b

    def _kstar_l(self, kc, lc, a=1, b=0, bit=1):
        if a & kc:
            a |= bit
        return a & lc != 0, a, b

    def _kstar_lstar(self, kc, lc, a=1, b=1, bit=1):
        if a & kc:
            a |= bit
        if a & bit or b & lc:
            b |= bit
        return b & bit != 0, a, b

    def _product_star(self, kc, lc, a=0, b=1, bit=1):
        # b: positions after whole KL chunks; a: after a further K chunk. A K
        # or L holding the empty word links the two at the same position,
        # so the L test runs again after the K test.
        if a & lc:
            b |= bit
        if b & kc:
            a |= bit
            if a & lc:
                b |= bit
        return b & bit != 0, a, b

    # -- boolean families --------------------------------------------------
    def _boolean(self, kc, lc, a=0, b=0, bit=1):
        return self.combine(kc & 1, lc & 1), a, b

    def _k_circ_lstar(self, kc, lc, a=1, b=0, bit=1):
        if a & lc:
            a |= bit
        return self.combine(kc & 1, a & bit != 0), a, b

    def _lstar_circ_k(self, kc, lc, a=1, b=0, bit=1):
        if a & lc:
            a |= bit
        return self.combine(a & bit != 0, kc & 1), a, b

    def _kstar_circ_lstar(self, kc, lc, a=1, b=1, bit=1):
        if a & kc:
            a |= bit
        if b & lc:
            b |= bit
        return self.combine(a & bit != 0, b & bit != 0), a, b

    def _boolean_star(self, kc, lc, a=1, b=0, bit=1):
        if a & self.combine(kc, lc):
            a |= bit
        return a & bit != 0, a, b

    # (K∪L)* is built from an NFA union rather than a product; its
    # semantics are the starred boolean ones
    _union_star = _boolean_star
