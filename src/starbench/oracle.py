"""Independent word-membership semantics for every operation.

The measured pipeline goes through epsilon constructions and the subset
construction; this module never does. Membership is decided directly from
the operand DFAs with split-point dynamic programming, one letter at a
time: after reading w[:j], an operand carries one bit mask per state, the
start positions i <= j whose substring w[i:j] leads there. The column of
positions i with w[i:j] accepted is the OR over the final states, and star
and product memberships are reach masks over positions, each extended by
at most one bit per letter. Each shape's semantics is written once, as a
source fragment over both operands' final columns. A sampled word is
folded in one compiled loop over both operands' masks with the fragment
inline, and the exhaustive walk takes one compiled step per letter with
the same fragment; a letter is still O(|Q|) big-int operations. The
exhaustive walk shares every prefix's work with all its extensions, and
prefixes of one length that reach the same node and pipeline state share
it with each other too.
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
# masks, () for a unary operation, right operand's masks, reach mask a,
# reach mask b).
Node = tuple
Result = tuple[int, int, "tuple[str, ...] | None"]
# the most keys one group's expansion in compare_all considers, as a group
# holds at most _LEVEL_LIMIT // |Σ| keys; 1024 keeps the walk's memory near
# a plain depth-first walk's
_LEVEL_LIMIT = 1024


class _Runner:
    """An operand DFA read from every start position at once, as source
    for the oracle's compiled folds: over the masks `names`, one per
    state, cells[li] is them one letter on, where `bit` is the new
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
        self.names = names = [f"{name}{q}" for q in range(d.size)]
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
            self.cells.append(cells)
            self.columns.append(" | ".join(cells[q] for q in accepting) or "0")
        self.start = tuple(s in d.finals if reverse else int(s == d.initial)
                           for s in range(d.size))


# Each registry shape's semantics, written once: the reach masks a and b
# before position 0; their update from the operands' columns kc and lc
# after a letter, where `bit` is the new position; and the membership they
# make. Bit 0 of K's column says whether K accepts the prefix.
_FRAGMENTS: dict[str, tuple[int, int, str, str]] = {
    "star": (1, 0, "if a & lc: a |= bit", "a & bit != 0"),
    "reversal": (0, 0, "", "lc"),
    "product": (0, 0, "if kc & 1: a |= bit", "a & lc != 0"),
    "k_lstar": (0, 0, "if kc & 1 or a & lc: a |= bit", "a & bit != 0"),
    "kstar_l": (1, 0, "if a & kc: a |= bit", "a & lc != 0"),
    "kstar_lstar": (1, 1, "if a & kc: a |= bit\n"
                          "if a & bit or b & lc: b |= bit", "b & bit != 0"),
    # b: positions after whole KL chunks; a: after a further K chunk. A K
    # or L holding the empty word links the two at the same position, so
    # the L test runs again after the K test.
    "product_star": (0, 1, "if a & lc: b |= bit\n"
                           "if b & kc:\n    a |= bit\n"
                           "    if a & lc: b |= bit", "b & bit != 0"),
    "boolean": (0, 0, "", "combine(kc & 1, lc & 1)"),
    "k_circ_lstar": (1, 0, "if a & lc: a |= bit",
                     "combine(kc & 1, a & bit != 0)"),
    "lstar_circ_k": (1, 0, "if a & lc: a |= bit",
                     "combine(a & bit != 0, kc & 1)"),
    "kstar_circ_lstar": (1, 1, "if a & kc: a |= bit\nif b & lc: b |= bit",
                         "combine(a & bit != 0, b & bit != 0)"),
    "boolean_star": (1, 0, "if a & combine(kc, lc): a |= bit",
                     "a & bit != 0"),
}
# (K∪L)* is built from an NFA union rather than a product; its semantics
# are the starred boolean ones
_FRAGMENTS["union_star"] = _FRAGMENTS["boolean_star"]

# Boolean operations on bit masks of positions; on single bools they give
# the boolean result. Difference is a & (a ^ b), not a & ~b: ~ on a bool
# is deprecated since Python 3.12.
_ROW_COMBINE: dict[str, Callable[[int, int], int]] = {
    "union": or_,
    "intersection": and_,
    "difference": lambda a, b: a & (a ^ b),
    "symmetric-difference": xor,
}

# One letter's step: the fragment over both operands' columns, and both
# operands' masks one letter on
_STEP = """def step(node, bit):
    _, [{km}], [{lm}], a, b = node
    kc, lc = {kc}, {lc}
    {update}
    return {member}, ({k_cells}), ({l_cells}), a, b
"""

# A whole word's fold from the start node: each letter's branch sets the
# columns and masks as its step does, the fragment follows inline, and the
# membership is made once, after the last letter
_WALK = """def walk(word):
    _, [{km}], [{lm}], a, b = start
    kc, lc, bit = {kc}, {lc}, 1
    for li in word:
        bit <<= 1
{letters}
        {update}
    return {member}
"""


def _listed(sources: Iterable[str]) -> str:
    """sources as the items of a tuple or a target list: each then ", "."""
    return "".join(f"{x}, " for x in sources)


class SemanticOracle:
    """Word membership for one operation over materialized operand DFAs:
    `step` folded along a word from `start` ends in a node whose first
    field says whether the word is a member; `walk`, once `compare` has
    compiled it, folds a whole word and returns that field alone.

    The operands are the actual DFAs fed to the pipeline (already
    complemented/restricted where the recipe says so), so oracle and
    pipeline answer the exact same question by different routes. Words are
    over the right operand's alphabet. The operation's registry shape names
    its fragment in _FRAGMENTS, which both compiled folds hold inline. The
    start node is the fragment's step on the empty prefix's columns from
    the reach masks before position 0, with `bit` 1.
    """

    def __init__(self, op: str, left: Dfa | None, right: Dfa):
        entry = lookup(op)
        self.op = entry.op
        self.alphabet = right.alphabet
        a, b, update, member = _FRAGMENTS[entry.shape]
        size = len(self.alphabet)
        l = _Runner(right, self.alphabet, "l", entry.shape == "reversal")
        # a unary operation has no left masks: its nodes carry ()
        k = (_Runner(left, self.alphabet, "k") if left is not None else
             SimpleNamespace(names=[], cells=[[]] * size,
                             columns=["0"] * size, start=()))
        self._scope = {"__builtins__": {},
                       "combine": _ROW_COMBINE.get(entry.boolean)}
        self._runners = k, l
        # the start node's step: columns of the empty prefix, masks kept
        self._fields = dict(
            km=_listed(k.names), lm=_listed(l.names),
            k_cells=_listed(k.names), l_cells=_listed(l.names),
            kc=left is not None and left.initial in left.finals,
            lc=right.initial in right.finals,
            update=update.replace("\n", "\n    "), member=member)
        self.steps: list[Callable[[Node, int], Node]] = [
            # a source per letter keeps the parser small
            self._compiled("step", _STEP, kc=k.columns[li], lc=l.columns[li],
                           k_cells=_listed(k.cells[li]),
                           l_cells=_listed(l.cells[li]))
            for li in range(size)]
        self.start: Node = self._compiled("step", _STEP)(
            (None, k.start, l.start, a, b), 1)
        self._scope["start"] = self.start
        self.walk: Callable[[Indices], int] | None = None

    def _compiled(self, name: str, source: str, **fields) -> Callable:
        """The function `name` that source defines, filled in with this
        oracle's fields, `fields` taking their place."""
        exec(source.format(**{**self._fields, **fields}), self._scope)
        return self._scope.pop(name)

    def step(self, node: Node, li: int, bit: int) -> Node:
        """steps[li], letter li's compiled step: the node one letter on."""
        return self.steps[li](node, bit)

    def compare(self, final: Dfa, words: Iterable[Indices]) -> Result:
        """(words, disagreements, first disagreeing word) of the pipeline
        DFA `final` against these semantics, folding both along each word:
        the semantics in `walk`, compiled on the first call, the pipeline
        DFA here. A word is given as the indices of its letters in the
        alphabet; the example is returned in letters."""
        if self.walk is None:
            k, l = self._runners
            letters = ""
            for li in range(len(self.alphabet)):
                # a mask that the letter leaves in place is not assigned
                moved = [(q, c) for q, c in zip(
                    ["kc", "lc", *k.names, *l.names],
                    [k.columns[li], l.columns[li], *k.cells[li], *l.cells[li]])
                    if q != c]
                letters += (f"        {'el' if li else ''}if li == {li}: "
                            f"{_listed(q for q, _ in moved)}= "
                            f"{_listed(c for _, c in moved)}\n")
            self.walk = self._compiled(
                "walk", _WALK, letters=letters,
                update=self._fields["update"].replace("\n", "\n    "))
        walk = self.walk
        rows = [final.delta[x] for x in self.alphabet]
        checked = disagreements = 0
        example = None
        for w in words:
            s = final.initial
            for li in w:
                s = rows[li][s]
            checked += 1
            if walk(w) != (s in final.finals):
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
