"""Independent word-membership semantics for every operation.

The measured pipeline goes through epsilon constructions and the subset
construction; this module never does. Membership is decided directly from
the operand DFAs with split-point dynamic programming, one letter at a
time: after reading w[:j], an operand carries one bit mask per state, the
start positions i <= j whose substring w[i:j] leads there. The column of
positions i with w[i:j] accepted is the OR over the final states, and star
and product memberships are reach masks over positions, each extended by
at most one bit per letter. Each shape's semantics is written once, as a
source fragment over both operands' final columns, and a node is one flat
tuple: the membership, both operands' masks, the reach masks. A table of
source rows, one per letter, fills every compiled fold: the exhaustive
walk's step per letter, compiled with the oracle, its member-only call
for the last length, which makes every letter's membership and no node,
and the loop that folds a sampled word; the last two are compiled when
first used. A letter is still O(|Q|) big-int operations. The exhaustive
walk shares every prefix's work with all its extensions, and prefixes of
one length that reach the same node and pipeline state share it too.
Disagreement with the pipeline is data, never tolerated.
"""

from __future__ import annotations

from operator import and_, or_, xor
from typing import Callable, Iterable, Sequence

from .bounds import lookup
from .core import Dfa

# a word as the indices of its letters in the oracle's alphabet
Indices = Sequence[int]
# The state after a prefix, one flat tuple: the membership of the prefix,
# the left operand's masks (none for a unary operation), the right
# operand's masks, reach mask a, reach mask b.
Node = tuple
Result = tuple[int, int, "tuple[str, ...] | None"]


def _operand(d: Dfa, alphabet: tuple[str, ...], name: str,
             reverse: bool) -> tuple[list[list[str]], tuple]:
    """An operand DFA read from every start position at once, as rows of
    source for the oracle's compiled folds, each a column and then one
    mask per state, and the masks before position 0. Row 0 names them,
    `name` then "c" or the state number. Row 1 is the empty prefix's:
    whether the initial state is final, and the masks kept. Row 2 + li is
    letter li's: the start positions whose substring up to that letter is
    accepted, the OR of the final states' new masks, and the masks one
    letter on, where `bit` is the new position, which starts at the
    initial state. The source holds state numbers only.

    For reversal (`reverse`), the operand carries q -> final(δ(q, reversed
    prefix)) instead; reading x prepends x to the reversed word, and the
    column is the initial state's digit.
    """
    names = [f"{name}{q}" for q in range(d.size)]
    accepting = [d.initial] if reverse else sorted(d.finals)
    rows = [[name + "c", *names], [str(d.initial in d.finals), *names]]
    for x in alphabet:
        row = d.delta[x]
        if reverse:
            cells = [names[t] for t in row]
        else:
            cells = [" | ".join(names[s] for s in range(d.size)
                                if row[s] == t) or "0"
                     for t in range(d.size)]
            cells[d.initial] += " | bit"
        rows.append([" | ".join(cells[q] for q in accepting) or "0", *cells])
    return rows, tuple(s in d.finals if reverse else int(s == d.initial)
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

# One letter's step: the operands' columns after it, the fragment over
# them, and the node one letter on
_STEP = """def step(node, bit):
    _, {names}a, b = node
    {columns}= {values}
    {update}
    return {member}, {cells}a, b
"""

# A whole word's fold from the start node: each letter's branch sets the
# columns and masks as its step does, the fragment follows inline, and the
# membership is made once, after the last letter
_WALK = """def walk(word):
    _, {names}a, b = start
    {columns}bit = {values}1
    for li in word:
        bit <<= 1
{letters}
        {update}
    return {member}
"""

# bit li of `members` is steps[li]'s membership; a source each parses small
_MEMBERS = ("""def member({columns}a, b, bit):
    {update}
    return {member}
""", """def members(node, bit):
    _, {names}a, b = node
    return {calls}
""")


def _listed(sources: Iterable[str]) -> str:
    """sources as the items of a tuple or a target list: each then ", "."""
    return "".join(f"{x}, " for x in sources)


def _compiled(name: str, source: str, scope: dict) -> Callable:
    """The function `name` that source defines, with scope its globals."""
    exec(source, scope)
    return scope.pop(name)


class SemanticOracle:
    """Word membership for one operation over materialized operand DFAs:
    steps[li], letter li's compiled step, folded along a word from `start`
    ends in a node whose first field says whether the word is a member;
    `walk` folds a whole word and returns that field alone, and `members`
    sets bit li when steps[li] would make a member, each compiled on use.

    The operands are the actual DFAs fed to the pipeline (already
    complemented/restricted where the recipe says so), so oracle and
    pipeline answer the exact same question by different routes; a
    missing or surplus left operand, or a second alphabet, is refused. The
    shape's fragment in _FRAGMENTS is inline in the steps and `walk`, and
    the start node is its step on the empty prefix's columns from the
    reach masks before position 0, with `bit` 1.
    """

    def __init__(self, op: str, left: Dfa | None, right: Dfa):
        entry = lookup(op)
        if (left is None) != (entry.arity == 1):
            raise ValueError(f"operation {entry.op} takes "
                             + ("one operand", "two operands")[left is None])
        if left is not None and left.alphabet != right.alphabet:
            raise ValueError(
                f"alphabet mismatch: {left.alphabet} vs {right.alphabet}")
        self.op = entry.op
        self.alphabet = right.alphabet
        a, b, update, member = _FRAGMENTS[entry.shape]
        parts = [_operand(d, self.alphabet, name, entry.shape == "reversal")
                 for d, name in ((left, "k"), (right, "l")) if d is not None]
        # the source table, each row the operands' columns and then all
        # their masks: its names, the empty prefix's row, each letter's
        c = len(parts)
        targets, empty, *letters = (
            [rs[i][0] for rs, _ in parts]
            + [x for rs, _ in parts for x in rs[i][1:]]
            for i in range(len(self.alphabet) + 2))
        names, columns = _listed(targets[c:]), _listed(targets[:c])
        self._scope = {"__builtins__": {},
                       "combine": _ROW_COMBINE.get(entry.boolean)}

        def step(row: list[str]) -> Callable[[Node, int], Node]:
            return _compiled("step", _STEP.format(
                names=names, columns=columns, values=_listed(row[:c]),
                update=update.replace("\n", "\n    "), member=member,
                cells=_listed(row[c:])), self._scope)

        # a source per letter keeps the parser small
        self.steps = [step(row) for row in letters]
        self.start: Node = step(empty)(
            (None, *(m for _, initial in parts for m in initial), a, b), 1)
        self._scope["start"] = self.start
        branches = ""
        for li, row in enumerate(letters):
            # a mask that the letter leaves in place is not assigned
            moved = [(t, v) for t, v in zip(targets, row) if t != v]
            branches += (f"        {'el' if li else ''}if li == {li}: "
                         f"{_listed(t for t, _ in moved)}= "
                         f"{_listed(v for _, v in moved)}\n")
        self._walk_source = _WALK.format(
            names=names, columns=columns, values=_listed(empty[:c]),
            letters=branches, update=update.replace("\n", "\n        "),
            member=member)
        calls = " | ".join(f"member({_listed(row[:c])}a, b, bit) << {li}"
                           for li, row in enumerate(letters))
        self._members_sources = [source.format(
            columns=columns, update=update.replace("\n", "\n    "),
            member=member, names=names, calls=calls) for source in _MEMBERS]
        self.walk: Callable[[Indices], int] | None = None
        self.members: Callable[[Node, int], int] | None = None

    def compare(self, final: Dfa, words: Iterable[Indices]) -> Result:
        """(words, disagreements, first disagreeing word) of the pipeline
        DFA `final` against these semantics, folding both along each word:
        the semantics in `walk`, compiled on the first call, the pipeline
        DFA here. A word is given as the indices of its letters in the
        alphabet; the example is returned in letters."""
        if self.walk is None:
            self.walk = _compiled("walk", self._walk_source, self._scope)
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
        the length. So the word tree is walked one length at a time, each a
        dict mapping such a key to the number of words that reach it and the
        least of them, in lex order of the least words: a length's first
        disagreeing key holds its least disagreeing word. Checking a length
        merges its keys' children into the next, up to length maxlen - 2;
        the last two lengths are checked from each key of the last merged
        one and never stored, so only a shorter word replaces the
        example. Length maxlen takes one `members` call per key of length
        maxlen - 1, compared with `ahead`, the finality one letter on.

        A length holds at most one key per distinct (node, state), so once
        the lengths stop growing the walk grows linearly with maxlen. It
        holds one merged length and the next, and keeps no stack and makes
        no recursive call, so maxlen is not bounded by the recursion limit."""
        if self.members is None:
            for source in self._members_sources:
                exec(source, self._scope)
            self.members = self._scope.pop("members")
        members = self.members
        rows = [final.delta[x] for x in self.alphabet]
        is_final = tuple(s in final.finals for s in range(final.size))
        ahead = [sum(is_final[row[s]] << li for li, row in enumerate(rows))
                 for s in range(final.size)]
        letters = list(enumerate(zip(self.steps, rows)))
        size = len(rows)
        checked = disagreements = 0
        example = None
        level = {(self.start, final.initial): [1, ()]}
        for depth in range(max(1, maxlen - 1)):
            bit, below = 2 << depth, {}
            for (node, s), (count, word) in level.items():
                checked += count
                if node[0] != is_final[s]:
                    disagreements += count
                    if example is None or depth < len(example):
                        example = word
                if depth + 2 < maxlen:
                    for li, (step, row) in letters:
                        key = step(node, bit), row[s]
                        if key in below:
                            below[key][0] += count
                        else:
                            below[key] = [count, word + (li,)]
                elif depth < maxlen:
                    checked += count * size
                    for li, (step, row) in letters:
                        child, t = step(node, bit), row[s]
                        if child[0] != is_final[t]:
                            disagreements += count
                            if example is None or depth + 1 < len(example):
                                example = word + (li,)
                        if depth + 1 < maxlen:
                            checked += count * size
                            wrong = members(child, bit << 1) ^ ahead[t]
                            if wrong:
                                disagreements += count * wrong.bit_count()
                                if example is None:
                                    example = word + (
                                        li, (wrong & -wrong).bit_length() - 1)
            level = below
        if example is not None:
            example = tuple(self.alphabet[i] for i in example)
        return checked, disagreements, example
