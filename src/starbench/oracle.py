"""Independent word-membership semantics for every operation.

The measured pipeline goes through epsilon constructions and the subset
construction; this module never does. Membership is decided directly from
the operand DFAs with split-point dynamic programming: per word, a table
rows[i] holds (as a bit mask over end positions j) which substrings w[i:j]
the operand accepts, and star/product memberships are reachability passes
over those masks. Disagreement with the pipeline is data, never tolerated.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .bounds import lookup
from .core import Dfa

Word = Sequence[str]


class _Runner:
    """Pre-indexed DFA for fast repeated word work."""

    def __init__(self, d: Dfa):
        self.letter_index = {x: i for i, x in enumerate(d.alphabet)}
        self.trans = [d.delta[x].image for x in d.alphabet]
        self.is_final = tuple(s in d.finals for s in range(d.size))
        self.initial = d.initial

    def encode(self, w: Word) -> list[int]:
        try:
            return [self.letter_index[x] for x in w]
        except KeyError as e:
            raise ValueError(f"unknown letter {e.args[0]!r}") from None

    def accepts(self, w: Word) -> bool:
        s = self.initial
        trans = self.trans
        for li in self.encode(w):
            s = trans[li][s]
        return self.is_final[s]

    def substring_rows(self, encoded: list[int]) -> list[int]:
        """rows[i] has bit j set iff w[i:j] is accepted (i <= j <= len)."""
        length = len(encoded)
        trans = self.trans
        is_final = self.is_final
        initial = self.initial
        rows = []
        for i in range(length + 1):
            s = initial
            mask = 1 << i if is_final[s] else 0
            for j in range(i, length):
                s = trans[encoded[j]][s]
                if is_final[s]:
                    mask |= 1 << (j + 1)
            rows.append(mask)
        return rows


def _star_reach(rows: list[int], length: int, reach: int = 1) -> int:
    """Positions i with w[:i] reachable from the seed positions `reach` by
    zero or more chunks from the rows' language; the default seed is the
    empty prefix (bit 0). Single ascending pass: rows[i] only carries bits
    >= i."""
    for i in range(length + 1):
        if reach >> i & 1:
            reach |= rows[i]
    return reach


def _ends_in(reach: int, rows: list[int], length: int) -> bool:
    """Whether some reached position i starts a suffix w[i:] in the rows'
    language."""
    for i in range(length + 1):
        if reach >> i & 1 and rows[i] >> length & 1:
            return True
    return False


# Boolean operations on bit masks of positions; on single bools they give
# the boolean result (True & ~False == 1).
_ROW_COMBINE: dict[str, Callable[[int, int], int]] = {
    "union": lambda a, b: a | b,
    "intersection": lambda a, b: a & b,
    "difference": lambda a, b: a & ~b,
    "symmetric-difference": lambda a, b: a ^ b,
}


class SemanticOracle:
    """member(word) for one operation over materialized operand DFAs.

    The operands are the actual DFAs fed to the pipeline (already
    complemented/restricted where the recipe says so), so oracle and
    pipeline answer the exact same question by different routes. The
    operation's registry shape names the method that decides membership.
    """

    def __init__(self, op: str, left: Dfa | None, right: Dfa):
        entry = lookup(op)
        self.op = op
        self.left = _Runner(left) if left is not None else None
        self.right = _Runner(right)
        self.combine = _ROW_COMBINE.get(entry.boolean)
        # the doubly-starred boolean family stars witnesses whose final set
        # may be the {0} dialect; chunks before the last follow the
        # {n-1}-final base shape, as in the pipeline
        if entry.shape == "kstar_circ_lstar":
            assert left is not None
            self.left_base = _Runner(left.with_finals({left.size - 1}))
            self.right_base = _Runner(right.with_finals({right.size - 1}))
        self.member: Callable[[Word], bool] = getattr(self, "_" + entry.shape)

    # -- unary -----------------------------------------------------------
    def _star(self, w: Word) -> bool:
        enc = self.right.encode(w)
        rows = self.right.substring_rows(enc)
        return bool(_star_reach(rows, len(enc)) >> len(enc) & 1)

    def _reversal(self, w: Word) -> bool:
        return self.right.accepts(tuple(reversed(tuple(w))))

    # -- products --------------------------------------------------------
    def _product(self, w: Word) -> bool:
        assert self.left is not None
        enc = self.right.encode(w)
        length = len(enc)
        k_row = self.left.substring_rows(enc)[0]
        return _ends_in(k_row, self.right.substring_rows(enc), length)

    def _k_lstar(self, w: Word) -> bool:
        assert self.left is not None
        enc = self.right.encode(w)
        length = len(enc)
        reach = self.left.substring_rows(enc)[0]
        reach = _star_reach(self.right.substring_rows(enc), length, reach)
        return bool(reach >> length & 1)

    def _kstar_l(self, w: Word) -> bool:
        assert self.left is not None
        enc = self.right.encode(w)
        length = len(enc)
        reach = _star_reach(self.left.substring_rows(enc), length)
        return _ends_in(reach, self.right.substring_rows(enc), length)

    def _kstar_lstar(self, w: Word) -> bool:
        assert self.left is not None
        enc = self.right.encode(w)
        length = len(enc)
        reach = _star_reach(self.left.substring_rows(enc), length)
        reach = _star_reach(self.right.substring_rows(enc), length, reach)
        return bool(reach >> length & 1)

    def _product_star(self, w: Word) -> bool:
        assert self.left is not None
        enc = self.right.encode(w)
        length = len(enc)
        k_rows = self.left.substring_rows(enc)
        l_rows = self.right.substring_rows(enc)
        # rows of the product language KL, built lazily for the star pass
        reach = 1
        for i in range(length + 1):
            if reach >> i & 1:
                k_row = k_rows[i]
                m = k_row
                while m:
                    low = m & -m
                    reach |= l_rows[low.bit_length() - 1]
                    m ^= low
        return bool(reach >> length & 1)

    # -- boolean families --------------------------------------------------
    def _boolean(self, w: Word) -> bool:
        assert self.left is not None
        return bool(self.combine(self.left.accepts(w), self.right.accepts(w)))

    def _k_circ_lstar(self, w: Word) -> bool:
        assert self.left is not None
        return bool(self.combine(self.left.accepts(w), self._star(w)))

    def _lstar_circ_k(self, w: Word) -> bool:
        assert self.left is not None
        return bool(self.combine(self._star(w), self.left.accepts(w)))

    def _dialect_star_member(self, runner: "_Runner", base: "_Runner",
                             enc: list[int], length: int) -> bool:
        """Membership in the starred operand, star shape over the {n-1}-final
        base and acceptance at the operand's own finals: a member is the
        empty word or base-chunks followed by one chunk the operand accepts.
        Degenerates to plain star membership for an {n-1}-final operand."""
        if length == 0:
            return True
        reach = _star_reach(base.substring_rows(enc), length)
        return _ends_in(reach, runner.substring_rows(enc), length)

    def _kstar_circ_lstar(self, w: Word) -> bool:
        assert self.left is not None and self.left_base is not None
        assert self.right_base is not None
        enc = self.right.encode(w)
        length = len(enc)
        in_kstar = self._dialect_star_member(self.left, self.left_base, enc, length)
        in_lstar = self._dialect_star_member(self.right, self.right_base, enc, length)
        return bool(self.combine(in_kstar, in_lstar))

    def _boolean_star(self, w: Word) -> bool:
        assert self.left is not None
        enc = self.right.encode(w)
        length = len(enc)
        k_rows = self.left.substring_rows(enc)
        l_rows = self.right.substring_rows(enc)
        combine = self.combine
        # difference's a & ~b stays inside a's bits, so every combiner
        # yields masks over valid positions only
        rows = [combine(k_rows[i], l_rows[i]) for i in range(length + 1)]
        return bool(_star_reach(rows, length) >> length & 1)

    # (K∪L)* is built from an NFA union rather than a product; its
    # semantics are the starred boolean ones
    _union_star = _boolean_star

