"""Determinization and minimal-DFA computation.

This is the measurement instrument: every state-count in a verification
cell is the size of minimize(determinize(nfa)). Subsets live in Python ints
used as bit vectors; the NFAs here stay small (tens of states) while the
subset frontier can reach hundreds of thousands, so the hot path is the
per-subset successor computation and the partition refinement.

The subset construction reads successors from 8-bit chunk tables, so a
subset costs ceil(n/8) lookups whatever its size, and keeps only the bit
mask of each subset; `SubsetDfa.labels` decodes them when asked. Partition
refinement is Hopcroft's algorithm on a refinable partition held in flat
lists (Valmari, "Fast brief practical DFA minimization", IPL 2012), with
Moore's algorithm kept as the cross-check.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, compress, count, filterfalse

from .core import Dfa, EpsNfa, Transformation
from .ops import BooleanOp, product_dfa

DEFAULT_SUBSET_CAP = 2_000_000


class SubsetCapExceeded(RuntimeError):
    """Subset frontier grew past the configured cap; result abandoned."""

    def __init__(self, discovered: int, cap: int):
        super().__init__(f"subset frontier exceeded cap: {discovered} > {cap}")
        self.discovered = discovered
        self.cap = cap


def _decode(mask: int) -> frozenset[int]:
    """The NFA states whose bits are set in a subset mask."""
    states = []
    while mask:
        low = mask & -mask
        states.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(states)


@dataclass(frozen=True)
class SubsetDfa:
    """A determinization result: the DFA plus, per DFA state, the bit mask
    of the NFA states it denotes (mask 0 is the explicit dead state)."""

    dfa: Dfa
    masks: tuple[int, ...]

    @property
    def labels(self) -> tuple[frozenset[int], ...]:
        """The subset of each DFA state as a set, decoded from its mask."""
        return tuple(map(_decode, self.masks))


def _closure_masks(nfa: EpsNfa) -> list[int]:
    """Per-state epsilon-closure bit masks (state included in its closure)."""
    n = nfa.size
    direct = [1 << q for q in range(n)]
    for q, targets in nfa.epsilon.items():
        for t in targets:
            direct[q] |= 1 << t
    closure = list(direct)
    changed = True
    while changed:
        changed = False
        for q in range(n):
            m = closure[q]
            acc = m
            while m:
                low = m & -m
                acc |= closure[low.bit_length() - 1]
                m ^= low
            if acc != closure[q]:
                closure[q] = acc
                changed = True
    return closure


def _chunk_tables(succ: list[int]) -> list[list[int]]:
    """tab[c][b] = OR of succ[8c+i] over the set bits i of byte b.

    The last table is short when 8 does not divide the state count; the
    bytes of a subset mask never index past it.
    """
    tables = []
    for base in range(0, len(succ), 8):
        tab = [0]
        for target in succ[base:base + 8]:
            tab += [t | target for t in tab]
        tables.append(tab)
    return tables


def determinize(nfa: EpsNfa, cap: int | None = DEFAULT_SUBSET_CAP) -> SubsetDfa:
    """Subset construction with epsilon closure.

    BFS over closed subsets from closure(initials), letters expanded in
    alphabet order (canonical numbering). The empty subset, if reached,
    becomes an ordinary dead state, keeping the result complete.

    Successors come from 8-bit chunk tables: a subset's moves on all
    letters at once are the OR of one table entry per byte of its mask,
    ceil(n/8) lookups whatever the subset's size, and each letter's
    successor mask is then a shifted slice of that word.
    """
    n = nfa.size
    alphabet = nfa.alphabet
    closure = _closure_masks(nfa)
    # succ[q] packs q's epsilon-closed successor masks, letter li at bits
    # li*n .. li*n+n-1; closure distributes over unions, so a subset's
    # moves are the OR of its states' words
    succ = [0] * n
    for li, x in enumerate(alphabet):
        for q in range(n):
            for t in nfa.moves.get((q, x), ()):
                succ[q] |= closure[t] << li * n
    tables = _chunk_tables(succ)

    start = 0
    for q in nfa.initials:
        start |= closure[q]
    finals_mask = 0
    for q in nfa.finals:
        finals_mask |= 1 << q

    nbytes = (n + 7) // 8
    full = (1 << n) - 1
    index: dict[int, int] = {start: 0}
    order = [start]
    columns: list[list[int]] = [[] for _ in alphabet]
    letters = [(li * n, column) for li, column in enumerate(columns)]
    for mask in order:  # grows as new subsets are discovered
        moves = 0
        for tab, byte in zip(tables, mask.to_bytes(nbytes, "little")):
            moves |= tab[byte]
        for shift, column in letters:
            target = moves >> shift & full
            ti = index.get(target)
            if ti is None:
                ti = len(order)
                if cap is not None and ti >= cap:
                    raise SubsetCapExceeded(ti + 1, cap)
                index[target] = ti
                order.append(target)
            column.append(ti)

    delta = {x: Transformation(tuple(col)) for x, col in zip(alphabet, columns)}
    finals = frozenset(i for i, mask in enumerate(order) if mask & finals_mask)
    return SubsetDfa(Dfa(len(order), alphabet, delta, 0, finals), tuple(order))


def _bfs_numbering(
    trans: list[list[int]], final: list[bool], initial: int
) -> tuple[list[list[int]], list[bool]]:
    """Keep the states reachable from `initial`, renumbered in BFS order
    with alphabet-ordered expansion (so `initial` becomes 0).

    Returns (transitions per letter, finality flags); already-canonical
    input comes back as it is.
    """
    index = [-1] * len(final)
    index[initial] = 0
    order = [initial]
    for s in order:  # grows as new states are reached
        for col in trans:
            t = col[s]
            if index[t] < 0:
                index[t] = len(order)
                order.append(t)
    if order == list(range(len(final))):
        return trans, final
    return (
        [list(map(index.__getitem__, map(col.__getitem__, order))) for col in trans],
        list(map(final.__getitem__, order)),
    )


def _hopcroft_blocks(trans: list[list[int]], final: list[bool]) -> Sequence[int]:
    """Hopcroft's algorithm on a refinable partition (Valmari 2012).

    Returns block_of: state -> block id, ids 0..k-1. Each block is a range
    [first, end) of the permutation `elems` of the states, and `loc` is its
    inverse. Refining by a splitter and a letter marks each predecessor by
    swapping it into its block's marked prefix [first, mid). A block marked
    only in part is cut at mid; the smaller side becomes a new block and
    joins the worklist. If the old block is still waiting there, both
    halves now are; if not, the larger half need not be. So a state joins
    the worklist O(log n) times, and the work stays O(kn log n).
    """
    n = len(final)
    elems = list(compress(range(n), final))
    nfinal = len(elems)
    if nfinal in (0, n):
        return [0] * n
    elems = array("I", elems + list(filterfalse(final.__getitem__, range(n))))
    loc = array("I", sorted(range(n), key=elems.__getitem__))
    block_of = array("I", [0 if f else 1 for f in final])
    first, mid, end = [0, nfinal], [0, nfinal], [nfinal, n]
    # one of the two initial blocks suffices, as stability under a set
    # and the whole state set gives stability under its complement
    work = [0 if nfinal <= n - nfinal else 1]

    inverse = []  # per letter, CSR: pre[start[q]:start[q + 1]] enter q
    for col in trans:
        start = [0] * (n + 1)
        for t in col:
            start[t + 1] += 1
        pre = array("I", sorted(range(n), key=col.__getitem__))
        inverse.append((array("I", accumulate(start)), pre))

    while work:
        a = work.pop()
        splitter = elems[first[a]:end[a]]  # snapshot: a may split below
        for start, pre in inverse:
            touched = []
            for q in splitter:
                for p in pre[start[q]:start[q + 1]]:
                    b = block_of[p]
                    m = mid[b]
                    if m == first[b]:
                        if m + 1 == end[b]:
                            continue  # a singleton cannot split
                        touched.append(b)
                    i = loc[p]
                    r = elems[m]
                    elems[i] = r
                    loc[r] = i
                    elems[m] = p
                    loc[p] = m
                    mid[b] = m + 1
            for b in touched:
                f, m, e = first[b], mid[b], end[b]
                if m == e:
                    mid[b] = f
                    continue
                new = len(first)
                if m - f <= e - m:
                    first.append(f)
                    end.append(m)
                    first[b] = mid[b] = m
                    lo, hi = f, m
                else:
                    first.append(m)
                    end.append(e)
                    end[b] = m
                    mid[b] = f
                    lo, hi = m, e
                mid.append(lo)
                for s in elems[lo:hi]:
                    block_of[s] = new
                work.append(new)
    return block_of


def _moore_blocks(trans: list[list[int]], final: list[bool]) -> list[int]:
    """Moore's quadratic refinement; cross-check for the Hopcroft path.

    Each round renames every state by its block and its successors' blocks,
    numbered in order of first appearance, until no block splits.
    """
    block_of = [1 if f else 0 for f in final]
    nblocks = len(set(block_of))
    while True:
        successors = (map(block_of.__getitem__, col) for col in trans)
        signatures = list(zip(block_of, *successors))
        ids = dict(zip(dict.fromkeys(signatures), count()))
        block_of = list(map(ids.__getitem__, signatures))
        if len(ids) == nblocks:
            return block_of
        nblocks = len(ids)


def minimize(d: Dfa, refine=_hopcroft_blocks) -> Dfa:
    """The minimal complete DFA for L(d), canonically numbered.

    Unreachable states are dropped and the rest renumbered by BFS from the
    initial state with alphabet-ordered expansion; `refine` then merges
    indistinguishable states into blocks, and the quotient keeps that BFS
    numbering. So two equivalent DFAs over the same alphabet minimize to
    field-identical values.
    """
    trans, final = _bfs_numbering(
        [d.delta[x].image for x in d.alphabet],
        list(map(d.finals.__contains__, range(d.size))),
        d.initial,
    )
    block_of = refine(trans, final)
    # Number the blocks by their least state. The input is BFS-numbered,
    # and then so is this quotient: the first edge into a block, in
    # (source, letter) order, is the first edge into its least state.
    number = [-1] * len(block_of)
    reps = []  # the least state of each block, in block number order
    for s, b in enumerate(block_of):
        if number[b] < 0:
            number[b] = len(reps)
            reps.append(s)
    quotient = list(map(number.__getitem__, block_of))
    delta = {
        x: Transformation(tuple(map(quotient.__getitem__, map(col.__getitem__, reps))))
        for x, col in zip(d.alphabet, trans)
    }
    finals = frozenset(compress(count(), map(final.__getitem__, reps)))
    return Dfa(len(reps), d.alphabet, delta, 0, finals)


def minimal_dfa(nfa: EpsNfa, cap: int | None = DEFAULT_SUBSET_CAP) -> Dfa:
    """determinize then minimize; the standard measurement pipeline step."""
    return minimize(determinize(nfa, cap).dfa)


def state_complexity(nfa: EpsNfa, cap: int | None = DEFAULT_SUBSET_CAP) -> int:
    """Number of states of the minimal complete DFA for L(nfa)."""
    return minimal_dfa(nfa, cap).size


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """L(d1) == L(d2), by emptiness of the symmetric-difference product."""
    if d1.alphabet != d2.alphabet:
        raise ValueError(f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
    prod = product_dfa(d1, d2, BooleanOp.SYMDIFF)
    return not prod.finals


def distinguishing_word(d1: Dfa, d2: Dfa) -> tuple[str, ...] | None:
    """A shortest word accepted by exactly one of d1, d2, or None."""
    if d1.alphabet != d2.alphabet:
        raise ValueError(f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
    start = (d1.initial, d2.initial)
    seen = {start}
    queue = deque(((start, ()),))
    while queue:
        (p, q), word = queue.popleft()
        if (p in d1.finals) != (q in d2.finals):
            return word
        for x in d1.alphabet:
            target = (d1.delta[x].image[p], d2.delta[x].image[q])
            if target not in seen:
                seen.add(target)
                queue.append((target, word + (x,)))
    return None
