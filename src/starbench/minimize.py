"""Determinization and minimal-DFA computation.

This is the measurement instrument: every state-count in a verification
cell is the size of minimize(determinize(nfa)), or of minimize(product)
for a row that ends in a boolean product. Subsets live in Python ints
used as bit vectors; the NFAs here stay small (tens of states) while the
subset frontier can reach hundreds of thousands, so the hot path is the
per-subset successor computation and the partition refinement.

The subset construction, `_subset_walk`, reads successors from chunk
tables, so over an NFA of n states a subset costs max(2, ceil(n/13))
lookups whatever its size, and keeps only the bit mask of each subset,
packed at a fixed width into one bytes value; `SubsetDfa.label` decodes
one when asked. It indexes subsets by a list or, past its limit, a dict,
where ops.product_dfa takes the list alone. The SubsetDfa also keeps its
NFA, so it draws the keys below itself, as an ops.ProductDfa does.

Partition refinement runs Moore's rounds (Moore 1956), each one entirely at
C speed: a state's signature is its block and its successors' blocks, and a
block is named by its least state, so no round mints new labels. The
subset DFAs measured here are nearly all distinguishable, and they stop as
soon as every block is a singleton. A construction result's rounds start
from keys instead of finality: a state accepts w exactly when it lies in
R_w, the states that accept w. A subset meets R_w of its NFA, the states
of the reversed NFA's subset DFA, which together split every pair of
inequivalent subsets (the theorem behind Brzozowski's double reversal).
Half the key bits go to the first R_w found, R_ε first, and half to the
smallest of the next ones, as the smaller an R_w, the nearer to an atom
it is and the finer it splits (Brzozowski and Tamm, "Theory of átomata",
TCS 2014). A product pair lies in R_w when the op of its operands'
memberships holds. Rounds from finality take 4 to 20 on the large cells;
from these keys, 0 to 2. A state alone in its block never splits again,
so a round signs only the states of blocks of two or more, in a list
rebuilt whenever that halves one of over 64 states: after the keys, 0%
to 2% of a large cell's states. A round over s such states and k letters
costs O(k(s + 64)), and the rounds run until one splits nothing: the
Moore depth of the starting partition, at most n (a chain needs n, one
split a round). The plain Moore refinement the rounds are checked
against lives in the tests.

A construction result is numbered breadth first from state 0, every state
reachable, and a plain DFA is given that numbering first. There the first
edge in BFS order to enter a block leaves the least state of its own
block, so the quotient's BFS meets the blocks in the order of their least
states: its canonical numbering is the rank of the block names.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import eq, ne, or_

from .core import Dfa, EpsNfa, bits, image, kernel, transpose

DEFAULT_SUBSET_CAP = 2_000_000
# minimize draws one reverse word per _STATES_PER_KEY_BIT states of a
# subset or product DFA, at most _KEY_BITS_MAX of them; below
# _KEY_BITS_MIN it draws no keys, as under about 128 states the walk costs
# more than the rounds it saves
_KEY_BITS_MAX = 512
_KEY_BITS_MIN = 8
_STATES_PER_KEY_BIT = 16


class SubsetCapExceeded(RuntimeError):
    """Subset frontier grew past the configured cap, result abandoned; or,
    with `bound`, the bound on the result already exceeds it, so nothing
    was built and `discovered` is that bound."""

    def __init__(self, discovered: int, cap: int, bound: bool = False):
        what = "bound" if bound else "subset frontier"
        super().__init__(f"{what} exceeded cap: {discovered} > {cap}")
        self.discovered = discovered
        self.cap = cap
        self.bound = bound

    @property
    def note(self) -> str:
        """The reason a skipped cell reports."""
        if self.bound:
            return f"skipped: cap (bound {self.discovered} > {self.cap})"
        return f"skipped: cap ({self.discovered} > {self.cap} subsets)"


@dataclass(frozen=True)
class SubsetDfa:
    """A determinization result: the DFA, the NFA it determinizes and, per
    DFA state, the bit mask of the NFA states it denotes (mask 0 is the
    explicit dead state). `minimize` has it draw its keys from the NFA.

    The masks are packed little-endian, `width` bytes each, into the one
    bytes value `packed`: a few bytes per state, where a tuple of ints
    takes about 40, while the result stays alive through minimization.
    """

    dfa: Dfa
    packed: bytes
    nfa: EpsNfa

    @property
    def width(self) -> int:
        """Bytes per packed mask: one per 8 NFA states."""
        return (self.nfa.size + 7) // 8

    def label(self, state: int) -> frozenset[int]:
        """The subset of one DFA state as a set, decoded from its mask."""
        if not 0 <= state < self.dfa.size:
            raise IndexError(f"state {state} out of range [0, {self.dfa.size})")
        width = self.width
        chunk = self.packed[state * width:(state + 1) * width]
        return frozenset(bits(int.from_bytes(chunk, "little")))

    def _keys(self, limit: int) -> Iterator[int]:
        """Per subset S in state order, the bits j with S ∩ R_j nonempty,
        for `limit` subsets R_j of the reversed NFA's subset DFA.

        The reversed NFA's subset reached by reading w backwards is R_w, the
        NFA states whose closure accepts w, and its first subset is R_ε. A
        closed subset accepts w exactly when it meets R_w, so subsets with
        different keys are inequivalent. Of a walk of 4·limit subsets, the
        first limit // 2 are taken, R_ε first, so bit 0 is finality, then
        the nonempty others of fewest states, nearest to atoms. The walk
        runs at the first key drawn and no list of keys is kept. Each key is
        the OR of one chunk table entry per byte of the subset's packed mask,
        byte c of every mask being the stride packed[c::width]."""
        masks = _subset_walk(self.nfa.reverse(), 4 * limit)[0][:4 * limit]
        half = limit // 2
        smallest = sorted(filter(None, masks[half:]), key=int.bit_count)
        # member[q]: the j with q in R_j
        member = transpose(masks[:half] + smallest[:limit - half], self.nfa.size)
        del masks, smallest  # held while the keys are drawn, they raise peak RSS
        tables = _chunk_tables(member, 8)
        packed, width = self.packed, self.width
        keys = map(tables[0].__getitem__, packed[0::width])
        for c in range(1, width):
            keys = map(or_, keys, map(tables[c].__getitem__, packed[c::width]))
        yield from keys


def _chunk_tables(succ: list[int], width: int) -> list[list[int]]:
    """tab[c][b] = OR of succ[width*c + i] over the set bits i of b.

    A table holds 2^width entries, so the walk keeps width at 13 or less.
    The last table is short when width does not divide the state count;
    the chunks of a subset mask never index past it.
    """
    tables = []
    for base in range(0, len(succ), width):
        tab = [0]
        for target in succ[base:base + width]:
            tab += [t | target for t in tab]
        tables.append(tab)
    return tables


def _successor_words(nfa: EpsNfa, closure: list[int]) -> list[int]:
    """succ[q] packs q's epsilon-closed successor masks, letter li at bits
    li*n .. li*n+n-1; closure distributes over unions, so a subset's
    moves are the OR of its states' words."""
    n = nfa.size
    succ = [0] * n
    for li, x in enumerate(nfa.alphabet):
        for q, targets in enumerate(nfa.moves[x]):
            succ[q] |= image(closure, targets) << li * n
    return succ


_WALK = """def kernel(order, index, packed, limit, nbytes, full, wmask, {names}):
    append = order.append
    for mask in order:  # grows as new subsets are discovered
        packed += mask.to_bytes(nbytes, "little")
        moves = {moves}
{letters}"""
_WALK_LETTER = """        target = moves{shift} & full
        ti = {read}
        if ti < 0:
            ti = index[target] = len(order)
            append(target)
            if ti >= limit:
                return
        a{li}(ti)
"""


def _walk_source(letters: int, chunks: int, flat: bool) -> str:
    """The walk's loop over `chunks` chunk tables t0.. at shifts s1.. and
    `letters` letters, letter li at shift h_li (h0 = 0) with column append
    a_li, unrolled, reading the index as a list if `flat`, else a dict."""
    read = "index[target]" if flat else "index.get(target, -1)"
    names = [f"t{c}" for c in range(chunks)] + [f"s{c}" for c in range(1, chunks)]
    names += [f"h{li}" for li in range(1, letters)] + [f"a{li}" for li in range(letters)]
    moves = " | ".join(["t0[mask & wmask]"] + [
        f"t{c}[mask >> s{c} & wmask]" for c in range(1, chunks - 1)]
        + [f"t{chunks - 1}[mask >> s{chunks - 1}]"])
    return _WALK.format(names=", ".join(names), moves=moves, letters="".join(
        _WALK_LETTER.format(shift=f" >> h{li}" if li else "", read=read, li=li)
        for li in range(letters)))


def _subset_walk(
    nfa: EpsNfa, limit: int
) -> tuple[list[int], list[list[int]], bytearray]:
    """The subset construction's breadth-first walk: the closed subsets
    from closure(initials), letters expanded in alphabet order, as bit
    masks in discovery order, with one target column per letter and the
    masks packed at ceil(n/8) bytes each.

    It stops as soon as it discovers subset number `limit` (from 0), which
    it appends last, so a walk that stopped holds more than `limit` masks.
    A subset's number is read from `index`, -1 while undiscovered: by
    subscript from a list of one slot per possible subset when there are
    at most `limit` of them (n <= 20 at the default cap), so at most
    8·limit bytes, and by get from a dict otherwise, where 2^n slots would
    outgrow the limit.

    Successors come from chunk tables (the "Four Russians" method of
    Arlazarov, Dinic, Kronrod and Faradzev, 1970): a subset's moves on all
    letters at once are the OR of one table entry per chunk of its mask,
    and each letter's successor mask is then a shifted slice of that word.
    The mask is cut into the fewest equal chunks of at most 13 bits, so no
    table holds over 2^13 entries, and never fewer than two, as one table
    of 2^n entries costs a small walk more to build than it saves. The
    loop is `_walk_source` compiled once per letter count, chunk count and
    index form, lookups and letters unrolled, its tables, shifts and column
    appends passed in as locals.
    """
    n = nfa.size
    closure = nfa.closure()
    width = -(-n // max(2, -(-n // 13)))
    tables = _chunk_tables(_successor_words(nfa, closure), width)
    if n == 1:  # the second chunk of a one-state mask is empty
        tables.append([0])
    start = image(closure, nfa.initials)
    full = (1 << n) - 1
    flat = full < limit
    index = [-1] * (full + 1) if flat else {}
    index[start] = 0
    order = [start]
    columns: list[list[int]] = [[] for _ in nfa.alphabet]
    packed = bytearray()  # the masks of `order`, (n + 7) // 8 bytes each
    walk = kernel(_walk_source, len(columns), len(tables), flat)
    walk(order, index, packed, limit, (n + 7) // 8, full, (1 << width) - 1,
         *tables, *range(width, len(tables) * width, width),
         *range(n, len(columns) * n, n), *(column.append for column in columns))
    return order, columns, packed


def determinize(nfa: EpsNfa, cap: int = DEFAULT_SUBSET_CAP) -> SubsetDfa:
    """Subset construction with epsilon closure.

    BFS over closed subsets from closure(initials), letters expanded in
    alphabet order (canonical numbering), by `_subset_walk`. The empty
    subset, if reached, becomes an ordinary dead state, keeping the result
    complete.
    """
    order, columns, packed = _subset_walk(nfa, cap)
    if len(order) > cap:
        raise SubsetCapExceeded(cap + 1, cap)
    alphabet = nfa.alphabet
    delta = {x: tuple(col) for x, col in zip(alphabet, columns)}
    finals = frozenset(compress(range(len(order)), map(nfa.finals.__and__, order)))
    dfa = Dfa(len(order), alphabet, delta, 0, finals)
    return SubsetDfa(dfa, bytes(packed), nfa)


def _renumbered(d: Dfa, kept: Sequence[int], index: Sequence[int]) -> Dfa:
    """d on the states `kept`, kept[i] as i and 0 initial, target t as index[t]."""
    delta = {x: tuple(map(index.__getitem__, map(d.delta[x].__getitem__, kept)))
             for x in d.alphabet}
    finals = compress(map(index.__getitem__, kept), map(d.finals.__contains__, kept))
    return Dfa(len(kept), d.alphabet, delta, 0, frozenset(finals))


def _bfs_numbering(d: Dfa) -> Dfa:
    """d on its states reachable from the initial one, renumbered in BFS
    order with alphabet-ordered expansion, the one canonical numbering; d
    itself when that keeps every state in place, as for a construction."""
    trans = [d.delta[x] for x in d.alphabet]
    index = [-1] * d.size
    index[d.initial] = 0
    order = [d.initial]
    for s in order:  # grows as new states are reached
        for col in trans:
            t = col[s]
            if index[t] < 0:
                index[t] = len(order)
                order.append(t)
    return d if order == list(range(d.size)) else _renumbered(d, order, index)


def _moore_rounds(trans: list[list[int]], labels: Iterable[Hashable]) -> Sequence[int]:
    """Moore's rounds at C speed, run to their fixed point.

    The rounds start from the one partition by `labels`, one per state:
    finality, or labels that refine it and only tell apart inequivalent
    states. A round gives each state the signature (its block, its
    successors' blocks) and names each new block by its least state, the
    first to claim the signature, so block names are always states and no
    round mints new ones. The rounds stop when one splits nothing, or as
    soon as every block is a singleton, which needs no confirming round:
    at most n rounds, the Moore depth of the starting partition.

    A state alone in its block never splits again, so a round signs only
    the `active` states, ascending, through per-letter columns restricted
    to them: a union of whole blocks holding every block of two or more
    states, so each new block is still named by its least state. When
    singletons are over half of an active list of more than 64 states
    (4·blocks > 3·states), the list and its columns are rebuilt without
    them, so every rebuild at least halves it and all of them cost O(kn).
    Between rebuilds the list holds at most 64 states or under four
    times the s states of non-singleton blocks, so a round costs
    O(k(s + 64)). Keys that leave most states alone, as on the large
    cells, drop them before the first round.
    """
    n = len(trans[0])
    active = range(n)
    ids: dict = {}
    block_of = list(map(ids.setdefault, labels, active))
    nblocks = inside = len(ids)  # blocks in all, blocks of the active states
    signed, cols = block_of, trans  # the active states' blocks and columns
    while nblocks < n:
        # over half the active are singletons; from 64 states or fewer,
        # dropping them costs more than the rounds it saves
        if len(active) > 64 and 4 * inside > 3 * len(active):
            # a block has two or more states when one is not its name
            shared = set(compress(signed, map(ne, signed, active)))
            keep = list(map(shared.__contains__, signed))
            active = list(compress(active, keep))
            signed = list(compress(signed, keep))
            inside = len(shared)
            cols = [list(map(col.__getitem__, active)) for col in trans]
        ids = {}
        successors = (map(block_of.__getitem__, col) for col in cols)
        signed = list(map(ids.setdefault, zip(signed, *successors), active))
        if len(ids) == inside:
            break
        if len(active) == n:
            block_of = signed
        else:
            any(map(block_of.__setitem__, active, signed))
        nblocks += len(ids) - inside
        inside = len(ids)
    return block_of


def minimize(d: Dfa | SubsetDfa) -> Dfa:
    """The minimal complete DFA for L(d), canonically numbered, so
    equivalent DFAs over one alphabet minimize to field-identical values
    and a DFA already in that form is returned as it is.

    A plain Dfa gets _bfs_numbering first; a SubsetDfa or ops.ProductDfa
    stands for its `dfa`, so numbered already. One of 128 states or more
    (_KEY_BITS_MIN * _STATES_PER_KEY_BIT) has its `_keys`, drawn lazily,
    seed the rounds in place of finality: a finer partition that splits
    only inequivalent states, so the same result in fewer rounds."""
    labels = None
    if isinstance(d, Dfa):
        d = _bfs_numbering(d)
    else:
        limit = min(d.dfa.size // _STATES_PER_KEY_BIT, _KEY_BITS_MAX)
        if limit >= _KEY_BITS_MIN:
            labels = d._keys(limit)
        d = d.dfa
    # finality, lazily, where no keys are drawn
    labels = labels or map(d.finals.__contains__, range(d.size))
    block_of = _moore_rounds([d.delta[x] for x in d.alphabet], labels)
    names = list(compress(block_of, map(eq, block_of, range(d.size))))
    if len(names) == d.size:
        return d
    # a block is named by its least state, and rank[s] counts the names below s
    rank = accumulate(map(eq, block_of, range(d.size)), initial=0)
    return _renumbered(d, names, list(map(list(rank).__getitem__, block_of)))


def minimal_dfa(nfa: EpsNfa, cap: int = DEFAULT_SUBSET_CAP) -> Dfa:
    """determinize then minimize; the standard measurement pipeline step."""
    return minimize(determinize(nfa, cap))
