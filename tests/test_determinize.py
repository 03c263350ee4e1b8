import collections
import importlib
import inspect
import itertools
import operator
import random
import tracemalloc
from dataclasses import replace

import pytest

from conftest import random_dfa, relabel_states
from starbench.core import Dfa, EpsNfa
from starbench.minimize import (
    DEFAULT_SUBSET_CAP,
    SubsetCapExceeded,
    SubsetDfa,
    determinize,
    minimal_dfa,
    minimize,
)
from starbench.ops import (
    BooleanOp,
    concat_nfa,
    dfa_to_nfa,
    product_dfa,
    reverse_nfa,
    star_eps_nfa,
    star_nfa,
)
from starbench.witnesses import WitnessSpec, build


MINIMIZE = importlib.import_module("starbench.minimize")
OPS = importlib.import_module("starbench.ops")


def _moore_refinement(trans, labels):
    """Moore's quadratic refinement from the partition by `labels`, over
    every state each round: the reference that minimize's restricted
    rounds are checked against.

    Each round renames every state by its block and its successors' blocks,
    each block named by its least state, until no block splits or every
    block is a singleton. Returns the blocks and the rounds: those that
    split a block, and one that splits nothing unless all are singletons.
    """
    ids = {}
    block_of = list(map(ids.setdefault, labels, itertools.count()))
    nblocks, rounds = len(ids), 0
    while nblocks < len(block_of):
        rounds += 1
        successors = (map(block_of.__getitem__, col) for col in trans)
        ids = {}
        block_of = list(map(ids.setdefault, zip(block_of, *successors), itertools.count()))
        if len(ids) == nblocks:
            break
        nblocks = len(ids)
    return block_of, rounds


def _moore_blocks(trans, final):
    """The reference blocks from finality."""
    return _moore_refinement(trans, final)[0]


def minimize_by(monkeypatch, refine, d):
    """minimize(d) with `refine`, which starts from the labels minimize
    gives it (finality, for a plain DFA), in place of the restricted Moore
    rounds."""
    with monkeypatch.context() as patch:
        patch.setattr(MINIMIZE, "_moore_rounds",
                      lambda trans, labels: refine(trans, list(labels)))
        return minimize(d)


def subset_labels(sd):
    """The subset of each state of a SubsetDfa, in state order."""
    return tuple(map(sd.label, range(sd.dfa.size)))


def random_nfa(rng, size, alphabet=("a", "b")):
    """Mostly one move per (state, letter), some none, a few two; a few
    epsilon edges; two initial states."""
    moves = {x: [0] * size for x in alphabet}
    for q in range(size):
        for x in alphabet:
            for _ in range(rng.choice((0, 1, 1, 1, 2))):
                moves[x][q] |= 1 << rng.randrange(size)
    epsilon = tuple(1 << rng.randrange(size) if rng.random() < 0.1 else 0
                    for _ in range(size))
    initials = sum(1 << q for q in rng.sample(range(size), min(size, 2)))
    finals = sum(1 << q for q in range(size) if rng.random() < 0.3)
    return EpsNfa(size, alphabet, {x: tuple(row) for x, row in moves.items()},
                  epsilon, initials, finals)


def _chain_nfa():
    """Epsilon edges 0 -> 1 -> 2, only 2 final, and an a-loop on 3."""
    return EpsNfa(4, ("a",), {"a": (0, 0, 0, 0b1000)}, (0b10, 0b100, 0, 0),
                  0b1, 0b100)


def test_star_of_binary_restriction_measures_six(witness):
    # 2^2 + 2^1 at n = 3
    nfa = star_nfa(witness("U", 3).restrict("ab"))
    assert minimal_dfa(nfa).size == 6


def test_determinizing_a_minimal_dfa_is_identity(witness):
    d = witness("U", 4)
    assert minimal_dfa(dfa_to_nfa(d)) == minimize(d)


def test_initial_subset_label_of_kstar_l(witness):
    # concat(star(K), L): the initial subset holds the new state and L's 0
    left = star_nfa(witness("U", 4, "abcd"))
    right = dfa_to_nfa(witness("U", 5, "dcba"))
    sd = determinize(concat_nfa(left, right))
    labels = subset_labels(sd)
    assert labels[0] == frozenset((4, 5))
    assert sd.dfa.initial == 0
    # labels are pairwise distinct and consistent with finality
    assert len(set(labels)) == len(labels)
    nfa_finals = set(range(9, 10))  # L's final 4 shifted by 5
    for i, label in enumerate(labels):
        assert (i in sd.dfa.finals) == bool(label & nfa_finals)


def test_empty_subset_becomes_dead_state():
    # single letter NFA with no moves: everything falls into the dead state
    nfa = EpsNfa(1, ("a",), {"a": (0,)}, (0,), 1, 1)
    sd = determinize(nfa)
    assert sd.dfa.size == 2
    assert subset_labels(sd)[1] == frozenset()
    assert sd.dfa.delta["a"] == (1, 1)


def test_chained_epsilon_closure():
    nfa = _chain_nfa()
    assert nfa.closure() == [0b111, 0b110, 0b100, 0b1000]
    sd = determinize(nfa)
    assert subset_labels(sd)[0] == frozenset((0, 1, 2))
    assert 0 in sd.dfa.finals  # the empty word reaches the final state


def test_reverse_of_empty_language(witness):
    d = witness("U", 3)
    empty = Dfa(d.size, d.alphabet, dict(d.delta), 0, frozenset())
    m = minimal_dfa(reverse_nfa(empty))
    assert m.size == 1
    assert not m.finals


def test_determinize_cap():
    d = build(WitnessSpec("U", 6))
    with pytest.raises(SubsetCapExceeded):
        determinize(star_nfa(d.restrict("ab")), cap=10)


def test_minimize_witnesses_are_minimal(witness):
    for n in range(3, 9):
        assert minimize(witness("U", n)).size == n


def test_minimize_merges_duplicate_sinks(distinguishing_word):
    # states 1 and 2 are identical final sinks and collapse into one
    t = {"a": (1, 1, 2), "b": (2, 1, 2)}
    d = Dfa(3, ("a", "b"), t, 0, frozenset((1, 2)))
    m = minimize(d)
    assert m.size == d.size - 1
    assert distinguishing_word(m, d) is None


def test_minimize_empty_intersection_is_one_state(witness):
    d = witness("U", 4)
    prod = product_dfa(d, d.complement(), BooleanOp.INTERSECTION)
    assert minimize(prod).size == 1


def test_minimize_idempotent_and_canonical():
    rng = random.Random(42)
    for _ in range(60):
        d = random_dfa(rng, rng.randint(1, 8))
        m = minimize(d)
        assert minimize(m) == m
        perm = list(range(d.size))
        rng.shuffle(perm)
        assert minimize(relabel_states(d, perm)) == m


def test_minimize_agrees_with_moore_reference(monkeypatch):
    rng = random.Random(7)
    for _ in range(60):
        d = random_dfa(rng, rng.randint(1, 10), ("a", "b", "c"))
        assert minimize(d) == minimize_by(monkeypatch, _moore_blocks, d)


def _chain(n):
    """One letter, 0 -> 1 -> ... -> n-1 -> n-1, only n-1 final: every
    state is distinguished, by its distance to the end."""
    step = tuple(min(s + 1, n - 1) for s in range(n))
    return Dfa(n, ("a",), {"a": step}, 0, frozenset((n - 1,)))


def _with_finals(d, finals):
    return Dfa(d.size, d.alphabet, d.delta, d.initial, frozenset(finals))


def _with_unreachable(rng):
    """A random DFA on states 0..8 plus states 9..13 that nothing enters."""
    core, extra = 9, 5
    delta = {
        x: tuple(rng.randrange(core) for _ in range(core + extra))
        for x in ("a", "b")
    }
    finals = frozenset(s for s in range(core + extra) if rng.random() < 0.5)
    return Dfa(core + extra, ("a", "b"), delta, 0, finals)


def _construction(op, m, n):
    """The construction result that run_pipeline minimizes for one
    registry cell: its subset DFA, or its closing product."""
    from starbench.bounds import TABLE
    from starbench.verify import _SHAPES, _operands_for

    entry = TABLE[op]
    boolean = None if entry.boolean is None else BooleanOp(entry.boolean)
    left, right = _operands_for(op, m, n)
    built = _SHAPES[entry.shape](left, right, boolean, DEFAULT_SUBSET_CAP)
    return determinize(built) if isinstance(built, EpsNfa) else built


def _conjecture_subset_dfa(m, n):
    """The subset DFA of the (K∩L)* conjecture cell, before minimization."""
    return _construction("(K∩L)*-conjecture", m, n).dfa


@pytest.mark.parametrize("make, minimal_size", [
    (lambda: _chain(1500), 1500),
    (lambda: _with_finals(random_dfa(random.Random(1), 30), range(30)), 1),
    (lambda: _with_finals(random_dfa(random.Random(2), 30), ()), 1),
    (lambda: _with_unreachable(random.Random(3)), None),
    (lambda: Dfa(1, ("a", "b"), {x: (0,) for x in "ab"}, 0,
                 frozenset((0,))), 1),
    (lambda: _conjecture_subset_dfa(3, 3), 384),
    (lambda: _conjecture_subset_dfa(3, 4), 3072),
], ids=["chain", "all-final", "no-final", "unreachable", "one-state",
        "conjecture-3-3", "conjecture-3-4"])
def test_minimize_agrees_with_moore_reference_on_edge_cases(monkeypatch, make, minimal_size):
    d = make()
    m = minimize(d)
    assert m == minimize_by(monkeypatch, _moore_blocks, d)
    if minimal_size is not None:
        assert m.size == minimal_size


def test_table_cells_refine_in_few_rounds(monkeypatch):
    # a tripwire: the measured DFAs are nearly all distinguishable and
    # shallow for Moore, so every refinement in the registry's cells at
    # m, n = 3..4 needs at most 2·bit_length(n) rounds from the partition
    # minimize starts it from; keys or constructions that made them deep
    # would make the rounds quadratic
    from starbench.bounds import TABLE
    from starbench.verify import verify_cell

    refine = MINIMIZE._moore_rounds
    seen = []

    def counted(trans, labels):
        keyed = inspect.isgenerator(labels)
        start = list(labels)
        seen.append((len(start), _moore_refinement(trans, start)[1], keyed))
        return refine(trans, start)

    monkeypatch.setattr(MINIMIZE, "_moore_rounds", counted)
    for op, entry in TABLE.items():
        for m in ((3, 4) if entry.arity == 2 else (None,)):
            for n in (3, 4):
                cell = verify_cell(op, m, n)
                assert cell.verdict in ("match", "open-measured"), cell
    assert [(size, rounds) for size, rounds, _ in seen
            if rounds > 2 * size.bit_length()] == []
    assert any(keyed for _, _, keyed in seen)


def test_minimize_returns_canonical_minimal_dfa_itself(witness):
    m = minimize(witness("U", 6))
    assert minimize(m) is m
    # a subset DFA is BFS-numbered already; this one is also minimal
    d = _conjecture_subset_dfa(3, 3)
    assert minimize(d) is d
    # minimal but not BFS-numbered: a new, renumbered value
    shuffled = relabel_states(m, [0, 2, 1, 3, 4, 5])
    assert minimize(shuffled) is not shuffled
    assert minimize(shuffled) == m


def test_minimize_drops_unreachable_self_looping_final(monkeypatch, distinguishing_word):
    # state 2 is final and loops on every letter, but nothing enters it
    t = {"a": (1, 0, 2), "b": (0, 1, 2)}
    d = Dfa(3, ("a", "b"), t, 0, frozenset((1, 2)))
    m = minimize(d)
    assert m.size == 2
    assert m.finals == frozenset((1,))
    assert m == minimize_by(monkeypatch, _moore_blocks, d)
    assert distinguishing_word(m, d) is None


def test_minimized_states_all_reachable_and_distinguishable():
    rng = random.Random(3)
    for _ in range(40):
        d = random_dfa(rng, rng.randint(2, 9))
        m = minimize(d)
        trans = [m.delta[x] for x in m.alphabet]
        finals = [s in m.finals for s in range(m.size)]
        # a further refinement pass must not split anything
        blocks = _moore_blocks(trans, finals)
        assert len(set(blocks)) == m.size
        seen = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for col in trans:
                if col[s] not in seen:
                    seen.add(col[s])
                    frontier.append(col[s])
        assert seen == set(range(m.size))


def test_canonical_form_across_different_constructions(witness):
    # two structurally different automata for the same language minimize to
    # field-identical values
    d = witness("U", 4)
    via_product = minimize(product_dfa(d, d, BooleanOp.UNION))
    via_double_reverse = minimal_dfa(reverse_nfa(minimal_dfa(reverse_nfa(d))))
    assert via_product == minimize(d)
    assert via_double_reverse == minimize(d)


def test_language_preserved_through_pipeline(witness, simulate, run):
    rng = random.Random(99)
    cases = [
        star_nfa(witness("U", 4)),
        reverse_nfa(witness("T", 4)),
        concat_nfa(dfa_to_nfa(witness("U", 3)), star_nfa(witness("U", 4, "bac"))),
    ]
    for nfa in cases:
        d = minimal_dfa(nfa)
        for _ in range(350):
            w = tuple(rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 15)))
            assert simulate(nfa, w) == run(d, w)


def test_monotone_size_bound():
    rng = random.Random(17)
    for _ in range(20):
        base = random_dfa(rng, rng.randint(2, 6))
        nfa = star_nfa(base)
        sd = determinize(nfa)
        assert minimize(sd.dfa).size <= sd.dfa.size <= 2 ** nfa.size + 1


def test_state_complexity_examples(witness):
    assert minimal_dfa(star_nfa(witness("U", 4).restrict("ab"))).size == 12
    assert minimal_dfa(dfa_to_nfa(witness("U", 5))).size == 5
    assert minimal_dfa(reverse_nfa(witness("U", 3))).size == 8


def test_equivalent_basics(witness, distinguishing_word):
    d = witness("U", 4)
    assert distinguishing_word(d, minimize(d)) is None
    assert distinguishing_word(d, d.complement()) == ()
    with pytest.raises(ValueError):
        distinguishing_word(d, witness("W", 4))


def test_permutational_pair_not_equivalent(witness, distinguishing_word, run):
    # "ab" does not separate the pair (both reject); the shortest separator
    # is "aaa", accepted by U_4(a,b,c) only
    d1 = witness("U", 4)
    d2 = witness("U", 4, "bac")
    assert not run(d1, "ab") and not run(d2, "ab")
    word = distinguishing_word(d1, d2)
    assert word is not None and run(d1, word) != run(d2, word)
    assert word == ("a", "a", "a")
    assert run(d1, "aaa") and not run(d2, "aaa")


def test_distinguishing_word_matches_brute_force(distinguishing_word, run):
    # the equivalence reference against a search of every word: a
    # disagreement, if any, shows up by length |d1|·|d2|, as the pair walk
    # visits no more pairs than that
    rng = random.Random(5)
    outcomes = set()
    for _ in range(400):
        d1 = random_dfa(rng, rng.randint(1, 3))
        d2 = random_dfa(rng, rng.randint(1, 3))
        words = (w for k in range(d1.size * d2.size + 1)
                 for w in itertools.product("ab", repeat=k))
        shortest = next((w for w in words if run(d1, w) != run(d2, w)), None)
        word = distinguishing_word(d1, d2)
        if shortest is None:
            assert word is None
        else:
            assert word is not None and run(d1, word) != run(d2, word)
            assert len(word) == len(shortest)
        outcomes.add(None if word is None else min(len(word), 2))
    # equivalent pairs, and words of length 0, 1 and longer all occur
    assert outcomes == {None, 0, 1, 2}


def _states(nfa, mask):
    return frozenset(q for q in range(nfa.size) if mask >> q & 1)


def _eps_closure(nfa, states):
    """The epsilon-closure of a set of states, as a set: rounds that add
    the epsilon targets of every state so far until none is new, apart
    from EpsNfa.closure."""
    closed = frozenset(states)
    while True:
        more = closed.union(*(_states(nfa, nfa.epsilon[s]) for s in closed))
        if more == closed:
            return closed
        closed = more


def _reference_determinize(nfa, cap=DEFAULT_SUBSET_CAP):
    """The bit-by-bit subset loop that the chunk tables replaced, with the
    epsilon closures taken from _eps_closure. Returns the DFA and the
    subset labels built eagerly."""
    n = nfa.size
    alphabet = nfa.alphabet
    closure = [sum(1 << t for t in _eps_closure(nfa, (q,))) for q in range(n)]
    succ = []
    for x in alphabet:
        col = [0] * n
        for q in range(n):
            acc = 0
            for t in _states(nfa, nfa.moves[x][q]):
                acc |= closure[t]
            col[q] = acc
        succ.append(col)

    start = 0
    for q in _states(nfa, nfa.initials):
        start |= closure[q]

    index = {start: 0}
    order = [start]
    rows = []
    head = 0
    while head < len(order):
        mask = order[head]
        head += 1
        row = []
        for col in succ:
            target = 0
            m = mask
            while m:
                low = m & -m
                target |= col[low.bit_length() - 1]
                m ^= low
            ti = index.get(target)
            if ti is None:
                ti = len(order)
                if cap is not None and ti >= cap:
                    raise SubsetCapExceeded(ti + 1, cap)
                index[target] = ti
                order.append(target)
            row.append(ti)
        rows.append(row)

    size = len(order)
    delta = {
        x: tuple(rows[s][li] for s in range(size))
        for li, x in enumerate(alphabet)
    }
    finals = frozenset(i for i, mask in enumerate(order) if mask & nfa.finals)
    labels = tuple(
        frozenset(q for q in range(n) if mask >> q & 1) for mask in order
    )
    return Dfa(size, alphabet, delta, 0, finals), labels


def _assert_same_determinization(nfa, cap=DEFAULT_SUBSET_CAP):
    """Both constructions give the same DFA and labels, or both stop at
    the cap having discovered the same number of subsets."""
    try:
        ref_dfa, ref_labels = _reference_determinize(nfa, cap)
    except SubsetCapExceeded as ref:
        with pytest.raises(SubsetCapExceeded) as got:
            determinize(nfa, cap)
        assert (got.value.discovered, got.value.cap) == (ref.discovered, ref.cap)
        return False
    sd = determinize(nfa, cap)
    assert sd.dfa == ref_dfa
    assert subset_labels(sd) == ref_labels
    return True


@pytest.mark.parametrize(
    "size", [1, 2, 7, 8, 9, 13, 14, 16, 17, 26, 27, 40, 70])
def test_determinize_matches_reference_on_random_nfas(size):
    # the sizes straddle the chunk widths, the two-lookup walk's last size
    # (26), the packed bytes and the 64-bit word
    rng = random.Random(size)
    for _ in range(8):
        _assert_same_determinization(random_nfa(rng, size), cap=400)


@pytest.mark.parametrize("size", [13, 14, 26, 27, 40, 70])
def test_subset_walk_tables_stay_within_2_to_the_13(monkeypatch, size):
    # a table per chunk of 2^width entries: a width rule that let one grow
    # with the state count would exhaust memory long before 70 states; and
    # never fewer than two, as one 2^n table costs a small walk more to build
    # than it saves
    built = []
    chunk_tables = MINIMIZE._chunk_tables

    def record(succ, width):
        built.append(chunk_tables(succ, width))
        return built[-1]

    monkeypatch.setattr(MINIMIZE, "_chunk_tables", record)
    MINIMIZE._subset_walk(random_nfa(random.Random(size), size), 50)
    tables, = built
    assert max(map(len, tables)) <= 2 ** 13
    assert len(tables) == 2 if size <= 26 else len(tables) > 2


@pytest.mark.parametrize("size", range(1, 13))
def test_flat_and_dict_subset_index_agree(size):
    # cap 2^n indexes the subsets by a list of 2^n slots and cap 2^n - 1
    # by a dict; each gives the reference's DFA and labels, and where both
    # finish their results are field-identical
    rng = random.Random(1000 + size)
    for _ in range(6):
        nfa = random_nfa(rng, size)
        assert _assert_same_determinization(nfa, cap=2 ** size)
        if _assert_same_determinization(nfa, cap=2 ** size - 1):
            assert determinize(nfa, 2 ** size - 1) == determinize(nfa, 2 ** size)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_subset_cap_off_by_one_on_each_index_form(witness, n):
    # the reversal of U_n reaches all 2^n subsets: the list form holds
    # them all at cap 2^n (no cap of that form is below the subset
    # count), and the dict form at cap 2^n - 1 stops at the last one
    rev = reverse_nfa(witness("U", n))
    assert determinize(rev, 2 ** n).dfa.size == 2 ** n
    with pytest.raises(SubsetCapExceeded) as got:
        determinize(rev, 2 ** n - 1)
    assert (got.value.discovered, got.value.cap) == (2 ** n, 2 ** n - 1)
    # the star of U_n reaches 3 * 2^(n-2) of its 2^(n+1) subsets, so
    # both caps take the dict form
    star, reached = star_nfa(witness("U", n)), 3 * 2 ** (n - 2)
    assert determinize(star, reached).dfa.size == reached
    with pytest.raises(SubsetCapExceeded) as got:
        determinize(star, reached - 1)
    assert (got.value.discovered, got.value.cap) == (reached, reached - 1)


@pytest.mark.parametrize("size, limit", [(27, 50), (16, 2 ** 16), (16, 2 ** 16 - 1)])
def test_subset_index_memory_follows_the_limit(size, limit):
    # the walk holds 8 bytes per possible subset only when 2^n <= limit,
    # so never more than 8 * limit: at limit 50 a 27-state walk keeps a
    # dict, where a list of 2^27 slots would take 1 GiB
    nfa = random_nfa(random.Random(size), size)
    tracemalloc.start()
    try:
        MINIMIZE._subset_walk(nfa, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = 8 * 2 ** size
    assert (peak >= slots) == (slots <= 8 * limit)
    assert peak < 2 ** 20


def test_determinize_matches_reference_past_64_bits(witness):
    # 70 states: a 69-state cycle with its star's epsilon loop-back
    nfa = star_nfa(witness("U", 69).restrict("a"))
    assert nfa.size == 70
    assert _assert_same_determinization(nfa)
    assert _assert_same_determinization(reverse_nfa(witness("U", 70)), cap=2000) is False
    assert _assert_same_determinization(dfa_to_nfa(witness("U", 70)))


def test_determinize_matches_reference_on_constructions(witness):
    k, l = witness("U", 4), witness("U", 5, "bac")
    cases = [
        _chain_nfa(),
        EpsNfa(1, ("a",), {"a": (0,)}, (0,), 1, 1),
        star_nfa(k),
        star_nfa(l.restrict("ab")),
        concat_nfa(dfa_to_nfa(k), dfa_to_nfa(l)),
        concat_nfa(star_nfa(k), star_nfa(l)),
        star_eps_nfa(concat_nfa(dfa_to_nfa(k), dfa_to_nfa(l))),
    ]
    for nfa in cases:
        assert _assert_same_determinization(nfa)
    # the empty subset is reached, and decodes to the empty label
    assert frozenset() in subset_labels(determinize(cases[1]))


def test_references_catch_a_closure_that_stops_after_one_step(
        monkeypatch, simulate, run):
    # the references close over epsilon edges by their own searches: a
    # closure that follows one edge, not chains of them, passes neither
    nfa = _chain_nfa()
    assert _assert_same_determinization(nfa)
    assert simulate(nfa, ()) and run(minimal_dfa(nfa), ())
    monkeypatch.setattr(EpsNfa, "closure", lambda self: [
        1 << q | targets for q, targets in enumerate(self.epsilon)])
    with pytest.raises(AssertionError):
        _assert_same_determinization(nfa)
    assert simulate(nfa, ()) and not run(minimal_dfa(nfa), ())


def test_packed_masks_match_reference_labels(witness):
    # 70 states need 9 bytes per mask, past the 64-bit word
    nfa = star_nfa(witness("U", 69).restrict("a"))
    _, labels = _reference_determinize(nfa)
    sd = determinize(nfa)
    assert sd.width == 9
    assert len(sd.packed) == sd.width * sd.dfa.size
    assert subset_labels(sd) == labels



def test_label_refuses_states_out_of_range(witness):
    # no slice of the packed masks past either end may pass for the
    # dead state's empty subset, nor a negative state for another's
    sd = determinize(star_nfa(witness("U", 4)))
    assert sd.dfa.size == 12
    assert sd.label(0) == frozenset((4,)) and sd.label(11) == subset_labels(sd)[11]
    for state in (-2, -1, 12, 13):
        with pytest.raises(IndexError):
            sd.label(state)

def _accepts_from(nfa, q, word):
    """Whether the NFA started in state q alone accepts word, by a direct
    set-based run."""
    current = _eps_closure(nfa, (q,))
    for x in word:
        current = _eps_closure(nfa, frozenset().union(
            *(_states(nfa, nfa.moves[x][s]) for s in current)))
    return bool(current & _states(nfa, nfa.finals))


def _reference_reverse_masks(nfa, limit):
    """The first `limit` distinct masks R_w = {q : q accepts w}, each run
    word by word from every state: R_ε first, then the masks of nonempty
    words, breadth first with letters put in front in alphabet order,
    skipping the empty mask and words whose mask came earlier."""
    found = {}
    words = [()]
    for word in words:  # grows as new masks are found
        mask = sum(1 << q for q in range(nfa.size) if _accepts_from(nfa, q, word))
        if mask in found or word and not mask:
            continue
        found[mask] = word
        if len(found) == limit:
            break
        words.extend((x,) + word for x in nfa.alphabet)
    return list(found)


def _seed_nfas():
    """Seeded random epsilon-NFAs, plus variants with an epsilon cycle
    through their first half, with no finals, with all finals, and with
    four more states that nothing enters."""
    rng = random.Random(16)
    cases = []
    for size in (1, 3, 5, 8, 9, 12):
        for _ in range(3):
            nfa = random_nfa(rng, size)
            half = size // 2
            cycle = list(nfa.epsilon)
            for q in range(half + 1):
                cycle[q] |= 1 << (q + 1 if q < half else 0)
            # the four extra states lead into the NFA, and one is final
            moves = {x: row + (int(x == "a"),) * 4 for x, row in nfa.moves.items()}
            cases += [
                nfa,
                replace(nfa, epsilon=tuple(cycle)),
                replace(nfa, finals=0),
                replace(nfa, finals=(1 << size) - 1),
                replace(nfa, size=size + 4, moves=moves,
                        epsilon=nfa.epsilon + (1 << size + 1, 0, 0, 0),
                        finals=nfa.finals | 1 << size + 2),
            ]
    return cases


def _registry_built(sizes, cap=DEFAULT_SUBSET_CAP):
    """(shape, m, n, construction) per registry cell at m, n in sizes:
    its NFA, or the product it closes with; cells whose operands pass
    `cap` are left out."""
    from starbench.bounds import TABLE
    from starbench.verify import _SHAPES, _operands_for

    for op, entry in TABLE.items():
        for m in (sizes if entry.arity == 2 else (None,)):
            for n in sizes:
                boolean = None if entry.boolean is None else BooleanOp(entry.boolean)
                try:
                    left, right = _operands_for(op, m, n, cap)
                    yield entry.shape, m, n, _SHAPES[entry.shape](left, right, boolean, cap)
                except SubsetCapExceeded:
                    continue


def _registry_nfas():
    """The NFA of every NFA-shape registry entry at m, n = 3..4, but for
    the starred boolean products at (4,4), whose 31k to 49k subsets would
    take most of a second each."""
    for shape, m, n, built in _registry_built((3, 4)):
        if isinstance(built, EpsNfa) and not (shape == "boolean_star" and m == n == 4):
            yield built


def test_reverse_accepts_exactly_the_reversed_words(simulate):
    words = [w for length in range(7)
             for w in itertools.product(("a", "b"), repeat=length)]
    for nfa in _seed_nfas():
        rev = nfa.reverse()
        assert [simulate(rev, w) for w in words] == [
            simulate(nfa, w[::-1]) for w in words]
        assert rev.reverse() == nfa


def _assert_key_walk_matches(nfa, limit, reference):
    """The key walk's first `limit` masks, the first subsets of the
    reversed NFA's subset DFA, are the reference's masks in its order.

    The walk keeps the empty mask as the dead subset, which the reference
    skips, so it is dropped from all but the first place."""
    masks = MINIMIZE._subset_walk(nfa.reverse(), limit)[0][:limit]
    nonempty = masks[:1] + [mask for mask in masks[1:] if mask]
    assert nonempty == reference[:len(nonempty)]
    assert len(masks) == min(limit, len(reference) + (0 in masks[1:]))


def test_subset_walk_stops_right_after_subset_number_limit():
    # a walk whose limit is below the subset count holds exactly limit + 1
    # masks, the full walk's first ones, the last just discovered; any
    # other walk holds them all
    for nfa in _seed_nfas():
        full = MINIMIZE._subset_walk(nfa, DEFAULT_SUBSET_CAP)
        masks = full[0]
        for limit in range(1, len(masks) + 2):
            walk = MINIMIZE._subset_walk(nfa, limit)
            if limit < len(masks):
                assert walk[0] == masks[:limit + 1]
            else:
                assert walk == full


def test_reverse_masks_match_words_run_from_each_state():
    # each mask is the set of states accepting its word, R_ε first, in the
    # order of a breadth-first walk that skips masks already found
    for nfa in _seed_nfas():
        reference = _reference_reverse_masks(nfa, 10_000)
        for limit in (1, 2, 5, 10_000):
            _assert_key_walk_matches(nfa, limit, reference)
    for nfa in _registry_nfas():
        _assert_key_walk_matches(nfa, 40, _reference_reverse_masks(nfa, 40))


def _assert_keys_seed_minimize(dfa, keys):
    trans = [dfa.delta[x] for x in dfa.alphabet]
    final = [s in dfa.finals for s in range(dfa.size)]
    blocks = _moore_blocks(trans, final)
    # one key per Nerode block, and bit 0 is finality
    assert len(keys) == dfa.size
    assert len(set(zip(blocks, keys))) == len(set(blocks))
    assert [bool(key & 1) for key in keys] == final
    refine = MINIMIZE._moore_rounds
    assert refine(trans, iter(keys)) == refine(trans, final)


def test_subset_keys_seed_moore_within_nerode_blocks():
    for nfa in _seed_nfas():
        sd = determinize(nfa)
        for limit in (2, 6, 512):
            _assert_keys_seed_minimize(sd.dfa, list(sd._keys(limit)))
    for nfa in _registry_nfas():
        sd = determinize(nfa)
        if sd.dfa.size >= 128:
            limit = min(sd.dfa.size // 16, 512)
            _assert_keys_seed_minimize(sd.dfa, list(sd._keys(limit)))
        assert minimize(sd) == minimize(sd.dfa)


def test_subset_keys_are_drawn_inside_minimize(monkeypatch, witness):
    # minimize draws keys from a subset DFA of 128 states or more, and the
    # reverse walk runs at the first key the rounds draw, so a traced
    # minimize span holds it; a plain DFA or a smaller subset DFA gets none
    small = determinize(star_nfa(witness("U", 4)))
    sd = determinize(star_nfa(witness("U", 8)))
    assert small.dfa.size < 128 <= sd.dfa.size
    walks = []
    walk = MINIMIZE._subset_walk
    monkeypatch.setattr(MINIMIZE, "_subset_walk",
                        lambda nfa, limit: walks.append(limit) or walk(nfa, limit))
    refine = MINIMIZE._moore_rounds
    drawn = []

    def rounds(trans, labels):
        # keys come from the generator _keys; finality is a map
        drawn.append((inspect.isgenerator(labels), len(walks)))
        return refine(trans, labels)

    monkeypatch.setattr(MINIMIZE, "_moore_rounds", rounds)
    assert minimize(small) == minimize(small.dfa)
    assert minimize(sd) == minimize(sd.dfa)
    assert drawn == [(False, 0), (False, 0), (True, 0), (False, 1)]
    assert walks == [4 * (sd.dfa.size // 16)]


class _CountingFinals(frozenset):
    """A set of final states that counts its membership lookups."""

    lookups = 0

    def __contains__(self, s):
        self.lookups += 1
        return super().__contains__(s)


def test_keyed_minimize_looks_up_no_finality():
    # a keyed refinement starts from the keys alone, so minimize builds no
    # list of finality flags: star n=9 (384 states) and K*∪L* (5,5) (530
    # states) are keyed and minimal, so each is returned as it is
    for op, m, n, size in (("star", None, 9, 384), ("K*∪L*", 5, 5, 530)):
        built = _construction(op, m, n)
        finals = _CountingFinals(built.dfa.finals)
        dfa = replace(built.dfa, finals=finals)
        built = (replace(built, dfa=dfa) if isinstance(built, SubsetDfa)
                 else built._replace(dfa=dfa))
        assert dfa.size == size
        assert minimize(built) is dfa
        assert finals.lookups == 0


def test_subset_keys_of_kstar_l_are_its_nerode_classes():
    # half the key bits go to the reverse subsets of fewest states, nearer
    # to atoms: K*L (7,6) has 4,994 subsets in 4,993 Nerode classes, and
    # its keys alone give all of them
    sd = _construction("K*L", 7, 6)
    keys = list(sd._keys(min(sd.dfa.size // 16, 512)))
    assert (sd.dfa.size, len(set(keys))) == (4994, 4993)
    assert minimize(sd).size == 4993


def test_subset_keys_bit_0_is_finality_on_the_registry():
    # R_ε is always the first mask, whichever masks the other bits take
    drawn = 0
    for _, _, _, built in _registry_built((3, 4)):
        if isinstance(built, EpsNfa):
            sd = determinize(built)
            if sd.dfa.size >= 128:
                keys = sd._keys(min(sd.dfa.size // 16, 512))
                assert [key & 1 for key in keys] == [
                    s in sd.dfa.finals for s in range(sd.dfa.size)]
                drawn += 1
    assert drawn


def test_keys_follow_a_renumbering_of_the_states(witness):
    # the rounds read labels in the DFA's own state order
    sd = determinize(star_nfa(witness("U", 8)))
    keys = list(sd._keys(sd.dfa.size // 16))
    perm = list(range(sd.dfa.size))
    random.Random(4).shuffle(perm)
    shuffled = relabel_states(sd.dfa, perm)
    relabelled = [0] * len(keys)
    for s, key in enumerate(keys):
        relabelled[perm[s]] = key
    trans = [shuffled.delta[x] for x in shuffled.alphabet]
    final = [s in shuffled.finals for s in range(shuffled.size)]
    refine = MINIMIZE._moore_rounds
    assert refine(trans, relabelled) == refine(trans, final)


class _CountingColumn(list):
    """A transition column that records each state looked up in it and
    each time it is read through whole."""

    def __init__(self, image):
        super().__init__(image)
        self.looked_up = []
        self.scans = 0

    def __getitem__(self, s):
        self.looked_up.append(s)
        return super().__getitem__(s)

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def _assert_restricted_rounds(d, keys):
    """Moore's rounds from `keys` give d's reference blocks, and read the
    columns only as restricted rounds should: a state whose key no other
    state shares is never looked up, and as each rebuild of the active
    list (its states looked up in ascending order) at least halves it, all
    of them look up fewer than twice the states that share a key. Returns
    (rebuilds, whole-column scans)."""
    final = [s in d.finals for s in range(d.size)]
    trans = [_CountingColumn(d.delta[x]) for x in d.alphabet]
    blocks = MINIMIZE._moore_rounds(trans, iter(keys))
    assert blocks == _moore_blocks([d.delta[x] for x in d.alphabet], final)
    sharing = collections.Counter(keys)
    shared = {s for s, key in enumerate(keys) if sharing[key] > 1}
    looked_up = trans[0].looked_up
    assert set(looked_up) <= shared
    assert len(looked_up) < 2 * len(shared) or not shared
    rebuilds = sum(map(operator.le, looked_up, [d.size] + looked_up))
    return rebuilds, trans[0].scans


def _random_with_tail(rng, size, tail):
    """A random DFA on states 0..size-1 whose edges may also enter a tail
    size, ..., size+tail-1, where a steps on (the last state is the only
    final one and loops) and b stays: tail states are told apart by their
    distance to the end, so Moore's rounds split the tail one state a round."""
    n = size + tail
    a = [rng.randrange(n) for _ in range(size)]
    a += [min(s + 1, n - 1) for s in range(size, n)]
    b = [rng.randrange(n) for _ in range(size)] + list(range(size, n))
    delta = {"a": tuple(a), "b": tuple(b)}
    return Dfa(n, ("a", "b"), delta, 0, frozenset((n - 1,)))


def test_restricted_rounds_match_moore_from_keys():
    # rounds that sign only the states of non-singleton blocks reach
    # Moore's blocks from keys that leave a few, many or no blocks to split;
    # the last draws' tails need rounds far past 2·bit_length(n)
    rebuilds, deep = [], []
    rng = random.Random(23)
    for tails in [(0, 12)] * 30 + [(40, 200)] * 6:
        size = rng.randint(100, 1000)
        d = _random_with_tail(rng, size, rng.randint(*tails))
        final = [s in d.finals for s in range(d.size)]
        trans = [d.delta[x] for x in d.alphabet]
        nerode = _moore_blocks(trans, final)
        # a key may be any function of the Nerode block that keeps finality;
        # these show some blocks and lump the others, the tail's among them
        reveal = rng.choice((0.3, 0.7, 0.9, 1.0))
        shown = {b for b in nerode[:size] if rng.random() < reveal} - set(nerode[size:])
        spread = rng.choice((1, 2, 5))
        keys = [(f, b if b in shown else -1 - b % spread)
                for f, b in zip(final, nerode)]
        rebuilds.append(_assert_restricted_rounds(d, keys)[0])
        if tails[0]:
            deep.append(_moore_refinement(trans, keys)[1] - 2 * d.size.bit_length())
    assert max(rebuilds[:30]) >= 2
    # every long tail runs the rounds past the old cap, and some rebuild
    # the active list more than once
    assert min(deep) > 0 and max(rebuilds[30:]) >= 2
    # constructions with their own keys: refined over several rebuilds,
    # keys already final with blocks of two left to confirm, and keys all
    # distinct, where the rounds read no column at all
    runs = {}
    for op, m, n in (("K*\\L*", 5, 5), ("(KL)*", 5, 5), ("K*L*", 6, 5),
                     ("(K∩L)*-conjecture", 3, 3)):
        built = _construction(op, m, n)
        keys = list(built._keys(min(built.dfa.size // 16, 512)))
        final_keys = len(set(keys)) == minimize(built).size
        runs[op] = _assert_restricted_rounds(built.dfa, keys), final_keys
    assert runs["K*\\L*"][0][0] >= 2 and runs["(KL)*"][0][0] >= 1
    # (rebuilds, whole-column scans), keys final
    assert runs["K*L*"] == ((1, 0), True)
    assert runs["(K∩L)*-conjecture"] == ((0, 0), True)


# each op on two finality flags, written apart from BooleanOp.combine so
# that a wrong combine in the product's keys or finals shows
_PAIR_ACCEPTS = {
    BooleanOp.UNION: lambda a, b: a or b,
    BooleanOp.INTERSECTION: lambda a, b: a and b,
    BooleanOp.DIFFERENCE: lambda a, b: a and not b,
    BooleanOp.SYMDIFF: lambda a, b: a != b,
}


def test_product_keys_seed_moore_within_nerode_blocks(monkeypatch):
    # seeded random pairs with 128 or more reachable pairs, under every op:
    # the keys split no Nerode block, bit 0 is the pair's finality, and
    # minimize draws them and still gives the reference's minimal DFA
    from starbench.ops import ProductDfa

    drawn = []
    draw = ProductDfa._keys
    monkeypatch.setattr(ProductDfa, "_keys",
                        lambda prod, limit: drawn.append(limit) or draw(prod, limit))
    rng = random.Random(21)
    products = 0
    while products < 12:
        k = random_dfa(rng, rng.randint(10, 24))
        l = random_dfa(rng, rng.randint(10, 24))
        for op in BooleanOp:
            prod = product_dfa(k, l, op)
            if prod.dfa.size < 128:
                continue
            products += 1
            final = [bool(_PAIR_ACCEPTS[op](p in k.finals, q in l.finals))
                     for p, q in zip(*prod.pairs)]
            assert final == [s in prod.dfa.finals for s in range(prod.dfa.size)]
            for limit in (2, 9, prod.dfa.size // 16, 512):
                _assert_keys_seed_minimize(prod.dfa, list(prod._keys(limit)))
            drawn.clear()
            assert minimize(prod) == minimize_by(monkeypatch, _moore_blocks, prod.dfa)
            assert drawn == [min(prod.dfa.size // 16, 512)]


def _joint_vector_keys(prod, limit):
    """The product keys from a walk over joint vectors, one flag per
    operand state, left's then right's, each gathered whole for every
    vector and letter: the walk over pairs of operand vectors must give
    these keys bit for bit."""
    left, right, m = prod.left, prod.right, prod.left.size
    columns = [left.delta[x] + tuple(t + m for t in right.delta[x])
               for x in left.alphabet]
    start = tuple(s in d.finals for d in (left, right) for s in range(d.size))
    vectors, seen = [start], {start}
    for vector in vectors:  # grows as new vectors are found
        if len(vectors) >= limit:
            break
        for column in columns:
            found = tuple(vector[t] for t in column)
            if found not in seen:
                seen.add(found)
                vectors.append(found)
    accepts = _PAIR_ACCEPTS[prod.op]
    return [sum(1 << j for j, vector in enumerate(vectors[:limit])
                if accepts(vector[p], vector[m + q]))
            for p, q in zip(*prod.pairs)]


def test_product_keys_match_a_walk_over_joint_vectors(monkeypatch):
    # seeded random operands, one-state ones and ones with states no word
    # reaches among them, under every op; limits from 1 up stop the walk
    # at every point of a breadth-first level. Each operand gathers each
    # of its distinct vectors at most once per letter
    gathered = collections.Counter()
    real = OPS.itemgetter

    def counting(*items):
        gather = real(*items)

        def counted(vector):
            gathered[counted, vector] += 1
            return gather(vector)

        return counted

    monkeypatch.setattr(OPS, "itemgetter", counting)
    rng = random.Random(25)
    gathers = 0
    for trial in range(16):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        k = random_dfa(rng, rng.choice((1, rng.randint(2, 12))), alphabet)
        l = random_dfa(rng, rng.randint(1, 12), alphabet)
        if trial % 2:
            k, l = _with_unreachable(rng), _with_unreachable(rng)
        for op in BooleanOp:
            prod = product_dfa(k, l, op)
            for limit in (*range(1, 41), 512):
                gathered.clear()
                assert list(prod._keys(limit)) == _joint_vector_keys(prod, limit)
                assert set(gathered.values()) <= {1}
                gathers += len(gathered)
    assert gathers


def _reference_product(d1, d2, op):
    """The reachable product by a breadth-first search over (p, q) tuples,
    in alphabet order, finals from _PAIR_ACCEPTS."""
    index = {(d1.initial, d2.initial): 0}
    order = list(index)
    columns = {x: [] for x in d1.alphabet}
    for p, q in order:  # grows as new pairs are found
        for x in d1.alphabet:
            pair = (d1.delta[x][p], d2.delta[x][q])
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
            columns[x].append(index[pair])
    finals = frozenset(i for i, (p, q) in enumerate(order)
                       if _PAIR_ACCEPTS[op](p in d1.finals, q in d2.finals))
    delta = {x: tuple(col) for x, col in columns.items()}
    return Dfa(len(order), d1.alphabet, delta, 0, finals), order


def test_product_matches_a_tuple_pair_search():
    # the product keys its search by int pair codes; its DFA and pairs are
    # those of a search over tuples, on operands of unequal sizes too
    rng = random.Random(24)
    for _ in range(40):
        k = random_dfa(rng, rng.randint(1, 30), ("a", "b", "c"))
        l = random_dfa(rng, rng.randint(1, 30), ("a", "b", "c"))
        for op in BooleanOp:
            prod = product_dfa(k, l, op)
            dfa, order = _reference_product(k, l, op)
            assert prod.dfa == dfa
            assert (prod.left, prod.right, prod.op) == (k, l, op)
            assert list(map(list, prod.pairs)) == list(map(list, zip(*order)))
            assert [side.typecode for side in prod.pairs] == ["I", "I"]


def _quotient_numbered(d, block_of):
    """The quotient of d by the partition block_of, block b as state b,
    numbered by _bfs_numbering: the quotient's canonical form found by
    its own breadth-first walk."""
    size = max(block_of) + 1
    delta = {}
    for x, t in d.delta.items():
        row = [0] * size
        for s, b in enumerate(block_of):
            row[b] = block_of[t[s]]
        delta[x] = tuple(row)
    finals = frozenset(block_of[f] for f in d.finals)
    return MINIMIZE._bfs_numbering(
        Dfa(size, d.alphabet, delta, block_of[d.initial], finals))


def _registry_constructions(sizes, cap):
    """Per registry cell at m, n in sizes, the construction result that
    run_pipeline minimizes: a subset DFA, or the closing product; cells
    whose subsets pass `cap` are left out."""
    for _, _, _, built in _registry_built(sizes, cap):
        try:
            yield determinize(built, cap) if isinstance(built, EpsNfa) else built
        except SubsetCapExceeded:
            continue


def test_block_name_ranks_are_the_quotients_bfs_numbering():
    # a construction result is BFS-numbered with every state reachable, so
    # minimize numbers its quotient by the rank of the blocks' least
    # states; that is the numbering the quotient's own BFS gives it
    kinds = set()
    for built in _registry_constructions((3, 4, 5), cap=20_000):
        d = built.dfa
        kinds.add(type(built).__name__)
        assert MINIMIZE._bfs_numbering(d) is d
        trans = [d.delta[x] for x in d.alphabet]
        final = [s in d.finals for s in range(d.size)]
        assert minimize(built) == _quotient_numbered(d, _moore_blocks(trans, final))
    assert kinds == {"SubsetDfa", "ProductDfa"}
    # a plain DFA, unreachable states and all, minimizes to the BFS
    # numbering of its quotient over all its states
    rng = random.Random(22)
    unreachable = 0
    for _ in range(80):
        d = random_dfa(rng, rng.randint(2, 12))
        unreachable += MINIMIZE._bfs_numbering(d).size < d.size
        trans = [d.delta[x] for x in d.alphabet]
        final = [s in d.finals for s in range(d.size)]
        assert minimize(d) == _quotient_numbered(d, _moore_blocks(trans, final))
    assert unreachable >= 20
