import functools
import gc
import itertools
import random
import sys
import tracemalloc
import weakref

import pytest

from conftest import relabel_states
from starbench.bounds import TABLE
from starbench.core import Dfa
from starbench.minimize import DEFAULT_SUBSET_CAP, minimal_dfa, minimize
from starbench.ops import star_nfa
from starbench.oracle import SemanticOracle
from starbench.verify import (exhaustive_oracle, membership_oracle,
                              run_pipeline, _operands_for)


def test_epsilon_always_in_starred_side(witness, member):
    k = witness("U", 4)
    l = witness("U", 5, "bac")
    # the empty word is in L* by definition, so K union L* contains it
    assert member(SemanticOracle("K∪L*", k, l), ())
    # and K intersect L* contains it exactly when K does (it does not here)
    assert not member(SemanticOracle("K∩L*", k, l), ())
    assert member(SemanticOracle("K∩L*", witness("U0", 4), l), ())
    assert SemanticOracle("KuLs", k, l).op == "K∪L*"


def test_member_rejects_a_letter_outside_the_alphabet(witness, member):
    oracle = SemanticOracle("star", None, witness("U", 3))
    with pytest.raises(ValueError, match="unknown letter 'z'"):
        member(oracle, ("a", "z"))


def test_oracle_refuses_a_missing_left_operand(witness):
    with pytest.raises(ValueError,
                       match="operation product takes two operands"):
        SemanticOracle("product", None, witness("U", 3))


def test_oracle_refuses_a_left_operand_of_a_unary_operation(witness):
    u3 = witness("U", 3)
    with pytest.raises(ValueError, match="operation star takes one operand"):
        SemanticOracle("star", u3, u3)


def test_oracle_refuses_operands_over_two_alphabets(witness):
    # worded as the pipeline words it, which refuses the same pair
    left, right = witness("U", 3, "abcd"), witness("U", 3)
    with pytest.raises(ValueError) as pipeline:
        run_pipeline("product", left, right)
    with pytest.raises(ValueError, match="alphabet mismatch") as oracle:
        SemanticOracle("product", left, right)
    assert str(oracle.value) == str(pipeline.value)


def test_star_oracle_small_trace(witness, member):
    u3 = witness("U", 3)
    oracle = SemanticOracle("star", None, u3)
    assert member(oracle, ())
    assert member(oracle, ("a", "a"))          # one chunk
    assert member(oracle, ("a", "a", "a", "a"))  # aa twice
    assert not member(oracle, ("a",))


def test_concatenation_oracle_uses_split_points(witness, run, member):
    k = witness("U", 3)
    oracle = SemanticOracle("product", k, k)
    members = [w for length in range(7)
               for w in itertools.product(k.alphabet, repeat=length)
               if member(oracle, w)]
    # every member must split into two accepted halves
    for w in members[:50]:
        assert any(run(k, w[:i]) and run(k, w[i:]) for i in range(len(w) + 1))


@pytest.mark.parametrize("op", [op for op in TABLE if TABLE[op].status != "open"])
def test_oracle_agrees_with_pipeline_small(op, run, member):
    m = None if TABLE[op].arity == 1 else 3
    left, right = _operands_for(op, m, 3)
    final, _labels = run_pipeline(op, left, right)
    oracle = SemanticOracle(op, left, right)
    rng = random.Random(1)
    for _ in range(250):
        w = tuple(rng.choice(right.alphabet) for _ in range(rng.randint(0, 10)))
        assert member(oracle, w) == run(final, w), (op, w)


def _random_minimal(rng, size, alphabet):
    """A seeded random DFA over alphabet, minimized, drawn again until it
    has exactly `size` states."""
    while True:
        delta = {x: tuple(rng.randrange(size) for _ in range(size))
                 for x in alphabet}
        finals = frozenset(s for s in range(size) if rng.random() < 0.5)
        d = minimize(Dfa(size, alphabet, delta, 0, finals))
        if d.size == size:
            return d


@pytest.mark.parametrize("op", [op for op in TABLE if TABLE[op].formula])
def test_random_operands_stay_within_the_bound(op):
    # a bound holds for every operand pair, not just for its witnesses:
    # seeded random minimal operands of m and n states, m, n = 3..5, over
    # the entry's alphabet measure at most the formula, and the oracle
    # agrees with the pipeline on every word up to length 6. The KL* and
    # K*L* formulas hold only where L* ≠ L, so there L is drawn until it is.
    # The sizes with a 5 are drawn after the others, so those pairs do not
    # move, and a cell whose bound is over the subset cap is left out
    entry = TABLE[op]
    rng = random.Random(op)
    small = itertools.product(*([(3, 4)] * entry.arity))
    large = itertools.product(*([(3, 4, 5)] * entry.arity))
    cells = list(small) + [c for c in large if 5 in c]
    for *ms, n in cells:
        m = ms[0] if ms else None
        if entry.formula(m, n) > DEFAULT_SUBSET_CAP:
            continue
        alphabet = _operands_for(op, m, n)[1].alphabet
        left = None if m is None else _random_minimal(rng, m, alphabet)
        right = _random_minimal(rng, n, alphabet)
        while entry.shape in ("k_lstar", "kstar_lstar") and (
                minimal_dfa(star_nfa(right)) == right):
            right = _random_minimal(rng, n, alphabet)
        final, _ = run_pipeline(op, left, right)
        assert final.size <= entry.formula(m, n), (m, n, left, right)
        oracle = SemanticOracle(op, left, right)
        assert oracle.compare_all(final, 6)[1:] == (0, None), (m, n)


def test_membership_oracle_report_fields():
    report = membership_oracle("K*L", 4, 5, count=500, maxlen=12, seed=7)
    assert report.disagreements == 0
    assert report.example is None
    assert report.words == 500
    assert report.seed == 7


def test_sampled_oracle_refuses_a_seed_that_is_not_an_int():
    # a sampled report's seed draws its words again; None in a report
    # stands for exhaustive enumeration
    for seed in (None, 1.5, "7"):
        with pytest.raises(ValueError, match=f"int seed, got {seed!r}"):
            membership_oracle("star", None, 3, 5, 4, seed)


def test_membership_oracle_is_seed_deterministic():
    a = membership_oracle("KL*", 3, 4, count=100, maxlen=9, seed=42)
    b = membership_oracle("KL*", 3, 4, count=100, maxlen=9, seed=42)
    assert a == b


def test_open_operation_oracle_runs():
    report = membership_oracle("(K⊕L)*-open", 3, 3, count=150, maxlen=8, seed=5)
    assert report.disagreements == 0


# -- a brute-force reference for every shape --------------------------------
# Membership straight from the definitions: the `run` fixture on slices of the word,
# with the star and concatenation recursions memoised by start index. It
# shares no code with starbench.oracle.

_BOOL = {
    "union": lambda a, b: a or b,
    "intersection": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
    "symmetric-difference": lambda a, b: a != b,
}


def _reference(shape, boolean, k, l, run):
    """member(word) for one registry shape over operands k (or None), l,
    read through the DFA reference `run`."""
    combine = _BOOL.get(boolean)
    # one run per operand and distinct slice, shared by all words
    k_run = functools.cache(functools.partial(run, k)) if k is not None else None
    l_run = functools.cache(functools.partial(run, l))

    def member(word):
        w = tuple(word)
        n = len(w)

        def on_slices(run):
            return lambda i, j: run(w[i:j])

        in_k, in_l = on_slices(k_run), on_slices(l_run)

        def star_then(chunk, tail):
            """i -> whether w[i:] is in chunk* followed by tail."""
            memo = {}

            def go(i):
                if i not in memo:
                    memo[i] = tail(i) or any(chunk(i, j) and go(j)
                                             for j in range(i + 1, n + 1))
                return memo[i]
            return go

        def ends(i):
            return i == n

        if shape == "star":
            return star_then(in_l, ends)(0)
        if shape == "reversal":
            return run(l, w[::-1])
        if shape == "product":
            return any(in_k(0, j) and in_l(j, n) for j in range(n + 1))
        if shape == "k_lstar":
            lstar = star_then(in_l, ends)
            return any(in_k(0, j) and lstar(j) for j in range(n + 1))
        if shape == "kstar_l":
            return star_then(in_k, lambda i: in_l(i, n))(0)
        if shape == "kstar_lstar":
            return star_then(in_k, star_then(in_l, ends))(0)
        if shape == "product_star":
            def kl(i, h):
                return any(in_k(i, j) and in_l(j, h) for j in range(i, h + 1))
            return star_then(kl, ends)(0)
        if shape == "boolean":
            return combine(in_k(0, n), in_l(0, n))
        if shape == "k_circ_lstar":
            return combine(in_k(0, n), star_then(in_l, ends)(0))
        if shape == "lstar_circ_k":
            return combine(star_then(in_l, ends)(0), in_k(0, n))
        if shape == "kstar_circ_lstar":
            return combine(star_then(in_k, ends)(0), star_then(in_l, ends)(0))
        if shape in ("boolean_star", "union_star"):
            def chunk(i, j):
                return combine(in_k(i, j), in_l(i, j))
            return star_then(chunk, ends)(0)
        raise AssertionError(f"no reference for shape {shape}")

    return member


def _trie_dfa(alphabet, maxlen, members):
    """The DFA accepting exactly the listed members among the words up to
    maxlen: state i is the i-th word in shortlex order, plus a sink."""
    k = len(alphabet)
    words = sum(k ** length for length in range(maxlen + 1))
    inner = words - k ** maxlen  # words that are shorter than maxlen
    delta = {x: tuple(s * k + li + 1 if s < inner else words
                      for s in range(words)) + (words,)
             for li, x in enumerate(alphabet)}
    finals = frozenset(i for i, m in enumerate(members) if m)
    return Dfa(words + 1, alphabet, delta, 0, finals)


def _shortlex(alphabet, maxlen):
    """Every word over alphabet of length up to maxlen, in shortlex order."""
    return [w for k in range(maxlen + 1)
            for w in itertools.product(alphabet, repeat=k)]


def _check_against_reference(op, left, right, maxlen, run, member):
    shape, boolean = TABLE[op].shape, TABLE[op].boolean
    reference = _reference(shape, boolean, left, right, run)
    oracle = SemanticOracle(op, left, right)
    words = _shortlex(right.alphabet, maxlen)
    members = [reference(w) for w in words]
    assert [member(oracle, w) for w in words] == members, op
    # the trie walk against a DFA of exactly the reference's members must
    # see every word and agree on each
    trie = _trie_dfa(right.alphabet, maxlen, members)
    assert oracle.compare_all(trie, maxlen) == (len(words), 0, None), op
    # and so must the whole-word fold, the empty word among them
    indices = [tuple(map(right.alphabet.index, w)) for w in words]
    assert oracle.compare(trie, indices) == (len(words), 0, None), op


def test_reference_covers_every_shape():
    reference_shapes = {"star", "reversal", "product", "k_lstar", "kstar_l",
                        "kstar_lstar", "product_star", "boolean",
                        "k_circ_lstar", "lstar_circ_k", "kstar_circ_lstar",
                        "boolean_star", "union_star"}
    assert {e.shape for e in TABLE.values()} == reference_shapes


@pytest.mark.parametrize("op", list(TABLE))
def test_oracle_matches_reference_on_every_short_word(op, run, member):
    left, right = _operands_for(op, None if TABLE[op].arity == 1 else 3, 3)
    _check_against_reference(op, left, right, 6, run, member)


def test_oracle_matches_reference_on_long_random_words(run, member):
    rng = random.Random(4520)
    for op, entry in TABLE.items():
        left, right = _operands_for(op, None if entry.arity == 1 else 4, 5)
        reference = _reference(entry.shape, entry.boolean, left, right, run)
        oracle = SemanticOracle(op, left, right)
        for _ in range(300):
            w = tuple(rng.choice(right.alphabet)
                      for _ in range(rng.randint(0, 20)))
            assert member(oracle, w) == reference(w), (op, w)


@pytest.mark.parametrize("op", ["K*∪L*", "K*∩L*", "K*\\L*", "K*⊕L*"])
@pytest.mark.parametrize("pair", [({0}, {0}), ({0}, {2}), ({2}, {0})])
def test_dialect_stars_with_the_empty_word(monkeypatch, witness, op, pair,
                                           run, member):
    # pair holds the operands' finals; a {0}-final W holds the empty word and
    # is closed under concatenation, so its literal star is itself
    left = witness("W", 3).with_finals(pair[0])
    right = witness("W", 3, "dcba").with_finals(pair[1])
    _check_against_reference(op, left, right, 5, run, member)
    oracle = SemanticOracle(op, left, right)
    final, _ = run_pipeline(op, left, right)
    assert oracle.compare_all(final, 6) == (5461, 0, None)

    # the mutant: star each operand as its {n-1}-final base with the
    # operand's own finals kept, in the pipeline alone
    from dataclasses import replace

    from starbench import verify
    from starbench.minimize import minimal_dfa
    from starbench.ops import product_dfa, star_nfa

    def base_star(d):
        return replace(star_nfa(d.with_finals({d.size - 1})),
                       finals=sum(1 << f for f in d.finals | {d.size}))

    monkeypatch.setitem(verify._SHAPES, "kstar_circ_lstar",
                        lambda k, l, b, cap: product_dfa(
                            minimal_dfa(base_star(k), cap),
                            minimal_dfa(base_star(l), cap), b))
    final, _ = run_pipeline(op, left, right)
    assert oracle.compare_all(final, 6)[1] > 0


@pytest.mark.parametrize("pair", [("U0", "U"), ("U", "U0"),
                                  ("U0", "U0")])
def test_product_star_with_the_empty_word(witness, pair, run, member):
    left, right = witness(pair[0], 3), witness(pair[1], 3, "bac")
    _check_against_reference("(KL)*", left, right, 6, run, member)
    final, _ = run_pipeline("(KL)*", left, right)
    oracle = SemanticOracle("(KL)*", left, right)
    assert oracle.compare_all(final, 6)[1:] == (0, None)


def _edge_operands():
    """Operands at the edges of the compiled steps and word fold, over
    letters that would break their source if a letter ever reached it: one
    state accepting every word or none, and three states with a final
    state and without."""
    alphabet = ("(", ")", "'", "{")
    everything = Dfa(1, alphabet, {x: (0,) for x in alphabet}, 0,
                     frozenset({0}))
    three = Dfa(3, alphabet, {"(": (1, 2, 0), ")": (0, 0, 2),
                              "'": (2, 1, 1), "{": (0, 2, 1)},
                0, frozenset({2}))
    return everything, everything.with_finals(()), three.with_finals(()), three


@pytest.mark.parametrize("op", list({e.shape: op
                                     for op, e in TABLE.items()}.values()))
def test_oracle_matches_reference_on_edge_operands(op, run, member):
    *edges, three = _edge_operands()
    if TABLE[op].arity == 1:
        pairs = [(None, d) for d in (*edges, three)]
    else:
        pairs = [(e, three) for e in edges] + [(three, e) for e in edges]
    for left, right in pairs:
        _check_against_reference(op, left, right, 4, run, member)


def test_compiled_steps_are_freed_with_their_oracle():
    left, right = _operands_for("K*L", 4, 5)
    oracle = SemanticOracle("K*L", left, right)
    assert oracle.walk is None  # compiled by the first compare
    oracle.compare(right, [(0, 1)])
    compiled = [weakref.ref(f) for f in (*oracle.steps, oracle.walk)]
    del oracle
    gc.collect()
    assert [f() for f in compiled] == [None] * len(compiled)


@pytest.mark.parametrize("op", ["K*∪L*", "star"])
def test_nodes_are_one_flat_tuple_of_ints(op):
    # (member, left masks, right masks, a, b), with no left masks for a
    # unary operation, at the start and one letter on
    left, right = _operands_for(op, None if TABLE[op].arity == 1 else 3, 3)
    oracle = SemanticOracle(op, left, right)
    size = 3 + right.size + (0 if left is None else left.size)
    for node in (oracle.start,
                 *(step(oracle.start, 2) for step in oracle.steps)):
        assert len(node) == size, node
        assert all(isinstance(field, int) for field in node[1:]), node


def test_building_an_oracle_and_walking_its_words_stays_small():
    # the whole-word fold is compiled by compare alone, each letter's step
    # from its own source, and compare_all's member-only call from two,
    # the fragment's and the call's. On Python 3.11 this peaks at 54 KB;
    # with the fold compiled as well it peaks at 111 KB, and with the
    # member-only call from one source at 69 KB
    left, right = _operands_for("K*⊕L*", 4, 5)
    final, _ = run_pipeline("K*⊕L*", left, right)
    tracemalloc.start()
    try:
        oracle = SemanticOracle("K*⊕L*", left, right)
        checked, _, _ = oracle.compare_all(final, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracle.walk is None
    assert checked == sum(len(right.alphabet) ** k for k in range(5))
    assert peak < 96 << 10, peak


@pytest.mark.parametrize("op", ["K*L", "(KL)*", "K∪L*", "(K∩L)*-conjecture",
                                "KdLs"])
def test_forced_mismatch_matches_a_per_word_loop(monkeypatch, op, run, member):
    from starbench import verify

    def flipped(op, left, right, cap=None):
        final, sd = real(op, left, right)
        return _flipped(final), sd

    real = verify.run_pipeline
    monkeypatch.setattr(verify, "run_pipeline", flipped)
    report = verify.exhaustive_oracle(op, 3, 3, maxlen=6)
    left, right = _operands_for(op, 3, 3)
    final, _ = flipped(op, left, right)
    oracle = SemanticOracle(op, left, right)
    wrong = [w for w in _shortlex(right.alphabet, 6)
             if run(final, w) != member(oracle, w)]
    assert wrong
    assert report.words == sum(len(right.alphabet) ** k for k in range(7))
    assert report.disagreements == len(wrong)
    assert report.example == wrong[0]
    sampled = verify.membership_oracle(op, 3, 3, count=400, maxlen=8, seed=3)
    words = verify._sampled_words(right.alphabet, 400, 8, 3)
    wrong = [w for w in words if run(final, w) != member(oracle, w)]
    assert sampled.disagreements == len(wrong)
    assert sampled.example == (wrong[0] if wrong else None)


def _flipped(final):
    """The pipeline DFA with the state that the alphabet, read backwards,
    reaches moved into or out of the final set."""
    state = final.initial
    for x in reversed(final.alphabet):
        state = final.delta[x][state]
    return final.with_finals(final.finals ^ {state})


def _renumbered(dfa, seed):
    """dfa with its states renumbered by a seeded random permutation."""
    return relabel_states(dfa, random.Random(seed).sample(range(dfa.size),
                                                          dfa.size))


def _compiled_members(oracle):
    """oracle's member-only function, which its first compare_all compiles;
    a walk up to length 0 checks the empty word alone."""
    oracle.compare_all(_trie_dfa(oracle.alphabet, 0, [True]), 0)
    return oracle.members


def _counted(oracle):
    """oracle with its steps and its member-only function wrapped to count
    their calls, and the counts: a list of the number of steps taken so
    far and the number of member-only calls."""
    calls = [0, 0]

    def counted(real, i):
        def call(node, bit):
            calls[i] += 1
            return real(node, bit)
        return call

    oracle.members = counted(_compiled_members(oracle), 1)
    oracle.steps = [counted(step, 0) for step in oracle.steps]
    return calls


@pytest.mark.parametrize("seed", [1, 50, 1024, 1 << 30])
@pytest.mark.parametrize("op", ["K*∪L*", "(KL)*", "K∪L*", "star"])
def test_merged_walk_matches_a_per_word_loop(op, seed, run, member):
    # against the pipeline DFA and a flipped copy, many words of one length
    # reach the same (node, state) key, so the merge is exercised; the trie
    # DFA of _check_against_reference gives every word its own key. The
    # seed renumbers the pipeline DFA's states, which the walk's keys hold,
    # so its result must not depend on that numbering
    left, right = _operands_for(op, None if TABLE[op].arity == 1 else 3, 3)
    final = _renumbered(run_pipeline(op, left, right)[0], seed)
    oracle = SemanticOracle(op, left, right)
    words = _shortlex(right.alphabet, 7)
    members = [member(oracle, w) for w in words]
    steps = _counted(oracle)
    for dfa in (final, _flipped(final)):
        for maxlen in range(8):
            wrong = [w for w, member in zip(words, members)
                     if len(w) <= maxlen and run(dfa, w) != member]
            checked = sum(len(w) <= maxlen for w in words)
            steps[0] = 0
            assert oracle.compare_all(dfa, maxlen) == (
                checked, len(wrong), wrong[0] if wrong else None), (dfa, maxlen)
        # fewer steps than a per-word walk's one per word but the empty one
        assert steps[0] < len(words) - 1
    assert wrong  # the flipped DFA disagrees, so the example is compared


def test_merged_walk_memory_stays_bounded():
    # the walk holds one merged length and the next, and the last two
    # lengths, which hold most words, are checked from their grandparent's
    # key and never stored. On Python 3.11 this peaks at 536 KB; storing
    # every length up to maxlen peaks at 1,945 KB
    left, right = _operands_for("K*∪L*", 3, 3)
    final, _ = run_pipeline("K*∪L*", left, right)
    oracle = SemanticOracle("K*∪L*", left, right)
    tracemalloc.start()
    try:
        checked, _, _ = oracle.compare_all(final, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == sum(len(right.alphabet) ** k for k in range(9))
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("seed", [1, 50, 1024])
@pytest.mark.parametrize("op", ["K*∪L*", "K∪L*", "star"])
def test_walk_with_every_disagreement_at_maxlen(op, seed, run, member):
    # maxlen is the length of the flipped DFA's shortest disagreeing word,
    # so every disagreement is a leaf, checked from its grandparent's key,
    # whatever the numbering of the pipeline DFA's states
    left, right = _operands_for(op, None if TABLE[op].arity == 1 else 3, 3)
    final = _renumbered(run_pipeline(op, left, right)[0], seed)
    flipped = _flipped(final)
    oracle = SemanticOracle(op, left, right)
    maxlen = next(len(w) for w in _shortlex(right.alphabet, 8)
                  if run(flipped, w) != member(oracle, w))
    words = _shortlex(right.alphabet, maxlen)
    wrong = [w for w in words if run(flipped, w) != member(oracle, w)]
    assert len(wrong) > 1 and {len(w) for w in wrong} == {maxlen}
    assert oracle.compare_all(flipped, maxlen) == (len(words), len(wrong),
                                                   wrong[0])


@pytest.mark.parametrize("op", list(TABLE))
def test_member_only_calls_agree_with_the_steps(op):
    # bit li of the member-only result is the membership that letter li's
    # step makes, on every node reached up to length 5: every shape's
    # fragment, combine's columns and reversal's bool column among them
    left, right = _operands_for(op, None if TABLE[op].arity == 1 else 3, 3)
    oracle = SemanticOracle(op, left, right)
    members = _compiled_members(oracle)
    nodes = {oracle.start}
    for length in range(6):
        bit = 2 << length
        below = set()
        for node in nodes:
            children = [step(node, bit) for step in oracle.steps]
            assert members(node, bit) == sum(
                bool(child[0]) << li for li, child in enumerate(children)), (
                    length, node)
            below.update(children)
        nodes = below


def test_last_length_takes_one_member_only_call_per_key():
    # K*∪L* (3,3) at maxlen 8: length 6, the last merged one, holds 1,203
    # keys, and each of their |Σ| children at length 7 is checked one
    # letter on by one member-only call; a step per word of length 8, as
    # the walk once took, makes 26,004 steps
    left, right = _operands_for("K*∪L*", 3, 3)
    final, _ = run_pipeline("K*∪L*", left, right)
    oracle = SemanticOracle("K*∪L*", left, right)
    calls = _counted(oracle)
    letters = len(right.alphabet)
    assert oracle.compare_all(final, 8) == (
        sum(letters**k for k in range(9)), 0, None)
    assert calls[1] == 1203 * letters
    assert calls[0] <= 6756, calls


def test_walk_deeper_than_the_recursion_limit():
    # reversal's node is a tuple of |Q| bools, so a length holds at most
    # 2^|Q| keys: a walk far deeper than the interpreter's recursion limit
    # stays cheap, and must finish
    maxlen = sys.getrecursionlimit() + 500
    report = exhaustive_oracle("reversal", None, 3, maxlen)
    assert report.disagreements == 0
    assert report.words == sum(3**k for k in range(maxlen + 1))


def test_walk_is_linear_in_maxlen_when_lengths_hold_many_keys():
    # at n = 9 a length holds up to 2^9 keys, so a walk that merges each
    # length once takes at most |Σ|·2^9 steps per length; one that merges
    # only part of a length can grow exponentially with maxlen
    left, right = _operands_for("reversal", None, 9)
    final, _ = run_pipeline("reversal", left, right)
    oracle = SemanticOracle("reversal", left, right)
    steps = _counted(oracle)
    letters = len(right.alphabet)
    assert oracle.compare_all(final, 40) == (
        (letters**41 - 1) // (letters - 1), 0, None)
    assert steps[0] <= letters * 2**9 * 40, steps[0]


def test_exhaustive_word_count_is_the_sum_of_powers():
    from starbench import verify

    cells = {}
    for op, entry in TABLE.items():
        m = None if entry.arity == 1 else 3
        cells.setdefault(len(_operands_for(op, m, 3)[1].alphabet), (op, m))
    assert min(cells) >= 2
    for letters, (op, m) in cells.items():
        for maxlen in range(13):
            assert verify.exhaustive_word_count(op, m, 3, maxlen) == sum(
                letters**k for k in range(maxlen + 1)), (op, maxlen)
    # in closed form, so a long maxlen costs no more than a short one
    assert verify.exhaustive_word_count("reversal", None, 3, 60000) == (
        3**60001 - 1) // 2


def test_compare_takes_letter_indices_and_returns_letters(run, member):
    left, right = _operands_for("K*L", 3, 3)
    final, _ = run_pipeline("K*L", left, right)
    flipped = _flipped(final)
    oracle = SemanticOracle("K*L", left, right)
    words = _shortlex(right.alphabet, len(right.alphabet))
    wrong = [w for w in words if run(flipped, w) != member(oracle, w)]
    indices = [tuple(map(right.alphabet.index, w)) for w in words]
    assert wrong and all(isinstance(x, str) for x in wrong[0])
    assert oracle.compare(flipped, indices) == (len(words), len(wrong),
                                                wrong[0])


def _choice_words(alphabet, count, maxlen, seed):
    """The sampler as rng.choice spells it."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.choice(alphabet) for _ in range(rng.randint(0, maxlen)))


@pytest.mark.parametrize("maxlen", [0, 1, 12, 64])
@pytest.mark.parametrize("size", range(1, 7))
def test_sampled_words_are_the_words_rng_choice_draws(size, maxlen):
    # README promises the words of random.Random(seed): randint(0, maxlen)
    # for the length, then choice per letter
    from starbench import verify

    alphabet = tuple("abcdef"[:size])
    for seed in (*range(5), 20240, 1 << 40):
        assert (list(verify._sampled_words(alphabet, 50, maxlen, seed))
                == list(_choice_words(alphabet, 50, maxlen, seed))), seed


def test_sampled_words_are_pinned():
    from starbench import verify

    assert list(verify._sampled_words(("a", "b", "c"), 6, 5, 1)) == [
        tuple(w) for w in ["c", "", "ab", "bcb", "a", "abb"]]
