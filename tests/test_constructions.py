import itertools
import random

import pytest

from starbench.core import Dfa
from starbench.minimize import minimal_dfa, minimize
from starbench.ops import (
    BooleanOp,
    concat_nfa,
    dfa_to_nfa,
    product_dfa,
    reverse_nfa,
    star_eps_nfa,
    star_nfa,
)
from starbench.oracle import SemanticOracle


def random_words(alphabet, count, maxlen, seed):
    rng = random.Random(seed)
    return [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(0, maxlen)))
        for _ in range(count)
    ]


def test_dfa_to_nfa_embedding(witness, simulate, run):
    u3 = witness("U", 3)
    nfa = dfa_to_nfa(u3)
    assert nfa.size == 3
    assert nfa.initials == 1 << 0
    assert nfa.finals == 1 << 2
    assert not any(nfa.epsilon)
    for length in range(9):
        for w in itertools.product(u3.alphabet, repeat=length):
            assert simulate(nfa, w) == run(u3, w)


def test_star_nfa_shape(witness, simulate):
    # star of U_5(b,a,c): six states, the new state is sole initial and final
    # together with the old final, and copies state 0's rows
    d = witness("U", 5, "bac")
    nfa = star_nfa(d)
    assert nfa.size == 6
    assert nfa.initials == 1 << 5
    assert nfa.finals == 1 << 4 | 1 << 5
    for x in d.alphabet:
        assert nfa.moves[x][5] == 1 << d.delta[x][0]
    assert nfa.epsilon == (0, 0, 0, 0, 1 << 0, 0)
    assert simulate(nfa, ())  # the empty word is always in L*


def test_star_membership_against_dp_oracle(witness, simulate, member):
    # independent split-point DP vs direct NFA simulation
    d = witness("U", 4)
    nfa = star_nfa(d)
    oracle = SemanticOracle("star", None, d)
    for w in random_words(d.alphabet, 500, 12, seed=7):
        assert simulate(nfa, w) == member(oracle, w)


def test_concat_nfa_wiring(witness):
    left = dfa_to_nfa(witness("T", 4))
    right = star_nfa(witness("T", 5, "bac"))
    nfa = concat_nfa(left, right)
    assert nfa.size == 10
    assert nfa.initials == 1 << 0
    assert nfa.finals == 1 << 8 | 1 << 9  # star's finals shifted by 4
    assert nfa.epsilon[3] == 1 << 9  # left final to right initial s
    assert nfa.epsilon[8] == 1 << 4  # star loop-back, shifted


def test_concat_with_epsilon_language_is_identity(witness, simulate, run):
    d = witness("U", 3)
    # two-state DFA for {empty word}: initial final, everything to a sink
    t = {x: (1, 1) for x in d.alphabet}
    eps_dfa = Dfa(2, d.alphabet, t, 0, frozenset((0,)))
    nfa = concat_nfa(dfa_to_nfa(d), dfa_to_nfa(eps_dfa))
    for length in range(8):
        for w in itertools.product(d.alphabet, repeat=length):
            assert simulate(nfa, w) == run(d, w)


def test_concat_membership_against_dp_oracle(witness, simulate, member):
    k = witness("U", 3)
    l = witness("U", 4)
    nfa = concat_nfa(dfa_to_nfa(k), dfa_to_nfa(l))
    oracle = SemanticOracle("product", k, l)
    for w in random_words(k.alphabet, 500, 12, seed=13):
        assert simulate(nfa, w) == member(oracle, w)


def test_concat_alphabet_mismatch(witness):
    with pytest.raises(ValueError):
        concat_nfa(dfa_to_nfa(witness("U", 3)), dfa_to_nfa(witness("W", 3)))


def test_reverse_nfa_shape(witness):
    u3 = witness("U", 3)
    rev = reverse_nfa(u3)
    assert rev.initials == 1 << 2
    assert rev.finals == 1 << 0


def test_reverse_nfa_flips_the_dfa_embedding(every_family):
    from starbench.witnesses import WitnessSpec, build

    for family, order in every_family:
        for n in (3, 4, 5):
            d = build(WitnessSpec(family, n, order))
            rev = reverse_nfa(d)
            assert rev == dfa_to_nfa(d).reverse()
            moves = {x: [0] * d.size for x in d.alphabet}
            for x, t in d.delta.items():
                for s, target in enumerate(t):
                    moves[x][target] |= 1 << s
            assert rev.moves == {x: tuple(row) for x, row in moves.items()}
            assert (rev.epsilon, rev.initials, rev.finals) == (
                (0,) * d.size, sum(1 << f for f in d.finals), 1 << d.initial)


def test_reverse_of_reversal_closed_language(simulate, run):
    # even number of a's over {a,b}: closed under reversal
    t = {"a": (1, 0), "b": (0, 1)}
    d = Dfa(2, ("a", "b"), t, 0, frozenset((0,)))
    rev = reverse_nfa(d)
    for length in range(9):
        for w in itertools.product(d.alphabet, repeat=length):
            assert simulate(rev, w) == run(d, w)


def test_reverse_twice_is_equivalent(witness, distinguishing_word):
    d = witness("U", 4)
    once = minimal_dfa(reverse_nfa(d))
    twice = minimal_dfa(reverse_nfa(once))
    assert distinguishing_word(twice, minimize(d)) is None


def test_reverse_membership(witness, simulate, run):
    d = witness("T", 4)
    rev = reverse_nfa(d)
    for w in random_words(d.alphabet, 300, 10, seed=3):
        assert simulate(rev, w) == run(d, tuple(reversed(w)))


def test_star_eps_nfa_matches_star_nfa_on_dfa_operands(witness, simulate):
    d = witness("U", 4)
    a = star_nfa(d)
    b = star_eps_nfa(dfa_to_nfa(d))
    for w in random_words(d.alphabet, 300, 10, seed=21):
        assert simulate(a, w) == simulate(b, w)


def test_product_union_of_permutational_pair(witness):
    prod = product_dfa(witness("U", 4), witness("U", 5, "bac"), BooleanOp.UNION)
    assert minimize(prod).size == 20


def test_product_trivial_identities(witness, distinguishing_word):
    d = witness("U", 4)
    assert minimize(product_dfa(d, d, BooleanOp.DIFFERENCE)).size == 1
    assert distinguishing_word(product_dfa(d, d, BooleanOp.UNION).dfa, d) is None


def test_product_semantics_per_word(witness, run):
    k = witness("U", 3)
    l = witness("U", 4, "bac")
    for op in BooleanOp:
        prod = product_dfa(k, l, op).dfa
        for w in random_words(k.alphabet, 200, 10, seed=5):
            assert run(prod, w) == op.combine(run(k, w), run(l, w))


def test_product_alphabet_mismatch(witness):
    with pytest.raises(ValueError):
        product_dfa(witness("U", 3), witness("S", 3), BooleanOp.UNION)


def test_constructions_leave_inputs_unmodified(witness):
    d = witness("U", 4)
    snapshot = (d.size, d.alphabet, dict(d.delta), d.initial, set(d.finals))
    star_nfa(d)
    reverse_nfa(d)
    product_dfa(d, d, BooleanOp.SYMDIFF)
    concat_nfa(dfa_to_nfa(d), dfa_to_nfa(d))
    assert (d.size, d.alphabet, dict(d.delta), d.initial, set(d.finals)) == snapshot


def test_star_uv_concatenations_accepted(witness, simulate, run):
    # u, v in L implies uv in star(L); the empty word always accepted
    d = witness("U", 3)
    nfa = star_nfa(d)
    members = [w for length in range(5)
               for w in itertools.product(d.alphabet, repeat=length)
               if run(d, w)]
    rng = random.Random(2)
    for _ in range(100):
        u, v = rng.choice(members), rng.choice(members)
        assert simulate(nfa, u + v)
