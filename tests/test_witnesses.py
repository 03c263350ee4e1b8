import itertools
import time

import pytest

from starbench.core import Dfa
from starbench.minimize import minimal_dfa
from starbench.ops import dfa_to_nfa, star_nfa
from starbench.witnesses import (
    FAMILIES,
    WitnessSpec,
    build,
    format_witness,
    monoid_size,
    parse_witness,
)


def test_u4_is_the_canonical_table(witness):
    # the cycle wraps, the transposition swaps 0 and 1, the singular moves
    # only its source
    d = witness("U", 4)
    assert d.delta == {"a": (1, 2, 3, 0), "b": (1, 0, 2, 3), "c": (0, 1, 2, 0)}
    assert d.initial == 0 and d.finals == {3}


def test_zero_dialects(witness):
    assert witness("U0", 5).finals == {0}
    assert witness("W0E", 5).finals == {0, 4}
    assert witness("U0", 5).delta == witness("U", 5).delta
    assert witness("W0E", 5).delta == witness("W", 5).delta
    # the literal star of W0E, the left witness of K*\L* and K*⊕L*; a
    # {0}-final W is its own star
    assert [minimal_dfa(star_nfa(witness("W0E", n))).size
            for n in range(3, 7)] == [5, 11, 23, 47]
    assert minimal_dfa(star_nfa(witness("W", 5).with_finals({0}))).size == 5


def test_t_family_singular_is_one_to_zero(witness):
    assert witness("T", 5).delta == {
        "a": (1, 2, 3, 4, 0), "b": (1, 0, 2, 3, 4), "c": (0, 0, 2, 3, 4)}


def test_w_family_roles(witness):
    # the transposition swaps 3 and 4, and d is the identity
    assert witness("W", 5).delta == {
        "a": (1, 2, 3, 4, 0), "b": (0, 1, 2, 4, 3), "c": (0, 0, 2, 3, 4),
        "d": (0, 1, 2, 3, 4)}


def test_quaternary_u_reversed_order(witness):
    # U_5(d,c,b,a): d cycles, c transposes (0,1), b sends 4 to 0, a is identity
    d = witness("U", 5, "dcba")
    assert d.alphabet == ("a", "b", "c", "d")
    assert d.delta == {
        "d": (1, 2, 3, 4, 0), "c": (1, 0, 2, 3, 4), "b": (0, 1, 2, 3, 0),
        "a": (0, 1, 2, 3, 4)}


def test_five_letter_permuted_column(witness):
    # order ecbad: a identity, b singular(n-1,0), c transposition(0,1),
    # d the subcycle 1 -> 2 -> ... -> n-1 -> 1, e cycle
    assert witness("U5L", 5, "ecbad").delta == {
        "a": (0, 1, 2, 3, 4), "b": (0, 1, 2, 3, 0), "c": (1, 0, 2, 3, 4),
        "d": (0, 2, 3, 4, 1), "e": (1, 2, 3, 4, 0)}
    # the subcycle on 1..3 fixes 0
    assert witness("U5L", 4).delta["e"] == (0, 2, 3, 1)


def test_s_family(witness):
    d = witness("S", 6)
    assert d.alphabet == ("a", "b")
    assert d.delta == {"a": (1, 2, 3, 4, 5, 0), "b": (1, 1, 2, 3, 4, 5)}
    assert d.finals == {0}
    swapped = witness("S", 6, "ba")
    assert swapped.delta == {"b": (1, 2, 3, 4, 5, 0), "a": (1, 1, 2, 3, 4, 5)}


def test_six_letter_pair_tables(witness):
    assert witness("JO6K", 4).delta == {
        "a": (1, 2, 3, 0), "b": (0, 1, 2, 3), "c": (0, 2, 3, 1),
        "d": (0, 1, 2, 3), "e": (0, 0, 2, 3), "f": (0, 1, 2, 3)}
    assert witness("JO6L", 5).delta == {
        "a": (1, 2, 3, 4, 0), "b": (1, 2, 3, 4, 0), "c": (0, 1, 2, 3, 4),
        "d": (0, 2, 3, 4, 1), "e": (0, 1, 2, 3, 4), "f": (0, 0, 2, 3, 4)}


def test_every_family_is_minimal_for_all_sizes(every_family):
    assert len(every_family) == 11
    for family, order in every_family:
        for n in range(3, 9):
            d = build(WitnessSpec(family, n, order))
            assert minimal_dfa(dfa_to_nfa(d)).size == n, (family, order, n)


def test_every_family_has_one_role_per_letter():
    # build zips the letters with the roles, so a role past the arity
    # would be dropped without a word; the table key is the only arity
    for family, arities in FAMILIES.items():
        for arity, fam in arities.items():
            for n in range(3, 9):
                roles = fam.roles(n)
                assert len(roles) == arity, (family, arity, n)
                assert all(len(row) == n for row in roles), (family, arity, n)


def permute_letters(d, pi):
    """d with its letters renamed by the bijection pi: x's map becomes pi(x)'s."""
    return Dfa(d.size, d.alphabet, {pi[x]: t for x, t in d.delta.items()},
               d.initial, d.finals)


def test_order_equals_permute_letters(witness):
    for family, order in [("U", "bac"), ("U", "dcba"), ("W", "dcba"),
                          ("U5L", "ecbad"), ("S", "ba")]:
        canonical = build(WitnessSpec(family, 5, tuple(sorted(order))))
        pi = dict(zip(canonical.alphabet, order))
        assert build(WitnessSpec(family, 5, tuple(order))) == permute_letters(canonical, pi)


def test_spec_validation():
    with pytest.raises(ValueError, match=r"family 'U9'; known: \['JO6K', "):
        WitnessSpec("U9", 4)
    with pytest.raises(ValueError, match="'U' does not come with 5 letters"):
        WitnessSpec("U", 4, tuple("abcde"))
    with pytest.raises(ValueError):
        WitnessSpec("U", 2)
    with pytest.raises(ValueError):
        WitnessSpec("U", 4, ("a", "b"))
    with pytest.raises(ValueError):
        WitnessSpec("U", 4, ("a", "b", "d"))


def test_spec_stores_one_order_per_witness():
    # a str or list order is stored as the tuple; the default order as None
    assert WitnessSpec("U", 5, "bac") == WitnessSpec("U", 5, tuple("bac"))
    assert WitnessSpec("U", 5, list("abc")) == WitnessSpec("U", 5)
    assert WitnessSpec("U", 5, "abcd").letter_order == tuple("abcd")
    assert len({WitnessSpec("U", 5, list("abc")), WitnessSpec("U", 5)}) == 1


def test_monoid_sizes(witness):
    assert monoid_size(witness("U", 3)) == 27
    assert monoid_size(witness("U", 4), "ab") == 24
    # a lone identity letter generates only the identity
    assert monoid_size(witness("W", 5), "d") == 1
    # state numbers past one byte: the cycle on 300 states has order 300
    assert monoid_size(witness("U", 300), "a") == 300


def test_cycle_and_transposition_generate_all_permutations(witness):
    # oracle: the closure over {a, b} must be exactly the 4! bijections
    d = witness("U", 4)
    gens = {d.delta["a"], d.delta["b"]}
    closure = {(0, 1, 2, 3)} | gens
    frontier = list(closure)
    while frontier:
        img = frontier.pop()
        for g in gens:
            nxt = tuple(g[t] for t in img)
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    assert closure == set(itertools.permutations(range(4)))
    assert monoid_size(d, "ab") == len(closure)


def test_monoid_full_transformation_count(witness):
    # n^n with the three-letter witness
    assert monoid_size(witness("U", 4)) == 256
    assert monoid_size(witness("U", 5)) == 3125


def test_monoid_over_the_cap_is_refused(witness, monkeypatch):
    # the full monoid on n states has n^n elements, so U:n=9 alone would
    # need tens of GB; the walk stops once it holds more than the budget
    # divided by the number of states
    from starbench import witnesses

    monkeypatch.setattr(witnesses, "MONOID_BUDGET", 400)
    with pytest.raises(ValueError, match="more than 100 elements"):
        monoid_size(witness("U", 4))
    assert monoid_size(witness("U", 4), "ab") == 24
    # a monoid of exactly the limit's size still counts
    monkeypatch.setattr(witnesses, "MONOID_BUDGET", 96)
    assert monoid_size(witness("U", 4), "ab") == 24


def test_monoid_budget_scales_with_the_states(witness):
    # a 300-cycle and a transposition generate all 300! permutations, each
    # element 300 characters long: the limit is 60,000 elements, not the
    # 2,000,000 that took 31 s and 1.4 GB to reach
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than 60000 elements, "
                                         "the limit for 300 states"):
        monoid_size(witness("U", 300), "ab")
    assert time.perf_counter() - start < 10


def test_monoid_rejects_bad_letters(witness):
    with pytest.raises(ValueError):
        monoid_size(witness("U", 3), "")
    with pytest.raises(ValueError):
        monoid_size(witness("U", 3), "az")


@pytest.mark.parametrize("text, retired, n, order", [
    ("U:n=5:order=dcba", "U4", 5, ("d", "c", "b", "a")),
    ("W0E:n=4:order=abcd", "W0", 4, ("a", "b", "c", "d")),
    ("T:n=5:order=bac", "T3", 5, ("b", "a", "c")),
    ("S:n=6:order=ba", "S2", 6, ("b", "a")),
    ("U5L:n=4:order=ecbad", "U5", 4, ("e", "c", "b", "a", "d")),
    ("JO6K:n=4", "JO6_K", 4, None),
    ("JO6L:n=5", "JO6_L", 5, None),
    ("U:n=3", "U3", 3, None),
    ("U0:n=4", "U0_3", 4, None),
])
def test_parse_witness_cli_names(text, retired, n, order):
    # the witness syntax names a family as WitnessSpec does; the family's
    # former internal name (`retired`) is refused
    spec = parse_witness(text)
    assert spec == WitnessSpec(text.partition(":")[0], n, order)
    with pytest.raises(ValueError, match="unknown witness family"):
        WitnessSpec(retired, n, order)


def test_parse_format_round_trip(every_family):
    specs = [parse_witness(text) for text in [
        "U:n=5:order=dcba", "W0E:n=4", "S:n=6:order=ba", "JO6K:n=4",
        "U:n=4:order=abcd", "U5L:n=3"]]
    # every spec the families make, in canonical and in reversed order;
    # the name must rebuild the same DFA, finals included
    for family, canonical in every_family:
        for n in range(3, 6):
            specs += [WitnessSpec(family, n, canonical),
                      WitnessSpec(family, n, canonical[::-1])]
    for spec in specs:
        again = parse_witness(format_witness(spec))
        assert again == spec, format_witness(spec)
        assert build(again) == build(spec)


@pytest.mark.parametrize("bad", [
    "X:n=4", "U", "U:n=two", "U:order=abc", "U:n=4:order=abcd:x=1",
    "U:n=4:order=ab", "S:n=4:order=abc", "U:n=3:n=4",
    "U:n=4:order=abc:order=cba", "U:n=3:x",
])
def test_parse_witness_errors(bad):
    with pytest.raises(ValueError):
        parse_witness(bad)
