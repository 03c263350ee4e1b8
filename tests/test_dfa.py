import itertools

import pytest

from starbench.core import Dfa, DfaFormatError, EpsNfa, read_dfa, write_dfa

U4_TEXT = """dfa 4
alphabet a b c
initial 0
finals 3
a 1 2 3 0
b 1 0 2 3
c 0 1 2 0
"""


def test_run_traces_u3(witness, run):
    u3 = witness("U", 3)
    assert run(u3, "aa")  # 0 -> 1 -> 2, final
    assert not run(u3, "")
    assert run(witness("U0", 3), "")  # {0} finals accept the empty word


def test_run_unknown_letter(witness, run):
    with pytest.raises(ValueError):
        run(witness("U", 3), "ax")


def test_complement_involution_and_finals(witness):
    u3 = witness("U", 3)
    assert u3.complement().finals == frozenset((0, 1))
    assert u3.complement().complement() == u3


def test_complement_flips_membership_all_words(witness, run):
    d = witness("U", 3)
    c = d.complement()
    for length in range(7):
        for w in itertools.product(d.alphabet, repeat=length):
            assert run(d, w) != run(c, w)


def test_restrict_projects_alphabet(witness):
    d = witness("U", 4).restrict("ab")
    assert d.alphabet == ("a", "b")
    assert set(d.delta) == {"a", "b"}
    with pytest.raises(ValueError):
        witness("U", 4).restrict("az")


def test_dfa_validation():
    a = (1, 2, 0)
    with pytest.raises(ValueError):
        Dfa(3, ("a", "a"), {"a": a}, 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(3, ("a",), {"b": a}, 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(3, ("a",), {"a": (1, 2, 3, 0)}, 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(3, ("a",), {"a": a}, 3, frozenset())
    with pytest.raises(ValueError):
        Dfa(3, ("a",), {"a": a}, 0, frozenset((3,)))


def test_dfa_validation_names_the_bad_final():
    a = (1, 2, 0)
    with pytest.raises(ValueError, match=r"final state 7 out of range \[0, 3\)"):
        Dfa(3, ("a",), {"a": a}, 0, frozenset((0, 2, 7)))
    with pytest.raises(ValueError, match=r"final state -1 out of range \[0, 3\)"):
        Dfa(3, ("a",), {"a": a}, 0, frozenset((-1, 1)))


def test_dfa_row_of_the_wrong_length_names_the_letter_and_both_counts():
    with pytest.raises(ValueError, match=r"^letter 'b' has 4 targets, expected 3$"):
        Dfa(3, ("a", "b"), {"a": (1, 2, 0), "b": (0, 1, 2, 0)}, 0, frozenset())
    with pytest.raises(ValueError, match=r"^letter 'a' has 0 targets, expected 1$"):
        Dfa(1, ("a",), {"a": ()}, 0, frozenset())


@pytest.mark.parametrize("row, state, target", [
    ((0, 5, 1), 1, 5),
    ((0, 1, 3), 2, 3),  # a target equal to the size
    ((0, -1, 9), 1, -1),  # below 0, named before the later 9
])
def test_dfa_row_target_out_of_range_names_the_letter_and_state(row, state, target):
    message = rf"^letter 'b' sends state {state} to {target} out of range \[0, 3\)$"
    with pytest.raises(ValueError, match=message):
        Dfa(3, ("a", "b"), {"a": (1, 2, 0), "b": row}, 0, frozenset())


def test_dfa_row_must_be_a_tuple():
    # a list row would make a Dfa compare unequal to its field-identical copy
    with pytest.raises(ValueError, match=r"^letter 'a' row is a list, not a tuple$"):
        Dfa(2, ("a",), {"a": [1, 0]}, 0, frozenset())


def test_eps_nfa_validation_names_the_first_offender():
    good = {"a": (0b110, 0, 0), "b": (0, 0, 0b1)}

    def nfa(moves=good, epsilon=(0, 0b101, 0), initials=0b1, finals=0b100):
        return EpsNfa(3, ("a", "b"), moves, epsilon, initials, finals)

    assert nfa().size == 3
    refused = [
        (r"move letters \['a', 'c'\] != alphabet \['a', 'b'\]",
         dict(moves={"a": good["a"], "c": good["b"]})),
        (r"letter 'b' row is a list, not a tuple", dict(moves={**good, "b": [0, 0, 1]})),
        (r"letter 'b' has 2 targets, expected 3", dict(moves={**good, "b": (0, 0)})),
        (r"epsilon row is a list, not a tuple", dict(epsilon=[0, 0, 0])),
        (r"epsilon has 4 targets, expected 3", dict(epsilon=(0, 0, 0, 0))),
        # a set where a mask belongs, a negative mask, and a bit past size
        (r"letter 'a' targets of state 1 are a frozenset, not an int mask",
         dict(moves={**good, "a": (0b110, frozenset((0,)), 0)})),
        (r"letter 'b' targets of state 2 are a negative mask -1",
         dict(moves={**good, "b": (0, 0, -1)})),
        (r"letter 'b' targets of state 0 hold state 3 out of range \[0, 3\)",
         dict(moves={**good, "b": (0b1001, 0, 0)})),
        (r"epsilon targets of state 0 are a float, not an int mask",
         dict(epsilon=(1.0, 0, 0))),
        (r"epsilon targets of state 2 hold state 5 out of range \[0, 3\)",
         dict(epsilon=(0, 0, 0b100000))),
        (r"initials are a frozenset, not an int mask",
         dict(initials=frozenset((0,)))),
        (r"initials hold state 3 out of range \[0, 3\)", dict(initials=0b1001)),
        (r"finals are a negative mask -2", dict(finals=-2)),
        (r"finals hold state 7 out of range \[0, 3\)", dict(finals=1 << 7)),
        # moves are checked before epsilon edges, states in ascending order
        (r"letter 'a' targets of state 1 hold state 4 out of range \[0, 3\)",
         dict(moves={**good, "a": (0, 1 << 4, 1 << 5)}, epsilon=(1 << 6, 0, 0))),
    ]
    for message, fields in refused:
        with pytest.raises(ValueError, match=f"^{message}$"):
            nfa(**fields)


def test_write_u4_exact_block(witness):
    assert write_dfa(witness("U", 4)) == U4_TEXT


def test_read_write_round_trip(witness):
    for d in (witness("U", 4), witness("W", 5, "dcba"),
              witness("S", 6, "ba"), witness("U", 3).complement()):
        assert read_dfa(write_dfa(d)) == d


def test_round_trip_empty_finals(witness):
    d = witness("U", 3)
    empty = Dfa(d.size, d.alphabet, dict(d.delta), 0, frozenset())
    assert read_dfa(write_dfa(empty)) == empty


def test_read_missing_row_is_incomplete_delta():
    text = "\n".join(U4_TEXT.split("\n")[:-2]) + "\n"  # drop the c row
    with pytest.raises(DfaFormatError, match="incomplete delta"):
        read_dfa(text)


def test_read_short_row_is_incomplete_delta():
    text = U4_TEXT.replace("c 0 1 2 0", "c 0 1 2")
    with pytest.raises(DfaFormatError, match="incomplete delta"):
        read_dfa(text)


@pytest.mark.parametrize("mangle, message", [
    (lambda t: t.replace("dfa 4", "dfa x"), "not an integer"),
    (lambda t: t.replace("initial 0", "initial"), "initial"),
    (lambda t: t.replace("finals 3", "finals 3 1"), "ascending"),
    (lambda t: t.replace("a 1 2 3 0", "b 1 2 3 0"), "expected row"),
    (lambda t: t + "extra\n", "trailing"),
    (lambda t: t.replace("a 1 2 3 0", "a 1 2 3 9"),
     r"line 5: target state 9 out of range \[0, 4\)"),
    (lambda t: "dfa 4\n", "line 2: missing 'alphabet' line"),
    (lambda t: t.replace("dfa 4", "dfb 4"), "expected 'dfa <n>'"),
    (lambda t: t.replace("dfa 4", "dfa 0"), "must be positive"),
    (lambda t: t.replace("alphabet a b c", "alphabet"),
     "expected 'alphabet <letters>'"),
    (lambda t: t.replace("finals 3", "final 3"), "expected 'finals"),
    (lambda t: t.replace("initial 0", "initial 9"),
     "initial state 9 out of range"),
    # the letters and states the Dfa would refuse are refused at their line
    (lambda t: t.replace("alphabet a b c", "alphabet a b c "),
     "line 2: letter must be a single printable symbol: ''"),
    (lambda t: t.replace("alphabet a b c", "alphabet a b a"),
     "line 2: alphabet letters must be distinct"),
    (lambda t: t.replace("alphabet a b c", "alphabet a b cc"),
     "line 2: letter must be a single printable symbol: 'cc'"),
    (lambda t: t.replace("initial 0", "initial 4"),
     r"line 3: initial state 4 out of range \[0, 4\)"),
    (lambda t: t.replace("finals 3", "finals 4"),
     r"line 4: final state 4 out of range \[0, 4\)"),
    (lambda t: t.replace("finals 3", "finals -1 3"),
     r"line 4: final state -1 out of range \[0, 4\)"),
])
def test_read_errors_name_line_and_cause(mangle, message):
    with pytest.raises(DfaFormatError, match=message):
        read_dfa(mangle(U4_TEXT))


def test_read_error_carries_line_number():
    text = U4_TEXT.replace("c 0 1 2 0", "c 0 1 2")
    with pytest.raises(DfaFormatError, match="line 7"):
        read_dfa(text)
