import re
from pathlib import Path

import pytest

from starbench.bounds import (
    ALIASES,
    BoundEntry,
    NoKnownBound,
    TABLE,
    UnknownOperation,
    cells,
    evaluate,
    lookup,
    table_csv,
)
from starbench.oracle import SemanticOracle
from starbench.verify import _operands_for, run_pipeline
from starbench.witnesses import WitnessSpec, format_witness, parse_witness

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_operation_present_once():
    expected = {
        "star", "reversal", "product",
        "bool-union", "bool-intersection", "bool-difference", "bool-symdiff",
        "K∪L*", "K∩L*", "K⊕L*", "K\\L*", "L*\\K",
        "K*∪L*", "K*∩L*", "K*\\L*", "K*⊕L*",
        "KL*", "K*L", "K*L*",
        "(KL)*", "(K∪L)*", "(K∩L)*-conjecture", "(K\\L)*", "(K⊕L)*-open",
    }
    assert set(TABLE) == expected
    assert len(TABLE) == 24


@pytest.mark.parametrize("op, m, n, value", [
    ("star", 3, 4, 12),
    ("star", 3, 3, 6),
    ("reversal", 3, 5, 32),
    ("product", 4, 5, 112),
    ("bool-union", 4, 5, 20),
    ("K∪L*", 4, 5, 93),
    ("K∩L*", 4, 5, 93),
    ("K*∪L*", 4, 5, 254),
    ("K*⊕L*", 3, 3, 26),
    ("KL*", 4, 5, 88),
    ("K*L", 4, 5, 281),
    ("K*L*", 4, 5, 226),
    ("(KL)*", 4, 5, 269),
    ("(KL)*", 3, 3, 32),
    ("(K∪L)*", 4, 5, 233),
    ("(K∩L)*-conjecture", 3, 3, 384),
    ("(K∩L)*-conjecture", 3, 4, 3072),
    ("(K∩L)*-conjecture", 3, 5, 24576),
    ("(K∩L)*-conjecture", 3, 6, 196608),
    ("(K\\L)*", 3, 3, 384),
    ("KsL", 4, 5, 281),
])
def test_formula_values(op, m, n, value):
    assert evaluate(op, m, n) == value


def test_statuses():
    assert TABLE["(K∩L)*-conjecture"].status == "conjecture"
    assert TABLE["(K⊕L)*-open"].status == "open"
    assert all(
        e.status == "theorem"
        for op, e in TABLE.items()
        if op not in ("(K∩L)*-conjecture", "(K⊕L)*-open")
    )


def test_open_operation_has_no_formula():
    with pytest.raises(NoKnownBound, match="no known bound"):
        evaluate("(K⊕L)*-open", 3, 3)


def test_unknown_operation():
    with pytest.raises(UnknownOperation):
        evaluate("K**L", 3, 3)
    with pytest.raises(UnknownOperation):
        lookup("frobnicate")


def test_range_validation():
    with pytest.raises(ValueError):
        evaluate("KL*", 2, 5)
    with pytest.raises(ValueError):
        lookup("KL*").witnesses(3, 2)
    evaluate("star", 0, 3)  # m ignored for unary operations
    evaluate("star", None, 3)
    for check in (lambda: evaluate("KL*", None, 3),
                  lambda: TABLE["KL*"].witnesses(None, 3),
                  lambda: _operands_for("KLs", None, 3)):
        with pytest.raises(ValueError, match=r"^operation KL\* needs m$"):
            check()


def test_symmetry_only_for_symmetric_operations():
    symmetric = {
        "bool-union", "bool-intersection", "bool-symdiff",
        "K*∪L*", "K*∩L*", "K*⊕L*", "(K∪L)*", "(K∩L)*-conjecture",
    }
    for op in symmetric:
        for m in range(3, 9):
            for n in range(3, 9):
                assert evaluate(op, m, n) == evaluate(op, n, m)


def test_single_star_below_double_star():
    for m in range(3, 9):
        for n in range(3, 9):
            assert evaluate("K∪L*", m, n) < evaluate("K*∪L*", m, n)


def test_formulas_are_integers():
    for op, entry in TABLE.items():
        if entry.formula is None:
            continue
        for m in range(3, 9):
            for n in range(3, 9):
                assert isinstance(entry.formula(m, n), int)


def test_recipe_witness_pairs():
    left, right = lookup("K⊕L*").witnesses(4, 5)
    assert left == WitnessSpec("U", 4)
    assert right == WitnessSpec("U", 5, tuple("bac"))
    assert TABLE["K⊕L*"].shape == "k_circ_lstar"  # K x det-min(star_nfa(L))
    assert TABLE["K⊕L*"].boolean == "symmetric-difference"

    left, _ = lookup("K∩L*").witnesses(4, 5)
    assert left == WitnessSpec("U0", 4)

    left, right = lookup("K*∩L*").witnesses(4, 5)
    assert left == WitnessSpec("W", 4)
    assert right == WitnessSpec("W", 5, tuple("dcba"))

    left, _ = lookup("K*⊕L*").witnesses(4, 5)
    assert left == WitnessSpec("W0E", 4)

    r = lookup("KL*").witnesses(4, 5)
    assert r == (WitnessSpec("T", 4), WitnessSpec("T", 5, tuple("bac")))

    r = lookup("K*L").witnesses(4, 5)
    assert r == (WitnessSpec("U", 4, tuple("abcd")), WitnessSpec("U", 5, tuple("dcba")))
    assert lookup("KsL").witnesses(4, 5) == r

    r = lookup("(K∪L)*").witnesses(4, 5)
    assert r == (WitnessSpec("S", 4), WitnessSpec("S", 5, tuple("ba")))

    r = lookup("(K∩L)*-conjecture").witnesses(3, 4)
    assert r == (WitnessSpec("U5L", 3), WitnessSpec("U5L", 4, tuple("ecbad")))

    r = lookup("(K\\L)*").witnesses(3, 3)
    assert r == (WitnessSpec("JO6K", 3), WitnessSpec("JO6L", 3))
    assert lookup("(K\\L)*").complement_right

    left, _ = lookup("star").witnesses(3, 4)
    assert left is None
    assert lookup("star").restrict_right == ("a", "b")

    r = lookup("L*\\K").witnesses(4, 5)
    assert TABLE["L*\\K"].shape == "lstar_circ_k"  # the starred side is the left product factor


def test_registry_witnesses_use_the_canonical_spelling():
    # each witness is written as format_witness would write it, so the
    # registry, the CLI and the reports share one spelling
    for entry in TABLE.values():
        for text in filter(None, (entry.left, entry.right)):
            family, sep, rest = text.partition(":")
            spelled = f"{family}:n=5" + (f":{rest}" if sep else "")
            assert format_witness(parse_witness(f"{text}:n=5")) == spelled


def test_cells_follow_the_table_order():
    # aliases resolve, a unary entry has one cell per n with no m, and a
    # name given twice still gives its cells once
    assert cells(["KLs", "star", "KL*"], [(3, 5), (4, 5)]) == [
        ("star", None, 5), ("KL*", 3, 5), ("KL*", 4, 5)]
    # in order of each n's first appearance
    assert cells(["star"], [(3, 5), (3, 4), (4, 5)]) == [
        ("star", None, 5), ("star", None, 4)]
    everything = cells(None, [(3, 3), (3, 4), (4, 3), (4, 4)])
    assert len(everything) == 2 * 2 + 22 * 4
    assert everything[:3] == [("star", None, 3), ("star", None, 4),
                              ("reversal", None, 3)]
    with pytest.raises(UnknownOperation):
        cells(["nope"], [(3, 3)])


def test_cells_check_every_size():
    # the entry's check_range is the one size rule: m, n >= 3 with no
    # upper limit, and a unary entry ignores m
    with pytest.raises(ValueError,
                       match=r"^KL\* requires m, n >= 3, got m=2, n=3$"):
        cells(["KL*"], [(2, 3)])
    with pytest.raises(ValueError, match="m, n >= 3"):
        cells(["star"], [(3, 2)])
    assert cells(["star"], [(2, 3)]) == [("star", None, 3)]
    assert cells(["K*L"], [(13, 3)]) == [("K*L", 13, 3)]


@pytest.mark.parametrize("status, formula_text", [
    ("open", "m*n"), ("theorem", None), ("conjecture", None)])
def test_an_entry_is_open_exactly_when_it_has_no_formula(status,
                                                         formula_text):
    with pytest.raises(ValueError, match=r"^entry bogus: "):
        BoundEntry("bogus", None, status, "boolean", formula_text, "U", "U",
                   "union")


def test_resolve_aliases():
    assert lookup("KuLs").op == "K∪L*"
    assert lookup("KsdLs").op == "K*\\L*"
    assert lookup("KL-s").op == "(KL)*"
    assert lookup("KiL-s").op == "(K∩L)*-conjecture"
    assert lookup("K*L").op == "K*L"
    for alias, op in ALIASES.items():
        assert lookup(alias).op == op


def test_table_csv_shape():
    text = table_csv([(3, 3), (3, 4), (4, 3), (4, 4)])
    lines = text.strip().split("\n")
    assert lines[0] == "op,status,formula,m,n,value"
    # unary entries emit one row per n, binary per (m, n), 24 ops total
    assert len(lines) - 1 == 2 * 2 + 22 * 4
    assert any(line.startswith("star,theorem,") for line in lines)
    assert any(",open,open," in line and line.endswith(",open") for line in lines)


def test_every_shape_has_a_pipeline_and_an_oracle(member):
    for shape in {e.shape for e in TABLE.values()}:
        op = next(op for op, e in TABLE.items() if e.shape == shape)
        left, right = _operands_for(op, 3, 3)
        final, _ = run_pipeline(op, left, right)
        assert final.size >= 1, shape
        assert hasattr(SemanticOracle, "_" + shape), shape
        member(SemanticOracle(op, left, right), ())


def test_aliases_unique_and_never_canonical():
    aliases = [e.alias for e in TABLE.values() if e.alias]
    assert len(aliases) == len(set(aliases))
    assert not set(aliases) & set(TABLE)
    assert list(ALIASES.values()) == [e.op for e in TABLE.values() if e.alias]


def test_formula_text_names_only_m_and_n():
    from starbench.bounds import _compile

    assert _compile("2^(m*n-1) + 2^(m*n-2)")(3, 3) == 384
    with pytest.raises(ValueError, match="only m and n"):
        _compile("2^n + len(str(m))")


def test_readme_operations_table_matches_registry():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Operations", 1)[1].split("###", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    listed = []
    for row in rows:
        names, aliases, status = (c.strip() for c in row.strip("|").split("|"))
        names = re.findall(r"`([^`]*)`", names)
        aliases = ([None] * len(names) if aliases == "same"
                   else re.findall(r"`([^`]*)`", aliases))
        assert len(aliases) == len(names), row
        listed += [(op, alias, status) for op, alias in zip(names, aliases)]
    assert listed == [(e.op, e.alias, e.status) for e in TABLE.values()]
