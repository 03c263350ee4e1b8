import concurrent.futures
import json
import os
from itertools import product

import pytest

from starbench.bounds import TABLE, evaluate
from starbench.oracle import SemanticOracle
from starbench.verify import (
    VerificationCell,
    any_above_bound,
    render_csv,
    render_json,
    render_text,
    summary_counts,
    run_pipeline,
    verify_cell,
    verify_table,
)
from starbench.witnesses import build, parse_witness


@pytest.mark.parametrize("op, m, n, measured", [
    ("KL*", 4, 5, 88),
    ("K*L*", 4, 5, 226),
    ("(K∩L)*-conjecture", 3, 3, 384),
    ("(KL)*", 3, 3, 32),
])
def test_verify_cell_matches(op, m, n, measured):
    cell = verify_cell(op, m, n)
    assert cell.measured == measured
    assert cell.expected == measured
    assert cell.verdict == "match"
    assert cell.status == TABLE[op].status


def test_verify_cell_carries_witness_names():
    cell = verify_cell("K*L", 4, 5)
    assert "U:n=4:order=abcd" in cell.witnesses
    assert "U:n=5:order=dcba" in cell.witnesses
    cell = verify_cell("(K\\L)*", 3, 3)
    assert "complement(JO6L:n=3)" in cell.witnesses


def test_open_operation_is_measured_not_asserted():
    cell = verify_cell("(K⊕L)*-open", 3, 3)
    assert cell.verdict == "open-measured"
    assert cell.expected is None
    assert isinstance(cell.measured, int) and cell.measured > 0
    assert summary_counts([cell]) == {"match": 0, "mismatch": 0, "open": 1,
                                      "skip": 0}


def test_cap_marks_cell_skipped():
    # a bound over the cap skips the cell before anything is built; the
    # open entry has no bound, so its subset frontier meets the cap; either
    # way the cell names its operands as a measured cell would
    for (op, m, n), note, names in [
        (("K*L", 5, 5), "skipped: cap (bound 593 > 10)",
         "U:n=5:order=abcd, U:n=5:order=dcba"),
        (("(K⊕L)*-open", 3, 3), "skipped: cap (11 > 10 subsets)",
         "U5L:n=3, U5L:n=3:order=ecbad"),
        (("star", None, 5), "skipped: cap (bound 24 > 10)", "U:n=5|ab"),
    ]:
        cell = verify_cell(op, m, n, cap=10)
        assert cell.verdict == "skipped"
        assert cell.measured is None
        assert "skipped: cap" in cell.note
        assert cell.note == note
        assert cell.witnesses == names


def test_bound_over_the_default_cap_skips_at_once():
    # the starred-boolean cells used to fill the 2M-subset frontier first,
    # for seconds and hundreds of MiB; K*∪L* ends in a product, which the
    # frontier cap never saw
    for op, m, n, bound, names in [
        ("KiL-s", 5, 5, 25165824, "U5L:n=5, U5L:n=5:order=ecbad"),
        ("(K\\L)*", 5, 6, 805306368, "JO6K:n=5, complement(JO6L:n=6)"),
        ("KsuLs", 11, 11, 2356226, "W:n=11, W:n=11:order=dcba"),
    ]:
        cell = verify_cell(op, m, n)
        assert (cell.verdict, cell.expected) == ("skipped", bound)
        assert cell.note == f"skipped: cap (bound {bound} > 2000000)"
        assert cell.witnesses == names
        assert cell.millis < 1000


def test_verify_cell_accepts_an_alias():
    cell = verify_cell("KsL", 4, 5)
    assert (cell.op, cell.verdict, cell.measured) == ("K*L", "match", 281)


def test_unary_cells_have_no_m():
    cells = verify_table(["star"], list(product([3, 4], [3, 4])))
    assert [(c.m, c.n) for c in cells] == [(None, 3), (None, 4)]
    assert all(c.verdict == "match" for c in cells)


def test_verify_table_order_and_counts():
    cells = verify_table(["K*L", "star", "KL*"],
                         list(product([3, 4], [3, 4])))
    # table order (as declared), not call order: star before KL* before K*L
    assert [c.op for c in cells] == (
        ["star"] * 2 + ["KL*"] * 4 + ["K*L"] * 4
    )
    assert [(c.m, c.n) for c in cells[2:6]] == [(3, 3), (3, 4), (4, 3), (4, 4)]
    counts = summary_counts(cells)
    assert counts == {"match": 10, "mismatch": 0, "open": 0, "skip": 0}
    assert not any_above_bound(cells)


def test_verify_table_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_table(["star"], [(3, 2)])
    with pytest.raises(ValueError):
        verify_table(["KL*"], [(2, 3)])


def test_verify_table_all_small_with_cap():
    # every operation at (3, 3); tiny cap keeps nothing from matching at
    # this size except nothing -- all theorem cells must match exactly
    cells = verify_table(None, [(3, 3)])
    by_op = {c.op: c for c in cells}
    assert len(cells) == 24
    for op, entry in TABLE.items():
        cell = by_op[op]
        if entry.status == "open":
            assert cell.verdict == "open-measured"
        else:
            assert cell.verdict == "match", (op, cell)
            assert cell.measured == evaluate(op, 3, 3)


@pytest.mark.parametrize("op, left, right, m, n, measured", [
    ("KL*", "U:n=4", "U0:n=3", 4, 3, 27),
    ("KL*", "U:n=3", "U0:n=4", 3, 4, 40),
    ("K*L*", "U:n=4:order=abcd", "U0:n=3:order=dcba", 4, 3, 65),
    ("K*L*", "U:n=3:order=abcd", "U0:n=4:order=dcba", 3, 4, 61),
])
def test_lstar_formulas_bound_only_operands_with_lstar_not_l(
        op, left, right, m, n, measured):
    # a finding, not a failure: U0's only final state is its initial one,
    # so L* = L and the pipeline measures KL (K*L), which can exceed the
    # KL* (K*L*) formula; the oracle agrees with every measured DFA
    k, l = (build(parse_witness(spec)) for spec in (left, right))
    final, _ = run_pipeline(op, k, l)
    assert final.size == measured > evaluate(op, m, n)
    without_star = "product" if op == "KL*" else "K*L"
    assert final == run_pipeline(without_star, k, l)[0]
    assert measured <= evaluate(without_star, m, n)
    assert SemanticOracle(op, k, l).compare_all(final, 7)[1:] == (0, None)


def test_verify_table_starts_no_more_workers_than_cells_or_cpus(monkeypatch):
    # a fork-started pool starts every worker at its first submit; a
    # serial stand-in records the pool size, so no process starts here
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    unary = [(None, n) for n in range(3, 7)]
    serial = [c.measured for c in verify_table(["star"], unary)]
    for ns, jobs, size in (([3, 4], 100_000, 2), ([3, 4, 5, 6], 100_000, 3),
                           ([3, 4, 5, 6], 2, 2)):
        cells = verify_table(["star"], [(None, n) for n in ns], jobs=jobs)
        assert [c.measured for c in cells] == serial[:len(ns)]
        assert sizes.pop() == size
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    verify_table(["star"], [(None, 3), (None, 4)], jobs=4)
    assert sizes == []

def test_verify_table_parallel_matches_serial():
    serial = verify_table(["KL*", "star"], list(product([3, 4], [3, 4])),
                          jobs=1)
    parallel = verify_table(["KL*", "star"], list(product([3, 4], [3, 4])),
                            jobs=2)
    strip = lambda cells: [
        (c.op, c.m, c.n, c.expected, c.measured, c.verdict, c.witnesses)
        for c in cells
    ]
    assert strip(serial) == strip(parallel)


def test_determinism_except_elapsed():
    a = verify_table(["K*L*"], list(product([3, 4], [3, 4])))
    b = verify_table(["K*L*"], list(product([3, 4], [3, 4])))
    fields = lambda c: (c.op, c.status, c.m, c.n, c.expected, c.measured,
                        c.verdict, c.witnesses, c.note, c.diagnostics)
    assert [fields(c) for c in a] == [fields(c) for c in b]


def test_render_csv_columns():
    cells = verify_table(["star"], [(3, 3), (3, 4)])
    text = render_csv(cells)
    lines = text.strip().split("\n")
    assert lines[0] == "op,status,m,n,expected,measured,verdict,millis,note"
    assert lines[1].startswith("star,theorem,,3,6,6,match,")
    assert lines[2].startswith("star,theorem,,4,12,12,match,")


def test_render_json_mirrors_cells():
    cells = verify_table(["KL*"], [(3, 3)])
    data = json.loads(render_json(cells))
    assert data[0]["op"] == "KL*"
    assert data[0]["m"] == 3 and data[0]["n"] == 3
    assert data[0]["expected"] == data[0]["measured"] == evaluate("KL*", 3, 3)
    assert data[0]["verdict"] == "match"
    assert set(data[0]) == {
        "op", "status", "m", "n", "expected", "measured", "verdict",
        "millis", "witnesses", "note", "diagnostics",
    }


def test_render_text_has_summary():
    cells = verify_table(["star"], [(3, 3), (3, 4), (3, 5)])
    text = render_text(cells)
    assert "summary: match=3 mismatch=0 open=0 skip=0" in text
    assert text.splitlines()[0].startswith("op")


def test_non_dialect_intersection_falls_below_bound():
    # the plain permutational pair cannot meet the intersection bound
    from starbench.verify import run_pipeline
    from starbench.witnesses import WitnessSpec, build

    k = build(WitnessSpec("U", 4))
    l = build(WitnessSpec("U", 5, tuple("bac")))
    measured = run_pipeline("K∩L*", k, l)[0].size
    assert measured < evaluate("K∩L*", 4, 5)
    assert run_pipeline("KiLs", k, l)[0].size == measured


def test_mismatch_diagnostics_format():
    from starbench.core import write_dfa
    from starbench.verify import _diagnostics
    from starbench.minimize import minimize
    from starbench.witnesses import WitnessSpec, build

    final = minimize(build(WitnessSpec("U", 3)))
    labels = tuple(frozenset(range(i)) for i in range(30))
    text = _diagnostics(final, labels)
    # the offending DFA is dumped in the text format, then at most 20 labels
    assert text.split("subset labels:")[0] == write_dfa(final)
    shown = text.split("subset labels:")[1].split()
    assert len(shown) == 20
    assert shown[0] == "{}"
    assert shown[2] == "{0,1}"


def test_below_bound_diagnostics_decode_only_the_shown_labels(monkeypatch):
    # a forced mismatch on a cell with more subsets than are shown: the
    # text is unchanged, and only the shown labels are decoded
    from starbench import bounds
    from starbench.core import write_dfa
    from starbench.minimize import SubsetDfa
    from starbench.verify import _operands_for, run_pipeline, verify_cell

    left, right = _operands_for("star", None, 5)
    final, sd = run_pipeline("star", left, right)
    assert sd.dfa.size > 20
    expected = write_dfa(final) + "subset labels: " + " ".join(
        "{" + ",".join(str(q) for q in sorted(label)) + "}"
        for label in map(sd.label, range(min(20, sd.dfa.size)))
    ) + "\n"

    decoded = []
    label = SubsetDfa.label
    monkeypatch.setattr(SubsetDfa, "label",
                        lambda sd, state: decoded.append(state) or label(sd, state))
    monkeypatch.setattr(bounds, "evaluate", lambda op, m, n: final.size + 1)
    cell = verify_cell("star", None, 5)
    assert cell.verdict == "below-bound"
    assert cell.diagnostics == expected
    assert decoded == list(range(20))


def test_a_measured_size_above_the_bound_is_loud(monkeypatch):
    # the bound is forced one below the measured size: the cell names the
    # fault and dumps the minimal DFA and the first subset labels
    from starbench import bounds
    from starbench.core import write_dfa
    from starbench.verify import _operands_for, run_pipeline

    left, right = _operands_for("KL*", 3, 3)
    final, sd = run_pipeline("KL*", left, right)
    labels = " ".join(
        "{" + ",".join(str(q) for q in sorted(label)) + "}"
        for label in map(sd.label, range(min(20, sd.dfa.size)))
    )
    monkeypatch.setattr(bounds, "evaluate", lambda op, m, n: final.size - 1)
    cell = verify_cell("KL*", 3, 3)
    assert (cell.verdict, cell.expected, cell.measured) == (
        "ABOVE-BOUND", final.size - 1, final.size)
    assert cell.note == ("measured size exceeds a proved upper bound: "
                         "pipeline bug or refuted claim")
    assert cell.diagnostics == (
        write_dfa(final) + "subset labels: " + labels + "\n")
    assert any_above_bound([cell])
    assert summary_counts([cell])["mismatch"] == 1
    text = render_text([cell])
    assert f"  note [KL* m=3 n=3]: {cell.note}\n" in text
    assert cell.diagnostics in text


def test_a_product_ending_cell_dumps_only_its_own_dfa(monkeypatch):
    # K∪L* ends in a boolean product, which has no subset labels: the
    # diagnostics are the minimal product DFA alone, not the labels of the
    # star's subset DFA that fed it
    from starbench import bounds
    from starbench.core import write_dfa
    from starbench.verify import _operands_for, run_pipeline

    left, right = _operands_for("K∪L*", 3, 3)
    final, sd = run_pipeline("K∪L*", left, right)
    assert sd is None
    monkeypatch.setattr(bounds, "evaluate", lambda op, m, n: final.size + 1)
    cell = verify_cell("K∪L*", 3, 3)
    assert cell.verdict == "below-bound"
    assert cell.diagnostics == write_dfa(final)


def test_a_large_offending_dfa_is_named_not_dumped(monkeypatch):
    # above _DIAG_DFA_LIMIT states the minimal DFA is replaced by one line
    # giving its size; the subset labels still follow
    from starbench import bounds, verify
    from starbench.verify import _operands_for, run_pipeline

    left, right = _operands_for("KL*", 3, 3)
    final, sd = run_pipeline("KL*", left, right)
    labels = " ".join(
        "{" + ",".join(str(q) for q in sorted(label)) + "}"
        for label in map(sd.label, range(min(20, sd.dfa.size)))
    )
    monkeypatch.setattr(bounds, "evaluate", lambda op, m, n: final.size - 1)
    monkeypatch.setattr(verify, "_DIAG_DFA_LIMIT", final.size - 1)
    cell = verify_cell("KL*", 3, 3)
    assert cell.verdict == "ABOVE-BOUND"
    assert cell.diagnostics == (
        f"(minimal DFA with {final.size} states not dumped)\n"
        "subset labels: " + labels + "\n")


def test_every_row_is_measured_minimal(monkeypatch):
    # run_pipeline minimizes whatever a construction row returns, so a row
    # that hands back a non-minimal DFA is still measured at its minimal
    # size: K ∩ complement(K) has 3 reachable pairs and accepts nothing
    from starbench import verify
    from starbench.ops import BooleanOp, product_dfa
    from starbench.verify import _operands_for, run_pipeline

    def empty_product(k, l, b, cap):
        return product_dfa(k, k.complement(), BooleanOp.INTERSECTION)

    left, right = _operands_for("bool-union", 3, 3)
    assert empty_product(left, right, None, 0).dfa.size == 3
    monkeypatch.setitem(verify._SHAPES, "boolean", empty_product)
    final, sd = run_pipeline("bool-union", left, right)
    assert (final.size, final.finals, sd) == (1, frozenset(), None)


def test_conjectured_witnesses_short_of_the_bound_are_a_finding(monkeypatch):
    from starbench import bounds

    monkeypatch.setattr(bounds, "evaluate", lambda op, m, n: 385)
    cell = verify_cell("KiL-s", 3, 3)
    assert (cell.verdict, cell.measured) == ("below-bound", 384)
    assert cell.note == "finding: conjectured witnesses miss the bound"
    assert not any_above_bound([cell])


def test_above_bound_sets_flag():
    cell = VerificationCell("KL*", "theorem", 3, 3, 10, 11, "ABOVE-BOUND",
                            0, "x")
    assert any_above_bound([cell])
    assert summary_counts([cell])["mismatch"] == 1


def test_conjecture_scan_required_pairs():
    cells = verify_table(["(K∩L)*-conjecture"], [(3, 3), (3, 4)])
    assert [(c.m, c.n, c.measured) for c in cells] == [(3, 3, 384), (3, 4, 3072)]
    assert all(c.status == "conjecture" for c in cells)


def test_conjecture_scan_skips_a_bound_over_the_cap(monkeypatch):
    # the (6, 5) bound, 2^29 + 2^28, is over the default cap, so that cell
    # is skipped before any witness is built
    from starbench import verify

    built = []
    build = verify.build
    monkeypatch.setattr(verify, "build",
                        lambda spec: built.append(spec.n) or build(spec))
    cells = verify_table(["(K∩L)*-conjecture"], [(3, 3), (6, 5)])
    assert cells[0].verdict == "match"
    assert built == [3, 3]
    assert cells[1].verdict == "skipped"
    assert cells[1].note == f"skipped: cap (bound {2**29 + 2**28} > 2000000)"
    assert cells[1].expected == evaluate("(K∩L)*-conjecture", 6, 5)
    assert cells[1].witnesses == "U5L:n=6, U5L:n=5:order=ecbad"


def test_conjecture_scan_with_jo6():
    cells = verify_table(["(K∩L)*-conjecture", "(K\\L)*"], [(3, 3)])
    ops = [c.op for c in cells]
    assert ops == ["(K∩L)*-conjecture", "(K\\L)*"]
    assert all(c.measured == 384 for c in cells)
