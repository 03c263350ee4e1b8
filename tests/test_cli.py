import csv
import io
import json
import re
import sys
from pathlib import Path

import pytest

from starbench.cli import main

U4_TEXT = """dfa 4
alphabet a b c
initial 0
finals 3
a 1 2 3 0
b 1 0 2 3
c 0 1 2 0
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_prints_dfa_text(capsys):
    code, out, _ = run_cli(capsys, "witness", "U:n=4")
    assert code == 0
    assert out == U4_TEXT


def test_witness_with_order(capsys):
    code, out, _ = run_cli(capsys, "witness", "U:n=5:order=dcba")
    assert code == 0
    assert "alphabet a b c d" in out
    assert "d 1 2 3 4 0" in out  # d is the cycle


def test_complexity_prints_single_integer(capsys):
    code, out, _ = run_cli(capsys, "complexity", "K*L", "--m", "4", "--n", "5")
    assert code == 0
    assert out.strip() == "281"


def test_complexity_unary_needs_no_m(capsys):
    code, out, _ = run_cli(capsys, "complexity", "star", "--n", "4")
    assert code == 0
    assert out.strip() == "12"


def test_complexity_alias(capsys):
    code, out, _ = run_cli(capsys, "complexity", "KuLs", "--m", "4", "--n", "5")
    assert code == 0
    assert out.strip() == "93"


def test_bound_value(capsys):
    code, out, _ = run_cli(capsys, "bound", "K*L", "--m", "4", "--n", "5")
    assert code == 0
    assert out.strip() == "281"


def test_bound_all_csv(capsys):
    code, out, _ = run_cli(capsys, "bound", "all", "--m", "3..4", "--n", "3..4")
    assert code == 0
    assert out.splitlines()[0] == "op,status,formula,m,n,value"


def test_bound_unary_range_prints_one_row_per_n(capsys):
    # as `bound all` does: no m column, each n once
    code, out, _ = run_cli(capsys, "bound", "star", "--n", "3..4")
    assert code == 0
    assert out == "-,3,6\n-,4,12\n"
    # a single n is still the bare value, whatever --m says
    code, out, _ = run_cli(capsys, "bound", "star", "--m", "3..5", "--n", "4")
    assert code == 0
    assert out == "12\n"


def test_bound_of_a_binary_operation_needs_m(capsys):
    # as `complexity` does: no silent m = n
    assert run_cli(capsys, "bound", "K*L", "--n", "5") == (
        2, "", "error: operation K*L needs m\n")
    assert run_cli(capsys, "bound", "all", "--n", "3..4") == (
        2, "", "error: operation product needs m\n")
    assert run_cli(capsys, "complexity", "K*L", "--n", "5") == (
        2, "", "error: operation K*L needs m\n")
    # a unary operation still needs none
    assert run_cli(capsys, "bound", "reversal", "--n", "5") == (0, "32\n", "")


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "KL*", "--m", "3..4", "--n", "3..4")
    assert code == 0
    assert "summary: match=4 mismatch=0 open=0 skip=0" in out


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "star", "--n", "3..5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "op,status,m,n,expected,measured,verdict,millis,note"
    assert len(lines) == 4


def test_verify_csv_names_why_a_row_was_skipped(capsys):
    # a bound over the cap and a subset frontier over it are told apart
    notes = {}
    for op, size in (("KiL-s", "5"), ("KxL-s", "3")):
        code, out, _ = run_cli(capsys, "verify", op, "--m", size, "--n", size,
                               "--cap", "10", "--format", "csv")
        assert code == 0
        [row] = csv.DictReader(io.StringIO(out))
        assert row["verdict"] == "skipped"
        notes[op] = row["note"]
    assert notes == {"KiL-s": f"skipped: cap (bound {2**24 + 2**23} > 10)",
                     "KxL-s": "skipped: cap (11 > 10 subsets)"}


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "K*L*", "--m", "3", "--n", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["measured"] == 24


def test_verify_json_matches_the_recorded_report(capsys):
    # every field of every 3..4 cell but the timing is pinned, so a change
    # to the pipeline that alters any count, verdict, note or diagnostic
    # line shows here
    golden = Path(__file__).parent / "data" / "verify_3_4.json"
    code, out, _ = run_cli(capsys, "verify", "all", "--m", "3..4", "--n", "3..4",
                           "--format", "json")
    assert code == 0
    assert re.sub(r'"millis": \d+', '"millis": 0', out) == golden.read_text("utf-8")


def test_verify_respects_cap(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "K*L", "--m", "5", "--n", "5", "--cap", "10"
    )
    assert code == 0  # skips exit zero
    assert "skipped" in out


def test_every_route_takes_the_same_sizes(capsys):
    # no upper limit on m or n but the cap, on every verb
    code, out, _ = run_cli(capsys, "verify", "bool-union", "--m", "13",
                           "--n", "3", "--format", "csv")
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out)))[0]["measured"] == "39"
    assert run_cli(capsys, "complexity", "bool-union", "--m", "13",
                   "--n", "3") == (0, "39\n", "")
    # a unary cell ignores m, in verify as in bound
    code, out, _ = run_cli(capsys, "verify", "star", "--m", "2", "--n", "3",
                           "--format", "json")
    assert code == 0
    cell = json.loads(out)[0]
    assert (cell["m"], cell["measured"], cell["verdict"]) == (None, 6, "match")
    assert run_cli(capsys, "bound", "star", "--m", "2", "--n", "3") == (
        0, "6\n", "")
    # the bound table refuses what one bound refuses, and prints nothing
    code, out, err = run_cli(capsys, "bound", "all", "--m", "2", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: product requires m, n >= 3, got m=2, n=3\n"
    assert run_cli(capsys, "bound", "product", "--m", "2", "--n", "3") == (
        2, "", err)


def test_unary_note_spells_m_as_the_table_does(capsys):
    code, out, _ = run_cli(capsys, "verify", "star", "--n", "3", "--cap", "1")
    assert code == 0
    assert "  note [star m=- n=3]: skipped: cap (bound 6 > 1)\n" in out


def test_oracle_random(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "K*L", "--m", "4", "--n", "5",
        "--words", "200", "--maxlen", "10", "--seed", "7",
    )
    assert code == 0
    assert "disagreements=0" in out
    assert "seed=7" in out


def test_oracle_defaults_are_the_membership_oracles():
    # the verb and the library call are two spellings of one sample
    import inspect

    from starbench.cli import _build_parser
    from starbench.verify import membership_oracle

    args = _build_parser().parse_args(["oracle", "star", "--n", "3"])
    params = inspect.signature(membership_oracle).parameters
    assert (int(args.words), args.maxlen, args.seed) == tuple(
        params[name].default for name in ("count", "maxlen", "seed"))


def test_oracle_exhaustive(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "star", "--n", "3", "--words", "all", "--maxlen", "6"
    )
    assert code == 0
    # the star witness is the binary restriction, so 2^7 - 1 words
    assert "words=127" in out
    assert "disagreements=0" in out


def test_oracle_exhaustive_announces_its_word_count(capsys):
    # the walk can take minutes, so its size is on stderr before it starts
    code, out, err = run_cli(
        capsys, "oracle", "K*L", "--m", "3", "--n", "3", "--words", "all",
        "--maxlen", "5"
    )
    assert code == 0
    # 1 + 4 + 16 + 64 + 256 + 1024 words over K*L's four letters
    assert err == "checking all 1365 words up to length 5\n"
    assert "words=1365" in out


def test_oracle_prints_counts_of_any_size(capsys, monkeypatch):
    # reversal's 3 letters up to length 9100 make a count of 4,342 digits;
    # Python caps int-to-str conversion at 4,300 digits by default
    from starbench import verify

    words = 10**5000
    monkeypatch.setattr(verify, "exhaustive_word_count",
                        lambda op, m, n, maxlen: words)
    monkeypatch.setattr(verify, "exhaustive_oracle",
                        lambda op, m, n, maxlen: verify.OracleReport(
                            op, m, n, words, maxlen, None, 0))
    # main lifts the cap for its own run and puts the caller's back (3.10
    # has no cap, where the getter is missing)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run_cli(capsys, "oracle", "reversal", "--n", "3",
                             "--words", "all", "--maxlen", "9100")
    digits = "1" + "0" * 5000
    assert code == 0
    assert err == f"checking all {digits} words up to length 9100\n"
    assert out == (f"op=reversal m=- n=3 words={digits} maxlen=9100 seed=- "
                   "disagreements=0\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_running_out_of_memory_exits_2(capsys, monkeypatch):
    # exit 1 is kept for ABOVE-BOUND cells and disagreements; a walk that
    # runs out of memory is named on stderr, with no traceback
    from starbench.oracle import SemanticOracle

    def exhaust(self, final, maxlen):
        raise MemoryError

    monkeypatch.setattr(SemanticOracle, "compare_all", exhaust)
    code, out, err = run_cli(capsys, "oracle", "K*∪L*", "--m", "3", "--n", "3",
                             "--words", "all", "--maxlen", "5")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: out of memory"


def test_oracle_skips_a_bound_over_the_cap(capsys):
    # exit 1 is kept for a disagreement; a skip exits 0, as in `complexity`
    for words in ("3", "all"):
        code, out, err = run_cli(capsys, "oracle", "KiL-s", "--m", "5",
                                 "--n", "5", "--words", words)
        assert (code, out) == (0, "")
        assert err == "skipped: cap (bound 25165824 > 2000000)\n"


def test_conjecture_verb(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--pairs", "3:3,3:4")
    assert code == 0
    assert "384" in out and "3072" in out


def test_conjecture_checks_every_pair_before_measuring_any(capsys,
                                                           monkeypatch):
    from starbench import verify

    measured = []
    real = verify.verify_cell
    monkeypatch.setattr(verify, "verify_cell",
                        lambda *cell: measured.append(cell) or real(*cell))
    code, out, err = run_cli(capsys, "conjecture", "--pairs", "3:3,2:3")
    assert (code, out, measured) == (2, "", [])
    assert err == ("error: (K∩L)*-conjecture requires m, n >= 3, "
                   "got m=2, n=3\n")


def test_monoid_verb(capsys):
    code, out, _ = run_cli(capsys, "monoid", "U:n=3")
    assert code == 0
    assert out.strip() == "27"
    code, out, _ = run_cli(capsys, "monoid", "U:n=4", "--letters", "ab")
    assert out.strip() == "24"


def test_monoid_with_no_letters_is_usage_error(capsys):
    # an empty --letters is an empty generator set, not every letter
    code, out, err = run_cli(capsys, "monoid", "U:n=4", "--letters", "")
    assert (code, out, err) == (2, "", "error: letters must be nonempty\n")


def test_monoid_over_the_cap_is_usage_error(capsys, monkeypatch):
    from starbench import witnesses

    monkeypatch.setattr(witnesses, "MONOID_BUDGET", 400)
    code, out, err = run_cli(capsys, "monoid", "U:n=4")
    assert (code, out, err) == (
        2, "", "error: transition monoid has more than 100 elements, "
               "the limit for 4 states\n")


def test_unknown_operation_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "complexity", "nope", "--m", "3", "--n", "3")
    assert code == 2
    assert "unknown operation" in err


def test_bad_witness_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "witness", "Z:n=4")
    assert code == 2
    assert "unknown witness family" in err


def test_repeated_witness_field_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "witness", "U:n=3:n=4")
    assert (code, out, err) == (2, "", "error: repeated witness field 'n'\n")


def test_bare_witness_field_is_usage_error(capsys):
    # a field without '=' is named as such, not as an unknown field
    code, out, err = run_cli(capsys, "witness", "U:n=3:x")
    assert (code, out, err) == (
        2, "", "error: bad witness field 'x', expected key=value\n")


def test_above_bound_cell_fails_the_process(capsys, monkeypatch):
    from starbench import verify

    bad = verify.VerificationCell("KL*", "theorem", 3, 3, 16, 17,
                                  "ABOVE-BOUND", 0, "x")
    monkeypatch.setattr(verify, "verify_table",
                        lambda *a, **k: [bad])
    code, out, _ = run_cli(capsys, "verify", "KL*", "--m", "3", "--n", "3")
    assert code == 1
    assert "ABOVE-BOUND" in out


def test_measured_size_above_the_bound_fails_the_process(capsys, monkeypatch):
    from starbench import bounds

    monkeypatch.setattr(bounds, "evaluate", lambda op, m, n: 15)
    code, out, _ = run_cli(capsys, "verify", "KL*", "--m", "3", "--n", "3")
    assert code == 1
    assert "ABOVE-BOUND" in out
    assert "subset labels: " in out


def test_complexity_above_the_bound_fails_the_process(capsys, monkeypatch):
    # the size still goes to stdout; the cell's note goes to stderr
    from starbench import bounds

    monkeypatch.setattr(bounds, "evaluate", lambda op, m, n: 15)
    code, out, err = run_cli(capsys, "complexity", "KL*", "--m", "3",
                             "--n", "3")
    assert (code, out) == (1, "16\n")
    assert err == ("measured size exceeds a proved upper bound: "
                   "pipeline bug or refuted claim\n")


def test_complexity_of_a_skipped_cell_names_the_skip(capsys):
    code, out, err = run_cli(capsys, "complexity", "KiL-s", "--m", "5",
                             "--n", "5")
    assert code == 0
    assert out == ""
    assert err == f"skipped: cap (bound {2**24 + 2**23} > 2000000)\n"


def test_oracle_disagreement_prints_the_word_and_fails(capsys, monkeypatch):
    from starbench import verify

    def flipped(op, left, right, cap=verify.DEFAULT_SUBSET_CAP):
        final, sd = real(op, left, right, cap)
        return final.with_finals(final.finals ^ {final.initial}), sd

    real = verify.run_pipeline
    monkeypatch.setattr(verify, "run_pipeline", flipped)
    code, out, _ = run_cli(capsys, "oracle", "KsL", "--m", "3", "--n", "3",
                           "--words", "all", "--maxlen", "2")
    assert code == 1
    assert out.splitlines()[1] == "disagreeing word: ''"


@pytest.mark.parametrize("argv, message", [
    (("conjecture", "--pairs", "3-3"), "expected M:N pairs"),
    (("conjecture", "--pairs", "a:b"), "bad pair"),
    (("bound", "star", "--n", "5..3"), "empty range"),
    (("oracle", "KsL", "--m", "3", "--n", "3", "--words", "many"),
     "argument --words: expected an integer >= 1"),
    # a count follows --cap's rule: decimal digits only
    (("oracle", "KsL", "--m", "3", "--n", "3", "--words", "1_0"),
     "argument --words: expected an integer >= 1, got '1_0'"),
    (("oracle", "KsL", "--m", "3", "--n", "3", "--words", " 5"),
     "argument --words: expected an integer >= 1, got ' 5'"),
    (("oracle", "KsL", "--m", "3", "--n", "3", "--words", "+5"),
     "argument --words: expected an integer >= 1, got '+5'"),
])
def test_malformed_arguments_exit_two(capsys, argv, message):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_argparse_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "KL*", "--m", "bogus", "--n", "3"])
    assert exc.value.code == 2


def test_missing_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("--words", "-5"),
    ("--words", "0"),
    ("--words", "all", "--maxlen", "-2"),
    ("--words", "20", "--maxlen", "-1"),
])
def test_oracle_rejects_nonsense_sizes(capsys, argv):
    # argparse refuses a word count below 1, naming the flag; the oracle
    # refuses a negative maxlen
    try:
        code = main(["oracle", "KsL", "--m", "3", "--n", "3", *argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    if argv[1] in ("-5", "0"):
        assert (f"argument --words: expected an integer >= 1, "
                f"got '{argv[1]}'") in err
    else:
        assert err.startswith("error: maxlen must be at least 0")


def test_open_operation_checks_m(capsys):
    code, out, err = run_cli(capsys, "complexity", "KxL-s", "--m", "0", "--n", "3")
    assert code == 2
    assert out == ""
    assert "m, n >= 3" in err


@pytest.mark.parametrize("argv, flag", [
    (("verify", "KL*", "--m", "3", "--n", "3", "--cap", "0"), "--cap"),
    (("complexity", "KL*", "--m", "3", "--n", "3", "--cap", "-1"), "--cap"),
    (("conjecture", "--pairs", "3:3", "--cap", "0"), "--cap"),
    (("conjecture", "--pairs", "3:3", "--cap", "-1"), "--cap"),
    (("complexity", "KL*", "--m", "3", "--n", "3", "--cap", "0"), "--cap"),
    (("verify", "KL*", "--m", "3", "--n", "3", "--jobs", "-4"), "--jobs"),
    (("verify", "KL*", "--m", "3", "--n", "3", "--jobs", "0"), "--jobs"),
    (("verify", "KL*", "--m", "3", "--n", "3", "--jobs", "two"), "--jobs"),
])
def test_limits_below_one_are_usage_errors(capsys, argv, flag):
    # a cap below 1 would skip every cell and still exit 0
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


def test_limits_of_one_are_accepted(capsys):
    code, out, _ = run_cli(capsys, "verify", "KL*", "--m", "3", "--n", "3",
                           "--cap", "1", "--jobs", "1")
    assert code == 0
    assert "skipped: cap" in out
    code, out, _ = run_cli(capsys, "conjecture", "--pairs", "3:3",
                           "--cap", "1")
    assert code == 0
    assert "skipped: cap" in out
