"""Acceptance suite: every advertised bound measured exactly, on a clock.

Each criterion prints one PASS line (visible with -s or on failure); the
assertions pin exact state counts and the stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

import pytest

from conftest import random_dfa, relabel_states
from starbench.bounds import evaluate
from starbench.core import Dfa, write_dfa
from starbench.minimize import minimize
from starbench.verify import (
    exhaustive_oracle,
    membership_oracle,
    run_pipeline,
    verify_cell,
    verify_table,
)
from starbench.witnesses import WitnessSpec, build, monoid_size

COMBINED_13 = [
    "K∪L*", "K∩L*", "K⊕L*", "K\\L*", "L*\\K",
    "K*∪L*", "K*∩L*", "K*⊕L*", "K*\\L*",
    "KL*", "K*L", "K*L*", "(KL)*",
]


@contextmanager
def budget(criterion, label, seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, (
        f"criterion {criterion} over budget: {elapsed:.1f}s >= {seconds}s"
    )
    print(f"criterion {criterion} ({label}): PASS in {elapsed:.2f}s")


def assert_all_match(cells):
    for cell in cells:
        assert cell.verdict == "match", (
            f"{cell.op} m={cell.m} n={cell.n}: expected {cell.expected}, "
            f"measured {cell.measured} ({cell.verdict}) {cell.note}"
        )


def test_criterion_1_basic_bounds():
    with budget(1, "basic bounds", 5):
        ns = list(range(3, 9))
        cells = verify_table(["star", "reversal"], list(product(ns, ns)))
        assert_all_match(cells)
        assert {(c.op, c.n): c.measured for c in cells}[("star", 4)] == 12
        small = list(range(3, 7))
        cells = verify_table(
            ["product", "bool-union", "bool-intersection",
             "bool-difference", "bool-symdiff"],
            list(product(small, small)),
        )
        assert_all_match(cells)
        for c in cells:
            if c.op.startswith("bool-"):
                assert c.measured == c.m * c.n


def test_criterion_2_boolean_with_one_star():
    with budget(2, "boolean with one starred argument", 5):
        small = list(range(3, 7))
        cells = verify_table(["K∪L*", "K∩L*", "K⊕L*", "K\\L*", "L*\\K"],
                             list(product(small, small)))
        assert_all_match(cells)
        assert verify_cell("K∪L*", 4, 5).measured == 93

        # the prior-work claim the theorem corrects: the plain pair cannot
        # reach the intersection bound; record the shortfall, assert only
        # strictness
        for m in small:
            for n in small:
                k = build(WitnessSpec("U", m))
                l = build(WitnessSpec("U", n, tuple("bac")))
                measured = run_pipeline("K∩L*", k, l)[0].size
                bound = evaluate("K∩L*", m, n)
                print(f"  non-dialect K∩L* ({m},{n}): {measured} < {bound}")
                assert measured < bound


def test_criterion_3_boolean_with_two_stars():
    with budget(3, "boolean with two starred arguments", 10):
        small = list(range(3, 7))
        cells = verify_table(["K*∪L*", "K*∩L*", "K*\\L*", "K*⊕L*"],
                             list(product(small, small)))
        assert_all_match(cells)
        assert verify_cell("K*∪L*", 4, 5).measured == 254


def test_criterion_4_products_with_stars():
    with budget(4, "products with starred arguments", 30):
        rng = list(range(3, 8))
        cells = verify_table(["KL*", "K*L", "K*L*"], list(product(rng, rng)))
        assert_all_match(cells)
        by = {(c.op, c.m, c.n): c.measured for c in cells}
        assert by[("KL*", 4, 5)] == 88
        assert by[("K*L", 4, 5)] == 281
        assert by[("K*L*", 4, 5)] == 226


def test_criterion_5_stars_of_product_and_union():
    with budget(5, "stars of product and union", 30):
        rng = list(range(3, 8))
        cells = verify_table(["(KL)*", "(K∪L)*"], list(product(rng, rng)))
        assert_all_match(cells)
        by = {(c.op, c.m, c.n): c.measured for c in cells}
        assert by[("(KL)*", 4, 5)] == 269
        assert by[("(K∪L)*", 4, 5)] == 233


def test_criterion_6_conjecture_reproduction():
    with budget(6, "starred intersection conjecture", 120):
        cells = verify_table(["(K∩L)*-conjecture"],
                             [(3, 3), (3, 4), (3, 5)])
        values = [(c.m, c.n, c.measured, c.verdict) for c in cells]
        assert values == [
            (3, 3, 384, "match"),
            (3, 4, 3072, "match"),
            (3, 5, 24576, "match"),
        ]
        assert all(c.status == "conjecture" for c in cells)


def test_criterion_7_starred_difference_six_letters():
    with budget(7, "starred difference with six-letter pair", 60):
        cell = verify_cell("(K\\L)*", 3, 3)
        assert cell.measured == 384
        assert cell.verdict == "match"


def test_criterion_8_monoid_sizes():
    with budget(8, "full transformation monoid", 1):
        assert monoid_size(build(WitnessSpec("U", 3))) == 27
        assert monoid_size(build(WitnessSpec("U", 4))) == 256


def test_criterion_9_property_suite(every_family):
    t0 = time.perf_counter()

    # oracle agreement, exhaustive: all 13 combined operations at (3, 3)
    for op in COMBINED_13:
        report = exhaustive_oracle(op, 3, 3, maxlen=8)
        assert report.disagreements == 0, (op, report.example)

    # oracle agreement, seeded random at (4, 5)
    for op in COMBINED_13 + ["product", "bool-union", "bool-intersection",
                             "bool-difference", "bool-symdiff", "(K∪L)*"]:
        report = membership_oracle(op, 4, 5, count=500, maxlen=12, seed=20240)
        assert report.disagreements == 0, (op, report.example)
    for op in ["star", "reversal"]:
        report = membership_oracle(op, None, 5, count=500, maxlen=12, seed=20240)
        assert report.disagreements == 0, (op, report.example)
    # the mn-exponential star pipelines stay at small sizes
    for op in ["(K∩L)*-conjecture", "(K\\L)*", "(K⊕L)*-open"]:
        report = membership_oracle(op, 3, 4, count=500, maxlen=12, seed=20240)
        assert report.disagreements == 0, (op, report.example)
    # and exhaustively at (3, 4): 19,531, 55,987 and 19,531 words
    for op in ["(K∩L)*-conjecture", "(K\\L)*", "(K⊕L)*-open"]:
        report = exhaustive_oracle(op, 3, 4, maxlen=6)
        assert report.disagreements == 0, (op, report.example)
        assert report.words == {"(K\\L)*": 55987}.get(op, 19531), op

    # minimization idempotence and canonical-form equality, 100 random
    # 8-state DFAs
    rng = random.Random(90125)
    for _ in range(100):
        d = random_dfa(rng, 8)
        m = minimize(d)
        assert minimize(m) == m
        perm = list(range(d.size))
        rng.shuffle(perm)
        assert minimize(relabel_states(d, perm)) == m

    # the text format on all built witnesses: the dfa, alphabet, initial and
    # finals lines, then per letter in alphabet order the letter and its row
    for family, order in every_family:
        for n in range(3, 9):
            d = build(WitnessSpec(family, n, order))
            lines = write_dfa(d).splitlines()
            assert lines[:4] == [f"dfa {n}", " ".join(("alphabet", *d.alphabet)),
                                 f"initial {d.initial}",
                                 " ".join(("finals", *map(str, sorted(d.finals))))]
            assert [line.split(" ") for line in lines[4:]] == [
                [x, *map(str, d.delta[x])] for x in d.alphabet]

    # a witness's letter order renames the canonical letters, on every family
    for family, order in every_family:
        d = build(WitnessSpec(family, 5, order))
        letters = list(d.alphabet)
        rng.shuffle(letters)
        renamed = Dfa(d.size, d.alphabet, dict(zip(letters, map(d.delta.get, order))),
                      d.initial, d.finals)
        assert build(WitnessSpec(family, 5, tuple(letters))) == renamed

    print(f"criterion 9 (property suite): PASS in {time.perf_counter() - t0:.2f}s")
