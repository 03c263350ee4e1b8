import ast
import importlib
import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench(name):
    """The bench script `name`, loaded from its file."""
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the traced benchmark patches these names in place; a construction
    # moved out of its module must fail here rather than crash the trace
    tracing = _bench("tracing")
    assert tracing.PATCHES
    for module_name, attr, _ in tracing.PATCHES:
        importlib.import_module(module_name)
        assert callable(getattr(sys.modules[module_name], attr)), (module_name, attr)


def test_every_shape_has_one_construction_row_and_an_oracle():
    from starbench.bounds import TABLE
    from starbench.oracle import _FRAGMENTS
    from starbench.verify import _SHAPES

    shapes = {e.shape for e in TABLE.values()}
    assert set(_SHAPES) == shapes
    assert set(_FRAGMENTS) == shapes


def test_every_shape_reports_its_layers_to_the_trace():
    # each construction calls the layers through the names the traced
    # benchmark patches, so no layer's time is booked as verify's own
    from starbench import verify
    from starbench.bounds import TABLE

    tracing = _bench("tracing")
    first = {}
    for entry in TABLE.values():
        first.setdefault(entry.shape, entry.op)
    with_product = {"boolean", "k_circ_lstar", "lstar_circ_k",
                    "kstar_circ_lstar", "boolean_star"}
    seen = set()
    for shape, op in first.items():
        tracer = tracing.Tracer()
        with tracer.installed():
            verify.verify_cell(op, 3, 3)
        names = {span.name for span in tracer.spans}
        assert "minimize.minimize" in names, shape
        # a plain boolean product is minimized without a determinization
        assert ("minimize.determinize" in names) == (shape != "boolean"), shape
        assert ("ops.product_dfa" in names) == (shape in with_product), shape
        seen |= names
    # every name patched in verify is reached through verify by some shape
    assert seen >= {span for module, _, span in tracing.PATCHES
                    if module == "starbench.verify"}


def _package_imports(module):
    """The package modules that `module` imports by name, anywhere in it."""
    path = ROOT / "src" / "starbench" / f"{module}.py"
    inside = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("starbench"):
                # `from . import x` imports the module x
                names = ([node.module] if node.module
                         else [a.name for a in node.names])
                inside.update(n.removeprefix("starbench").lstrip(".")
                              for n in names)
        elif isinstance(node, ast.Import):
            inside.update(a.name.removeprefix("starbench.")
                          for a in node.names if a.name.startswith("starbench"))
    return inside


@pytest.mark.parametrize("module, allowed", [
    # the oracle is the independent route: within the package it may reach
    # the value types, the registry and the witnesses the registry names,
    # never the constructions it checks
    ("oracle", {"core", "bounds", "witnesses"}),
    # the instrument measures the product construction's results, so it
    # must not lean on that construction
    ("minimize", {"core"}),
    # the product draws its own refinement keys, so they cannot come to
    # lean on the instrument that refines from them
    ("ops", {"core"}),
], ids=["oracle", "minimize", "ops"])
def test_oracle_imports_nothing_from_the_pipeline(module, allowed):
    # followed transitively: importing a module loads all it reaches
    reached, todo = set(), [module]
    while todo:
        for name in _package_imports(todo.pop()) - reached:
            reached.add(name)
            todo.append(name)
    assert reached == allowed


def test_importing_the_package_starts_no_process_machinery():
    # verify_table imports its process pool only when it starts workers,
    # so a serial caller never loads concurrent.futures or multiprocessing
    src = ROOT / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import starbench; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"


def test_package_imports_only_the_standard_library():
    # the README promises a pure standard-library package
    package = ROOT / "src" / "starbench"
    outside = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "starbench":
                    outside.add((path.name, name))
    assert not outside


def test_readme_command_line_flags_match_the_parser():
    # a flag removed from the parser must not linger in the docs, and a
    # flag added to it must be shown there
    from starbench.cli import _build_parser

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    documented = set(re.findall(r"--[a-z0-9][a-z0-9-]*", block))
    verbs = _build_parser()._subparsers._group_actions[0].choices.values()
    options = {flag for verb in verbs for action in verb._actions
               for flag in action.option_strings} - {"-h", "--help"}
    assert documented == options


def test_readme_witness_table_names_every_family():
    # the registry writes its witnesses in this syntax, so a family the
    # table leaves out, or one it still lists after removal, misleads
    from starbench.witnesses import FAMILIES

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Witness names", 1)[1].split("###", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    listed = {name for row in rows
              for name in re.findall(r"`([^`]*)`", row.split("|")[1])}
    assert listed == set(FAMILIES)


def test_readme_dfa_text_block_is_the_u4_witness():
    # the format section shows a witness's rows as write_dfa prints them
    from starbench.core import write_dfa
    from starbench.witnesses import build, parse_witness

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### DFA text format", 1)[1].split("###", 1)[0]
    block = section.split("```\n", 2)[1]
    assert block == write_dfa(build(parse_witness("U:n=4")))


def test_package_exports_exactly_what_it_imports():
    # __all__ is kept by hand beside the imports of __init__.py
    import starbench

    init = ROOT / "src" / "starbench" / "__init__.py"
    imported = {alias.asname or alias.name
                for node in ast.parse(init.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert set(starbench.__all__) == imported
    assert len(starbench.__all__) == len(imported)


def test_every_export_has_a_user():
    # a name kept only by its own export is dead surface: each one must be
    # loaded by another package module or a bench script, or be named in
    # the README
    import starbench

    root = ROOT
    paths = [path for path in sorted((root / "src" / "starbench").glob("*.py"))
             if path.name != "__init__.py"] + sorted((root / "bench").glob("*.py"))
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    named = set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))
    assert [name for name in starbench.__all__
            if name not in loaded | named] == []


def test_every_witness_family_has_an_entry():
    # a family no registry entry names is dead surface, as an export
    # without a user is
    from starbench.bounds import TABLE
    from starbench.witnesses import FAMILIES

    named = {name.partition(":")[0] for e in TABLE.values()
             for name in (e.left, e.right) if name is not None}
    assert sorted(set(FAMILIES) - named) == []


def test_readme_library_example_prints_what_it_says(capsys):
    # each `print(...)  # value` line of the Library block must print that
    # value, so the example cannot drift from the package
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    claimed = [line.rsplit("#", 1)[1].strip().strip('"')
               for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert claimed == ["24", "20", "match"]
    assert capsys.readouterr().out.splitlines() == claimed


def test_readme_command_examples_print_what_they_say(capsys):
    # each `starbench ...  # ...: value` line of the Command line block
    # must print that value, so its witness names and numbers cannot drift
    from starbench.cli import main

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    examples = [re.fullmatch(r"starbench (.*?)\s+#.*: (\S+)", line)
                for line in block.splitlines()]
    examples = [(shlex.split(e[1]), e[2]) for e in examples if e]
    assert [value for _, value in examples] == ["281", "269", "281", "24"]
    for argv, value in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == value + "\n", argv



def _measured(op, m, n, left=None, right=None):
    """The minimal-DFA size of a cell, on its registry witnesses or on the
    named ones."""
    from starbench.verify import _operands_for, run_pipeline
    from starbench.witnesses import build, parse_witness

    operands = (_operands_for(op, m, n) if right is None
                else (build(parse_witness(left)), build(parse_witness(right))))
    return run_pipeline(op, *operands)[0].size


def _walk_calls(op, m, n, maxlen):
    """The steps and member-only calls of the exhaustive walk of a cell."""
    from conftest import counted_calls
    from starbench.oracle import SemanticOracle
    from starbench.verify import _operands_for, run_pipeline

    left, right = _operands_for(op, m, n)
    final, _ = run_pipeline(op, left, right)
    oracle = SemanticOracle(op, left, right)
    calls = counted_calls(oracle)
    oracle.compare_all(final, maxlen)
    return tuple(calls)


def _nfa_states(op, m, n):
    """The states of the NFA that a cell determinizes."""
    from starbench.bounds import lookup
    from starbench.minimize import DEFAULT_SUBSET_CAP
    from starbench.ops import BooleanOp
    from starbench.verify import _SHAPES, _operands_for

    entry = lookup(op)
    return _SHAPES[entry.shape](*_operands_for(op, m, n),
                                BooleanOp(entry.boolean), DEFAULT_SUBSET_CAP).size


def _large_cell_rounds(monkeypatch):
    """The fewest and the most of Moore's rounds on the benchmark's `large`
    cells, from finality and then from the refinement keys, counted by the
    reference refinement from the keys that each cell's last minimize
    starts from; a key's bit 0 is its state's finality."""
    from conftest import moore_refinement

    minimize = importlib.import_module("starbench.minimize")
    rounds, starts = minimize._moore_rounds, []

    def recorded(trans, labels):
        starts.append((trans, list(labels)))
        return rounds(*starts[-1])

    monkeypatch.setattr(minimize, "_moore_rounds", recorded)
    finality, keyed = [], []
    for op, m, n, _ in _bench("expected").LARGE_CELLS:
        _measured(op, m, n)
        trans, keys = starts[-1]
        finality.append(moore_refinement(trans, [key & 1 for key in keys])[1])
        keyed.append(moore_refinement(trans, keys)[1])
    return min(finality), max(finality), min(keyed), max(keyed)


def _readme_counts(monkeypatch):
    """Each count the README states: a phrase quoted from its prose, and
    a function that recomputes every number in the phrase, in order."""
    from starbench import verify
    from starbench.bounds import TABLE, evaluate
    from starbench.minimize import (
        _KEY_BITS_MIN, _STATES_PER_KEY_BIT, DEFAULT_SUBSET_CAP)
    from starbench.witnesses import MONOID_BUDGET

    conjecture = "(K∩L)*-conjecture"

    def over_cap():
        # the starred-boolean bound depends on mn alone
        return next(mn for mn in range(1, 64) if TABLE[conjecture].formula(
            mn, 1) > DEFAULT_SUBSET_CAP),

    # 3.10 has no int-to-str cap; 3.11 set it to 4,300 digits
    digits = getattr(sys.int_info, "default_max_str_digits", 4300)
    return [
        ("subset or product DFA of 128 states or more",
         lambda: (_KEY_BITS_MIN * _STATES_PER_KEY_BIT,)),
        ("from finality, the benchmark's five `large` cells take 4 to 20 "
         "rounds; from the keys, 0 to 2",
         lambda: _large_cell_rounds(monkeypatch)),
        ("past the 4,300 digits at which Python caps int-to-str conversion",
         lambda: (digits,)),
        ("`reversal` at n = 9 takes 26,739 steps and 1,536 member-only calls "
         "at maxlen 40",
         lambda: (9, *_walk_calls("reversal", None, 9, 40), 40)),
        ("`K*∪L*` (3,3) takes 6,756 steps and 4,812 member-only calls at "
         "maxlen 8",
         lambda: (3, 3, *_walk_calls("K*∪L*", 3, 3, 8), 8)),
        ("`KL*` measures 27 > 22 at (m,n) = (4,3)",
         lambda: (_measured("KL*", 4, 3, "U:n=4", "U0:n=3"),
                  evaluate("KL*", 4, 3), 4, 3)),
        ("`K*L*` measures 65 > 52 at (4,3)",
         lambda: (_measured("K*L*", 4, 3, "U:n=4:order=abcd",
                            "U0:n=3:order=dcba"),
                  evaluate("K*L*", 4, 3), 4, 3)),
        ("(up to 2000 states), before at most 20 subset labels",
         lambda: (verify._DIAG_DFA_LIMIT, verify._DIAG_LABELS)),
        ("`--cap` (default 2,000,000)", lambda: (DEFAULT_SUBSET_CAP,)),
        ("passes the default cap from mn = 22 on", over_cap),
        ("(5,5) (bound 25,165,824)", lambda: (5, 5, evaluate(conjecture, 5, 5))),
        ("`K*∪L*` at (11,11) (bound 2,356,226)",
         lambda: (11, 11, evaluate("K*∪L*", 11, 11))),
        ("starred-boolean cell with mn ≥ 22", over_cap),
        ("holds at most 18,000,000 characters: a transition monoid of more "
         "than 18,000,000 // n elements",
         lambda: (MONOID_BUDGET, MONOID_BUDGET)),
        ("At n = 9 the limit is 2,000,000 elements",
         lambda: (9, MONOID_BUDGET // 9)),
        ("at n = 300 it is 60,000", lambda: (300, MONOID_BUDGET // 300)),
        ("(4,4) and (3,6), whose NFAs have 17 and 19 states",
         lambda: (4, 4, 3, 6, _nfa_states(conjecture, 4, 4),
                  _nfa_states(conjecture, 3, 6))),
        ("measure 49152 and 196608",
         lambda: (_measured(conjecture, 4, 4), _measured(conjecture, 3, 6))),
        ("(4,5), at 21 states", lambda: (4, 5, _nfa_states(conjecture, 4, 5))),
        ("reaches its bound of 786,432", lambda: (evaluate(conjecture, 4, 5),)),
    ]


_NUMBER = r"\d+(?:,\d{3})*(?:\.\d+)?"
# a time or a memory figure, its number in group 1
_UNIT = re.compile(rf"({_NUMBER})[\s-]*(?:[mµ]?s|[KMG]i?B|bytes?|seconds?|"
                   r"minutes?|hours?)\b")


def _numbers(text):
    """The numbers in text, their thousands commas dropped."""
    return [float(x) if "." in x else int(x)
            for x in (x.replace(",", "") for x in re.findall(_NUMBER, text))]


def test_readme_figures_are_recomputed_or_cited(monkeypatch):
    # every count the README states is recomputed from the code here, and
    # every other figure in its prose sits in a sentence citing the record
    # that holds it: a PR's entry in CHANGES.md, or a committed JSON file.
    # Code blocks and tables are left to the tests that run them
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    prose, fenced = [], False
    for line in readme.splitlines():
        fenced ^= line.startswith("```")
        if not (fenced or line.startswith(("```", "|"))):
            prose.append(line)
    prose = " ".join(" ".join(prose).split())
    wrong = []
    for phrase, recompute in _readme_counts(monkeypatch):
        if phrase not in prose:
            wrong.append(("not in the README", phrase))
        elif _numbers(phrase) != list(values := recompute()):
            wrong.append((phrase, values))
        prose = prose.replace(phrase, " ")
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    for sentence in re.split(r"(?<=[.!?])\s+", prose):
        figures = [x for x in re.findall(_NUMBER, sentence)
                   if len(re.sub(r"\D", "", x)) >= 3] + _UNIT.findall(sentence)
        if not figures:
            continue
        pr = re.search(r"`CHANGES\.md`, PR (\d+)", sentence)
        cited = re.findall(r"`([\w./-]+\.json)`", sentence)
        if pr:
            records = re.findall(rf"^- PR {pr[1]} \(.*$", changes, re.M)
        else:
            records = [(ROOT / path).read_text(encoding="utf-8")
                       for path in cited if (ROOT / path).is_file()]
        record = " ".join(records).replace(",", "")
        missing = [x for x in figures if not re.search(
            rf"(?<![\d.]){re.escape(x.replace(',', ''))}(?![\d])", record)]
        if not records or missing:
            wrong.append((sentence, missing or figures))
    assert wrong == []
