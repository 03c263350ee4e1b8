import ast
import importlib
import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    # the traced benchmark patches these names in place; a construction
    # moved out of its module must fail here rather than crash the trace
    tracing = _tracing()
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

    tracing = _tracing()
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
    path = TRACING.parent.parent / "src" / "starbench" / f"{module}.py"
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
    src = TRACING.parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import starbench; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"


def test_package_imports_only_the_standard_library():
    # the README promises a pure standard-library package
    package = TRACING.parent.parent / "src" / "starbench"
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

    readme = (TRACING.parent.parent / "README.md").read_text(encoding="utf-8")
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

    readme = (TRACING.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Witness names", 1)[1].split("###", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    listed = {name for row in rows
              for name in re.findall(r"`([^`]*)`", row.split("|")[1])}
    assert listed == set(FAMILIES)


def test_readme_dfa_text_block_is_the_u4_witness():
    # the format section shows a witness's rows as write_dfa prints them
    from starbench.core import write_dfa
    from starbench.witnesses import build, parse_witness

    readme = (TRACING.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### DFA text format", 1)[1].split("###", 1)[0]
    block = section.split("```\n", 2)[1]
    assert block == write_dfa(build(parse_witness("U:n=4")))


def test_readme_operations_table_matches_the_registry():
    # each row lists canonical names, their aliases in the same order (or
    # `same` for none) and one status
    from starbench.bounds import TABLE

    readme = (TRACING.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Operations", 1)[1].split("###", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    listed = {}
    for row in rows:
        ops, aliases, status = (cell.strip() for cell in row.split("|")[1:4])
        ops = re.findall(r"`([^`]*)`", ops)
        aliases = ([None] * len(ops) if aliases == "same"
                   else re.findall(r"`([^`]*)`", aliases))
        assert len(aliases) == len(ops), row
        listed.update((op, (alias, status)) for op, alias in zip(ops, aliases))
    assert listed == {e.op: (e.alias, e.status) for e in TABLE.values()}


def test_package_exports_exactly_what_it_imports():
    # __all__ is kept by hand beside the imports of __init__.py
    import starbench

    init = TRACING.parent.parent / "src" / "starbench" / "__init__.py"
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

    root = TRACING.parent.parent
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
    readme = (TRACING.parent.parent / "README.md").read_text(encoding="utf-8")
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

    readme = (TRACING.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    examples = [re.fullmatch(r"starbench (.*?)\s+#.*: (\S+)", line)
                for line in block.splitlines()]
    examples = [(shlex.split(e[1]), e[2]) for e in examples if e]
    assert [value for _, value in examples] == ["281", "281", "24"]
    for argv, value in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == value + "\n", argv
