import ast
import importlib
import importlib.util
import re
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
    from starbench.oracle import SemanticOracle
    from starbench.verify import _SHAPES

    shapes = {e.shape for e in TABLE.values()}
    assert set(_SHAPES) == shapes
    for shape in shapes:
        assert hasattr(SemanticOracle, "_" + shape), shape


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


@pytest.mark.parametrize("module, allowed", [
    # the oracle is the independent route: within the package it may use
    # the value types and the registry, never the constructions it checks
    ("oracle", {"core", "bounds"}),
    # the instrument decides equivalence by pair search, so it must not
    # lean on the product construction that the pipeline shares
    ("minimize", {"core"}),
], ids=["oracle", "minimize"])
def test_oracle_imports_nothing_from_the_pipeline(module, allowed):
    path = TRACING.parent.parent / "src" / "starbench" / f"{module}.py"
    inside = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level or name.startswith("starbench"):
                # `from . import x` has no module name and is refused
                inside.add(name.removeprefix("starbench").lstrip(".") or "?")
        elif isinstance(node, ast.Import):
            inside.update(a.name for a in node.names
                          if a.name.startswith("starbench"))
    assert inside == allowed


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
    assert listed == {f.cli_name for f in FAMILIES.values()}


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
