import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    # the traced benchmark patches these names in place; a construction
    # moved out of its module must fail here rather than crash the trace
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module_name, attr, _ in tracing.PATCHES:
        importlib.import_module(module_name)
        assert callable(getattr(sys.modules[module_name], attr)), (module_name, attr)
