import importlib
import runpy
import types
from pathlib import Path


def test_star_import_binds_no_modules():
    namespace: dict = {}
    exec("from isgact import *", namespace)
    modules = sorted(name for name, value in namespace.items() if isinstance(value, types.ModuleType))
    assert modules == []


def test_every_benchmark_probe_names_a_function_of_isgact():
    # perfbench's traced run rebinds these names; a rename would silently drop its spans
    probes = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"))["PROBES"]
    assert probes
    for module, attr, *_ in probes:
        assert callable(getattr(importlib.import_module(f"isgact.{module}"), attr, None)), (module, attr)
