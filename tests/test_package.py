import ast
import importlib
import inspect
import runpy
import types
from pathlib import Path

from isgact import verify_universal

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_binds_no_modules():
    namespace: dict = {}
    exec("from isgact import *", namespace)
    modules = sorted(name for name, value in namespace.items() if isinstance(value, types.ModuleType))
    assert modules == []


def test_every_benchmark_probe_names_a_function_of_isgact():
    # perfbench's traced run rebinds these names; a rename would silently drop its spans
    probes = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))["PROBES"]
    assert probes
    for module, attr, *_ in probes:
        assert callable(getattr(importlib.import_module(f"isgact.{module}"), attr, None)), (module, attr)


def test_benchmark_skip_bound_is_the_uniqueness_budget():
    # perfbench requires the skip note exactly on the audits whose candidates exceed
    # SKIP_BOUND, so the bound must follow verify_universal's default budget
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    bounds = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SKIP_BOUND" for t in node.targets)
    ]
    assert bounds == [inspect.signature(verify_universal).parameters["exhaustive_bound"].default]
