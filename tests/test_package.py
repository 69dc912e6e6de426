import types


def test_star_import_binds_no_modules():
    namespace: dict = {}
    exec("from isgact import *", namespace)
    modules = sorted(name for name, value in namespace.items() if isinstance(value, types.ModuleType))
    assert modules == []
