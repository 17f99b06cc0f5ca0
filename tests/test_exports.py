"""Every exported name resolves, and the package exports what it re-exports."""
import ast
import importlib
import inspect
import pkgutil

import ptdarboux


def _modules():
    for info in pkgutil.iter_modules(ptdarboux.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"ptdarboux.{info.name}")


def test_every_module_all_entry_resolves():
    # a stale entry breaks `from ptdarboux.<module> import *` and any tool
    # that walks __all__ with getattr
    checked = 0
    for module in [ptdarboux, *_modules()]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked > len(ptdarboux.__all__)


def test_package_all_is_exactly_its_re_exports():
    tree = ast.parse(inspect.getsource(ptdarboux))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert set(ptdarboux.__all__) == imported | {"__version__"}
    assert len(ptdarboux.__all__) == len(set(ptdarboux.__all__))
    namespace = {}
    exec("from ptdarboux import *", namespace)
    assert set(ptdarboux.__all__) <= set(namespace)
