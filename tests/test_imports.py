import ast
from pathlib import Path

import fpdrift

PACKAGE = Path(fpdrift.__file__).parent


def private_imports(path: Path) -> list[str]:
    """`_`-prefixed names this module takes from another fpdrift module: by
    `from .x import _y`, or as `x._y` of a module bound by `from . import x`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("fpdrift")):
            for alias in node.names:
                if node.module in (None, "fpdrift"):
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fpdrift.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    assert {path.name: private_imports(path) for path in modules} == {
        path.name: [] for path in modules}


def test_private_import_check_sees_both_forms(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .fbm import Grid, _time_factor\nfrom . import fbm\n"
                    "fbm._cholesky_psd(1)\nfbm.Grid\n", encoding="utf-8")
    assert private_imports(path) == ["from .fbm import _time_factor", "fbm._cholesky_psd"]


def unreferenced_private_definitions(paths: list[Path]) -> list[str]:
    """`_`-prefixed functions, methods, classes and module-level assignments
    defined in these modules whose name no other name, attribute or import in
    them reads; dunders excepted."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.startswith("_") \
                            and not name.id.endswith("__"):
                        defined.append(name.id)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append(node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(name for name in defined if name not in read)


def test_every_private_helper_is_referenced():
    modules = sorted(PACKAGE.glob("*.py"))
    assert unreferenced_private_definitions(modules) == []


def test_dead_helper_check_sees_functions_methods_and_classes(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def _used():\n    return _Used().run()\n\n"
                    "def _dead():\n    pass\n\n"
                    "class _Used:\n    def __init__(self):\n        self._x = 1\n"
                    "    def run(self):\n        return self._helper()\n"
                    "    def _helper(self):\n        return _used\n"
                    "    def _stale(self):\n        pass\n\n"
                    "class _Gone:\n    pass\n", encoding="utf-8")
    assert unreferenced_private_definitions([path]) == ["_Gone", "_dead", "_stale"]


def test_dead_helper_check_sees_module_constants(tmp_path):
    # A constant is read by a name or an attribute, not by its own assignment.
    path = tmp_path / "m.py"
    path.write_text("import math\n_LIMIT = 3\n_STALE, _WIDTH = 1.0, 2\n_EPS: float = 1e-16\n"
                    "_FACT = math.factorial(_LIMIT)\n__all__ = []\n\n"
                    "def used():\n    _local = _FACT\n    return _local\n", encoding="utf-8")
    assert unreferenced_private_definitions([path]) == ["_EPS", "_STALE", "_WIDTH"]


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if not alias.name.startswith("_")]
    assert len(set(fpdrift.__all__)) == len(fpdrift.__all__)
    assert all(hasattr(fpdrift, name) for name in fpdrift.__all__)
    assert sorted(fpdrift.__all__) == sorted(imported)
