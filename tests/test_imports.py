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


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if not alias.name.startswith("_")]
    assert len(set(fpdrift.__all__)) == len(fpdrift.__all__)
    assert all(hasattr(fpdrift, name) for name in fpdrift.__all__)
    assert sorted(fpdrift.__all__) == sorted(imported)
