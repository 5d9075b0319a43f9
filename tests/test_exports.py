import ast
import sys
import types
from pathlib import Path

import zsindex

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    for name in zsindex.__all__:
        assert hasattr(zsindex, name), name
    assert len(set(zsindex.__all__)) == len(zsindex.__all__)


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(zsindex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(zsindex.__all__)


def test_package_imports_only_the_standard_library():
    modules = sorted((ROOT / "src" / "zsindex").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "zsindex" or top in sys.stdlib_module_names, (path.name, name)


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
