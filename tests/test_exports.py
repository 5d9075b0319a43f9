import ast
import inspect
import sys
import textwrap
import types
from pathlib import Path

import zsindex
from zsindex import certificates, residues, sequences

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


def test_the_unchecked_sequence_constructor_stays_private():
    # sequences._presorted skips the sort and the range check; only the
    # enumeration kernel's callers may use it.
    assert "_presorted" not in zsindex.__all__
    assert not hasattr(zsindex, "_presorted")


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


def _reached(func, seen):
    """func and every package function its source names, transitively."""
    func = inspect.unwrap(func)
    if func in seen:
        return
    seen[func] = ast.parse(textwrap.dedent(inspect.getsource(func)))
    for node in ast.walk(seen[func]):
        if isinstance(node, ast.Name) and node.id in func.__globals__:
            target = inspect.unwrap(func.__globals__[node.id])
            if inspect.isfunction(target) and target.__module__.startswith("zsindex"):
                _reached(target, seen)


def test_checker_reads_no_lift_table():
    # The independent checker and the exact index share nothing with the
    # orbit kernel's per-modulus table, directly or through a helper.
    seen = {}
    for func in (
        certificates.certify,
        certificates.verify_witness,
        sequences.min_transform_sum,
        sequences.sequence_index,
    ):
        _reached(func, seen)
    assert inspect.unwrap(residues.units) in seen  # the walk follows helpers
    assert inspect.unwrap(residues.lift_table) not in seen
    for func, tree in seen.items():
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "lift_table" not in names, func.__qualname__
