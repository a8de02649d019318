"""The package's import surface: no stale imports, no dangling exports."""

import ast
import importlib
from pathlib import Path

import pytest

import fracheat

SRC = Path(fracheat.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _module_imports(tree: ast.Module):
    # (bound name, line) of every module-level import but __future__'s,
    # looking into if/try blocks but not into functions or classes
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exports(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _exports(tree)
    stale = [f"{bound} (line {line})"
             for bound, line in _module_imports(tree)
             if bound not in used and bound not in exported]
    assert not stale, f"fracheat.{name} imports but never uses: {stale}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = fracheat if name == "__init__" else \
        importlib.import_module(f"fracheat.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing: {missing}"
