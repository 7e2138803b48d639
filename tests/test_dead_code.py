"""Every top-level function and class in the package, and every method and
property of its classes, has a caller outside the tests: a command, a
script or the benchmark names it somewhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "boundarylink"


def _trees():
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            yield ast.parse(path.read_text())


def _used_names() -> set[str]:
    used = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _used_attributes() -> set[str]:
    return {node.attr for tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def test_every_top_level_definition_is_used():
    used = _used_names()
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used]
    assert unused == []


def test_every_method_and_property_is_used():
    # dunder methods are called by the language, not by name
    used = _used_attributes()
    unused = [f"{path.stem}.{cls.name}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls in ast.parse(path.read_text()).body
              if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []
