"""Every top-level function and class in the package has a caller outside
the tests: a command, a script or the benchmark names it somewhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "boundarylink"


def _used_names() -> set[str]:
    used = set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    return used


def test_every_top_level_definition_is_used():
    used = _used_names()
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used]
    assert unused == []
