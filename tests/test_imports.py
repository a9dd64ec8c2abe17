"""No module of the package imports a name it never uses (pyflakes' F401, without pyflakes)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gilbertsim"


def unused_imports(source: str) -> list[str]:
    """The imported names that the module never reads, except on `# noqa: F401` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),  # it re-exports
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from .geometry import ConvexWindow, covariogram_radial_integral, unit_ball_volume\n"
              "from .gilbert_graph import build_edges  # noqa: F401\n"
              "def f(w: ConvexWindow):\n    return os.path.join(unit_ball_volume(2))\n")
    assert unused_imports(source) == ["math (line 2)", "covariogram_radial_integral (line 4)"]
