"""The package's modules import only modules below them in one fixed order."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chorkit"
LAYERS = ["explore", "cc", "sp", "projection", "amendment", "verifier", "syntax", "cli"]
ENTRY_POINTS = {"__init__", "__main__"}


def _imported(tree: ast.Module) -> set[str]:
    """The package modules a module imports, however it spells the import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                out.update(alias.name for alias in node.names)
            elif node.level == 1:
                out.add(node.module.split(".")[0])
            elif node.module == "chorkit":
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("chorkit."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("chorkit."):
                    out.add(alias.name.split(".")[1])
    return out


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - ENTRY_POINTS
    assert modules == set(LAYERS)


def test_no_module_imports_a_later_one():
    back_edges = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ENTRY_POINTS:
            continue
        rank = LAYERS.index(path.stem)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in sorted(_imported(tree)):
            if LAYERS.index(name) >= rank:
                back_edges.append(f"{path.stem} imports {name}")
    assert back_edges == []
