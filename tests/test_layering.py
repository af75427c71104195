"""The package's modules import only modules below them in one fixed order,
each report verdict and well-formedness error is made in one place, and
every public definition has a caller in the package or is documented."""

from __future__ import annotations

import ast
import re
from collections import Counter
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


def _tail(node: ast.AST) -> str | None:
    """The name an expression ends in: `x` and `m.x` both give x."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _sites(found) -> set[str]:
    """`module.definition` for each top-level definition of the package with a
    node that `found` accepts."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if any(found(node) for node in ast.walk(top)):
                out.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return out


def _constructs(name: str):
    return lambda node: isinstance(node, ast.Call) and _tail(node.func) == name


def _catches(name: str):
    def found(node: ast.AST) -> bool:
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(_tail(t) == name for t in caught)

    return found


def test_verdicts_and_well_formedness_errors_each_have_one_place():
    # Every check charges a budget and reports through `_checked`.
    reporters = {"verifier._checked"}
    assert _sites(_constructs("Report")) == reporters
    assert _sites(_catches("BudgetExceeded")) == reporters
    assert _sites(_constructs("IllFormedError")) == {"cc.require_wf"}
    assert _sites(_constructs("IllFormedNetworkError")) == {"sp.require_wf"}


def test_only_amendment_amends():
    # The amendment of a program, of every term it reaches and its bound on
    # inserted selections all come from one `amendment.Amendment`.
    assert _sites(_constructs("amend")) == {"amendment.amend", "amendment.Amendment"}
    assert _sites(_constructs("needs_selection")) == {"amendment.amend"}


README = PACKAGE.parent.parent / "README.md"


def _names(node: ast.AST) -> set[str]:
    """The names a piece of code uses: in a `Name`, in an `Attribute` and in a
    string constant (`cli.VERIFY` names the checkers it runs by string)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            out.add(_tail(sub))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_public_definition_has_a_caller_or_is_documented():
    # A public function or class must be used by other code of the package,
    # or be named in README's Library section, which names its caller.
    tops = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        tops += [(path.stem, top) for top in tree.body]
    readme = README.read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = {name.rsplit(".", 1)[-1] for name in re.findall(r"`([\w.]+)", library)}
    names = [_names(top) for _, top in tops]
    users = Counter(name for used in names for name in used)
    unused = []
    for (module, top), own in zip(tops, names):
        name = getattr(top, "name", "_")
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
            # A recursive function names itself; that is no caller.
            if users[name] == (name in own) and name not in documented:
                unused.append(f"{module}.{name}")
    assert unused == []
