"""The partial-sum moment scan has one home, trisre.tilting: the modules
below it import nothing from it, and no other module names its engine.
No handler in the library catches every exception."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trisre"
SCAN_ENGINE = {"_study_from_pairs", "_scan_factors"}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports_tilting(node: ast.AST) -> bool:
    """An import of tilting in any form: import trisre.tilting,
    from .tilting import x, from . import tilting."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [a.name for a in node.names]
    else:
        return False
    return any(name.split(".")[-1] == "tilting" for name in names)


def _names(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
    return found


@pytest.mark.parametrize("module", ["stationary.py", "tails.py"])
def test_modules_below_the_scan_do_not_import_tilting(module):
    tree = _tree(PACKAGE / module)
    assert not any(_imports_tilting(node) for node in ast.walk(tree))


def test_only_tilting_names_the_scan_engine():
    users = {path.name for path in PACKAGE.glob("*.py")
             if _names(_tree(path)) & SCAN_ENGINE}
    assert users == {"tilting.py"}


BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree: ast.AST) -> list[int]:
    """Lines of handlers that catch everything: a bare except, or one whose
    types (a tuple's included) name Exception or BaseException."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            if node.type is None or any(
                    getattr(t, "id", getattr(t, "attr", None)) in BROAD
                    for t in types):
                lines.append(node.lineno)
    return lines


def test_broad_handler_detector():
    tree = ast.parse("try:\n    f()\nexcept:\n    pass\n"
                     "try:\n    f()\nexcept (ValueError, builtins.Exception):\n"
                     "    pass\n"
                     "try:\n    f()\nexcept ValueError:\n    pass\n")
    assert _broad_handlers(tree) == [3, 7]


def test_no_library_handler_catches_everything():
    found = {path.name: lines for path in PACKAGE.glob("*.py")
             if (lines := _broad_handlers(_tree(path)))}
    assert found == {}
