"""Every public function and class of the computational modules has a user
in the package or the demos.

A helper that only the tests call belongs in the tests (the dense reference
lives in `oracle.py`). The scan reads the source with `ast` and imports
nothing. `dataset`, `theory` and `cli` are left out on purpose: they hold the
JSON round trip, the closed forms and the entry points, which serve users
directly.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cosetkernel"
SCANNED = ("statevector", "group", "kernel", "noise", "experiment")


def _public_definitions(path):
    tree = ast.parse(path.read_text())
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _referenced_names():
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", SCANNED)
def test_public_definitions_have_a_user(module):
    referenced = _referenced_names()
    orphans = [
        name for name in _public_definitions(PACKAGE / f"{module}.py")
        if name not in referenced
    ]
    assert not orphans, f"{module}: nothing in src/ or demos/ uses {orphans}"
