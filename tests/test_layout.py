"""Every public function and class of the computational modules has a user
in the package or the demos, and every imported name is used.

A helper that only the tests call belongs in the tests (the dense reference
and the one-trial helpers live in `oracle.py`). The scans read the source
with `ast` and import nothing. `theory` and `cli` are left out of the first
on purpose: they hold the closed forms and the entry points, which serve
users directly. The import scan covers every file of `src/`, `tests/`
and `demos/`; a name listed in a module's `__all__` counts as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cosetkernel"
SCANNED = ("dataset", "kernel", "noise", "experiment")


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


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("directory", ["src", "tests", "demos"])
def test_imported_names_are_used(directory):
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted((ROOT / directory).rglob("*.py"))
        if (names := _unused_imports(path))
    }
    assert not unused, f"imported but never used: {unused}"
