"""Every module-level helper, method and import of the package is used.

Walks the AST of src/ipd/*.py.  Each module-level function, class and
constant, other than dunders and `main`, must be named at least once outside
its own definition in src/, tests/, scripts/ or ipdbench/.  Each method
defined in a class body, other than dunders, must be named outside its own
definition in src/, scripts/ or ipdbench/: a method that only tests call
tests nothing but itself, unless TEST_REFERENCES says why a test needs it.
Each module-level import, other than `from __future__` and the re-exports
that `__init__.py` lists in `__all__`, must be read by its own module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ipd"
SEARCHED = ("src", "tests", "scripts", "ipdbench")
PRODUCTION = ("src", "scripts", "ipdbench")

# Class.method -> why a method that only tests name still belongs
TEST_REFERENCES = {
    "PartialFractionForm.assemble": "inverse of partial_fractions in its round-trip test",
}


def _definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(tree: ast.Module):
    """(name, line) for each read of a name, attribute or imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _reference_index(tops) -> dict[str, list[tuple[Path, int]]]:
    references: dict[str, list[tuple[Path, int]]] = {}
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, line in _references(tree):
                references.setdefault(name, []).append((path, line))
    return references


def _named_outside(references, name: str, path: Path, node: ast.AST) -> bool:
    return any(
        where != path or not node.lineno <= line <= node.end_lineno
        for where, line in references.get(name, [])
    )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_package_helper_is_used():
    references = _reference_index(SEARCHED)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _definitions(tree):
            if name == "main" or _is_dunder(name):
                continue
            if not _named_outside(references, name, path, node):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "unused helpers: " + ", ".join(unused)


def _methods(tree: ast.Module):
    """(Class.method, method name, node) for each non-dunder method."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _is_dunder(node.name):
                        yield f"{cls.name}.{node.name}", node.name, node


def test_every_package_method_is_used():
    references = _reference_index(PRODUCTION)
    unused = []
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified, name, node in _methods(tree):
            defined.add(qualified)
            if qualified in TEST_REFERENCES:
                continue
            if not _named_outside(references, name, path, node):
                unused.append(f"{path.name}:{node.lineno} {qualified}")
    assert not unused, "methods only tests call: " + ", ".join(unused)
    assert set(TEST_REFERENCES) <= defined, "stale exemptions"
    assert all(TEST_REFERENCES.values()), "every exemption gives a reason"


def _imported_names(tree: ast.Module):
    """(bound name, line) for each module-level import, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_package_import_is_read():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        exported = _exported(tree)
        for name, line in _imported_names(tree):
            if name not in reads and name not in exported:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, "unused imports: " + ", ".join(unused)
