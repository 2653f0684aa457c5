"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

import splitmodel

PACKAGE = Path(splitmodel.__file__).parent
TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"


def test_no_assert_statements():
    # python -O strips assert statements, so a check made with one vanishes
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _references(node):
    """How often each name is read or accessed as an attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_is_referenced():
    # a module-level function, class or method (dunders aside) that nothing
    # in the package or the tests names, outside its own body, is dead code
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            defs = [node] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, ast.FunctionDef)]
            for d in defs:
                dunder = d.name.startswith("__") and d.name.endswith("__")
                if not dunder and total[d.name] <= _references(d)[d.name]:
                    orphans.append(f"{path.name}:{d.lineno} {d.name}")
    assert orphans == []


def test_every_unexported_definition_has_a_caller_in_the_package():
    # a module-level function or class outside splitmodel.__all__ that no
    # other package code names is reached only from the tests, so it
    # belongs with them (the references from tests do not count here)
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = [f"{path.name}:{node.lineno} {node.name}"
               for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name not in splitmodel.__all__
               and total[node.name] <= _references(node)[node.name]]
    assert orphans == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = splitmodel.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert set(exported) == imported


def test_readme_library_imports_resolve():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    block = library[library.index("```python") + len("```python"):]
    tree = ast.parse(block[:block.index("```")])
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "splitmodel" for alias in node.names]
    assert names and [n for n in names if not hasattr(splitmodel, n)] == []
