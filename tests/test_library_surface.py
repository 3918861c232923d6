"""The library surface: ``clbk.__all__`` is one literal list of names the README documents or
the command line imports, and every function and class the package defines serves that
surface or the command line."""

import ast
import re
from pathlib import Path

import clbk

PACKAGE = Path(clbk.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _referenced(node):
    """Every name ``node`` mentions, as a variable or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_all_is_a_literal_list_that_resolves():
    tree = _modules()["__init__"]
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
    ]
    assert isinstance(value, ast.List) and all(isinstance(e, ast.Constant) for e in value.elts)
    names = [e.value for e in value.elts]
    assert names == clbk.__all__ and len(set(names)) == len(names)
    for name in names:
        assert hasattr(clbk, name), name


def test_every_export_is_documented_or_used_by_the_command_line():
    readme = README.read_text(encoding="utf-8")
    cli_imports = {
        alias.asname or alias.name
        for node in ast.walk(_modules()["cli"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for name in clbk.__all__:
        assert name in cli_imports or re.search(rf"\b{re.escape(name)}\b", readme), name


def test_every_definition_serves_the_surface_or_the_command_line():
    """Start from the exports, ``cli.main`` (the console script) and the module-level code
    outside definitions, which runs at import; follow every name a reached function or class
    mentions. Every module-level function and class must be reached: one that only tests
    use belongs in ``tests/genlib.py``. Names are matched by name alone, so a name mentioned
    anywhere on the way counts as used."""
    definitions: dict[str, list[ast.AST]] = {}
    live = set(clbk.__all__) | {"main"}
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
            elif module != "__init__":
                live |= _referenced(node)
    todo = list(live)
    while todo:
        for node in definitions.get(todo.pop(), ()):
            new = _referenced(node) - live
            live |= new
            todo.extend(new)
    assert sorted(set(definitions) - live) == []
