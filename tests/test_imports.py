"""Every module-level import under ``src/repro`` is read by its module.

Package ``__init__`` modules are exempt: their imports are re-exports.
A name counts as read when code loads it, a quoted annotation names it,
or the module's ``__all__`` lists it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(body, found):
    """Names bound by module-level imports (inside ``if``/``try`` too)."""
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                found[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                found[alias.asname or alias.name] = stmt.lineno
        elif isinstance(stmt, (ast.If, ast.Try)):
            _imported(stmt.body, found)
            _imported(stmt.orelse, found)
            for handler in getattr(stmt, "handlers", ()):
                _imported(handler.body, found)
            _imported(getattr(stmt, "finalbody", ()), found)
    return found


def _read(tree):
    """Names the module loads, names in quoted annotations, and ``__all__``."""
    names, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(elt.value for elt in getattr(node.value, "elts", ())
                          if isinstance(elt, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read(ast.parse(node.value, mode="eval"))
    return names


def test_no_unread_module_level_imports():
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read(tree)
        unread += [f"{path.relative_to(SRC)}:{line}: {name}"
                   for name, line in _imported(tree.body, {}).items()
                   if name not in read]
    assert unread == []
