"""``src/nlhet`` holds only code that a command or the public API runs.

An AST walk starts at ``cli.main``, at the names that ``nlhet.__all__``
exports and at every module's top-level statements (they run on import).
It follows name references through each module's imports, ``module.name``
references through module aliases, and any other ``obj.name`` by name to
the methods of the classes it has reached; a reached class also reaches its
dunder methods.  A function, class or method that the walk never reaches is
test-only code and belongs under ``tests/``.
"""

import ast
from pathlib import Path
from typing import Dict, Set, Tuple

import nlhet

PKG = Path(nlhet.__file__).parent

Key = Tuple[str, str]  # (module, qualified name)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _index():
    """Definitions (functions, classes, methods) by key, and each module's
    top-level names: its own definitions and what it imports."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PKG.glob("*.py"))}
    defs: Dict[Key, ast.AST] = {}
    scopes: Dict[str, Dict[str, tuple]] = {}
    for mod, tree in trees.items():
        scope = scopes[mod] = {}
        # a top-level ``try`` runs on import too (``nlhet/__init__`` imports
        # its API inside one)
        for node in [sub for stmt in tree.body
                     for sub in (stmt.body if isinstance(stmt, ast.Try) else [stmt])]:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
                scope[node.name] = ("def", (mod, node.name))
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, ast.FunctionDef):
                            defs[(mod, f"{node.name}.{sub.name}")] = sub
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        scope[local] = ("module", alias.name)
                    else:
                        scope[local] = ("def", (node.module, alias.name))
    return trees, defs, scopes


def unreachable():
    trees, defs, scopes = _index()
    reached: Set[Key] = set()
    attrs: Set[str] = set()
    todo = []

    def reach(key: Key) -> None:
        if key in defs and key not in reached:
            reached.add(key)
            todo.append(key)

    def visit(mod: str, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                target = scopes[mod].get(sub.id)
                if target and target[0] == "def":
                    reach(target[1])
            elif isinstance(sub, ast.Attribute):
                base = sub.value
                target = (scopes[mod].get(base.id)
                          if isinstance(base, ast.Name) else None)
                if target and target[0] == "module":
                    reach((target[1], sub.attr))
                else:
                    attrs.add(sub.attr)

    reach(("cli", "main"))
    for node in trees["__init__"].body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            for name in ast.literal_eval(node.value):
                target = scopes["__init__"].get(name)
                if target and target[0] == "def":
                    reach(target[1])
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                     ast.Import, ast.ImportFrom)):
                visit(mod, node)
    while todo:
        while todo:
            mod, qual = key = todo.pop()
            node = defs[key]
            if isinstance(node, ast.ClassDef):
                # bases, decorators and the statements of the body; the
                # methods are reached on their own
                for part in node.bases + node.decorator_list:
                    visit(mod, part)
                for stmt in node.body:
                    if not isinstance(stmt, ast.FunctionDef):
                        visit(mod, stmt)
            else:
                visit(mod, node)
        for mod, qual in list(reached):
            node = defs[(mod, qual)]
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and (
                            _is_dunder(sub.name) or sub.name in attrs):
                        reach((mod, f"{qual}.{sub.name}"))
    return sorted(f"{mod}.{qual}" for mod, qual in set(defs) - reached)


def test_every_definition_is_reached_by_a_command_or_the_api():
    missing = unreachable()
    assert not missing, ("reached by no command and not exported: "
                         + ", ".join(missing))
