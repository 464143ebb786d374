"""Checks on the source of src/homsol itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "homsol"


def _names(node):
    """Every identifier a node and its children refer to: names, attributes, imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_module_level_definition_has_a_caller():
    # a module-level _function or _Class that nothing else in the package
    # names is dead code; references inside its own body do not count
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if used[node.name] - Counter(_names(node))[node.name] == 0:
                unused.append(f"{module}:{node.name}")
    assert not unused, unused
