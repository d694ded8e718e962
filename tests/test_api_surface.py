"""The package carries no API that only tests call: every public module-level
function, class and constant in src/teleportsim is used elsewhere in the
package or exported in teleportsim.__all__."""

import ast
from pathlib import Path

import teleportsim

SRC = Path(__file__).resolve().parents[1] / "src" / "teleportsim"


def public_names(tree: ast.Module):
    """The public functions, classes and constants a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_public_name_is_used_by_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = set(teleportsim.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            # a read, not the assignment that defines the name
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            # module.name, with module one of the package's own
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in trees):
                used.add(node.attr)
    unused = {f"{module}.{name}" for module, tree in trees.items()
              for name in public_names(tree)
              if not name.startswith("_") and name not in used}
    assert unused == set()
