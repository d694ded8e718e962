"""The package carries no API that only tests call: every public module-level
function and class in src/teleportsim is used elsewhere in the package,
exported in teleportsim.__all__, or patched by the benchmark's tracer."""

import ast
from pathlib import Path

import teleportsim

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "teleportsim"

ALLOWED = {
    # the dephasing Kraus pair is the model the closed-form dephasing
    # implements; acceptance criterion 10 checks its completeness
    "evolution.dephasing_kraus",
    # the density-matrix invariant check, kept for the checkpoint state
    # checks on the ROADMAP (item 6)
    "tensor_core.check_density_matrix",
}


def tracer_targets() -> set[str]:
    """Attribute names bench/tracer.py patches with Tracer._patch."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    return {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_patch"}


def test_every_public_name_is_used_by_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = set(teleportsim.__all__) | tracer_targets()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            # module.name, with module one of the package's own
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in trees):
                used.add(node.attr)
    unused = {f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used}
    assert unused - ALLOWED == set()
    # an allowance the package no longer needs goes too
    assert ALLOWED <= unused
