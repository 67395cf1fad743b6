"""Every public function and method in ``src/symdyn`` is used by the program.

A public name that nothing in ``src/`` references is either test-only code,
which belongs in ``tests/``, or dead code.  The exceptions are the paper's
objects that the acceptance criteria check directly; an exception that
``src/`` does reference is stale, and fails the check too.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symdyn"

# Named by the acceptance criteria, or kept as objects of the construction.
ALLOWED = {
    "chart_G", "psi", "u_recursion_step", "random_library", "reconstruct",
    "unstable_interval", "linear_reduction_slope", "hat_pi", "compute_u",
    "deriv",
}


def _public_defs(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (f.name for f in node.body if isinstance(f, ast.FunctionDef))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_public_functions_are_referenced_in_src():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert "cli.py" in trees
    refs = {name for tree in trees.values() for name in _references(tree)}
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _public_defs(tree)
                    if not name.startswith("_") and name not in refs | ALLOWED)
    assert unused == []
    assert sorted(ALLOWED & refs) == []
