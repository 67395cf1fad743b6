"""Every public function and method in ``src/symdyn`` is used by the program:
a public name that nothing in ``src/`` references is test-only code, which
belongs in ``tests/``, or dead code.  A method counts as referenced only
through an attribute (``x.name``), not through a local of the same name."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symdyn"


def _public_defs(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, False
        elif isinstance(node, ast.ClassDef):
            yield from ((f.name, True) for f in node.body if isinstance(f, ast.FunctionDef))


def test_public_functions_are_referenced_in_src():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert "cli.py" in trees
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = attrs | {node.id for node in nodes if isinstance(node, ast.Name)} | {
        node.name for node in nodes if isinstance(node, ast.alias)}
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name, method in _public_defs(tree)
                    if not name.startswith("_") and name not in (attrs if method else names))
    assert unused == []
