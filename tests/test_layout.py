"""Every public function and method in ``src/symdyn`` is used by the program:
a public name that nothing in ``src/`` references is test-only code, which
belongs in ``tests/``, or dead code.  A method counts as referenced only
through an attribute (``x.name``), not through a local of the same name."""

import ast
import math
import pathlib
from dataclasses import fields

from symdyn.config import RunConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symdyn"


def _public_defs(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, False
        elif isinstance(node, ast.ClassDef):
            yield from ((f.name, True) for f in node.body if isinstance(f, ast.FunctionDef))


# Public with no caller in src/: the one-orbit entry to the periodic batch,
# kept for the benchmark harness's natural_extension.make_periodic_window
# layer until that layer traces periodic_windows instead (ROADMAP item 1).
UNREFERENCED_OK = {"natural_extension.py:make_periodic_window"}


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
    assert unused == sorted(UNREFERENCED_OK)


def test_run_parameters_have_one_default():
    """A run parameter's default lives on ``RunConfig`` only: no function in
    ``src/`` defaults a parameter named after one of its fields, and no
    other class declares such a field with a default, so leaving an
    argument out cannot run another configuration than the CLI's."""
    names = {f.name for f in fields(RunConfig)}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                pos = a.posonlyargs + a.args
                defaulted = pos[len(pos) - len(a.defaults):] + [
                    k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found += [f"{path.name}:{getattr(node, 'name', 'lambda')}({p.arg}=)"
                          for p in defaulted if p.arg in names]
            elif isinstance(node, ast.ClassDef) and path.name != "config.py":
                found += [f"{path.name}:{node.name}.{s.target.id}" for s in node.body
                          if isinstance(s, ast.AnnAssign) and s.value is not None
                          and isinstance(s.target, ast.Name) and s.target.id in names]
    assert found == []


def _calls(paths):
    """name -> [(positional count, keyword names)] of the calls in ``paths``,
    named as the called name or attribute; a ``*args`` or ``**kwargs`` call
    counts as passing every position or keyword."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                npos = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                        else len(node.args))
                kws = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((npos, kws))
    return calls


def test_defaults_are_set_by_some_caller():
    """Each defaulted parameter of a function in ``src/symdyn`` is passed,
    by keyword or by position, by some call in ``src/`` or ``perfbench/``
    (calls are matched by name): a default that the program always leaves
    as it is is a second configuration only the tests run.  ``cli.main``'s
    ``argv`` is exempt: the console script calls it without arguments."""
    calls = _calls([*SRC.glob("*.py"), *(SRC.parent.parent / "perfbench").glob("*.py")])
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # a method is called without its self; a constructor by its class name
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            pos = a.posonlyargs + a.args
            skip = 1 if id(node) in owner and pos and pos[0].arg in ("self", "cls") else 0
            name = owner[id(node)] if node.name == "__init__" else node.name
            defaulted = [(i - skip, p.arg) for i, p in enumerate(pos)
                         if i >= len(pos) - len(a.defaults)]
            defaulted += [(math.inf, k.arg) for k, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for i, arg in defaulted:
                if not any(npos > i or arg in kws or None in kws
                           for npos, kws in calls.get(name, ())):
                    unset.append(f"{path.name}:{name}({arg}=)")
    assert sorted(set(unset) - {"cli.py:main(argv=)"}) == []
