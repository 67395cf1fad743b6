import importlib.util
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "artifact_runs", os.path.join(_ROOT, "benchmarks", "artifact_runs.py"))
artifact_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_runs)


def _tree(top):
    """{relative path: bytes} of every file under ``top``."""
    out = {}
    for d, _, files in os.walk(top):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = fh.read()
    return out


def test_invocations_are_the_perfbench_ones_then_the_extras():
    invs = artifact_runs.invocations()
    assert len(invs) == 11 + len(artifact_runs.EXTRA)
    assert invs[0] == ("full-pipeline", "map = doubling")
    assert invs[-len(artifact_runs.EXTRA):] == artifact_runs.EXTRA


def test_a_rerun_writes_an_identical_tree(tmp_path):
    inv = ("graph", "map = doubling\nmax_period = 3")
    src = os.path.join(_ROOT, "src")
    for d in ("a", "b"):
        assert artifact_runs.run(inv, 7, str(tmp_path / d), src) == 0
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert a == b
    assert {"config", "stdout", "stderr", "exit_code", os.path.join("out", "graph.txt")} <= a.keys()
    assert a["exit_code"] == b"0\n" and b"seed = 7" in a["config"]
