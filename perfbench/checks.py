"""Output checks and degeneracy flags, read from outside the program: the
CLI's printed summary lines and the artifacts it leaves under ``--out``.

``observe`` reduces one invocation to the values the benchmark gates on;
``mismatches`` compares them with the values recorded in
``expected.json``.  None of them depends on the seed.  The chart count is
deliberately not gated: a smaller alphabet with the same pruned graph is a
valid optimisation.
"""

import hashlib
import json
import math
import os
import re

ENTROPY_REL_TOL = 1e-6

_LIBRARY = re.compile(r"^library: (\d+) windows from (\d+) orbits", re.M)
_SHADOW = re.compile(r"^shadow: (\d+) gpos shadowed, (\d+) failures", re.M)
_INVERSE = re.compile(r"double codings audited: (\d+), failures: (\d+)")


def _records(path):
    """JSON-lines records of a ``write_report`` artifact."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(ln) for ln in fh if ln.startswith("{")]


def _graph(path):
    """Vertices and strong edges of the pruned graph export."""
    vertices, edges = set(), []
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            parts = ln.split()
            if parts and parts[0] == "V":
                vertices.add(int(parts[1]))
            elif len(parts) == 4 and parts[0] == "E" and parts[3] == "S":
                edges.append((int(parts[1]), int(parts[2])))
    return vertices, edges


def _need(pattern, text, what):
    m = pattern.search(text)
    if m is None:
        raise ValueError(f"no {what} line in the CLI output")
    return [int(g) for g in m.groups()]


def observe(command, out, stdout):
    """The gated values of one invocation (raises ValueError if absent)."""
    obs = {}
    if command in ("verify-map", "full-pipeline"):
        recs = [r for r in _records(os.path.join(out, "regularity.report"))
                if "passed" in r]
        obs["regularity_passed"] = bool(recs) and all(r["passed"] for r in recs)
    if command == "inverse-audit":
        obs["inverse_audited"], obs["inverse_failures"] = _need(
            _INVERSE, stdout, "inverse audit")
    if command != "full-pipeline":
        return obs
    obs["windows"], obs["orbits"] = _need(_LIBRARY, stdout, "library")
    vertices, edges = _graph(os.path.join(out, "graph.txt"))
    obs["kept_vertices"], obs["pruned_strong_edges"] = len(vertices), len(edges)
    _, obs["shadow_failures"] = _need(_SHADOW, stdout, "shadow")
    markov = _records(os.path.join(out, "markov.report"))[0]
    obs["markov_passed"] = markov["markov_failures"] == 0
    growth = _records(os.path.join(out, "growth.report"))
    obs["map_count"] = {str(r["n"]): r["map_count"] for r in growth}
    ent = _records(os.path.join(out, "entropy.report"))[0]
    obs["entropy"] = {k: ent[k] for k in ("loop_growth", "trace_slope", "spectral_radius")}
    return obs


def mismatches(obs, exp):
    """Human-readable differences between an observation and its record."""
    bad = []
    for key, want in exp.items():
        got = obs.get(key)
        if key == "map_count":
            # every reported growth row must match; rows may be dropped
            if not got:
                bad.append("map_count: no growth rows")
            for n, c in (got or {}).items():
                if want.get(n) != c:
                    bad.append(f"map_count[{n}]: {c} != {want.get(n)}")
        elif key == "entropy":
            for k, w in want.items():
                g = (got or {}).get(k)
                if g is None or not math.isclose(g, w, rel_tol=ENTROPY_REL_TOL,
                                                 abs_tol=1e-12):
                    bad.append(f"entropy.{k}: {g} != {w}")
        elif got != want:
            bad.append(f"{key}: {got} != {want}")
    return bad


def degeneracy(command, out, max_period):
    """Flags that say a result is degenerate, so its numbers are not misread."""
    if command != "full-pipeline":
        return {}
    vertices, edges = _graph(os.path.join(out, "graph.txt"))
    outdeg, indeg = {}, {}
    for a, b in edges:
        outdeg[a] = outdeg.get(a, 0) + 1
        indeg[b] = indeg.get(b, 0) + 1
    cycles = bool(vertices) and all(outdeg.get(v) == 1 and indeg.get(v) == 1
                                    for v in vertices)
    ent = _records(os.path.join(out, "entropy.report"))[0]
    growth = _records(os.path.join(out, "growth.report"))
    markov = _records(os.path.join(out, "markov.report"))[0]
    members = []
    with open(os.path.join(out, "partition.txt"), encoding="utf-8") as fh:
        for ln in fh:
            if ln.startswith("C "):
                members.append(ln.rsplit("members=", 1)[1].strip().count(";") + 1)
    return {
        "graph_union_of_cycles": cycles,
        "spectral_radius": ent["spectral_radius"],
        "growth_rows_beyond_max_period": [r["n"] for r in growth if r["n"] > max_period],
        "trivial_refinement": (markov["cells"] == markov["rectangles"]
                               and all(k == 1 for k in members)),
    }


def out_digest(out):
    """sha256 over the relative paths and bytes of every file under ``out``,
    and the total byte count."""
    h = hashlib.sha256()
    total = 0
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out).encode() + b"\0")
            f = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    f.update(chunk)
                    total += len(chunk)
            h.update(f.digest())
    return h.hexdigest(), total
