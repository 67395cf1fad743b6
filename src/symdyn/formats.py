"""Versioned text artifacts: window libraries, chart/graph dumps, reports.

Every machine-readable file starts with a ``# symdyn-<kind> <version>``
header line.  Writers iterate in deterministic order and render floats
with repr (round-trip exact), so identical runs produce identical bytes.
"""

import json
import math

VERSION = 1


def _header(kind):
    return f"# symdyn-{kind} {VERSION}\n"


def write_windows(path, windows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header("windows"))
        for w in windows:
            fh.write(w.record() + "\n")


def write_alphabet(path, alphabet):
    """One ``V`` record per vertex, from the columns of its vertex table;
    a chart's back word is the ``back=`` field of the record of the sample
    that admitted its center."""
    t = alphabet.vertices
    backs = [c.sample.back_field() for c in alphabet.centers]
    rows = zip(t.cid.tolist(), t.theta0.tolist(), t.u.tolist(), t.logQ.tolist(),
               t.log_p.tolist(), t.idx_p.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header("alphabet"))
        fh.write(f"# centers={len(alphabet.centers)} charts={len(t)}\n")
        fh.writelines(f"V{v} c{c} x0={x!r} u={u!r} logQ={q!r} log_p={lp!r} idx_p={ip} "
                      f"{backs[c]}\n" for v, (c, x, u, q, lp, ip) in enumerate(rows))


def write_graph(path, g):
    """Line-oriented graph export: a ``V`` record for every vertex with a
    strong edge, then one ``E v w S`` record per strong edge v -> w."""
    t = g.alphabet.vertices
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header("graph"))
        for v, (x, u, ip) in enumerate(zip(t.theta0.tolist(), t.u.tolist(), t.idx_p.tolist())):
            if g.out_edges[v] or g.in_edges[v]:
                fh.write(f"V {v} x0={x!r} u={u!r} idx_p={ip}\n")
        for vid, outs in enumerate(g.out_edges):
            for w in outs:
                fh.write(f"E {vid} {w} S\n")


def write_dot(path, adjacency, name="g"):
    """Graphviz export of an adjacency dict."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"// symdyn-dot {VERSION}\n")
        fh.write(f"digraph {name} {{\n")
        for v in sorted(adjacency):
            for w in adjacency[v]:
                fh.write(f"  n{v} -> n{w};\n")
        fh.write("}\n")


def write_partition(path, cells, tg):
    start = tg.cover.start
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header("partition"))
        for c in cells:
            sig = ";".join(f"{i},{j}:{ab}" for (i, j), ab in c.signature)
            members = ";".join(f"{c.rect},{pi}" for pi in (c.members - start[c.rect]).tolist())
            fh.write(f"C {c.cell_id} rect={c.rect} sig={sig} members={members}\n")
        for r, outs in enumerate(tg.out_edges):
            for s in outs:
                fh.write(f"E {r} {s}\n")


def write_shadows(path, shadows):
    """One line per unbroken row of a ``shadowing.Shadows`` table: its
    point's x0, backward word and forward length, then tau0, log p_0 and
    the log error bound, every float as the repr of a Python float."""
    ok, n = shadows.ok, -shadows.n_lo
    rows = zip(shadows.points[ok, n].tolist(), shadows.branches[ok, :n].tolist(),
               shadows.tau0[ok].tolist(), shadows.log_p0[ok].tolist(), shadows.log_err[ok].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header("shadows"))
        fh.writelines(f"x0={x!r} back={','.join(map(str, word[::-1]))} fwd={shadows.n_hi} "
                      f"tau0={t!r} log_p0={lp!r} log_err={e!r}\n" for x, word, t, lp, e in rows)


def _jsonable(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
    return x


def write_report(path, kind, lines, records):
    """Human-readable lines plus machine-readable JSON-lines records."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(kind))
        for ln in lines:
            fh.write("# " + ln + "\n")
        for rec in records:
            fh.write(json.dumps({k: _jsonable(v) for k, v in rec.items()},
                                sort_keys=True) + "\n")
