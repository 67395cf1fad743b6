"""Markov cover, Sinai-Bowen refinement, and the refined shift graph.

Rectangles are finite point samples of Z(v) = {shadowed points of
strong paths through v}; every set predicate (intersection, fibre
membership) is sample-level, with window agreement (equal coordinates on
the common range) as the equality proxy.  Which sampled points of a cover
are the same point, and which point the shift of each lands on, is
decided once per cover (``point_classes``): the key is exact, the
coordinate bytes; ``refine``, ``hat_graph`` and ``audits`` share the final
cover's table.  The refinement classifies each sampled point by its full
stable/unstable intersection signature against every met rectangle; cells
are the classes of equal signatures.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import shadowing as sh
from .coarse_grain import lt_log_threshold

LOG100 = math.log(100.0)


@dataclass
class Rectangle:
    """Sampled Z(v): shadow results of strong paths through v."""

    vid: int
    chart: object          # the vertex chart v
    points: list           # ShadowResult


@dataclass
class FibreDescriptors:
    """Stable/unstable fibre descriptors of one sampled point."""

    x0: float              # the s-fibre is determined by the zeroth coordinate
    back_word: tuple       # unstable data: the backward branch word
    theta0: float          # chart center of the rectangle's vertex
    u: float
    log_100p: float        # the 100-fold enlarged chart interval

    def in_stable(self, window):
        return window.x0 == self.x0

    def in_unstable(self, window):
        word = tuple(window.back_branches)
        k = min(len(word), len(self.back_word))
        if word[:k] != self.back_word[:k]:
            return False
        d = abs(window.x0 - self.theta0) * self.u
        return lt_log_threshold(d, self.log_100p, strict=False)


@dataclass
class PointClasses:
    """Which sampled points of a cover are the same point.

    ``cls``, ``head`` and ``shift`` map a point (rect, point index) to an
    int, or to None where a NaN rules out every match.
    """

    cls: dict      # equal exactly where the windows agree
    head: dict     # the class of the point on all but its last coordinate
    shift: dict    # the head class of the point's shift by one
    rects: dict    # class -> the rectangles holding a point of it
    met: dict      # rectangle i -> sorted j with Z_i and Z_j sharing a point


def point_classes(cover):
    """Decide once which sampled points of a cover are the same point.

    Points a and b share a class exactly when their windows agree (== on
    every coordinate): the key is their coordinate bytes with -0.0 read as
    0.0, and a point holding a NaN matches nothing, itself included.  The
    shift by one of a agrees with b exactly when a's coordinates from index
    1 equal b's up to its last but one, so ``shift[a] == head[b]`` decides
    it the same way.
    That needs every point to span one range [-N, F] with F >= 2, as every
    ``build_cover`` point does (F = 1 gives an empty cover); ValueError
    otherwise.
    """
    refs = [(i, pi) for i, z in enumerate(cover) for pi in range(len(z.points))]
    if not refs:
        return PointClasses(cls={}, head={}, shift={}, rects={},
                            met={i: [] for i in range(len(cover))})
    spans = {(p.point.back_len, p.point.fwd_len) for z in cover for p in z.points}
    if len(spans) > 1 or min(f for _, f in spans) < 2:
        raise ValueError(f"sampled points must share one span [-N, F], F >= 2: {sorted(spans)}")
    pts = np.array([cover[i].points[pi].point.points for i, pi in refs]) + 0.0  # -0.0 -> 0.0
    nan = np.isnan(pts)

    def keys(rows, bad):
        return (None if b else row.tobytes() for row, b in zip(rows, bad.any(axis=1).tolist()))

    table = {}
    cls = [None if k is None else table.setdefault(k, len(table)) for k in keys(pts, nan)]
    table = {}      # the heads' own keys; the class keys are dropped first
    head = [None if k is None else table.setdefault(k, len(table))
            for k in keys(pts[:, :-1], nan[:, :-1])]
    shift = [None if k is None else table.get(k) for k in keys(pts[:, 1:], nan[:, 1:])]
    rects = {}
    for (i, _), c in zip(refs, cls):
        if c is not None and i not in rects.setdefault(c, []):
            rects[c].append(i)
    met = {i: set() for i in range(len(cover))}
    for (i, _), c in zip(refs, cls):
        met[i].update(rects.get(c, ()))
    return PointClasses(cls=dict(zip(refs, cls)), head=dict(zip(refs, head)),
                        shift=dict(zip(refs, shift)), rects=rects,
                        met={i: sorted(js) for i, js in met.items()})


def fibres(z, point_index):
    """Descriptors of the s/u fibres of a sampled point of a rectangle."""
    p = z.points[point_index]
    c = z.chart
    return FibreDescriptors(
        x0=p.point.x0,
        back_word=tuple(p.point.back_branches),
        theta0=c.theta0,
        u=c.u,
        log_100p=LOG100 + c.log_p,
    )


# ---------------------------------------------------------------------------
# cover construction
# ---------------------------------------------------------------------------

def _walk(g, rng, vid, steps, direction):
    """Random strong walk of ``steps`` steps from vid, forward (direction > 0)
    or backward; returns the visited vertex ids (excluding vid) and whether
    the walk drew from rng (it draws only where it has a choice).  Every
    vertex of a pruned graph that has an edge has a successor and a
    predecessor, so a walk from a core vertex never stops."""
    adj = g.out_edges if direction > 0 else g.in_edges
    out = []
    drew = False
    cur = vid
    for _ in range(steps):
        nxt = adj[cur]
        assert nxt, f"vertex {cur} ends a walk: the graph is not pruned"
        drew |= len(nxt) > 1
        cur = nxt[int(rng.integers(0, len(nxt)))] if len(nxt) > 1 else nxt[0]
        out.append(cur)
    return out, drew


def build_cover(m, g, cfg):
    """Sample rectangles Z(v) from cfg.paths_per_vertex strong paths through
    v, of cfg.cover_window steps on each side, drawn with cfg.seed.

    ``g`` must be pruned (``coarse_grain.prune_relevant``): on a finite
    graph every bi-infinite path visits some vertex infinitely often in
    each direction, so every walk from a core vertex (one with in- and
    out-edges) extends to a path of the coded shift.  Only core vertices
    are sampled.  A core vertex gets no rectangle only when shadowing broke
    every one of its walks; the second return value counts these
    vertices.  A vertex's walks stop after a back/forward pair that drew
    nothing: every later pair would be the same walk.  Every walk is drawn
    first and all are shadowed in one ``shadow_many`` batch; shadowing
    draws nothing, so the draws are those of walking and shadowing vertex
    by vertex.
    """
    window = cfg.cover_window
    rng = np.random.default_rng(cfg.seed)
    core = []      # (vertex, number of its walks to shadow)
    walks = []
    for v in range(g.n_vertices()):
        if not g.out_edges[v] or not g.in_edges[v]:
            continue
        seen = set()
        count = 0
        for _ in range(cfg.paths_per_vertex):
            back, drew_back = _walk(g, rng, v, window, -1)
            fwd, drew_fwd = _walk(g, rng, v, window, +1)
            vids = tuple(reversed(back)) + (v,) + tuple(fwd)
            # shadowing is deterministic, so a repeated walk adds no new point
            if vids not in seen:
                seen.add(vids)
                walks.append(vids)
                count += 1
            if not (drew_back or drew_fwd):
                break
        core.append((v, count))
    charts = [x.chart for x in g.alphabet.vertices]
    walks = np.array(walks, dtype=np.int64).reshape(len(walks), 2 * window + 1)
    shadowed = iter(sh.shadow_many(m, charts, walks, -window, cfg))
    raw = [Rectangle(vid=v, chart=g.alphabet.vertices[v].chart,
                     points=[res for res in itertools.islice(shadowed, count)
                             if not isinstance(res, sh.EdgeBroken)])
           for v, count in core]
    cls = iter(point_classes(raw).cls.values())
    rects = []
    for z in raw:
        seen = set()    # a rectangle keeps one copy of each point
        points = []
        for res, c in zip(z.points, cls):
            if c is None or c not in seen:
                seen.add(c)
                points.append(res)
        if points:
            rects.append(replace(z, points=points))
    return rects, len(raw) - len(rects)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

@dataclass
class RefinedCell:
    cell_id: int
    rect: int              # the rectangle this cell refines
    signature: tuple       # sorted ((i, j), 'su'|'s0'|'0u'|'00') entries
    members: list          # (rect_index, point_index)


def _signature_of(cover, i, pi, met):
    z = cover[i]
    fd = fibres(z, pi)
    sig = []
    for j in met.get(i, ()):
        zj = cover[j]
        s_hit = any(fd.in_stable(q.point) for q in zj.points)
        u_hit = any(fd.in_unstable(q.point) for q in zj.points)
        sig.append(((i, j), ("s" if s_hit else "0") + ("u" if u_hit else "0")))
    return tuple(sorted(sig))


def refine(cover, pc):
    """Partition the sampled cover by full fibre-intersection signatures.

    Each sampled point of Z_i is classified against every met Z_j (pc: the
    cover's ``point_classes``, which holds the meeting table) into one of
    the four intersection types; cells are the classes of equal signature
    vectors.  T_ii is 'su' for every point (checked).
    """
    cells = []
    index = {}
    for i, z in enumerate(cover):
        for pi in range(len(z.points)):
            sig = _signature_of(cover, i, pi, pc.met)
            for (a, b), ab in sig:
                if a == b == i and ab != "su":
                    raise AssertionError(f"T_ii is not 'su' at rectangle {i}")
            key = (i, sig)
            if key not in index:
                index[key] = len(cells)
                cells.append(RefinedCell(cell_id=len(cells), rect=i,
                                         signature=sig, members=[]))
            cells[index[key]].members.append((i, pi))
    return cells


# ---------------------------------------------------------------------------
# the refined shift graph
# ---------------------------------------------------------------------------

@dataclass
class TmsGraph:
    cells: list
    cover: list
    out_edges: list
    classes: PointClasses      # of the cover's sampled points

    def adjacency(self):
        return {c.cell_id: list(self.out_edges[c.cell_id]) for c in self.cells}


def hat_graph(cover, cells, pc):
    """Edges R -> S iff the shift of some sampled member of R lands in S
    (pc: the cover's ``point_classes``)."""
    cells_at = {}      # head class -> the cells of the points holding it
    for c in cells:
        for ref in c.members:
            if pc.head[ref] is not None:
                cells_at.setdefault(pc.head[ref], set()).add(c.cell_id)
    out_edges = [sorted({s for ref in r.members for s in cells_at.get(pc.shift[ref], ())})
                 for r in cells]
    return TmsGraph(cells=cells, cover=cover, out_edges=out_edges, classes=pc)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    intersection_counts: list     # per rectangle
    refined_in_rect: dict         # Z index -> #cells inside
    rects_over_cell: dict         # cell id -> #rectangles containing it
    markov_checked: int
    markov_failures: int
    preimage_max: int
    preimage_bound_max: int
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.markov_failures == 0

    def lines(self):
        hist = {}
        for c in self.intersection_counts:
            hist[c] = hist.get(c, 0) + 1
        out = [
            "markov audit:",
            f"  rectangle intersection counts (count -> #rect): {dict(sorted(hist.items()))}",
            f"  cells per rectangle: max {max(self.refined_in_rect.values(), default=0)}",
            f"  rectangles over a cell: max {max(self.rects_over_cell.values(), default=0)}",
            f"  markov fibre containments: {self.markov_checked} checked, "
            f"{self.markov_failures} failures",
            f"  empirical preimage counts: max {self.preimage_max} "
            f"(N(R)N(S) bound shape max {self.preimage_bound_max})",
        ]
        out.extend(f"  note: {n}" for n in self.notes)
        return out


def audits(tg):
    """Local finiteness, Markov fibre containments, finite-to-one counts."""
    cover, cells, pc = tg.cover, tg.cells, tg.classes
    inter_counts = [len(pc.met[i]) for i in range(len(cover))]

    refined_in_rect = dict(Counter(c.rect for c in cells))
    rects_over_cell = {c.cell_id: len(pc.rects.get(pc.cls[c.members[0]], ())) for c in cells}

    # sampled Markov property: for x in R0 with f(x) in R1,
    # f(W^s(x, Z(R0))) inside W^s(f x, Z(R1)) and dually for W^u
    first_point = {}   # (rect, head class) -> its first point there
    for (i, pi), h in pc.head.items():
        first_point.setdefault((i, h), pi)
    heads_in = [{pc.head[ref] for ref in c.members} for c in cells]
    checked = 0
    failures = 0
    for r in cells:
        for s_id in tg.out_edges[r.cell_id]:
            s = cells[s_id]
            for ref in r.members:
                h = pc.shift[ref]
                if h is None or h not in heads_in[s_id]:
                    continue
                fd_r = fibres(cover[r.rect], ref[1])
                fd_s = fibres(cover[s.rect], first_point[(s.rect, h)])
                checked += 1
                # stable: the shift of anything with x0 = w.x0 has x0 = f(w.x0)
                for q in cover[r.rect].points:
                    if fd_r.in_stable(q.point) and q.point.x(1) != fd_s.x0:
                        failures += 1
                # unstable: the backward shift of the target fibre lands in ours
                for q in cover[s.rect].points:
                    if fd_s.in_unstable(q.point):
                        if not fd_r.in_unstable(q.point.shift(-1)):
                            failures += 1

    # finite-to-one: distinct points vs the number of cells containing them;
    # a NaN point is distinct from every point
    counts = Counter(pc.cls[ref] for c in cells for ref in c.members)
    nan_points = counts.pop(None, 0)
    return AuditReport(
        intersection_counts=inter_counts,
        refined_in_rect=refined_in_rect,
        rects_over_cell=rects_over_cell,
        markov_checked=checked,
        markov_failures=failures,
        preimage_max=max(counts.values(), default=min(nan_points, 1)),
        preimage_bound_max=max(rects_over_cell.values(), default=0) ** 2,
    )
