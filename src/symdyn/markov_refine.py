"""Markov cover, Sinai-Bowen refinement, and the refined shift graph.

Rectangles are finite point samples of Z(v) = {shadowed points of
strong paths through v}; every set predicate (intersection, fibre
membership) is sample-level, with window agreement (equal coordinates on
the common range) as the equality proxy.  Which sampled points of a cover
are the same point, and which point the shift of each lands on, is
decided once per cover (``point_classes``): the key is exact, the
coordinate bytes; ``refine``, ``hat_graph`` and ``audits`` share the final
cover's table, with the fibre data of its points and of its rectangles'
charts (rows of the alphabet's vertex table) as columns (``Fibres``).
The refinement classifies each sampled point by its full stable/unstable
intersection signature against every met rectangle, in array
comparisons; cells are the classes of equal signatures.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import shadowing as sh

LOG100 = math.log(100.0)


@dataclass
class Rectangle:
    """Sampled Z(v): shadow results of strong paths through v."""

    vid: int               # the vertex v, a row of the alphabet's vertex table
    points: list           # ShadowResult


@dataclass(frozen=True)
class Fibres:
    """The stable/unstable fibre data of a cover's sampled points, as
    columns over the points in cover order (Z_i's points are the rows
    ``start[i]`` to ``start[i + 1] - 1``).

    A point's s-fibre is fixed by its zeroth coordinate; its u-fibre is its
    backward branch word, within 100 times its rectangle's chart interval.
    ``word``, ``word_tail`` and ``word_head`` number the backward words, and
    the words less their first and last letters (one numbering for both),
    equal exactly where the words are.
    """

    start: np.ndarray
    x0: np.ndarray          # per point: x_0, x_1 and x_{-1}
    x1: np.ndarray
    x_back: np.ndarray
    word: np.ndarray
    word_tail: np.ndarray
    word_head: np.ndarray
    theta0: np.ndarray      # per rectangle: its vertex's theta0 and u, and
    u: np.ndarray           # e^{log 100p} from math.exp, with its log
    size: np.ndarray
    log_size: np.ndarray


def _in_chart(fib, r, x):
    """Per element, whether |x - theta0_r| u_r <= 100 p_r for rectangle r:
    ``coarse_grain.lt_log_threshold``'s non-strict test, comparing logs
    (math.log) only where e^{log 100p} underflows."""
    d = np.abs(x - fib.theta0[r]) * fib.u[r]
    size = fib.size[r]
    hit = (d == 0.0) | (d <= size)
    low = np.flatnonzero(~hit & (size == 0.0) & (d == d))
    hit[low] = [math.log(v) <= t for v, t in zip(d[low].tolist(), fib.log_size[r[low]].tolist())]
    return hit


def _points_of(fib, rects):
    """(t, q): entry t of the int array ``rects`` with each row q of a
    point of rectangle ``rects[t]``, in order."""
    n = np.diff(fib.start)[rects]
    t = np.repeat(np.arange(rects.size), n)
    return t, np.arange(t.size) - np.repeat(np.cumsum(n) - n - fib.start[rects], n)


def _number(rows, good):
    """An id per row of a 2-D array: -1 where ``good`` is False, else
    numbered by first occurrence, equal exactly where the rows are.  One
    stable ``np.lexsort`` brings equal rows together, first occurrence
    first; a row holding a NaN equals none, itself included."""
    order = np.lexsort(rows.T[::-1])
    new = np.zeros(len(rows), dtype=bool)
    new[:1] = True
    for col in rows.T:
        c = col[order]
        new[1:] |= c[1:] != c[:-1]
    first = order[new]                  # the first row of each group, in sorted order
    kept = np.flatnonzero(good[first])
    rank = np.full(first.size, -1)
    rank[kept[np.argsort(first[kept])]] = np.arange(kept.size)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids


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
    fibres: Fibres = field(repr=False)  # None without points


def _fibres(table, cover, coords):
    """The Fibres of the cover's points, whose x_{-1}, x_0 and x_1 are the
    rows of ``coords``, and of its rectangles' rows of the VertexTable
    ``table``."""
    windows = [p.point for z in cover for p in z.points]
    k, n = len(windows), windows[0].back_len
    bids = np.array([w.branch_ids for w in windows])
    every = np.ones(2 * k, dtype=bool)
    ends = _number(np.concatenate([bids[:, :n - 1], bids[:, 1:n]]), every)
    vids = np.array([z.vid for z in cover], dtype=np.int64)
    log_size = LOG100 + table.log_p[vids]
    x_back, x0, x1 = coords.T
    return Fibres(start=np.cumsum([0] + [len(z.points) for z in cover]),
                  x0=x0, x1=x1, x_back=x_back,
                  word=_number(bids[:, :n], every[:k]), word_tail=ends[:k], word_head=ends[k:],
                  theta0=table.theta0[vids], u=table.u[vids],
                  size=np.array([math.exp(t) if t < 700.0 else math.inf
                                 for t in log_size.tolist()]),
                  log_size=log_size)


def _coordinates(points):
    """The coordinates of the windows of the shadow results ``points``, one
    row each, with -0.0 read as 0.0."""
    return np.array([p.point.points for p in points]) + 0.0


def point_classes(table, cover):
    """Decide once which sampled points of a cover are the same point.

    Points a and b share a class exactly when their windows agree (== on
    every coordinate): the key is their coordinate bytes with -0.0 read as
    0.0, and a point holding a NaN matches nothing, itself included.  The
    shift by one of a agrees with b exactly when a's coordinates from index
    1 equal b's up to its last but one, so ``shift[a] == head[b]`` decides
    it the same way; each numbering is one sort of the rows (``_number``).
    That needs every point to span one range [-N, F] with N, F >= 2, as
    every ``build_cover`` point does (F = 1 gives an empty cover); ValueError
    otherwise.  ``fibres`` holds the fibre data of the points and of the
    rectangles' rows of the VertexTable ``table`` as columns.
    """
    refs = [(i, pi) for i, z in enumerate(cover) for pi in range(len(z.points))]
    if not refs:
        return PointClasses(cls={}, head={}, shift={}, rects={},
                            met={i: [] for i in range(len(cover))}, fibres=None)
    spans = {(p.point.back_len, p.point.fwd_len) for z in cover for p in z.points}
    if len(spans) > 1 or min(min(s) for s in spans) < 2:
        raise ValueError(f"sampled points must share one span [-N, F], N, F >= 2: "
                         f"{sorted(spans)}")
    (n, _), = spans
    pts = _coordinates([p for z in cover for p in z.points])
    ok = ~np.isnan(pts)

    cls = _number(pts, ok.all(axis=1)).tolist()
    # one numbering of the heads, then the shifts: a shift numbered past
    # every head lands on none
    head_ok, shift_ok = ok[:, :-1].all(axis=1), ok[:, 1:].all(axis=1)
    ends = _number(np.concatenate([pts[:, :-1], pts[:, 1:]]), np.concatenate([head_ok, shift_ok]))
    head, shift = ends[:len(refs)], ends[len(refs):]
    shift[shift > head.max()] = -1
    cls, head, shift = ([None if c < 0 else c for c in ids]
                        for ids in (cls, head.tolist(), shift.tolist()))
    rects = {}
    for (i, _), c in zip(refs, cls):
        if c is not None and i not in rects.setdefault(c, []):
            rects[c].append(i)
    met = {i: set() for i in range(len(cover))}
    for (i, _), c in zip(refs, cls):
        met[i].update(rects.get(c, ()))
    return PointClasses(cls=dict(zip(refs, cls)), head=dict(zip(refs, head)),
                        shift=dict(zip(refs, shift)), rects=rects,
                        met={i: sorted(js) for i, js in met.items()},
                        fibres=_fibres(table, cover, pts[:, n - 1:n + 2].copy()))


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
    by vertex.  A rectangle keeps one copy of each point: its points are
    numbered once, as ``point_classes`` numbers its classes.
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
    walks = np.array(walks, dtype=np.int64).reshape(len(walks), 2 * window + 1)
    shadowed = iter(sh.shadow_many(m, g.alphabet.vertices, walks, -window, cfg))
    raw = [Rectangle(vid=v, points=[res for res in itertools.islice(shadowed, count)
                                    if not isinstance(res, sh.EdgeBroken)])
           for v, count in core]
    pts = _coordinates([p for z in raw for p in z.points]).reshape(-1, 2 * window + 1)
    cls = iter(_number(pts, ~np.isnan(pts).any(axis=1)).tolist())
    rects = []
    for z in raw:
        seen = set()
        points = []
        for res, c in zip(z.points, cls):
            if c < 0 or c not in seen:
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


# intersection types by code: 2 for a stable hit plus 1 for an unstable one
TYPES = ("00", "0u", "s0", "su")


def refine(cover, pc):
    """Partition the sampled cover by full fibre-intersection signatures.

    Each sampled point of Z_i is classified against every met Z_j (pc: the
    cover's ``point_classes``, which holds the meeting table and the fibre
    columns) into one of the four intersection types, for all pairs at
    once; cells are the classes of equal signature vectors.  T_ii is 'su'
    for every point (checked).
    """
    cells = []
    fib = pc.fibres
    if fib is None:
        return cells
    pairs = np.array([(i, j) for i in range(len(cover)) for j in pc.met[i]],
                     dtype=np.int64).reshape(-1, 2)
    # entry e: a point a[e] of Z_i against Z_j, (i, j) = pairs[e_pair[e]];
    # a pair's entries are its Z_i points in order
    e_pair, a = _points_of(fib, pairs[:, 0])
    e, b = _points_of(fib, pairs[e_pair, 1])   # entry e[k] against point b[k] of its Z_j
    s_hit, u_hit = np.zeros(a.size, dtype=bool), np.zeros(a.size, dtype=bool)
    s_hit[e[fib.x0[b] == fib.x0[a[e]]]] = True
    on_u = (fib.word[b] == fib.word[a[e]]) & _in_chart(fib, pairs[e_pair[e], 0], fib.x0[b])
    u_hit[e[on_u]] = True
    code = 2 * s_hit + u_hit
    bad = np.flatnonzero((pairs[e_pair, 0] == pairs[e_pair, 1]) & (code != 3))
    if bad.size:
        raise AssertionError(f"T_ii is not 'su' at rectangle {pairs[e_pair[bad[0]], 0]}")
    codes = code.tolist()
    index = {}
    at = 0
    for i, z in enumerate(cover):
        js, n = pc.met[i], len(z.points)
        for pi in range(n):
            key = (i, tuple(codes[at + pi:at + n * len(js):n]))
            if key not in index:
                index[key] = len(cells)
                sig = tuple(((i, j), TYPES[c]) for j, c in zip(js, key[1]))
                cells.append(RefinedCell(cell_id=len(cells), rect=i, signature=sig, members=[]))
            cells[index[key]].members.append((i, pi))
        at += n * len(js)
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
    # f(W^s(x, Z(R0))) inside W^s(f x, Z(R1)) and dually for W^u; one check
    # per member of R0 whose shift is a point of R1
    first_point = {}   # (rect, head class) -> its first point there
    for (i, pi), h in pc.head.items():
        first_point.setdefault((i, h), pi)
    heads_in = [{pc.head[ref] for ref in c.members} for c in cells]
    start = [] if pc.fibres is None else pc.fibres.start.tolist()
    checks = []        # (point of R0, R0, the first point of its shift in R1, R1)
    for r in cells:
        for s_id in tg.out_edges[r.cell_id]:
            s = cells[s_id]
            for i, pi in r.members:
                h = pc.shift[i, pi]
                if h is not None and h in heads_in[s_id]:
                    checks.append((start[i] + pi, i, start[s.rect] + first_point[s.rect, h],
                                   s.rect))
    failures = _markov_failures(pc.fibres, *np.array(checks).T) if checks else 0

    # finite-to-one: distinct points vs the number of cells containing them;
    # a NaN point is distinct from every point
    counts = Counter(pc.cls[ref] for c in cells for ref in c.members)
    nan_points = counts.pop(None, 0)
    return AuditReport(
        intersection_counts=inter_counts,
        refined_in_rect=refined_in_rect,
        rects_over_cell=rects_over_cell,
        markov_checked=len(checks),
        markov_failures=failures,
        preimage_max=max(counts.values(), default=min(nan_points, 1)),
        preimage_bound_max=max(rects_over_cell.values(), default=0) ** 2,
    )


def _markov_failures(fib, src, r_rect, dst, s_rect):
    """The failed fibre containments of the checks k: point src[k] of
    rectangle r_rect[k] shifts to a point whose first copy in rectangle
    s_rect[k] is dst[k] (rows of ``fib``)."""
    # stable: the shift of anything with x0 = w.x0 has x0 = f(w.x0)
    t, q = _points_of(fib, r_rect)
    failed = np.count_nonzero((fib.x0[q] == fib.x0[src[t]]) & (fib.x1[q] != fib.x0[dst[t]]))
    # unstable: the backward shift of the target fibre lands in ours
    t, q = _points_of(fib, s_rect)
    on_target = (fib.word[q] == fib.word[dst[t]]) & _in_chart(fib, s_rect[t], fib.x0[q])
    on_source = ((fib.word_tail[q] == fib.word_head[src[t]])
                 & _in_chart(fib, r_rect[t], fib.x_back[q]))
    return int(failed + np.count_nonzero(on_target & ~on_source))
