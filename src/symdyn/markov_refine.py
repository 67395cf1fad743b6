"""Markov cover, Sinai-Bowen refinement, and the refined shift graph.

Rectangles are finite point samples of Z(v) = {shadowed points of
strong paths through v}; every set predicate (intersection, fibre
membership) is sample-level, with window agreement (equal coordinates on
the common range) as the equality proxy.  A sampled point is a row of the
cover's table (``Cover``).  Which rows are the same point, and which point
the shift of each lands on, is decided once per cover (``point_classes``):
the key is exact, the coordinate bytes; ``refine``, ``hat_graph`` and
``audits`` share the final cover's classes, which hold the fibre data of
its rows and of its rectangles' charts (rows of the alphabet's vertex
table) as columns.  The refinement classifies each row by its full
stable/unstable intersection signature against every met rectangle, in
array comparisons; cells are the classes of equal signatures.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import shadowing as sh
from .analysis import Digraph

LOG100 = math.log(100.0)


@dataclass(frozen=True)
class Cover:
    """Sampled rectangles Z(v), one table row per sampled point.

    Rectangle i samples Z(v) for the vertex v = ``vid[i]``, a row of the
    alphabet's vertex table; its points are the rows ``start[i]`` to
    ``start[i + 1] - 1``: the window x_{-N} .. x_F of a shadowed point
    (``points``, N = ``back_len``) and the branches of x_{-N} .. x_{F-1}
    (``branches``).
    """

    vid: np.ndarray
    start: np.ndarray       # one entry per rectangle, then the row count
    points: np.ndarray
    branches: np.ndarray
    back_len: int

    def __len__(self):
        return self.vid.size

    def rect(self):
        """The rectangle of each row."""
        return np.repeat(np.arange(len(self)), np.diff(self.start))


def _rows_of(start, groups):
    """(t, q): entry t of the int array ``groups`` with each row q of its
    group g = groups[t], the rows ``start[g]`` to ``start[g + 1] - 1``, in
    order."""
    n = np.diff(start)[groups]
    t = np.repeat(np.arange(groups.size), n)
    return t, np.arange(t.size) - np.repeat(np.cumsum(n) - n - start[groups], n)


def _pairs(a, b, n):
    """The distinct pairs (a[k], b[k]) of int arrays with a, b >= 0 and
    b < n, sorted, as two arrays.  (A bare ``np.unique`` would import
    ``numpy.ma``, a megabyte of module objects.)"""
    key = np.sort(a * n + b)
    return np.divmod(key[np.diff(key, prepend=-1) != 0], n)


def _split(values, keys, n):
    """``values`` cut into n arrays by their sorted int ``keys`` 0 .. n - 1."""
    bounds = np.searchsorted(keys, np.arange(n + 1)).tolist()
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _number(rows, good):
    """An id per row of a 2-D array: -1 where ``good`` is False, else
    numbered by first occurrence, equal exactly where the rows are (so
    -0.0 equals 0.0).  One stable ``np.lexsort`` brings equal rows
    together, first occurrence first; a row holding a NaN equals none,
    itself included."""
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
    """Which rows of a cover are the same point, and the fibre data of its
    rows and rectangles as columns.

    ``cls``, ``head`` and ``shift`` hold an int per row, -1 where a NaN
    rules out every match.  A row's s-fibre is fixed by its zeroth
    coordinate; its u-fibre is its backward branch word, within 100 times
    its rectangle's chart interval.  ``word``, ``word_tail`` and
    ``word_head`` number the backward words, and the words less their first
    and last letters (one numbering for both), equal exactly where the
    words are.
    """

    cls: np.ndarray         # equal exactly where the windows agree
    head: np.ndarray        # the class of the row on all but its last coordinate
    shift: np.ndarray       # the head class of the row's shift by one
    n_rects: np.ndarray     # per class: the rectangles holding a row of it
    met: np.ndarray         # the sorted (i, j) with Z_i and Z_j sharing a point
    word: np.ndarray
    word_tail: np.ndarray
    word_head: np.ndarray
    theta0: np.ndarray      # per rectangle: its vertex's theta0 and u, and
    u: np.ndarray           # e^{log 100p} from math.exp, with its log
    size: np.ndarray
    log_size: np.ndarray


def _in_chart(pc, r, x):
    """Per element, whether |x - theta0_r| u_r <= 100 p_r for rectangle r:
    ``coarse_grain.lt_log_threshold``'s non-strict test, comparing logs
    (math.log) only where e^{log 100p} underflows."""
    d = np.abs(x - pc.theta0[r]) * pc.u[r]
    size = pc.size[r]
    hit = (d == 0.0) | (d <= size)
    low = np.flatnonzero(~hit & (size == 0.0) & (d == d))
    hit[low] = [math.log(v) <= t for v, t in zip(d[low].tolist(), pc.log_size[r[low]].tolist())]
    return hit


def point_classes(table, cover):
    """Decide once which rows of a cover are the same point.

    Rows a and b share a class exactly when their windows agree (== on
    every coordinate): the key is their coordinate bytes, and a row holding
    a NaN matches nothing, itself included.  The shift by one of a agrees
    with b exactly when a's coordinates from index 1 equal b's up to its
    last but one, so ``shift[a] == head[b]`` decides it the same way; each
    numbering is one sort of the rows (``_number``).  The rectangles' fibre
    columns are read from their rows of the VertexTable ``table``.
    """
    pts, k, n = cover.points, len(cover.points), cover.back_len
    ok = ~np.isnan(pts)
    cls = _number(pts, ok.all(axis=1))
    # one numbering of the heads, then the shifts: a shift numbered past
    # every head lands on none
    ends = _number(np.concatenate([pts[:, :-1], pts[:, 1:]]),
                   np.concatenate([ok[:, :-1].all(axis=1), ok[:, 1:].all(axis=1)]))
    head, shift = ends[:k], ends[k:]
    shift[shift > head.max(initial=-1)] = -1
    # the (class, rectangle) pairs by class; the rectangles of a class meet
    held, rect = _pairs(cls[cls >= 0], cover.rect()[cls >= 0], len(cover))
    n_rects = np.bincount(held)
    t, q = _rows_of(np.concatenate([[0], np.cumsum(n_rects)]), held)
    bids = cover.branches
    every = np.ones(2 * k, dtype=bool)
    words = _number(np.concatenate([bids[:, :n - 1], bids[:, 1:n]]), every)
    log_size = LOG100 + table.log_p[cover.vid]
    return PointClasses(
        cls=cls, head=head, shift=shift, n_rects=n_rects,
        met=np.column_stack(_pairs(rect[t], rect[q], len(cover))),
        word=_number(bids[:, :n], every[:k]), word_tail=words[:k], word_head=words[k:],
        theta0=table.theta0[cover.vid], u=table.u[cover.vid],
        size=np.array([math.exp(x) if x < 700.0 else math.inf for x in log_size.tolist()]),
        log_size=log_size)


# ---------------------------------------------------------------------------
# cover construction
# ---------------------------------------------------------------------------

def _draw_walks(g, cfg):
    """The strong walks of ``build_cover``: cfg.cover_window steps back and
    forward from each core vertex of the pruned graph g, one row per walk,
    its vertex in the middle column.

    The draw rule: the rows are the core vertices ascending, with
    cfg.paths_per_vertex rows each.  All backward steps are taken first,
    then all forward steps; each step moves every row to a neighbour at
    once (a gather on the graph's arrays) and makes one
    ``rng.integers(0, deg)`` call over the rows whose vertex has deg > 1
    neighbours that way, in row order, and none where no row has a choice.
    Identical walks of a vertex are then dropped, keeping the first."""
    window = cfg.cover_window
    rng = np.random.default_rng(cfg.seed)
    core = np.flatnonzero((np.diff(g.start) > 0) & (np.diff(g.pred_start) > 0))
    walks = np.empty((core.size * cfg.paths_per_vertex, 2 * window + 1), dtype=np.int64)
    walks[:, window] = np.repeat(core, cfg.paths_per_vertex)
    for start, nbr, cols in ((g.pred_start, g.pred, range(window - 1, -1, -1)),
                             (g.start, g.succ, range(window + 1, 2 * window + 1))):
        cur = walks[:, window]
        for col in cols:
            deg = start[cur + 1] - start[cur]
            # every vertex a walk from a core vertex reaches is core
            assert deg.all(), "a walk ends: the graph is not pruned"
            pick = np.zeros_like(cur)
            choice = np.flatnonzero(deg > 1)
            if choice.size:
                pick[choice] = rng.integers(0, deg[choice])
            cur = walks[:, col] = nbr[start[cur] + pick]
    first = np.diff(np.maximum.accumulate(_number(walks, np.ones(len(walks), dtype=bool))),
                    prepend=-1) > 0
    return walks[first], core.size


def build_cover(m, g, cfg):
    """Sample rectangles Z(v) from cfg.paths_per_vertex strong paths through
    v, of cfg.cover_window steps on each side, drawn with cfg.seed by the
    rule of ``_draw_walks``.

    ``g`` must be pruned (``coarse_grain.prune_relevant``): on a finite
    graph every bi-infinite path visits some vertex infinitely often in
    each direction, so every walk from a core vertex (one with in- and
    out-edges) extends to a path of the coded shift.  Only core vertices
    are sampled.  A core vertex gets no rectangle only when shadowing broke
    every one of its walks; the second return value counts these
    vertices.  Every walk is drawn first and all are shadowed in one
    ``shadow_many`` batch, which draws nothing.  The cover's rows are the
    unbroken rows of the batch's ``points`` and ``branches``: a rectangle
    keeps the first row of each class, numbered once as ``point_classes``
    numbers them, and every row holding a NaN.
    """
    window = cfg.cover_window
    walks, n_core = _draw_walks(g, cfg)
    shadows = sh.shadow_many(m, g.alphabet.vertices, walks, -window, cfg)
    ok = shadows.ok
    pts, bids, vertex = shadows.points[ok], shadows.branches[ok], walks[ok, window]
    # the first row of each (vertex, class) pair, and every NaN row
    cls = _number(pts, ~np.isnan(pts).any(axis=1))
    keep = cls < 0
    keep[np.unique(vertex * (cls.max(initial=-1) + 2) + cls + 1, return_index=True)[1]] = True
    vid, counts = np.unique(vertex[keep], return_counts=True)
    cover = Cover(vid=vid, start=np.concatenate([[0], np.cumsum(counts)]),
                  points=pts[keep], branches=bids[keep], back_len=window)
    return cover, n_core - len(vid)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

@dataclass
class RefinedCell:
    cell_id: int
    rect: int              # the rectangle this cell refines
    signature: tuple       # sorted ((i, j), 'su'|'s0'|'0u'|'00') entries
    members: np.ndarray    # cover rows, ascending


# intersection types by code: 2 for a stable hit plus 1 for an unstable one
TYPES = ("00", "0u", "s0", "su")


def refine(cover, pc):
    """Partition the sampled cover by full fibre-intersection signatures.

    Each row of Z_i is classified against every met Z_j (pc: the cover's
    ``point_classes``, which holds the meeting pairs and the fibre columns)
    into one of the four intersection types, for all pairs at once; cells
    are the classes of equal signature vectors, numbered by first row.
    T_ii is 'su' for every row (checked).
    """
    pairs, rect, n = pc.met, cover.rect(), cover.back_len
    x0 = cover.points[:, n]
    # entry e: a row a[e] of Z_i against Z_j, (i, j) = pairs[e_pair[e]];
    # a pair's entries are its Z_i rows in order
    e_pair, a = _rows_of(cover.start, pairs[:, 0])
    e, b = _rows_of(cover.start, pairs[e_pair, 1])   # entry e[k] against row b[k] of its Z_j
    s_hit, u_hit = np.zeros(a.size, dtype=bool), np.zeros(a.size, dtype=bool)
    s_hit[e[x0[b] == x0[a[e]]]] = True
    on_u = (pc.word[b] == pc.word[a[e]]) & _in_chart(pc, pairs[e_pair[e], 0], x0[b])
    u_hit[e[on_u]] = True
    code = 2 * s_hit + u_hit
    bad = np.flatnonzero((pairs[e_pair, 0] == pairs[e_pair, 1]) & (code != 3))
    if bad.size:
        raise AssertionError(f"T_ii is not 'su' at rectangle {pairs[e_pair[bad[0]], 0]}")
    # a row's signature: column c holds its code against the c-th Z_j its Z_i meets
    met = _split(pairs[:, 1], pairs[:, 0], len(cover))
    col = np.arange(len(pairs)) - np.searchsorted(pairs[:, 0], pairs[:, 0])
    sig = np.full((len(rect), max(map(len, met), default=0)), -1)
    sig[a, col[e_pair]] = code
    ids = _number(np.column_stack([rect, sig]), np.ones(len(rect), dtype=bool))
    order = np.argsort(ids, kind="stable")
    cells = []
    for members in _split(order, ids[order], ids.max(initial=-1) + 1):
        i = int(rect[members[0]])
        codes = sig[members[0]].tolist()
        cells.append(RefinedCell(cell_id=len(cells), rect=i, members=members, signature=tuple(
            ((i, j), TYPES[c]) for j, c in zip(met[i].tolist(), codes))))
    return cells


# ---------------------------------------------------------------------------
# the refined shift graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TmsGraph(Digraph):
    """The refined shift graph: an edge per pair of cells R -> S, on the
    cells' ids."""

    cells: list
    cover: Cover
    classes: PointClasses      # of the cover's rows


def _cell_of(cells, rows):
    """The cell of each of the ``rows`` rows of a refined cover."""
    cell = np.empty(rows, dtype=np.int64)
    for c in cells:
        cell[c.members] = c.cell_id
    return cell


def _landings(pc, cell):
    """(q, s): each row q whose shift lands on a row of cell s, once per
    pair, ascending in q (``cell``: the cell of each row)."""
    ok = pc.head >= 0
    head, held = _pairs(pc.head[ok], cell[ok], cell.max(initial=-1) + 1)
    start = np.searchsorted(head, np.arange(pc.head.max(initial=-1) + 2))
    q = np.flatnonzero(pc.shift >= 0)
    t, r = _rows_of(start, pc.shift[q])
    return q[t], held[r]


def hat_graph(cover, cells, pc):
    """Edges R -> S iff the shift of some sampled member of R lands in S
    (pc: the cover's ``point_classes``)."""
    cell = _cell_of(cells, len(pc.cls))
    q, s = _landings(pc, cell)
    return TmsGraph.from_edges(len(cells), *_pairs(cell[q], s, len(cells)), cells=cells,
                               cover=cover, classes=pc)


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
    rect = cover.rect()
    inter_counts = np.bincount(pc.met[:, 0], minlength=len(cover)).tolist()

    refined_in_rect = dict(Counter(c.rect for c in cells))
    # a NaN row's class, -1, reads the appended 0: it is in no rectangle
    over = np.append(pc.n_rects, 0)[pc.cls[[c.members[0] for c in cells]]].tolist()
    rects_over_cell = {c.cell_id: k for c, k in zip(cells, over)}

    # sampled Markov property: for x in R0 with f(x) in R1,
    # f(W^s(x, Z(R0))) inside W^s(f x, Z(R1)) and dually for W^u; one check
    # per row of R0 and cell R1 holding a row its shift lands on, against the
    # first row with that head class in R1's rectangle
    src, s = _landings(pc, _cell_of(cells, len(rect)))
    s_rect = np.array([c.rect for c in cells], dtype=np.int64)[s]
    n_heads = pc.head.max(initial=-1) + 1
    rows = np.flatnonzero(pc.head >= 0)
    keys, first = np.unique(rect[rows] * n_heads + pc.head[rows], return_index=True)
    dst = rows[first[np.searchsorted(keys, s_rect * n_heads + pc.shift[src])]]
    failures = _markov_failures(cover, pc, src, rect[src], dst, s_rect)

    # finite-to-one: distinct points vs the number of cells containing them;
    # a NaN row is distinct from every point
    counts = np.bincount(pc.cls[pc.cls >= 0])
    return AuditReport(
        intersection_counts=inter_counts,
        refined_in_rect=refined_in_rect,
        rects_over_cell=rects_over_cell,
        markov_checked=len(src),
        markov_failures=failures,
        preimage_max=int(counts.max()) if counts.size else min(int(np.sum(pc.cls < 0)), 1),
        preimage_bound_max=max(rects_over_cell.values(), default=0) ** 2,
    )


def _markov_failures(cover, pc, src, r_rect, dst, s_rect):
    """The failed fibre containments of the checks k: row src[k] of
    rectangle r_rect[k] shifts to a point whose first copy in rectangle
    s_rect[k] is row dst[k]."""
    n = cover.back_len
    x_back, x0, x1 = cover.points[:, n - 1], cover.points[:, n], cover.points[:, n + 1]
    # stable: the shift of anything with x0 = w.x0 has x0 = f(w.x0)
    t, q = _rows_of(cover.start, r_rect)
    failed = np.count_nonzero((x0[q] == x0[src[t]]) & (x1[q] != x0[dst[t]]))
    # unstable: the backward shift of the target fibre lands in ours
    t, q = _rows_of(cover.start, s_rect)
    on_target = (pc.word[q] == pc.word[dst[t]]) & _in_chart(pc, s_rect[t], x0[q])
    on_source = ((pc.word_tail[q] == pc.word_head[src[t]])
                 & _in_chart(pc, r_rect[t], x_back[q]))
    return int(failed + np.count_nonzero(on_target & ~on_source))
