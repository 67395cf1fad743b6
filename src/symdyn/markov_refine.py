"""Markov cover, Sinai-Bowen refinement, and the refined shift graph.

Rectangles are finite point samples of Z(v) = {shadowed points of
recurrent-proxy chains through v}; every set predicate (intersection,
fibre membership, cylinder chase) is sample-level, with window agreement
as the equality proxy.  The refinement classifies each sampled point by
its full stable/unstable intersection signature against every met
rectangle; cells are the classes of equal signatures.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import shadowing as sh
from .coarse_grain import lt_log_threshold

LOG100 = math.log(100.0)


class EmptyCylinder(RuntimeError):
    """A sampled cylinder intersection died (possibly under-sampling)."""


def windows_agree(w1, w2, depth=None, fwd=None):
    """Sample-level equality of two windows on their common range."""
    d = min(w1.back_len, w2.back_len) if depth is None else depth
    f = min(w1.fwd_len, w2.fwd_len) if fwd is None else fwd
    if f < -d:
        return True
    for w in (w1, w2):
        if d > w.back_len or f > w.fwd_len:
            raise IndexError(f"coordinates [{-d}, {f}] outside window [{-w.back_len}, {w.fwd_len}]")
    # == on floats: -0.0 equals 0.0 and NaN equals nothing
    return np.array_equal(w1.points[w1.off - d:w1.off + f + 1],
                          w2.points[w2.off - d:w2.off + f + 1])


@dataclass
class Rectangle:
    """Sampled Z(v): shadow results of recurrent-proxy paths through v."""

    rid: int
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
    """Random strong walk from vid; biased to keep walking (re-enter cycles)
    by construction, since pruned graphs only retain cycle-supported
    vertices.  Returns the visited vertex ids (excluding vid) or None."""
    adj = g.out_edges if direction > 0 else g.in_edges
    out = []
    cur = vid
    for _ in range(steps):
        nxt = adj[cur]
        if not nxt:
            return None
        cur = nxt[int(rng.integers(0, len(nxt)))] if len(nxt) > 1 else nxt[0]
        out.append(cur)
    return out


def _sigma_recurrence_proxy(vids):
    pos = vids[len(vids) // 2 + 1:]
    neg = vids[: len(vids) // 2]
    return (len(pos) != len(set(pos))) and (len(neg) != len(set(neg)))


def build_cover(m, g, cfg, paths_per_vertex=3, window=16, seed=0):
    """Sample rectangles Z(v) from recurrent-proxy strong paths through v.

    Only core vertices (with in- and out-edges) are sampled; a core vertex
    that yields no shadowed point is dropped (counted in the returned
    diagnostics).  Every walk is drawn first and all are shadowed in one
    ``shadow_many`` batch; shadowing draws nothing, so the draws are those
    of walking and shadowing vertex by vertex.
    """
    rng = np.random.default_rng(seed)
    core = []      # (vertex, number of its walks to shadow)
    walks = []
    for v in range(g.n_vertices()):
        if not g.out_edges[v] or not g.in_edges[v]:
            continue
        seen = set()
        count = 0
        for _ in range(max(paths_per_vertex, 0)):
            back = _walk(g, rng, v, window, -1)
            fwd = _walk(g, rng, v, window, +1)
            if back is None or fwd is None:
                continue
            vids = tuple(reversed(back)) + (v,) + tuple(fwd)
            # shadowing is deterministic, so a repeated walk adds no new point
            if vids in seen:
                continue
            seen.add(vids)
            if _sigma_recurrence_proxy(vids):
                walks.append(vids)
                count += 1
        core.append((v, count))
    charts = [x.chart for x in g.alphabet.vertices]
    walks = np.array(walks, dtype=np.int64).reshape(len(walks), 2 * window + 1)
    shadowed = iter(sh.shadow_many(m, charts, walks, -window, cfg))
    rects = []
    dropped = 0
    for v, count in core:
        points = []
        for res in itertools.islice(shadowed, count):
            if isinstance(res, sh.EdgeBroken):
                continue
            if not any(windows_agree(res.point, q.point) for q in points):
                points.append(res)
        if points:
            rects.append(Rectangle(rid=len(rects), vid=v,
                                   chart=g.alphabet.vertices[v].chart, points=points))
        else:
            dropped += 1
    return rects, dropped


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


def _x0_index(cover):
    """Prefilter: zeroth coordinate -> [(rect, point)]; windows_agree is
    decided at n = 0 first, so differing x0 can never agree."""
    idx = {}
    for i, z in enumerate(cover):
        for pi, p in enumerate(z.points):
            idx.setdefault(p.point.x0, []).append((i, pi))
    return idx


def rectangles_meeting(cover, x0_index=None):
    """met[i] = sorted j with Z_i and Z_j sharing a sampled point."""
    idx = x0_index or _x0_index(cover)
    met = {}
    for i, zi in enumerate(cover):
        hits = set()
        for p in zi.points:
            for j, pj in idx.get(p.point.x0, ()):
                if j in hits:
                    continue
                if windows_agree(cover[j].points[pj].point, p.point):
                    hits.add(j)
        met[i] = sorted(hits)
    return met


def refine(cover):
    """Partition the sampled cover by full fibre-intersection signatures.

    Each sampled point of Z_i is classified against every met Z_j into one
    of the four intersection types; cells are the classes of equal
    signature vectors.  T_ii is 'su' for every point (checked).
    """
    met = rectangles_meeting(cover)
    cells = []
    index = {}
    for i, z in enumerate(cover):
        for pi in range(len(z.points)):
            sig = _signature_of(cover, i, pi, met)
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
# the refined shift graph and its projection
# ---------------------------------------------------------------------------

@dataclass
class TmsGraph:
    cells: list
    cover: list
    out_edges: list
    in_edges: list

    def adjacency(self):
        return {c.cell_id: list(self.out_edges[c.cell_id]) for c in self.cells}


def _member_window(cover, ref):
    i, pi = ref
    return cover[i].points[pi].point


def _cell_contains(cover, cell, window):
    return any(windows_agree(_member_window(cover, r), window) for r in cell.members)


def hat_graph(cover, cells):
    """Edges R -> S iff the shift of some sampled member of R lands in S."""
    n = len(cells)
    out_edges = [[] for _ in range(n)]
    in_edges = [[] for _ in range(n)]
    cell_of_ref = {}
    for c in cells:
        for ref in c.members:
            cell_of_ref[ref] = c.cell_id
    idx = _x0_index(cover)
    for r in cells:
        for ref in r.members:
            w = _member_window(cover, ref)
            try:
                wn = w.shift(1)
            except Exception:
                continue
            hit_cells = set()
            for j, pj in idx.get(wn.x0, ()):
                if windows_agree(cover[j].points[pj].point, wn):
                    hit_cells.add(cell_of_ref[(j, pj)])
            for cid in sorted(hit_cells):
                if cid not in out_edges[r.cell_id]:
                    out_edges[r.cell_id].append(cid)
                    in_edges[cid].append(r.cell_id)
    for lst in out_edges:
        lst.sort()
    for lst in in_edges:
        lst.sort()
    return TmsGraph(cells=cells, cover=cover, out_edges=out_edges, in_edges=in_edges)


def hat_pi(tg, path, n_lo=0):
    """Project an admissible cell path through sampled cylinder chasing.

    ``path[i]`` is the cell at shift index n_lo + i: a candidate point
    x̂ survives position i iff its (n_lo + i)-th shift lies in that cell.
    Candidates are the sampled members of the cell anchored at shift 0
    (or the first cell when 0 is outside the path range).  Returns
    (window, diameters) where diameters[d] is the observed diameter of
    the sampled cylinder over positions 0..d; raises EmptyCylinder when
    the sampled intersection dies (under-sampling or a genuine adjacency
    error; re-sample with more paths per vertex to distinguish).
    """
    from .natural_extension import hat_distance

    for i in range(len(path) - 1):
        if path[i + 1] not in tg.out_edges[path[i]]:
            raise ValueError(f"path not admissible at position {i}")
    anchor = -n_lo if 0 <= -n_lo < len(path) else 0
    survivors = []
    for ref in tg.cells[path[anchor]].members:
        w = _member_window(tg.cover, ref)
        try:
            survivors.append(w.shift(-(n_lo + anchor)))
        except Exception:
            continue
    diams = []
    for i, cid in enumerate(path):
        cell = tg.cells[cid]
        keep = []
        for w in survivors:
            try:
                wi = w.shift(n_lo + i)
            except Exception:
                continue
            if _cell_contains(tg.cover, cell, wi):
                keep.append(w)
        survivors = keep
        if not survivors:
            raise EmptyCylinder(f"sampled cylinder empty after position {i}")
        if len(survivors) == 1:
            diams.append(0.0)
        else:
            d = min(s.back_len for s in survivors)
            diams.append(max(hat_distance(a, b, d)
                             for ai, a in enumerate(survivors)
                             for b in survivors[ai + 1:]))
    if len(survivors) == 1:
        return survivors[0], diams
    # the member window minimizing the final intersection diameter
    d = min(s.back_len for s in survivors)
    best = min(survivors,
               key=lambda a: max(hat_distance(a, b, d) for b in survivors if b is not a))
    return best, diams


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
    cover, cells = tg.cover, tg.cells
    idx = _x0_index(cover)
    met = rectangles_meeting(cover, idx)
    inter_counts = [len(met[i]) for i in range(len(cover))]

    refined_in_rect = {}
    for c in cells:
        refined_in_rect[c.rect] = refined_in_rect.get(c.rect, 0) + 1
    rects_over_cell = {}
    for c in cells:
        w = _member_window(cover, c.members[0])
        rects_over_cell[c.cell_id] = len({j for j, pj in idx.get(w.x0, ())
                                          if windows_agree(cover[j].points[pj].point, w)})

    # sampled Markov property: for x in R0 with f(x) in R1,
    # f(W^s(x, Z(R0))) inside W^s(f x, Z(R1)) and dually for W^u
    checked = 0
    failures = 0
    for r in cells:
        for s_id in tg.out_edges[r.cell_id]:
            s = cells[s_id]
            for ref in r.members:
                w = _member_window(cover, ref)
                try:
                    wn = w.shift(1)
                except Exception:
                    continue
                if not _cell_contains(cover, s, wn):
                    continue
                fd_r = fibres(cover[r.rect], _point_index(cover, r.rect, ref))
                fd_s = fibres(cover[s.rect], _cell_point_index(cover, s, wn))
                checked += 1
                # stable: the shift of anything with x0 = w.x0 has x0 = f(w.x0)
                for q in cover[r.rect].points:
                    if fd_r.in_stable(q.point):
                        if q.point.fwd_len < 1 or not fd_s.in_stable(q.point.shift(1)):
                            failures += 1
                # unstable: the backward shift of the target fibre lands in ours
                for q in cover[s.rect].points:
                    if fd_s.in_unstable(q.point):
                        if not fd_r.in_unstable(q.point.shift(-1)):
                            failures += 1

    # finite-to-one: distinct points vs the number of cells containing them
    classes = {}
    counts = []
    for c in cells:
        for ref in c.members:
            w = _member_window(cover, ref)
            bucket = classes.setdefault(w.x0, [])
            for k, rep in bucket:
                if windows_agree(w, rep):
                    counts[k] += 1
                    break
            else:
                bucket.append((len(counts), w))
                counts.append(1)
    n_over = rects_over_cell
    bound = 0
    if cells:
        mx = max(n_over.values())
        bound = mx * mx
    return AuditReport(
        intersection_counts=inter_counts,
        refined_in_rect=refined_in_rect,
        rects_over_cell=rects_over_cell,
        markov_checked=checked,
        markov_failures=failures,
        preimage_max=max(counts, default=0),
        preimage_bound_max=bound,
    )


def _point_index(cover, rect_idx, ref):
    i, pi = ref
    if i == rect_idx:
        return pi
    w = _member_window(cover, ref)
    for k, p in enumerate(cover[rect_idx].points):
        if windows_agree(p.point, w):
            return k
    raise KeyError("member not sampled in its rectangle")


def _cell_point_index(cover, cell, window):
    for k, p in enumerate(cover[cell.rect].points):
        if windows_agree(p.point, window):
            return k
    raise KeyError("window not sampled in the target cell's rectangle")
