"""Reference implementations the tests compare the pipeline against.

Each is written from the definitions, not from the code it checks.
"""

import math
from dataclasses import replace

import numpy as np

from symdyn import _kernels as K
from symdyn import coarse_grain as cg
from symdyn import pesin
from symdyn.markov_refine import windows_agree


# -- coarse graining -------------------------------------------------------------

def full_ladder_alphabet(m, samples, cfg):
    """The alphabet over the same net with one chart for every size of every
    center's CG2 windows, plus its sampled greedy sizes."""
    al = cg.build_alphabet(m, samples, cfg)
    centers, vertices, vertex_index = [], [], {}
    for c in al.centers:
        sizes = set(c.seen_q)
        for j in c.j_bins:
            sizes.update(cg._size_indices(cfg, j, c.gamma.idxQ))
        c = replace(c, sizes=sorted(sizes))
        centers.append(c)
        for ip in c.sizes:
            chart = pesin.Chart(center=c.window, shift=c.shift, params=c.params, idx_p=ip)
            vertex_index[(c.cid, ip)] = len(vertices)
            vertices.append(cg.Vertex(vid=len(vertices), cid=c.cid, chart=chart,
                                      gamma=c.gamma))
    return replace(al, centers=centers, vertices=vertices, vertex_index=vertex_index)


def strong_graph_backward(al):
    """Strong edges found from the successor side: for w of size p, (E2.3)
    forces q = e^{-eps} p when p is under its delta Q cap, and allows any
    q >= e^{-eps} p when p sits on the cap."""
    nd = al.cfg.delta_index
    preds = {}
    for c in al.centers:
        preds.setdefault((c.gamma.theta[1], 1.0 / c.gamma.u[1]), []).append(c)
    out_edges = [[] for _ in al.vertices]
    in_edges = [[] for _ in al.vertices]
    for w in al.vertices:
        cap = nd + w.gamma.idxQ
        if w.idx_p < cap:
            continue
        for c in preds.get((w.gamma.theta[0], 1.0 / w.gamma.u[0]), ()):
            if w.idx_p > cap:
                cand = [w.idx_p + 3] if w.idx_p + 3 in c.sizes else []
            else:
                cand = [iq for iq in c.sizes if iq <= w.idx_p + 3]
            for iq in cand:
                v = al.vertices[al.vertex_index[(c.cid, iq)]]
                if cg._edge_test_vertices(al.cfg, v, w, strong=True):
                    out_edges[v.vid].append(w.vid)
                    in_edges[w.vid].append(v.vid)
    return cg.GpoGraph(alphabet=al, out_edges=[sorted(o) for o in out_edges],
                       in_edges=[sorted(i) for i in in_edges], bin_index={})


# -- Markov refinement ---------------------------------------------------------

def signature_partition(cover):
    """Group sampled points by (rectangle, membership signature).

    Z_i meets Z_j when some sampled point of one agrees with a sampled
    point of the other.  A point x of Z_i is classified against every met
    Z_j: 's' when some sampled point of Z_j lies on the stable fibre of x
    (same zeroth coordinate), 'u' when some lies on its unstable fibre
    (backward branch words agree on their common length, and the zeroth
    coordinate is inside 100 times Z_i's chart interval).
    """
    def meet(zi, zj):
        return any(windows_agree(p.point, q.point) for p in zi.points for q in zj.points)

    def on_stable(x, y):
        return y.x0 == x.x0

    def on_unstable(z, x, y):
        a, b = tuple(x.back_branches), tuple(y.back_branches)
        k = min(len(a), len(b))
        if a[:k] != b[:k]:
            return False
        d = abs(y.x0 - z.chart.theta0) * z.chart.u
        return cg.lt_log_threshold(d, math.log(100.0) + z.chart.log_p, strict=False)

    groups = {}
    for i, zi in enumerate(cover):
        met = [j for j, zj in enumerate(cover) if meet(zi, zj)]
        for pi, p in enumerate(zi.points):
            sig = []
            for j in met:
                ys = [q.point for q in cover[j].points]
                s = any(on_stable(p.point, y) for y in ys)
                u = any(on_unstable(zi, p.point, y) for y in ys)
                sig.append((j, ("s" if s else "0") + ("u" if u else "0")))
            groups.setdefault((i, tuple(sig)), []).append((i, pi))
    return sorted(sorted(v) for v in groups.values())


# -- periodic points -------------------------------------------------------------

def periodic_roots_reference(map_kind, table, words, iters=200):
    """Fixed-step cylinder refinement + bisection: every word, all ``iters``
    steps, every branch formula at every step.  This is the algorithm, not a
    definition: ``_kernels.periodic_roots`` must reproduce its found roots
    bit for bit while skipping work whose result is never read."""
    words = np.asarray(words, dtype=np.int64)
    w, n = words.shape
    lo = table[words[:, n - 1], 1].copy()
    hi = table[words[:, n - 1], 2].copy()
    alive = np.ones(w, dtype=bool)
    for k in range(n - 2, -1, -1):
        b = words[:, k]
        a = K.inv_vec(map_kind, table, b, lo)
        c = K.inv_vec(map_kind, table, b, hi)
        a2 = np.maximum(np.minimum(a, c), table[b, 1])
        c2 = np.minimum(np.maximum(a, c), table[b, 2])
        alive &= a2 < c2
        lo = np.where(alive, a2, 0.0)
        hi = np.where(alive, c2, 1.0)

    def compose(x):
        for k in range(n):
            x = K.fwd_vec(map_kind, table, words[:, k], x)
        return x

    flo = compose(lo) - lo
    fhi = compose(hi) - hi
    exact_lo = flo == 0.0
    exact_hi = (fhi == 0.0) & ~exact_lo
    root_exact = np.where(exact_lo, lo, np.where(exact_hi, hi, 0.0))
    alive &= exact_lo | exact_hi | ((flo > 0.0) != (fhi > 0.0))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = compose(mid) - mid
        same = (fm > 0.0) == (flo > 0.0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    roots = np.where(exact_lo | exact_hi, root_exact, 0.5 * (lo + hi))
    return roots, alive
