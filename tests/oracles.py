"""Reference implementations the tests compare the pipeline against.

Most are written from the definitions, not from the code they check.  The
``*_reference`` functions are plainer algorithms (every formula on every
element, every step, every pair) that the faster code must reproduce bit
for bit; the regularity grid is the exception, a sampled check that the
closed-form one must bound.  The rest are objects of the construction that only the tests use
(edge predicates, the Smale bracket, the derivative cocycle, window records
read back), kept here so that ``src/`` holds what the pipeline runs.
"""

import functools
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np

from symdyn import _kernels as K
from symdyn import coarse_grain as cg
from symdyn import map_model as mm
from symdyn import natural_extension as ne
from symdyn import pesin
from symdyn import shadowing as sh
from symdyn.config import RunConfig
from symdyn.map_model import ClauseResult, RegularityReport, SingularPoint

from construction import (ShadowRow, StepMap, alphabet_vertices, backward_orbit, dinv, inv,
                          make_pseudo_window, make_window, preimage, radius,
                          windows_agree_reference)


# -- coarse graining -------------------------------------------------------------

def full_ladder_alphabet(m, samples, cfg):
    """The alphabet over the same net with one chart for every size of every
    center's CG2 windows, plus its sampled greedy sizes."""
    al = cg.build_alphabet(m, samples, cfg)
    centers, cids, ips, vertex_index = [], [], [], {}
    for c in al.centers:
        sizes = set(c.seen_q)
        for j in c.j_bins:
            sizes.update(cg._size_indices(cfg, j, c.gamma.idxQ))
        c = replace(c, sizes=sorted(sizes))
        centers.append(c)
        for ip in c.sizes:
            vertex_index[(c.cid, ip)] = len(ips)
            cids.append(c.cid)
            ips.append(ip)
    return replace(al, centers=centers, vertices=pesin.vertex_table(centers, cids, ips, cfg),
                   vertex_index=vertex_index)


def strong_graph_backward(al):
    """Strong edges found from the successor side: for w of size p, (E2.3)
    forces q = e^{-eps} p when p is under its delta Q cap, and allows any
    q >= e^{-eps} p when p sits on the cap."""
    cfg = al.cfg
    nd = cfg.delta_index
    preds = {}
    for c in al.centers:
        preds.setdefault((c.gamma.theta[1], 1.0 / c.gamma.u[1]), []).append(c)
    vertices = alphabet_vertices(al)
    out_edges = [[] for _ in vertices]
    in_edges = [[] for _ in vertices]
    for w in vertices:
        cap = nd + w.gamma.idxQ
        if w.idx_p < cap:
            continue
        for c in preds.get((w.gamma.theta[0], 1.0 / w.gamma.u[0]), ()):
            if w.idx_p > cap:
                cand = [w.idx_p + 3] if w.idx_p + 3 in c.sizes else []
            else:
                cand = [iq for iq in c.sizes if iq <= w.idx_p + 3]
            for iq in cand:
                v = vertices[al.vertex_index[(c.cid, iq)]]
                if strong_clauses(cfg, w.gamma.theta[0], w.gamma.u[0], w.gamma.idxQ,
                                  w.gamma.theta[1], w.gamma.u[1], w.idx_p,
                                  v.gamma.theta[1], v.gamma.u[1], v.gamma.theta[2],
                                  v.gamma.u[2], v.idx_p):
                    out_edges[v.vid].append(w.vid)
                    in_edges[w.vid].append(v.vid)
    return cg.GpoGraph(alphabet=al, out_edges=[sorted(o) for o in out_edges],
                       in_edges=[sorted(i) for i in in_edges])


# The edge clauses from their definitions, decided in real arithmetic on the
# float data (mpmath at 60 digits): a size p on the grid I_eps is
# e^{-eps i/3} for the configured float eps taken exactly, so no threshold
# rounds or underflows, and a clause is strict only where its definition is.
_MP = mpmath.MPContext()
_MP.dps = 60


@functools.cache
def _size(eps, i):
    return _MP.exp(-_MP.mpf(eps) * i / 3)


@functools.cache
def _delta_n(eps):
    """The least integer n with e^{-eps n} < eps (delta_eps = e^{-eps n})."""
    n = 1
    while not _MP.exp(-_MP.mpf(eps) * n) < eps:
        n += 1
    return n


def _distance(a, b):
    return abs(_MP.mpf(a) - _MP.mpf(b))


def overlap_clauses(theta1, u1, i1, theta2, u2, i2, eps):
    """Psi_{x1}^{p1} and Psi_{x2}^{p2} overlap: e^{-eps} <= p1/p2 <= e^{eps}
    (p1/p2 = e^{-eps (i1 - i2)/3}) and d(x1, x2) + |1/u1 - 1/u2| < (p1 p2)^4."""
    if abs(i1 - i2) > 3:
        return False
    if theta1 == theta2 and u1 == u2:
        return True     # 0 < (p1 p2)^4
    metric = _distance(theta1, theta2) + abs(1 / _MP.mpf(u1) - 1 / _MP.mpf(u2))
    return metric < (_size(eps, i1) * _size(eps, i2)) ** 4


def strong_clauses(cfg, theta_prev_w, u_prev_w, idxQ_w, theta0_w, u_w, ip,
                   theta0_v, u_v, theta1_v, u_next_v, iq):
    """(E1)-(E2.3) for the edge v <- w, v = Psi_y^q and w = Psi_x^p."""
    eps = cfg.epsilon
    q = _size(eps, iq)
    # (E1) the f^{-1}-shifted chart of w overlaps v, both at size q
    if not overlap_clauses(theta_prev_w, u_prev_w, iq, theta0_v, u_v, iq, eps):
        return False
    # (E2.1) d(theta_1[y], theta_0[x]) < q
    if theta1_v != theta0_w and not _distance(theta1_v, theta0_w) < q:
        return False
    # (E2.2) u(f y)/u(x) = e^{+-q}: e^{-q} <= u(f y)/u(x) <= e^{q}
    if u_next_v != u_w and not _MP.exp(-q) <= _MP.mpf(u_next_v) / u_w <= _MP.exp(q):
        return False
    # (E2.3) p = min(e^eps q, delta_eps Q(x)): e^eps q and delta_eps Q(x) are
    # the grid points iq - 3 and 3n + idxQ(x), and the smaller size has the
    # larger index
    return ip == max(iq - 3, 3 * _delta_n(eps) + idxQ_w)


def strong_graph_all_pairs(al):
    """Successor lists of the alphabet's vertices by ``strong_clauses`` over
    every (v, w) pair, so no lookup picks the candidates."""
    cfg = al.cfg
    vertices = alphabet_vertices(al)
    return [[w.vid for w in vertices
             if strong_clauses(cfg, w.gamma.theta[0], w.gamma.u[0], w.gamma.idxQ,
                               w.gamma.theta[1], w.gamma.u[1], w.idx_p,
                               v.gamma.theta[1], v.gamma.u[1], v.gamma.theta[2],
                               v.gamma.u[2], v.idx_p)]
            for v in vertices]


def _net_clauses(g1, g2, j):
    """The net test as written: Q within one grid step, and on each of the
    three coordinates d(theta) + |1/u - 1/u'| < e^{-8(j+2)}."""
    if abs(g1.idxQ - g2.idxQ) > 1:
        return False
    thr = _MP.exp(-8 * (j + 2))
    return all(_distance(t1, t2) + abs(1 / _MP.mpf(u1) - 1 / _MP.mpf(u2)) < thr
               for t1, t2, u1, u2 in zip(g1.theta, g2.theta, g1.u, g2.u))


def net_all_pairs(m, samples, cfg):
    """The greedy net from its definition: the certified samples in record
    order, each with the index-0 data and bin of its own tables, joins the
    first admitted center of its bin that passes ``_net_clauses``, else is
    admitted.  The centers as (gamma, bin key, j bins, seen q indices), in
    admission order."""
    entries = []
    for w in samples:
        tabs = cg.bin_tables(m, [pesin.window_tables(m, w, cfg)])[0]
        if tabs.certified:
            entries.append((w.record(), *tabs.bins[0], tabs.idx_q[0]))
    entries.sort(key=lambda e: e[0])
    centers = []
    for _, gamma, key, iq in entries:
        hit = next((c for c in centers if c[1] == key and _net_clauses(gamma, c[0], key.j)),
                   None)
        if hit is None:
            hit = (gamma, key, set(), set())
            centers.append(hit)
        hit[2].add(key.j)
        hit[3].add(iq)
    return centers


def overlap_test(c1, c2):
    """The overlap relation between two charts (strict metric inequality)."""
    return overlap_clauses(c1.theta0, c1.u, c1.idx_p, c2.theta0, c2.u, c2.idx_p,
                           c1.params.epsilon)


def _weak_clauses(cfg, theta_prev_w, u_prev_w, ip, theta0_v, u_v, iq):
    """(WE1) the f^{-1}-shifted chart of w overlaps v, both at size q, and
    (WE2) p <= e^eps q."""
    return (overlap_clauses(theta_prev_w, u_prev_w, iq, theta0_v, u_v, iq, cfg.epsilon)
            and _size(cfg.epsilon, ip) <= _size(cfg.epsilon, iq - 3))


def edge_test(m, v, w, cfg, strong=True):
    """Edge v <- w between charts (v = Psi_y^q, w = Psi_x^p), from the charts'
    own windows: the overlap clause on the f^{-1}-shifted chart of w against
    v, then the parameter clauses (weak: (WE2) only)."""
    theta_prev_w = w.center.x(w.shift - 1)
    u_prev_w = w.params.u_prev
    if not strong:
        return _weak_clauses(cfg, theta_prev_w, u_prev_w, w.idx_p, v.theta0, v.u, v.idx_p)
    theta1_v = v.center.x(v.shift + 1)
    u_next_v = pesin.u_at(v.center, cfg.chi, v.shift + 1)
    return strong_clauses(cfg, theta_prev_w, u_prev_w, w.params.idxQ, w.theta0, w.u,
                          w.idx_p, v.theta0, v.u, theta1_v, u_next_v, v.idx_p)


def strong_chain(m, charts, cfg):
    """Every consecutive pair of ``charts`` is a strong edge (``edge_test``)."""
    return all(edge_test(m, v, w, cfg) for v, w in zip(charts, charts[1:]))


def weak_edge_vertices(cfg, v, w):
    """(WE1)+(WE2) between two alphabet vertices, from their net data."""
    return _weak_clauses(cfg, w.gamma.theta[0], w.gamma.u[0], w.idx_p,
                         v.gamma.theta[1], v.gamma.u[1], v.idx_p)


def weak_successors(g, vid):
    """(WE1)+(WE2) successors of a vertex of a GpoGraph, over every vertex."""
    al = g.alphabet
    vertices = alphabet_vertices(al)
    v = vertices[vid]
    return [w.vid for w in vertices
            if (w.gamma.theta[0], 1.0 / w.gamma.u[0]) == (v.gamma.theta[1], 1.0 / v.gamma.u[1])
            and weak_edge_vertices(al.cfg, v, w)]


def cover_id_reference(m, x, max_level=64):
    """The dyadic cover scan, run on every call: the first grid center, coarse
    to fine, whose radius-rule ball contains x, as (level << 32) | index."""
    lo, hi = m.domain
    width = hi - lo
    for level in range(max_level):
        h = width / (1 << level)
        i = int((x - lo) / h)
        i = min(max(i, 0), (1 << level) - 1)
        z = lo + (i + 0.5) * h
        try:
            r = radius(m, z)
        except SingularPoint:
            continue
        if abs(x - z) < 2.0 * r:
            return (level << 32) | i
    raise SingularPoint(f"no cover element found for x={x!r}")


def expansion_certificate_reference(w, chi, n_min=6):
    """The expansion certificate block by block: the least (average, n) over
    the forward and the backward block averages (1/n) log|df^(n)|."""
    S = w.cumlog
    j = w.off
    fwd_avgs = []
    for n in range(min(n_min, w.fwd_len), w.fwd_len + 1):
        if n >= 1:
            fwd_avgs.append(((S[j + n] - S[j]) / n, n))
    back_avgs = []
    for n in range(min(n_min, w.back_len), w.back_len + 1):
        if n >= 1:
            back_avgs.append(((S[j] - S[j - n]) / n, n))
    if not fwd_avgs and not back_avgs:
        return pesin.Certificate(False, -math.inf, -math.inf, -math.inf, 0)
    fmin, fn = min(fwd_avgs) if fwd_avgs else (math.inf, 0)
    bmin, bn = min(back_avgs) if back_avgs else (math.inf, 0)
    margin = min(fmin, bmin) - chi
    worst = fn if fmin <= bmin else -bn
    return pesin.Certificate(bool(margin > 0), margin, fmin, bmin, worst)


def u_phase_table_reference(w, chi):
    """u at each phase of a periodic window, one phase at a time: the series
    truncated at the window's u_depth, else its backward length, over the
    log-derivatives of the phases before it.  Index k has phase
    (k + off) mod P, the phase of array slot k + off."""
    P = w.period
    d = w.u_depth or w.back_len
    ld_phase = np.empty(P)
    for p in range(P):
        ld_phase[p] = w.logderivs[w.off + ((p - w.off) % P)]
    out = np.empty(P)
    for p in range(P):
        rev = ld_phase[(p - 1 - np.arange(d)) % P]
        S = np.concatenate([[0.0], np.cumsum(rev)])
        logt = 2.0 * chi * np.arange(d + 1) - 2.0 * S
        out[p] = math.sqrt(float(np.sum(np.exp(logt))))
    return out


def rho_reference(m, w, k):
    """min d(x_i, S) over the coordinates k - 1, k, k + 1 of a window."""
    return min(m.singular_distance(w.x(k + i)) for i in (-1, 0, 1))


def window_tables_reference(m, w, cfg, lo=None, hi=None):
    """Chart data index by index: {name: {k: value}} for u, rho, logQtilde,
    idxQ and idx_q (the periodic greedy from one period of the range), up
    to F - 2 on a window x_{-N..F} (F - 1 on a periodic one)."""
    full_lo = -w.back_len + 1
    full_hi = w.fwd_len - (1 if w.period else 2)
    lo = full_lo if lo is None else max(lo, full_lo)
    hi = full_hi if hi is None else min(hi, full_hi)
    u = {k: pesin.u_at(w, cfg.chi, k) for k in range(full_lo - 1, hi + 2)}
    rho, logQt, idxQ = {}, {}, {}
    for k in range(full_lo, hi + 1):
        rho[k] = rho_reference(m, w, k)
        logQt[k], idxQ[k] = pesin.compute_Q(u[k], u[k - 1], rho[k], cfg.epsilon, m.a, m.beta)
    idx_q = {}
    if w.period and hi - full_lo + 1 >= w.period:
        phase_idxQ = [0] * w.period
        for k in range(lo, lo + w.period):
            kk = k if k <= hi else k - w.period
            phase_idxQ[(kk + w.off) % w.period] = idxQ[kk]
        per = pesin.q_greedy(phase_idxQ * 2, cfg)[w.period:]
        for k in range(full_lo, hi + 1):
            idx_q[k] = per[(k + w.off) % w.period]
    else:
        seq = pesin.q_greedy([idxQ[k] for k in range(full_lo, hi + 1)], cfg)
        idx_q = dict(zip(range(full_lo, hi + 1), seq))
    return {"u": u, "rho": rho, "logQtilde": logQt, "idxQ": idxQ, "idx_q": idx_q}


def delta_eps(epsilon):
    """delta_eps value (linear); always < epsilon."""
    cfg = RunConfig(chi=1.0, epsilon=epsilon)
    return math.exp(cfg.grid_log(cfg.delta_index))


# -- shadowing -------------------------------------------------------------------

def image_interval(ui, n):
    """Image of R[p_{n+1}] in chart-n coordinates (tau units)."""
    s = ui.steps[n]
    return tuple(sorted((s.a * -1.0 + s.b, s.a * 1.0 + s.b)))


def bracket_windows(m, wx, wy):
    """Assemble the bracket of two windows: forward data of wx, backward
    branch word of wy, backward coordinates re-derived from wx.x0 through
    the inverse branches (the unstable reconstruction)."""
    word = np.asarray(wy.back_branches, dtype=np.int64)
    back = backward_orbit(m, wx.x0, word)  # SingularPoint if the word breaks
    pts = np.concatenate([back[::-1], wx.points[wx.off:]])
    bids = np.concatenate([word[::-1], wx.branch_ids[wx.off:]])
    return make_pseudo_window(m, pts[None], bids[None], off=word.shape[0])[0]


def bracket(m, res_x, res_y):
    """Smale bracket: stable data of res_x with unstable data of res_y.

    Both results must share the zeroth vertex; bracket(x, x) reproduces
    x's window exactly, and re-bracketing with the same unstable data
    collapses (the operation is definitional on the window halves).
    """
    a, b = res_x.gpo.chart(0), res_y.gpo.chart(0)
    if (a.theta0, a.u, a.idx_p) != (b.theta0, b.u, b.idx_p):
        raise ValueError("bracket needs a shared zeroth vertex")
    return bracket_windows(m, res_x.point, res_y.point)


def step_map_reference(m, v_to, v_from, cfg):
    """The affine step of the edge v_to <- v_from, computed on every call."""
    w = v_from.center
    branch = w.branch(v_from.shift - 1)
    br = m.branch_by_id(branch)
    x0 = v_from.theta0
    dg0 = dinv(br, x0)
    slope_t = dg0 * v_to.u / v_from.u
    if br.fwd(v_to.theta0) == x0:
        offset = 0.0
    else:
        offset = inv(br, x0) - v_to.theta0
    scale = math.exp((cfg.epsilon / 3.0) * (v_to.idx_p - v_from.idx_p))
    a = slope_t * scale
    if offset == 0.0:
        b = 0.0
    else:
        log_b = math.log(abs(offset)) + math.log(v_to.u) - v_to.log_p
        b = math.copysign(math.exp(min(log_b, 700.0)), offset)
    return StepMap(a=a, b=b)


def step_map_oracle(m, v_to, v_from, cfg):
    """The affine model tau_to = a tau_from + b of G = Psi_to^{-1} o g o
    Psi_from at the chart centers, in 60-digit real arithmetic on the float
    data, rounded once: g is the inverse of the branch of v_from's center
    point's predecessor, from the catalogue's definition
    (``catalogue_branch``), a = g'(theta_from) (u_to / u_from) (p_from /
    p_to) and b = u_to (g(theta_from) - theta_to) / p_to, with p = e^{-eps
    i/3} for the configured float eps taken exactly.  b is exactly 0 where
    the centers are consecutive orbit points: where the predecessor of
    v_from's center point on its window is v_to's center point."""
    w = v_from.center
    consecutive = w.x(v_from.shift - 1) == v_to.theta0
    return _affine_step(m.branch_by_id(w.branch(v_from.shift - 1)), v_from.theta0, v_from.u,
                        v_from.idx_p, v_to.theta0, v_to.u, v_to.idx_p, cfg.epsilon, consecutive)


@functools.cache
def _affine_step(br, x0, u_from, i_from, theta_to, u_to, i_to, eps, consecutive):
    _, df, g = catalogue_branch(br, _MP)
    y = g(_MP.mpf(x0))
    a = _MP.mpf(u_to) / (df(y) * _MP.mpf(u_from)) * _size(eps, i_from) / _size(eps, i_to)
    b = 0 if consecutive else _MP.mpf(u_to) * (y - _MP.mpf(theta_to)) / _size(eps, i_to)
    return StepMap(a=float(a), b=float(b))


def shadow_reference(m, g, cfg, step=step_map_oracle):
    """One gpo through Python floats, step by step, with the steps ``step``
    gives (``step_map_oracle`` unless set): the loop the batch kernel
    ``shadow_many`` must reproduce bit for bit on the same steps, as a
    ShadowRow.  Its window is built by ``pseudo_window_reference``."""
    if g.n_hi < 1:
        raise ValueError("gpo needs forward length >= 1")
    steps = {}
    for n in range(g.n_lo, g.n_hi):
        steps[n] = step(m, g.chart(n), g.chart(n + 1), cfg)

    # forward-to-backward nested intervals
    lo, hi = -1.0, 1.0
    mids = {g.n_hi: 0.5 * (lo + hi)}
    for n in range(g.n_hi - 1, -1, -1):
        s = steps[n]
        a, b = s.a, s.b
        p0_img, p1_img = a * lo + b, a * hi + b
        lo2, hi2 = min(p0_img, p1_img), max(p0_img, p1_img)
        if not (-1.0 - sh.CONTAINMENT_SLACK <= lo2 and hi2 <= 1.0 + sh.CONTAINMENT_SLACK):
            raise sh.EdgeBroken(
                f"step into index {n} leaves the chart: [{lo2:g}, {hi2:g}]")
        lo, hi = lo2, hi2
        mids[n] = 0.5 * (lo + hi)

    taus = {n: mids[n] for n in mids}
    worst = max(abs(t) for t in taus.values())
    for n in range(0, g.n_lo, -1):
        s = steps[n - 1]
        taus[n - 1] = s.a * taus[n] + s.b
        worst = max(worst, abs(taus[n - 1]))
        if worst > 1.0 + sh.CONTAINMENT_SLACK:
            raise sh.EdgeBroken(f"backward reconstruction leaves chart {n - 1}")

    c0 = g.chart(0)
    pts = []
    bids = []
    for n in g.indices():
        c = g.chart(n)
        t_lin = taus[n] * math.exp(c.log_p) if c.log_p > -745 else 0.0
        pts.append(c.theta0 + t_lin / c.u)
        if n < g.n_hi:
            bids.append(c.center.branch(c.shift))
    point = pseudo_window_reference(m, np.array(pts), np.array(bids, dtype=np.int64),
                                    off=-g.n_lo)
    return ShadowRow(
        gpo=g, tau0=taus[0], log_p0=c0.log_p,
        log_err=math.log(2.0) + c0.log_p - cfg.chi * g.n_hi / 2.0, worst=worst, point=point)


def pseudo_window_reference(m, pts, bids, off):
    """One window from a 1-D pseudo-orbit, its prefix sums by ``np.cumsum``."""
    err = np.max(np.abs(K.fwd_vec(m.family, bids, pts[:-1]) - pts[1:]))
    if err > ne.CONSISTENCY_TOL:
        raise ValueError(f"points violate the window tolerance: {err:g}")
    ld = np.log(np.abs(K.dfwd_vec(m.family, bids, pts[:-1])))
    cum = np.zeros(ld.shape[0] + 1)
    cum[1:] = np.cumsum(ld)
    return ne.OrbitWindow(m=m, points=pts, branch_ids=bids, logderivs=ld, cumlog=cum,
                          off=off)


# -- Markov refinement ---------------------------------------------------------

def signature_partition(m, table, cover):
    """Group the rows of a ``markov_refine.Cover`` by (rectangle, membership
    signature).

    Z_i meets Z_j when some sampled point of one agrees with a sampled
    point of the other.  A point x of Z_i is classified against every met
    Z_j: 's' when some sampled point of Z_j lies on the stable fibre of x
    (same zeroth coordinate), 'u' when some lies on its unstable fibre
    (backward branch words agree on their common length, and the zeroth
    coordinate is inside 100 times Z_i's chart interval, from its row of the
    VertexTable ``table``).  Each row is read as a window of the map m.
    """
    windows = [pseudo_window_reference(m, x, b, cover.back_len)
               for x, b in zip(cover.points, cover.branches)]
    bounds = cover.start.tolist()
    rects = [range(a, b) for a, b in zip(bounds, bounds[1:])]

    def meet(zi, zj):
        return any(windows_agree_reference(windows[p], windows[q]) for p in zi for q in zj)

    def on_stable(x, y):
        return y.x0 == x.x0

    def on_unstable(i, x, y):
        a, b = tuple(x.back_branches), tuple(y.back_branches)
        k = min(len(a), len(b))
        if a[:k] != b[:k]:
            return False
        v = cover.vid[i]
        theta0, u, log_p = (float(col[v]) for col in (table.theta0, table.u, table.log_p))
        d = abs(y.x0 - theta0) * u
        return cg.lt_log_threshold(d, math.log(100.0) + log_p, strict=False)

    groups = {}
    for i, zi in enumerate(rects):
        met = [j for j, zj in enumerate(rects) if meet(zi, zj)]
        for p in zi:
            sig = []
            for j in met:
                ys = [windows[q] for q in rects[j]]
                s = any(on_stable(windows[p], y) for y in ys)
                u = any(on_unstable(i, windows[p], y) for y in ys)
                sig.append((j, ("s" if s else "0") + ("u" if u else "0")))
            groups.setdefault((i, tuple(sig)), []).append(p)
    return sorted(sorted(v) for v in groups.values())


# -- periodic points -------------------------------------------------------------

def moebius_mu(n):
    """The number-theoretic Moebius function, by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def necklace_count(k, n):
    """Primitive necklaces of length n over k letters, (1/n) sum_{d|n} mu(d)
    k^{n/d}: the period-n orbits of a full shift on k symbols."""
    total = sum(moebius_mu(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def periodic_roots_reference(table, words, iters=200):
    """Fixed-step cylinder refinement + bisection: every word, all ``iters``
    steps, every branch formula at every step.  This is the algorithm, not a
    definition: ``_kernels.periodic_roots`` must reproduce its found roots
    bit for bit while skipping work whose result is never read."""
    fam = K.Table(table, ())
    words = np.asarray(words, dtype=np.int64)
    w, n = words.shape
    lo = table[words[:, n - 1], 1].copy()
    hi = table[words[:, n - 1], 2].copy()
    alive = np.ones(w, dtype=bool)
    for k in range(n - 2, -1, -1):
        b = words[:, k]
        a = K.inv_vec(fam, b, lo)
        c = K.inv_vec(fam, b, hi)
        a2 = np.maximum(np.minimum(a, c), table[b, 1])
        c2 = np.minimum(np.maximum(a, c), table[b, 2])
        alive &= a2 < c2
        lo = np.where(alive, a2, 0.0)
        hi = np.where(alive, c2, 1.0)

    def compose(x):
        for k in range(n):
            x = K.fwd_vec(fam, words[:, k], x)
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


def map_periodic_points_reference(m, n, tol=1e-9):
    """The validated roots scanned as a sorted list: [(root, word)], each
    root kept unless within ``tol`` of the last root kept, with the word of
    the kept root in the map's branch ids."""
    table = m.finite_table()[1]
    fam = K.Table(table, ())
    words = np.array(list(itertools.product(range(table.shape[0]), repeat=n)),
                     dtype=np.int64)
    roots, found = K.periodic_roots(fam, words)
    words, roots = words[found], roots[found]
    x = roots
    good = np.ones(roots.shape, dtype=bool)
    for k in range(n):
        good &= (table[words[:, k], 1] <= x) & (x < table[words[:, k], 2])
        x = K.fwd_vec(fam, words[:, k], x)
    good &= ~(np.abs(x - roots) > tol)
    ids = [b.id for b in m.branches]
    out = []
    for r, word in sorted(zip(roots[good].tolist(), words[good].tolist()),
                          key=lambda p: p[0]):
        if not out or r - out[-1][0] > tol:
            out.append((r, [ids[b] for b in word]))
    return out


# -- batch kernels: every branch formula on every element, then np.where ----------

def _coef_vec_reference(fam, bid):
    if isinstance(fam, K.Gauss):  # branch n is the moebius row (1, -2n, 0, 4)
        b = np.asarray(bid, dtype=np.float64)
        one = np.ones_like(b)
        return (
            np.full(b.shape, K.KIND_MOEBIUS, dtype=np.int64),
            one,
            -2.0 * b,
            np.zeros_like(b),
            4.0 * one,
            one,
        )
    rows = fam.table[np.asarray(bid, dtype=np.int64)]
    return (
        rows[..., 0].astype(np.int64),
        rows[..., 3],
        rows[..., 4],
        rows[..., 5],
        rows[..., 6],
        rows[..., 7],
    )


def fwd_vec_reference(fam, bid, x):
    kind, c0, c1, c2, c3, _ = _coef_vec_reference(fam, bid)
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        aff = c0 + c1 * x
        quad = c0 + c1 * x + c2 * x * x
        moe = (c0 + c1 * x) / (c2 + c3 * x)
    return np.where(kind == K.KIND_AFFINE, aff, np.where(kind == K.KIND_QUADRATIC, quad, moe))


def dfwd_vec_reference(fam, bid, x):
    kind, c0, c1, c2, c3, _ = _coef_vec_reference(fam, bid)
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = c2 + c3 * x
        moe = (c1 * c2 - c0 * c3) / (den * den)
    return np.where(kind == K.KIND_AFFINE, c1, np.where(kind == K.KIND_QUADRATIC, c1 + 2.0 * c2 * x, moe))


def inv_vec_reference(fam, bid, y):
    kind, c0, c1, c2, c3, s = _coef_vec_reference(fam, bid)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        aff = (y - c0) / np.where(c1 == 0.0, np.nan, c1)
        disc = np.maximum(c1 * c1 - 4.0 * c2 * (c0 - y), 0.0)
        quad = (-c1 + s * np.sqrt(disc)) / (2.0 * np.where(c2 == 0.0, np.nan, c2))
        moe = (c0 - c2 * y) / (c3 * y - c1)
    return np.where(kind == K.KIND_AFFINE, aff, np.where(kind == K.KIND_QUADRATIC, quad, moe))


def dinv_vec_reference(fam, bid, y):
    kind, c0, c1, c2, c3, s = _coef_vec_reference(fam, bid)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        aff = 1.0 / np.where(c1 == 0.0, np.nan, c1)
        disc = c1 * c1 - 4.0 * c2 * (c0 - y)
        quad = np.where(disc > 0.0, s / np.sqrt(np.abs(disc)), np.inf)
        den = c3 * y - c1
        moe = (c1 * c2 - c0 * c3) / (den * den)
    return np.where(kind == K.KIND_AFFINE, aff, np.where(kind == K.KIND_QUADRATIC, quad, moe))


def d2fwd_vec_reference(fam, bid, x):
    kind, c0, c1, c2, c3, _ = _coef_vec_reference(fam, bid)
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        moe = -2.0 * (c1 * c2 - c0 * c3) * c3 / (c2 + c3 * x) ** 3
    return np.where(kind == K.KIND_AFFINE, 0.0, np.where(kind == K.KIND_QUADRATIC, 2.0 * c2, moe))


def d2inv_vec_reference(fam, bid, y):
    kind, c0, c1, c2, c3, s = _coef_vec_reference(fam, bid)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = -2.0 * s * c2 / np.maximum(c1 * c1 - 4.0 * c2 * (c0 - y), 0.0) ** 1.5
        moe = -2.0 * (c1 * c2 - c0 * c3) * c3 / (c3 * y - c1) ** 3
    return np.where(kind == K.KIND_AFFINE, 0.0, np.where(kind == K.KIND_QUADRATIC, quad, moe))


def ddinv_reference(branch, y):
    """g''(y) of one branch in closed form, in Python floats."""
    c0, c1, c2, c3 = branch.coef
    if branch.kind == K.KIND_AFFINE:
        return 0.0
    if branch.kind == K.KIND_QUADRATIC:
        disc = c1 * c1 - 4.0 * c2 * (c0 - y)
        return -2.0 * branch.inv_sign * c2 / max(disc, 0.0) ** 1.5
    return -2.0 * (c1 * c2 - c0 * c3) * c3 / (c3 * y - c1) ** 3


def catalogue_branch(br, ctx):
    """f, df and the inverse g of one branch from the catalogue's definitions
    (affine c0 + c1 x, quadratic c0 + c1 x + c2 x^2, moebius
    (c0 + c1 x) / (c2 + c3 x)), in mpmath's ``mp`` or ``iv`` context.  The
    variable occurs once in df and in g, so over an interval of ``iv`` they
    give the exact range up to outward rounding."""
    c0, c1, c2, c3 = (ctx.mpf(c) for c in br.coef)
    if br.kind == K.KIND_AFFINE:
        return (lambda x: c0 + c1 * x), (lambda x: c1), (lambda y: (y - c0) / c1)
    if br.kind == K.KIND_QUADRATIC:
        return ((lambda x: c0 + c1 * x + c2 * x * x), (lambda x: c1 + 2 * c2 * x),
                (lambda y: (-c1 + br.inv_sign * ctx.sqrt(c1 * c1 - 4 * c2 * (c0 - y))) / (2 * c2)))
    det = c1 * c2 - c0 * c3
    if br.coef[3] == 0.0:
        g = lambda y: (c0 - c2 * y) / (-c1)
    else:  # (c0 - c2 y) / (c3 y - c1) with y once
        g = lambda y: -c2 / c3 + (c0 - c1 * c2 / c3) / (c3 * y - c1)
    return (lambda x: (c0 + c1 * x) / (c2 + c3 * x)), (lambda x: det / (c2 + c3 * x) ** 2), g


# -- gauss branches: the closed forms of 1/(4x) - n/2 on [1/(2n+2), 1/(2n)) --------

def gauss_fwd_reference(n, x):
    return (1.0 - 2.0 * n * x) / (4.0 * x)


def gauss_dfwd_reference(n, x):
    return -1.0 / (4.0 * x * x)


def gauss_inv_reference(n, y):
    return 1.0 / (4.0 * y + 2.0 * n)


def gauss_dinv_reference(n, y):
    d = 4.0 * y + 2.0 * n
    return -4.0 / (d * d)


# -- regularity: whole-array clauses over 9-point grids, all 9 x 9 pairs ----------

def gauss_exact(x):
    """(n, d) for a float x in exact rational arithmetic: the gauss branch n
    with x in [1/(2n+2), 1/(2n)) (-1 outside (0, 1/2)) and the distance d,
    a Fraction, from x to S = {0} u {1/(2n): n >= 1}."""
    q = Fraction(x)
    if q <= 0:
        return -1, -q
    if q >= Fraction(1, 2):
        return -1, q - Fraction(1, 2)
    n = math.ceil(1 / (2 * q)) - 1  # 1/(2x) in (n, n + 1]
    return n, min(q - Fraction(1, 2 * n + 2), Fraction(1, 2 * n) - q)


def sing_dist_vec_reference(fam, x):
    """d(x, S) elementwise: exact rational arithmetic rounded to a float for
    gauss, else the minimum of a broadcast ``(..., len(sing))`` array of
    distances along its last axis."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(fam, K.Gauss):
        exact = lambda v: float(gauss_exact(v)[1]) if math.isfinite(v) else abs(v)
        return np.vectorize(exact, otypes=[np.float64])(x)
    sing = np.array(fam.sing)
    if sing.shape[0] == 0:
        return np.full(x.shape, np.inf)
    return np.min(np.abs(x[..., None] - sing), axis=-1)


def _draw_regular_points_reference(m, count, rng, max_tries=200):
    lo, hi = m.domain
    out = np.empty(0)
    tries = 0
    while out.size < count and tries < max_tries:
        tries += 1
        x = rng.uniform(lo, hi, size=max(64, 2 * (count - out.size)))
        dx = K.sing_dist_vec(m.family, x)
        ok = dx > m.exclusion
        b = K.branch_index_vec(m.family, x)
        ok &= b >= 0
        fx = fwd_vec_reference(m.family, np.maximum(b, 0), x)
        dfx = K.sing_dist_vec(m.family, fx)
        ok &= dfx > m.exclusion
        r = 0.5 * np.minimum(np.minimum(dx**m.a, dfx**m.a), 1.0)
        ok &= r >= m.exclusion
        out = np.concatenate([out, x[ok]])
    return out[:count]


def regularity_grid_reference(m, x, inner=9):
    """Per-sample (A1) margin, (A2) margin, worst (A3) quotient and extreme
    derivative max(|dg|, 1/|df|) of the samples x, read on a grid of
    ``inner`` points (k + 1/2) / inner of each ball with the three-formula
    kernels and every ordered pair of grid points.

    The grid never reaches a ball's ends, so on monotone branches its (A2)
    margins are at least, and its (A3) quotients at most, the closed form's.
    Branch ids and d(x, S) are the kernels' (``test_kernels`` checks them
    against exact arithmetic and a broadcast minimum).
    """
    fam = m.family
    n = x.size
    bid = K.branch_index_vec(fam, x)
    fx = fwd_vec_reference(fam, bid, x)
    dx = K.sing_dist_vec(fam, x)
    dfx = K.sing_dist_vec(fam, fx)
    r = 0.5 * np.minimum(np.minimum(dx**m.a, dfx**m.a), 1.0)

    lo, hi = m.domain
    d_lo, d_hi = np.maximum(x - 2 * r, lo), np.minimum(x + 2 * r, hi)
    e_lo, e_hi = np.maximum(fx - 2 * r, lo), np.minimum(fx + 2 * r, hi)

    # branch domain endpoints per sample
    if isinstance(fam, K.Gauss):
        b_lo = 1.0 / (2.0 * (bid + 1))
        b_hi = 1.0 / (2.0 * bid)
        img_lo, img_hi = np.zeros(n), np.full(n, 0.5)
    else:
        b_lo = fam.table[bid, 1]
        b_hi = fam.table[bid, 2]
        f_at_lo = fwd_vec_reference(fam, bid, b_lo)
        f_at_hi = fwd_vec_reference(fam, bid, b_hi)
        img_lo = np.minimum(f_at_lo, f_at_hi)
        img_hi = np.maximum(f_at_lo, f_at_hi)

    # (A1): D_x inside the covering branch domain, E_x inside its image.
    a1_margin = np.minimum(
        np.minimum(d_lo - b_lo, b_hi - d_hi),
        np.minimum(e_lo - img_lo, img_hi - e_hi),
    )

    # inner sample grids (deterministic, endpoints inset by a relative hair)
    t = (np.arange(inner) + 0.5) / inner
    ys = d_lo[:, None] + (d_hi - d_lo)[:, None] * t[None, :]
    zs = e_lo[:, None] + (e_hi - e_lo)[:, None] * t[None, :]
    bcol = np.broadcast_to(bid[:, None], ys.shape)

    dfy = dfwd_vec_reference(fam, bcol, ys)
    dgz = dinv_vec_reference(fam, bcol, zs)

    logd = np.log(dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        ldfy = np.log(np.abs(dfy))
        ldgz = np.log(np.abs(dgz))
    ldfy = np.where(np.isfinite(ldfy), ldfy, -np.inf)
    ldgz = np.where(np.isfinite(ldgz), ldgz, np.inf)  # |dg| = inf breaks the upper bound

    a2_mlo = np.minimum((ldfy - m.a * logd[:, None]).min(axis=1),
                        (np.where(np.isfinite(ldgz), ldgz, -np.inf) - m.a * logd[:, None]).min(axis=1))
    a2_mhi = np.minimum((-m.a * logd[:, None] - ldfy).min(axis=1),
                        (-m.a * logd[:, None] - ldgz).min(axis=1))
    a2_margin = np.minimum(a2_mlo, a2_mhi)

    # (A3): Hölder quotients over all inner pairs, forward and inverse.
    def worst_quotient(vals, pts):
        dv = np.abs(vals[:, :, None] - vals[:, None, :])
        dp = np.abs(pts[:, :, None] - pts[:, None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = dv / dp**m.beta
        q = np.where(dp > 0, q, 0.0)
        return np.nanmax(np.where(np.isfinite(q), q, np.inf), axis=(1, 2))

    quot = np.maximum(worst_quotient(dfy, ys),
                      worst_quotient(np.where(np.isfinite(dgz), dgz, np.inf), zs))

    # extreme-derivative witness: the most violent |dg| or 1/|df| seen
    extremes = np.maximum(np.max(np.abs(np.where(np.isfinite(dgz), dgz, 0.0)), axis=1),
                          1.0 / np.maximum(np.min(np.abs(dfy), axis=1), 1e-300))
    return a1_margin, a2_margin, quot, extremes


def verify_regularity_reference(m, sample_count, seed, inner=9):
    """The sampled (A1)-(A3) check over all samples at once on the grids of
    ``regularity_grid_reference``."""
    x = _draw_regular_points_reference(m, sample_count, np.random.default_rng(seed))
    return _whole_array_report(m, x, *regularity_grid_reference(m, x, inner))


def verify_regularity_whole_array(m, sample_count, seed):
    """The sampled (A1)-(A3) check with every sample's ball-end margins
    (``map_model._sample_margins``) held at once and reduced by one argmin
    (argmax for the extreme witness) over all of them: the reduction a
    streamed check must reproduce."""
    x = _draw_regular_points_reference(m, sample_count, np.random.default_rng(seed))
    return _whole_array_report(m, x, *mm._sample_margins(m, x, mm._radii(m, x)))


def _whole_array_report(m, x, a1_margin, a2_margin, quot, extremes):
    n = x.size
    a1_ok = a1_margin >= -1e-15
    a2_ok = a2_margin >= 0.0
    a3_margin = math.log(m.kappa) - np.log(np.maximum(quot, 1e-300))
    a3_ok = quot <= m.kappa

    def clause(name, ok, margin):
        w = int(np.argmin(margin))
        return ClauseResult(
            name=name, passed=bool(ok.all()), checked=n, violations=int((~ok).sum()),
            worst_margin=float(margin[w]), worst_x=float(x[w]),
        )

    clauses = {"A1": clause("A1", a1_ok, a1_margin), "A2": clause("A2", a2_ok, a2_margin),
               "A3": clause("A3", a3_ok, a3_margin)}
    wi = int(np.argmax(extremes))
    return RegularityReport(m.name, n, clauses, float(x[wi]), float(extremes[wi]))


# -- graphs and windows -----------------------------------------------------------

def loop_count(adj, vertex, n):
    """Closed paths of length n through a vertex, by propagating path counts
    along every edge n times (exact integers)."""
    if n < 1:
        raise ValueError("need n >= 1")
    vec = {vertex: 1}
    for _ in range(n):
        new = {}
        for u, c in vec.items():
            for w in adj.get(u, ()):
                new[w] = new.get(w, 0) + c
        vec = new
    return vec.get(vertex, 0)


def closed_paths(adj, n):
    """trace(A^n): the loop counts of length n summed over the vertices."""
    return sum(loop_count(adj, v, n) for v in adj)


def brute_force_loops(adj, vertex, n):
    """Enumerate all length-n paths from the vertex back to itself."""
    total = 0
    stack = [(vertex, 0)]
    while stack:
        u, d = stack.pop()
        if d == n:
            total += u == vertex
            continue
        for w in adj.get(u, ()):
            stack.append((w, d + 1))
    return total


def make_periodic_window_reference(m, x0_approx, fwd_word, back_depth, fwd_len,
                                   burn=256, max_loops=64):
    """The periodic window found after a fixed burn-in of ``burn`` backward
    steps, testing for closure only after it."""
    word = [int(b) for b in fwd_word]
    P = len(word)
    y = float(x0_approx)
    hist = []
    for k in range(1, burn + max_loops * P + 1):
        y = preimage(m, y, word[(-k) % P])
        if m.singular_distance(y) <= m.exclusion:
            raise SingularPoint(f"periodic word passes within exclusion radius at step {k}")
        hist.append(y)
        if k <= burn:
            continue
        for mult in range(1, 9):
            E = mult * P
            if k < 2 * E or hist[-1] != hist[-1 - E]:
                continue
            cyc = [0.0] * E
            for i in range(E):
                cyc[(-(k - i)) % E] = hist[-1 - i]
            return _window_from_cycle_reference(m, cyc, word * mult, back_depth, fwd_len)
    raise RuntimeError(f"backward iteration did not close into a cycle (word={word!r})")


def _window_from_cycle_reference(m, cyc, word, back_depth, fwd_len):
    """The window over x_{-N..F} tiling the float cycle ``cyc`` (c_j in
    branch ``word[j]``), checked and differentiated point by point in the
    scalar lane."""
    E = len(word)
    idx = range(-back_depth, fwd_len + 1)
    pts = [cyc[i % E] for i in idx]
    bids = [word[i % E] for i in idx][:-1]
    for x, b in list(zip(pts, bids))[: 2 * E]:
        if m.branch_at(x) != b:
            raise ValueError(f"cycle point {x!r} is not in branch {b}")
    err = 0.0
    for i, b in enumerate(bids):
        br = m.branch_by_id(b)
        d = br.dfwd(pts[i])
        if d == 0.0 or not math.isfinite(d):
            raise SingularPoint("cycle passes through a critical point")
        err = max(err, abs(br.fwd(pts[i]) - pts[i + 1]))
    if err > ne.CONSISTENCY_TOL:
        raise ValueError(f"cycle violates the window tolerance: {err:g}")
    ld_phase = np.log(np.abs(np.array([m.branch_by_id(b).dfwd(c) for b, c in zip(word, cyc)])))
    ld = np.array([ld_phase[i % E] for i in idx][:-1])
    return ne._assemble(m, np.array(pts), np.array(bids, dtype=np.int64), ld,
                        off=back_depth, u_depth=back_depth, period=E)


def parse_record(m, line):
    """The window an ``OrbitWindow.record()`` line describes, rebuilt."""
    fields = dict(part.split("=", 1) for part in line.split())
    x0 = float(fields["x0"])
    back = [int(t) for t in fields["back"].split(",") if t != ""]
    fwd = int(fields["fwd"])
    u_depth = int(fields.get("u_depth", "0"))
    period = int(fields.get("periodic", "0"))
    if period:
        # back[k-1] = branch of x_{-k} = fwd_word[(-k) % P]
        fwd_word = [0] * period
        for k in range(1, period + 1):
            fwd_word[(-k) % period] = back[k - 1]
        w = ne.make_periodic_window(m, x0, fwd_word, len(back), fwd)
        return replace(w, u_depth=u_depth) if u_depth else w
    return make_window(m, x0, back, fwd, u_depth=u_depth)


def read_windows(path, m):
    """The windows of a ``formats.write_windows`` file."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline()
        if not head.startswith("# symdyn-windows"):
            raise ValueError(f"{path}: not a window library")
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(parse_record(m, line))
    return out


def cocycle(w, n):
    """df^(n) of the natural extension: (sign, log magnitude) from a window's
    prefix sums.  n >= 0: product of df along x_0..x_{n-1}; n < 0: product
    of the reciprocals 1/df along x_{-1}..x_n."""
    if not -w.back_len <= n <= w.fwd_len:
        raise IndexError(n)
    a, b = (w.off, w.off + n) if n >= 0 else (w.off + n, w.off)
    logmag = float(w.cumlog[b] - w.cumlog[a])
    d = K.dfwd_vec(w.m.family, w.branch_ids[a:b], w.points[a:b])
    sign = -1 if np.count_nonzero(d < 0.0) % 2 else 1
    return sign, -logmag if n < 0 else logmag


def truncation_tail(depth, diam=0.5):
    """Upper bound for the part of the sup defining d-hat beyond ``depth``."""
    return 2.0 ** (-depth) * diam
