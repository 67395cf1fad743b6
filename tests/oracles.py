"""Reference implementations the tests compare the pipeline against.

Most are written from the definitions, not from the code they check.  The
``*_reference`` functions are plainer algorithms (every formula on every
element, every step, every pair) that the faster code must reproduce bit
for bit.  The rest are objects of the construction that only the tests use
(edge predicates, the Smale bracket, the derivative cocycle, window records
read back), kept here so that ``src/`` holds what the pipeline runs.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from symdyn import _kernels as K
from symdyn import coarse_grain as cg
from symdyn import natural_extension as ne
from symdyn import pesin
from symdyn import shadowing as sh
from symdyn.map_model import ClauseResult, RegularityReport, SingularPoint
from symdyn.markov_refine import windows_agree
from symdyn.shadowing import StepMap


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
                if cg._edge_test_vertices(al.cfg, v, w):
                    out_edges[v.vid].append(w.vid)
                    in_edges[w.vid].append(v.vid)
    return cg.GpoGraph(alphabet=al, out_edges=[sorted(o) for o in out_edges],
                       in_edges=[sorted(i) for i in in_edges])


def overlap_test(c1, c2):
    """The overlap relation between two charts (strict metric inequality)."""
    eps = c1.params.epsilon
    return cg._overlap_raw(c1.theta0, c1.u, c1.idx_p, c2.theta0, c2.u, c2.idx_p, eps)


def _weak_clauses(cfg, theta_prev_w, u_prev_w, ip, theta0_v, u_v, iq):
    """(WE1) the f^{-1}-shifted chart of w overlaps v, both at size q, and
    (WE2) p <= e^eps q."""
    return (cg._overlap_raw(theta_prev_w, u_prev_w, iq, theta0_v, u_v, iq, cfg.epsilon)
            and ip >= iq - 3)


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
    return cg._edge_clauses(cfg, cfg.delta_index,
                            theta_prev_w, u_prev_w, w.params.idxQ, w.theta0, w.u, w.idx_p,
                            v.theta0, v.u, theta1_v, u_next_v, v.idx_p)


def weak_edge_vertices(cfg, v, w):
    """(WE1)+(WE2) between two alphabet vertices, from their net data."""
    return _weak_clauses(cfg, w.gamma.theta[0], w.gamma.u[0], w.idx_p,
                         v.gamma.theta[1], v.gamma.u[1], v.idx_p)


def weak_successors(g, vid):
    """(WE1)+(WE2) successors of a vertex of a GpoGraph, over every vertex."""
    al = g.alphabet
    v = al.vertices[vid]
    return [w.vid for w in al.vertices
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
            r = m.radius(z)
        except SingularPoint:
            continue
        if abs(x - z) < 2.0 * r:
            return (level << 32) | i
    raise SingularPoint(f"no cover element found for x={x!r}")


def rho_reference(m, w, k):
    """min d(x_i, S) over the coordinates k - 1, k, k + 1 of a window."""
    return min(m.singular_distance(w.x(k + i)) for i in (-1, 0, 1))


def window_tables_reference(m, w, cfg, lo=None, hi=None):
    """Chart data index by index: {name: {k: value}} for u, rho, logQtilde,
    idxQ and idx_q (the periodic greedy from one period of the range)."""
    full_lo = -w.back_len + 1
    full_hi = w.fwd_len - 1
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
    return math.exp(pesin.PesinConfig(chi=1.0, epsilon=epsilon).log_delta)


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
    back = ne.backward_orbit(m, wx.x0, word)  # SingularPoint if the word breaks
    pts = np.concatenate([back[::-1], wx.points[wx.off:]])
    bids = np.concatenate([word[::-1], wx.branch_ids[wx.off:]])
    return ne.make_pseudo_window(m, pts, bids, off=word.shape[0])


def bracket(m, res_x, res_y):
    """Smale bracket: stable data of res_x with unstable data of res_y.

    Both results must share the zeroth vertex; bracket(x, x) reproduces
    x's window exactly, and re-bracketing with the same unstable data
    collapses (the operation is definitional on the window halves).
    """
    if sh._chart_key(res_x.gpo.chart(0)) != sh._chart_key(res_y.gpo.chart(0)):
        raise ValueError("bracket needs a shared zeroth vertex")
    return bracket_windows(m, res_x.point, res_y.point)


def step_map_reference(m, v_to, v_from, cfg):
    """The affine step of the edge v_to <- v_from, computed on every call."""
    w = v_from.center
    branch = w.branch(v_from.shift - 1)
    br = m.branch_by_id(branch)
    x0 = v_from.theta0
    dg0 = br.dinv(x0)
    slope_t = dg0 * v_to.u / v_from.u
    if br.fwd(v_to.theta0) == x0:
        offset = 0.0
    else:
        offset = br.inv(x0) - v_to.theta0
    scale = math.exp((cfg.epsilon / 3.0) * (v_to.idx_p - v_from.idx_p))
    a = slope_t * scale
    if offset == 0.0:
        b = 0.0
    else:
        log_b = math.log(abs(offset)) + math.log(v_to.u) - v_to.log_p
        b = math.copysign(math.exp(min(log_b, 700.0)), offset)
    return StepMap(a=a, b=b, slope_t=slope_t, size_ratio=scale)


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


def map_periodic_points_reference(m, n, tol=1e-9):
    """The validated roots scanned as a sorted list: [(root, word)], each
    root kept unless within ``tol`` of the last root kept, with the word of
    the kept root in the map's branch ids."""
    mk, table = m.finite_table()
    words = np.array(list(itertools.product(range(table.shape[0]), repeat=n)),
                     dtype=np.int64)
    roots, found = K.periodic_roots(mk, table, words)
    words, roots = words[found], roots[found]
    x = roots
    good = np.ones(roots.shape, dtype=bool)
    for k in range(n):
        good &= (table[words[:, k], 1] <= x) & (x < table[words[:, k], 2])
        x = K.fwd_vec(mk, table, words[:, k], x)
    good &= ~(np.abs(x - roots) > tol)
    ids = [b.id for b in m.branches]
    out = []
    for r, word in sorted(zip(roots[good].tolist(), words[good].tolist()),
                          key=lambda p: p[0]):
        if not out or r - out[-1][0] > tol:
            out.append((r, [ids[b] for b in word]))
    return out


# -- batch kernels: every branch formula on every element, then np.where ----------

def _coef_vec_reference(map_kind, table, bid):
    if map_kind == K.MAPKIND_GAUSS:
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
    rows = table[np.asarray(bid, dtype=np.int64)]
    return (
        rows[..., 0].astype(np.int64),
        rows[..., 3],
        rows[..., 4],
        rows[..., 5],
        rows[..., 6],
        rows[..., 7],
    )


def fwd_vec_reference(map_kind, table, bid, x):
    kind, c0, c1, c2, c3, _ = _coef_vec_reference(map_kind, table, bid)
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        aff = c0 + c1 * x
        quad = c0 + c1 * x + c2 * x * x
        moe = (c0 + c1 * x) / (c2 + c3 * x)
    return np.where(kind == K.KIND_AFFINE, aff, np.where(kind == K.KIND_QUADRATIC, quad, moe))


def dfwd_vec_reference(map_kind, table, bid, x):
    kind, c0, c1, c2, c3, _ = _coef_vec_reference(map_kind, table, bid)
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = c2 + c3 * x
        moe = (c1 * c2 - c0 * c3) / (den * den)
    return np.where(kind == K.KIND_AFFINE, c1, np.where(kind == K.KIND_QUADRATIC, c1 + 2.0 * c2 * x, moe))


def inv_vec_reference(map_kind, table, bid, y):
    kind, c0, c1, c2, c3, s = _coef_vec_reference(map_kind, table, bid)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        aff = (y - c0) / np.where(c1 == 0.0, np.nan, c1)
        disc = np.maximum(c1 * c1 - 4.0 * c2 * (c0 - y), 0.0)
        quad = (-c1 + s * np.sqrt(disc)) / (2.0 * np.where(c2 == 0.0, np.nan, c2))
        moe = (c0 - c2 * y) / (c3 * y - c1)
    return np.where(kind == K.KIND_AFFINE, aff, np.where(kind == K.KIND_QUADRATIC, quad, moe))


def dinv_vec_reference(map_kind, table, bid, y):
    kind, c0, c1, c2, c3, s = _coef_vec_reference(map_kind, table, bid)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        aff = 1.0 / np.where(c1 == 0.0, np.nan, c1)
        disc = c1 * c1 - 4.0 * c2 * (c0 - y)
        quad = np.where(disc > 0.0, s / np.sqrt(np.abs(disc)), np.inf)
        den = c3 * y - c1
        moe = (c1 * c2 - c0 * c3) / (den * den)
    return np.where(kind == K.KIND_AFFINE, aff, np.where(kind == K.KIND_QUADRATIC, quad, moe))


# -- gauss branches: the closed forms of 1/(4x) - n/2 on (1/(2n+2), 1/(2n)] --------

def gauss_fwd_reference(n, x):
    return (1.0 - 2.0 * n * x) / (4.0 * x)


def gauss_dfwd_reference(n, x):
    return -1.0 / (4.0 * x * x)


def gauss_inv_reference(n, y):
    return 1.0 / (4.0 * y + 2.0 * n)


def gauss_dinv_reference(n, y):
    d = 4.0 * y + 2.0 * n
    return -4.0 / (d * d)


# -- regularity: whole-array clauses, all 9 x 9 inner pairs ---------------------

def sing_dist_vec_reference(map_kind, table, sing, x):
    """d(x, S) elementwise: the closed form for gauss, else the minimum of a
    broadcast ``(..., len(sing))`` array of distances along its last axis."""
    x = np.asarray(x, dtype=np.float64)
    if map_kind == K.MAPKIND_GAUSS:
        best = np.abs(x)
        safe = np.where(x > 1e-15, x, 1e-15)
        n = np.minimum(np.floor(1.0 / (2.0 * safe)), 1e18).astype(np.int64)
        n = np.maximum(n, 1)
        for off in (-1, 0, 1):
            m = n + off
            valid = m >= 1
            d = np.abs(x - 1.0 / (2.0 * np.where(valid, m, 1)))
            best = np.where(valid & (d < best), d, best)
        return best
    if sing.shape[0] == 0:
        return np.full(x.shape, np.inf)
    return np.min(np.abs(x[..., None] - sing), axis=-1)


def worst_quotient_triu_reference(vals, pts, beta):
    """max over the pairs i < j of |v_i - v_j| / |p_i - p_j|^beta per row of
    ``(block, inner)`` arrays, gathered with ``np.triu_indices``; a
    non-finite quotient counts as inf, a pair of equal points as 0."""
    i, j = np.triu_indices(vals.shape[1], 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dv = np.abs(vals[:, i] - vals[:, j])
        dp = np.abs(pts[:, i] - pts[:, j])
        q = dv / dp**beta
    q = np.where(dp > 0, q, 0.0)
    return np.where(np.isfinite(q), q, np.inf).max(axis=1, initial=0.0)


def _draw_regular_points_reference(m, count, rng, max_tries=200):
    lo, hi = m.domain
    out = np.empty(0)
    tries = 0
    while out.size < count and tries < max_tries:
        tries += 1
        x = rng.uniform(lo, hi, size=max(64, 2 * (count - out.size)))
        dx = sing_dist_vec_reference(m.map_kind, m.table, m.sing, x)
        ok = dx > m.exclusion
        b = K.branch_index_vec(m.map_kind, m.table, x)
        ok &= b >= 0
        fx = fwd_vec_reference(m.map_kind, m.table, np.maximum(b, 0), x)
        dfx = sing_dist_vec_reference(m.map_kind, m.table, m.sing, fx)
        ok &= dfx > m.exclusion
        r = 0.5 * np.minimum(np.minimum(dx**m.a, dfx**m.a), 1.0)
        ok &= r >= m.exclusion
        out = np.concatenate([out, x[ok]])
    return out[:count]


def verify_regularity_reference(m, sample_count, seed, inner=9):
    """The sampled (A1)-(A3) check over all samples at once, with the
    three-formula kernels and every ordered pair of inner points."""
    empty = lambda name: ClauseResult(name, True, 0, 0, math.inf, math.nan, math.nan)
    if sample_count <= 0:
        return RegularityReport(m.name, 0, {"A1": empty("A1"), "A2": empty("A2"), "A3": empty("A3")})

    rng = np.random.default_rng(seed)
    x = _draw_regular_points_reference(m, sample_count, rng)
    n = x.size
    mk, tab, sing = m.map_kind, m.table, m.sing

    bid = K.branch_index_vec(mk, tab, x)
    fx = fwd_vec_reference(mk, tab, bid, x)
    dx = sing_dist_vec_reference(mk, tab, sing, x)
    dfx = sing_dist_vec_reference(mk, tab, sing, fx)
    r = 0.5 * np.minimum(np.minimum(dx**m.a, dfx**m.a), 1.0)

    lo, hi = m.domain
    d_lo, d_hi = np.maximum(x - 2 * r, lo), np.minimum(x + 2 * r, hi)
    e_lo, e_hi = np.maximum(fx - 2 * r, lo), np.minimum(fx + 2 * r, hi)

    # branch domain endpoints per sample
    if mk == K.MAPKIND_GAUSS:
        b_lo = 1.0 / (2.0 * (bid + 1))
        b_hi = 1.0 / (2.0 * bid)
        img_lo, img_hi = np.zeros(n), np.full(n, 0.5)
    else:
        b_lo = tab[bid, 1]
        b_hi = tab[bid, 2]
        f_at_lo = fwd_vec_reference(mk, tab, bid, b_lo)
        f_at_hi = fwd_vec_reference(mk, tab, bid, b_hi)
        img_lo = np.minimum(f_at_lo, f_at_hi)
        img_hi = np.maximum(f_at_lo, f_at_hi)

    # (A1): D_x inside the covering branch domain, E_x inside its image.
    tol = 1e-15
    a1_margin = np.minimum(
        np.minimum(d_lo - b_lo, b_hi - d_hi),
        np.minimum(e_lo - img_lo, img_hi - e_hi),
    )
    a1_ok = a1_margin >= -tol

    # inner sample grids (deterministic, endpoints inset by a relative hair)
    t = (np.arange(inner) + 0.5) / inner
    ys = d_lo[:, None] + (d_hi - d_lo)[:, None] * t[None, :]
    zs = e_lo[:, None] + (e_hi - e_lo)[:, None] * t[None, :]
    bcol = np.broadcast_to(bid[:, None], ys.shape)

    dfy = dfwd_vec_reference(mk, tab, bcol, ys)
    dgz = dinv_vec_reference(mk, tab, bcol, zs)

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
    a2_ok = a2_margin >= 0.0

    # (A3): Hölder quotients over all inner pairs, forward and inverse.
    def worst_quotient(vals, pts):
        dv = np.abs(vals[:, :, None] - vals[:, None, :])
        dp = np.abs(pts[:, :, None] - pts[:, None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = dv / dp**m.beta
        q = np.where(dp > 0, q, 0.0)
        return np.nanmax(np.where(np.isfinite(q), q, np.inf), axis=(1, 2))

    q_fwd = worst_quotient(dfy, ys)
    q_inv = worst_quotient(np.where(np.isfinite(dgz), dgz, np.inf), zs)
    quot = np.maximum(q_fwd, q_inv)
    a3_margin = math.log(m.kappa) - np.log(np.maximum(quot, 1e-300))
    a3_ok = quot <= m.kappa

    def clause(name, ok, margin, inner_pts):
        w = int(np.argmin(margin))
        return ClauseResult(
            name=name, passed=bool(ok.all()), checked=n, violations=int((~ok).sum()),
            worst_margin=float(margin[w]), worst_x=float(x[w]), worst_inner=float(inner_pts[w]),
        )

    a3_inner = np.where(q_inv >= q_fwd, zs[np.arange(n), 0], ys[np.arange(n), 0])
    rep = RegularityReport(
        map_name=m.name,
        sample_count=n,
        clauses={
            "A1": clause("A1", a1_ok, a1_margin, x),
            "A2": clause("A2", a2_ok, a2_margin, x),
            "A3": clause("A3", a3_ok, a3_margin, a3_inner),
        },
    )
    # extreme-derivative witness: the most violent |dg| or 1/|df| seen
    extremes = np.maximum(np.max(np.abs(np.where(np.isfinite(dgz), dgz, 0.0)), axis=1),
                          1.0 / np.maximum(np.min(np.abs(dfy), axis=1), 1e-300))
    wi = int(np.argmax(extremes))
    rep.extreme_x = float(x[wi])
    rep.extreme_value = float(extremes[wi])
    return rep


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


def spectral_radius_reference(adj, iters=200):
    """Power iteration with one scalar addition per edge and step."""
    keys = sorted(adj)
    pos = {v: i for i, v in enumerate(keys)}
    nv = len(keys)
    if nv == 0:
        return 0.0
    vec = np.ones(nv)
    norms = []
    for _ in range(iters):
        new = np.zeros(nv)
        for u in keys:
            cu = vec[pos[u]]
            if cu:
                for w in adj.get(u, ()):
                    if w in pos:
                        new[pos[w]] += cu
        nrm = float(np.linalg.norm(new))
        if nrm == 0.0:
            return 0.0
        norms.append(nrm)
        vec = new / nrm
    k = len(norms) // 2
    return float(np.exp(np.mean(np.log(norms[k:]))))


def windows_agree_reference(w1, w2, depth=None, fwd=None):
    """Coordinate-by-coordinate comparison of two windows."""
    d = min(w1.back_len, w2.back_len) if depth is None else depth
    f = min(w1.fwd_len, w2.fwd_len) if fwd is None else fwd
    for n in range(-d, f + 1):
        if w1.x(n) != w2.x(n):
            return False
    return True


def make_periodic_window_reference(m, x0_approx, fwd_word, back_depth, fwd_len,
                                   u_depth=None, burn=256, max_loops=64):
    """The periodic window found after a fixed burn-in of ``burn`` backward
    steps, testing for closure only after it."""
    word = [int(b) for b in fwd_word]
    P = len(word)
    y = float(x0_approx)
    hist = []
    for k in range(1, burn + max_loops * P + 1):
        y = m.preimage(y, word[(-k) % P])
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
            return ne._periodic_from_cycle(m, cyc, word * mult, back_depth, fwd_len,
                                           back_depth if u_depth is None else u_depth)
    raise RuntimeError(f"backward iteration did not close into a cycle (word={word!r})")


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
        return ne.make_periodic_window(m, x0, fwd_word, len(back), fwd,
                                       u_depth=u_depth or None)
    return ne.make_window(m, x0, back, fwd, u_depth=u_depth)


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
    d = K.dfwd_vec(w.m.map_kind, w.m.table, w.branch_ids[a:b], w.points[a:b])
    sign = -1 if np.count_nonzero(d < 0.0) % 2 else 1
    return sign, -logmag if n < 0 else logmag


def truncation_tail(depth, diam=0.5):
    """Upper bound for the part of the sup defining d-hat beyond ``depth``."""
    return 2.0 ** (-depth) * diam
