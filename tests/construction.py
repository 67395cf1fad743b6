"""Objects of the construction that the acceptance criteria check directly
and the pipeline never builds, in the order: map, window, u, chart and
chart-map, random-window, shadowing and cylinder-projection objects.  A
method of a ``symdyn`` class is a function here that takes its object
first.  A chart here is the scalar reading of a row of an alphabet's
vertex table (``pesin.VertexTable``), with its center window."""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from symdyn import _kernels as K
from symdyn import coarse_grain as cg
from symdyn import markov_refine as mr
from symdyn import natural_extension as ne
from symdyn import shadowing as sh
from symdyn.config import RunConfig
from symdyn.library import LibraryReport
from symdyn.map_model import KIND_AFFINE, KIND_QUADRATIC, SingularPoint, _sample_blocks
from symdyn.pesin import VertexTable, expansion_certificate, u_at


def f(m, x):
    return m.branch_by_id(m.branch_at(x)).fwd(x)


def inv(br, y):
    """g(y) of a ``Branch`` in the scalar lane: the batch kernels' formula on
    its row, in Python floats (as ``Branch.fwd`` and ``Branch.dfwd``)."""
    return float(K.inv_formula(br.kind, br.row.__getitem__, y))


def dinv(br, y):
    """g'(y) of a ``Branch`` in the scalar lane."""
    return float(K.dinv_formula(br.kind, br.row.__getitem__, y))


def preimage(m, y, bid):
    """g_bid(y): the preimage of y through the given inverse branch."""
    return inv(m.branch_by_id(bid), y)


def radius(m, x):
    """Canonical r(x); raises SingularPoint below the exclusion cutoff."""
    dx = m.singular_distance(x)
    if dx <= m.exclusion:
        raise SingularPoint(f"x={x!r} singular")
    b = m._branch_index(x)
    if b < 0:
        raise SingularPoint(f"x={x!r} lies in no branch domain")
    fx = m.branch_by_id(b).fwd(x)
    dfx = m.singular_distance(fx)
    if dfx <= m.exclusion:
        raise SingularPoint(f"f(x)={fx!r} singular")
    r = 0.5 * min(dx**m.a, dfx**m.a, 1.0)
    if r < m.exclusion:
        raise SingularPoint(f"radius at x={x!r} falls under the exclusion cutoff")
    return r


def draw_regular_points(m, count, rng):
    """Sample points uniformly on the domain, rejecting singular ones
    (including points with no admissible radius)."""
    return np.concatenate([x for x, _ in _sample_blocks(m, count, rng)])


def inv_diff(br, y, s):
    """g(y+s) - g(y), stable for tiny s."""
    c0, c1, c2, c3 = br.coef
    if br.kind == KIND_AFFINE:
        return s / c1
    if br.kind == KIND_QUADRATIC:
        da = c1 * c1 - 4.0 * c2 * (c0 - (y + s))
        db = c1 * c1 - 4.0 * c2 * (c0 - y)
        return 2.0 * br.inv_sign * s / (math.sqrt(max(da, 0.0)) + math.sqrt(max(db, 0.0)))
    return (c1 * c2 - c0 * c3) * s / ((c3 * (y + s) - c1) * (c3 * y - c1))


def dinv_diff(br, y, s):
    """g'(y+s) - g'(y), stable for tiny s."""
    c0, c1, c2, c3 = br.coef
    if br.kind == KIND_AFFINE:
        return 0.0
    if br.kind == KIND_QUADRATIC:
        a = c1 * c1 - 4.0 * c2 * (c0 - (y + s))
        b = c1 * c1 - 4.0 * c2 * (c0 - y)
        sa, sb = math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0))
        return br.inv_sign * (-4.0 * c2 * s) / (sa * sb * (sa + sb))
    kk = c1 * c2 - c0 * c3
    a = c3 * (y + s) - c1
    b = c3 * y - c1
    return kk * (-c3 * s) * (a + b) / (a * a * b * b)


def ddinv(br, y):
    """g''(y), for log-mode curvature bounds."""
    return float(K.d2inv_formula(br.kind, br.row.__getitem__, y))


def deriv(w, n):
    """df at x_n: the cached |df| with the sign of its branch's df there."""
    i = w.off + n
    sign = w.m.branch_by_id(w.branch_ids[i]).dfwd(w.points[i])
    return math.copysign(math.exp(w.logderivs[i]), sign)


def hat_distance(w1, w2, depth):
    """Truncated natural-extension distance max_{-depth<=n<=0} 2^n |x_n - y_n|.

    A lower bound for the full metric; the terms beyond ``depth`` add at
    most 2^-depth times the domain diameter.  Both windows need backward
    depth >= depth.
    """
    if w1.back_len < depth or w2.back_len < depth:
        raise ne.WindowExhausted(f"need backward depth {depth}")
    a1 = w1.points[w1.off - depth: w1.off + 1]
    a2 = w2.points[w2.off - depth: w2.off + 1]
    n = np.arange(-depth, 1, dtype=np.float64)
    return float(np.max(2.0**n * np.abs(a1 - a2)))


def backward_orbit(m, x, word):
    """x_{-1}, x_{-2}, ... of the inverse-branch iteration from x along
    ``word``, where word[k] is the branch that must contain x_{-k-1}.
    Raises SingularPoint if a preimage is singular or leaves its branch."""
    y = float(x)
    pts = []
    for k, b in enumerate(word):
        y = preimage(m, y, b)
        if m.branch_at(y) != b:
            raise SingularPoint(f"backward word invalid after {k} steps: x_{-k - 1}={y!r} "
                                f"is not in branch {b}")
        pts.append(y)
    return np.array(pts)


def make_window(m, x0, back_word, fwd_len, u_depth=0):
    """Window from a zeroth coordinate, backward branch word and horizon.

    The backward cache is the exact inverse-branch iteration from x0 (so
    recomputing it reproduces the cache bit for bit); the forward cache is
    the exact f iteration.
    """
    word = np.asarray(back_word, dtype=np.int64)
    back_pts = backward_orbit(m, x0, word)[::-1]  # x_{-N}, ..., x_{-1}
    fpts, fbid, fld = ne.forward_orbit(m, x0, fwd_len)
    pts = np.concatenate([back_pts, fpts])
    bids = np.concatenate([word[::-1], fbid])
    bld = np.log(np.abs(K.dfwd_vec(m.family, word[::-1], back_pts)))
    ld = np.concatenate([bld, fld])
    return ne._assemble(m, pts, bids, ld, off=word.shape[0], u_depth=u_depth)


LOG10 = math.log(10.0)
LINEAR_MODE_FLOOR = -600.0  # below this log-scale, fall back to log-mode bounds


class TailDiverges(RuntimeError):
    """compute_u called on a window whose expansion margin is non-positive."""


class DomainViolation(RuntimeError):
    """A chart-map precondition (domain inclusion) failed."""


def compute_u(w, chi, n_min=6):
    """(u, tail_bound): truncated series for u plus the extrapolated tail.

    tail_bound is e^{2N(chi-m)} / (1 - e^{2(chi-m)}) for the worst backward
    block average m; it bounds the dropped part of u^2 assuming the observed
    margin persists beyond the window.  Raises TailDiverges when the
    certificate margin is non-positive.
    """
    cert = expansion_certificate(w, RunConfig(chi=chi, n_min=n_min))
    if cert.margin <= 0 or not math.isfinite(cert.margin):
        raise TailDiverges(f"expansion margin {cert.margin:g} is not positive")
    u = u_at(w, chi, 0)
    d = w.u_depth or w.back_len
    m = cert.back_min_avg if math.isfinite(cert.back_min_avg) else cert.fwd_min_avg
    tail = math.exp(2.0 * d * (chi - m)) / -math.expm1(2.0 * (chi - m))
    return u, tail


def u_recursion_step(u, dfx, chi):
    """u(f̂(x̂)) from u(x̂) and df at the zeroth coordinate."""
    if dfx == 0.0:
        raise ZeroDivisionError("df = 0")
    return math.sqrt(1.0 + math.exp(2.0 * chi) / (dfx * dfx) * u * u)


def linear_reduction_slope(u, u_next, dfx):
    """(dF)_0 for F = Psi_{f̂x̂}^{-1} o f o Psi_x̂: df * u(f̂x̂)/u(x̂)."""
    return dfx * u_next / u


@dataclass(frozen=True)
class PesinParams:
    epsilon: float
    u: float
    u_prev: float
    idxQ: int

    @property
    def logQ(self):
        return -(self.epsilon / 3.0) * self.idxQ


def params_at(tabs, k):
    """The PesinParams of index k of a window's ``pesin.WindowTables``."""
    return PesinParams(epsilon=tabs.cfg.epsilon, u=tabs.u[k], u_prev=tabs.u[k - 1],
                       idxQ=tabs.idxQ[k])


@dataclass(frozen=True)
class Chart:
    """An affine chart Psi(t) = t/u + x0 restricted to [-p, p], p on I_eps."""

    center: ne.OrbitWindow
    shift: int           # chart lives at the shift-th coordinate of center
    params: PesinParams
    idx_p: int

    def __post_init__(self):
        if self.idx_p < self.params.idxQ:
            raise ValueError("chart size exceeds Q")

    @property
    def u(self):
        return self.params.u

    @property
    def theta0(self):
        return self.center.x(self.shift)

    @property
    def log_p(self):
        return -(self.params.epsilon / 3.0) * self.idx_p


def psi(chart, t):
    """Psi(t); absorbs to the center for |t| under the float resolution."""
    return chart.theta0 + t / chart.params.u


@dataclass(frozen=True)
class Vertex:
    """Row ``vid`` of an alphabet's vertex table: its center id, its chart
    and its center's net data."""

    vid: int
    cid: int
    chart: Chart
    gamma: object

    @property
    def idx_p(self):
        return self.chart.idx_p


def vertex_chart(al, vid):
    """The chart of row ``vid`` of the alphabet's vertex table: its center's
    window, shift and net data, at the row's size index."""
    c = al.centers[int(al.vertices.cid[vid])]
    params = PesinParams(epsilon=al.cfg.epsilon, u=c.gamma.u[1], u_prev=c.gamma.u[0],
                         idxQ=c.gamma.idxQ)
    return Chart(center=c.window, shift=c.shift, params=params,
                 idx_p=int(al.vertices.idx_p[vid]))


def alphabet_vertices(al):
    """A Vertex per row of the alphabet's vertex table, in row order."""
    return [Vertex(vid=v, cid=cid, chart=vertex_chart(al, v), gamma=al.centers[cid].gamma)
            for v, cid in enumerate(al.vertices.cid.tolist())]


def record_alphabets(monkeypatch):
    """Keep every alphabet ``coarse_grain.build_alphabet`` builds while
    ``monkeypatch`` holds: returns the dict, filled as they are built, from
    the id of an alphabet's vertex table to the alphabet."""
    built = {}
    build = cg.build_alphabet

    def keeping(*args, **kwargs):
        al = build(*args, **kwargs)
        built[id(al.vertices)] = al
        return al

    monkeypatch.setattr(cg, "build_alphabet", keeping)
    return built


@dataclass(frozen=True)
class ChartTable(VertexTable):
    """The VertexTable of a list of charts, which it keeps: row v is
    ``charts[v]``, its own center id v, each column the chart's own value."""

    charts: tuple = ()


def chart_table(charts):
    """The ChartTable of ``charts``: theta0 and the branches read from each
    center window's arrays at its shift."""
    floats, ints = [], []
    for v, c in enumerate(charts):
        w, i = c.center, c.center.off + c.shift
        floats.append((w.points[i], c.u, c.log_p, c.params.logQ))
        ints.append((c.idx_p, v, w.branch_ids[i - 1], w.branch_ids[i]))
    floats = np.array(floats, dtype=np.float64).reshape(-1, 4).T.copy()
    ints = np.array(ints, dtype=np.int64).reshape(-1, 4).T.copy()
    p = np.array([math.exp(lp) if lp > -745 else 0.0 for lp in floats[2].tolist()])
    return ChartTable(*floats, p, *ints, charts=tuple(charts))


@dataclass(frozen=True)
class GDecomposition:
    """Sampled linear + residual decomposition G(t) = A t + h(t).

    A is the intrinsic slope dg(x0) u(f̂^{-1}x̂)/u(x̂); h0 and dh0 are the
    residual offset G(0) and slope mismatch dG(0) - A.  Sup norms are
    reported as logs (the underlying scale R = 10 Q_eps is often not
    representable); mode records whether sampling ran in linear space or
    through analytic curvature bounds.
    """

    A: float
    A_obs: float
    h0: float
    dh0: float
    log_h0: float
    log_dh0: float
    log_h_sup: float
    log_dh_sup: float
    dG_sup: float
    log_holder: float    # sampled Hol_{beta/2}(dG) quotient, log
    log_R: float
    mode: str


def _chebyshev(n):
    i = np.arange(n)
    return np.cos(math.pi * (2 * i + 1) / (2 * n))


def chart_G(m, c_from, c_to, branch_id, samples=None):
    """Evaluate the inverse branch between two charts on R[10 Q_eps(from)].

    Preconditions are the three domain inclusions guaranteeing that the
    branch inverse is defined on the chart range (DomainViolation if not).
    """
    n = samples or 1000
    w = c_from.center
    x0 = c_from.theta0
    xm1 = w.x(c_from.shift - 1)
    log_R = LOG10 + c_from.params.logQ

    # domain inclusions, in log space
    try:
        r0 = radius(m, x0)
        rm1 = radius(m, xm1)
    except Exception as e:
        raise DomainViolation(f"no admissible radius at a center: {e}") from e
    d0 = m.singular_distance(x0)
    dm1 = m.singular_distance(xm1)
    checks = [
        ("chart range inside D(x0)", log_R < math.log(2.0 * r0)),
        ("chart range inside E(x-1)", log_R < math.log(2.0 * rm1)),
        ("inverse image inside D(x-1)", log_R - m.a * math.log(dm1) < math.log(rm1)),
        ("chart range inside g(E(x0))", log_R < math.log(2.0 * r0) + m.a * math.log(d0)),
    ]
    for name, ok in checks:
        if not ok:
            raise DomainViolation(f"inclusion failed: {name}")

    br = m.branch_by_id(branch_id)
    u_from = c_from.u
    u_prev = c_from.params.u_prev
    u_to = c_to.u
    y0 = c_to.theta0

    dg0 = dinv(br, x0)
    A = dg0 * u_prev / u_from
    A_obs = dg0 * u_to / u_from
    # centers that are consecutive orbit points have offset exactly 0; the
    # float g carries a spurious ulp when the cache is forward-consistent
    offset0 = 0.0 if br.fwd(y0) == x0 else inv(br, x0) - y0
    h0 = u_to * offset0
    dh0 = A_obs - A
    log_h0 = math.log(abs(h0)) if h0 != 0.0 else -math.inf
    log_dh0 = math.log(abs(dh0)) if dh0 != 0.0 else -math.inf

    beta = m.beta
    tau = _chebyshev(n)

    if log_R - math.log(u_from) > LINEAR_MODE_FLOOR:
        R = math.exp(log_R)
        s = (R / u_from) * tau
        dgdiff = np.array([dinv_diff(br, x0, si) for si in s])
        invdiff = np.array([inv_diff(br, x0, si) for si in s])
        h = u_to * (offset0 + invdiff) - A * (u_from * s)
        dh = (u_to * (dg0 + dgdiff) - u_prev * dg0) / u_from
        dG = (u_to / u_from) * (dg0 + dgdiff)
        with np.errstate(divide="ignore"):
            log_h_sup = float(np.log(np.max(np.abs(h)))) if np.any(h != 0) else -math.inf
            log_dh_sup = float(np.log(np.max(np.abs(dh)))) if np.any(dh != 0) else -math.inf
        dG_sup = float(np.max(np.abs(dG)))
        # sampled Hölder-(beta/2) quotient of dG over node pairs at dyadic gaps
        best = -math.inf
        for gap in (1, 2, 4, 8, n // 4, n // 2, n - 1):
            if not 1 <= gap < n:
                continue
            i = np.arange(0, n - gap)
            num = np.abs(dG[i + gap] - dG[i])
            den = np.abs(u_from * (s[i + gap] - s[i])) ** (beta / 2.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.where(den > 0, num / den, 0.0)
            if q.size and np.max(q) > 0:
                best = max(best, math.log(float(np.max(q))))
        mode = "linear"
    else:
        # analytic curvature bounds: |dg(x0+s) - dg(x0)| <= |ddg| |s| nearby
        log_s_max = log_R - math.log(u_from)
        ddg = abs(ddinv(br, x0))
        log_ddg = math.log(ddg) if ddg > 0 else -math.inf
        log_du = math.log(u_to / u_from) if u_to != u_from else 0.0
        log_dh_sup = log_du + log_ddg + log_s_max
        log_curv = log_ddg + 2.0 * log_s_max - math.log(2.0)
        log_h_sup = max(log_h0, math.log(u_to) + log_curv,
                        log_dh0 + log_R if math.isfinite(log_dh0) else -math.inf)
        dG_sup = abs(A_obs) + math.exp(min(log_dh_sup, 0.0)) if math.isfinite(log_dh_sup) else abs(A_obs)
        best = (log_ddg + math.log(u_to / u_from) + (1.0 - beta / 2.0) *
                (math.log(2.0) + log_s_max)) if math.isfinite(log_ddg) else -math.inf
        mode = "log"

    return GDecomposition(A=A, A_obs=A_obs, h0=h0, dh0=dh0, log_h0=log_h0,
                          log_dh0=log_dh0, log_h_sup=log_h_sup,
                          log_dh_sup=log_dh_sup, dG_sup=dG_sup,
                          log_holder=best, log_R=log_R, mode=mode)


GAUSS_WORD_BRANCHES = 12  # random gauss words draw branch n <= 12 with weight 1/(n(n+1))


def _draw_back_word(m, rng, depth):
    if m.map_kind == K.MAPKIND_GAUSS:
        ns = np.arange(1, GAUSS_WORD_BRANCHES + 1, dtype=np.float64)
        wts = 1.0 / (ns * (ns + 1.0))
        wts /= wts.sum()
        return rng.choice(np.arange(1, GAUSS_WORD_BRANCHES + 1), size=depth, p=wts)
    nb = m.table.shape[0]
    return rng.integers(0, nb, size=depth)


def random_library(m, chi, count, back_depth=40, fwd_len=40, seed=0,
                   n_min=6, max_tries=None):
    """Certified random windows: uniform base points, random backward words."""
    rng = np.random.default_rng(seed)
    windows = []
    skipped_singular = 0
    skipped_uncert = 0
    tries = 0
    cap = max_tries or 50 * max(count, 1)
    while len(windows) < count and tries < cap:
        tries += 1
        x0 = draw_regular_points(m, 1, rng)
        if x0.size == 0:
            skipped_singular += 1
            continue
        word = np.asarray(_draw_back_word(m, rng, back_depth), dtype=np.int64)
        try:
            w = make_window(m, float(x0[0]), word, fwd_len)
        except (SingularPoint, ValueError):
            skipped_singular += 1
            continue
        if not m.window_chartable(w.points):
            skipped_singular += 1
            continue
        if not expansion_certificate(w, RunConfig(chi=chi, n_min=n_min)).ok:
            skipped_uncert += 1
            continue
        windows.append(w)
    return LibraryReport(windows=windows, orbits=len(windows),
                         skipped_singular=skipped_singular,
                         skipped_uncertified=skipped_uncert)


@dataclass(frozen=True)
class StepMap:
    """Rescaled affine model of G = Psi_to^{-1} o g o Psi_from between
    consecutive charts: tau_to = a * tau_from + b."""

    a: float
    b: float


def step_map(m, v_to, v_from, cfg):
    """The step map of the edge v_to <- v_from: ``shadowing.step_maps`` on
    one row."""
    a, b = sh.step_maps(m, chart_table([v_from, v_to]), np.array([1]), np.array([0]), cfg)
    return StepMap(a=float(a[0]), b=float(b[0]))


@dataclass(frozen=True)
class ChartGpo:
    """Chart chain indexed n in [n_lo, n_hi]: the scalar reading of a walk
    row of a ``shadowing.Shadows`` table."""

    charts: tuple
    n_lo: int

    @property
    def n_hi(self):
        return self.n_lo + len(self.charts) - 1

    def chart(self, n):
        return self.charts[n - self.n_lo]

    def indices(self):
        return range(self.n_lo, self.n_hi + 1)


def encode(m, w, al, cfg, **kwargs):
    """``sufficiency_encode`` as a ChartGpo of the alphabet's charts, with
    its vertex ids."""
    vids, n_lo = cg.sufficiency_encode(m, w, al, cfg, **kwargs)
    return ChartGpo(charts=tuple(vertex_chart(al, v) for v in vids), n_lo=n_lo), vids


def chart_gpo(al, rows, n_lo):
    """The ChartGpo of the vertex table rows ``rows`` over n >= n_lo: a
    ``shadowing.Shadows`` walk row read as the alphabet's charts."""
    return ChartGpo(charts=tuple(vertex_chart(al, v) for v in rows.tolist()), n_lo=n_lo)


def make_pseudo_window(m, pts, bids, off=None):
    """Windows from explicit cached coordinates, one per row of the (K, L)
    points and (K, L - 1) branch ids; each window is a row view of shared
    read-only arrays.

    Every row must be an f-pseudo-orbit within the window tolerance, else
    ValueError for the first row that is not; the backward bit-for-bit
    recomputation property is *not* enforced here.
    """
    pts = np.array(pts, dtype=np.float64, order="C")
    bids = np.array(bids, dtype=np.int64, order="C")
    err = np.max(np.abs(K.fwd_vec(m.family, bids, pts[:, :-1]) - pts[:, 1:]), axis=1)
    bad = np.flatnonzero(err > ne.CONSISTENCY_TOL)
    if bad.size:
        raise ValueError(f"points violate the window tolerance: {float(err[bad[0]]):g}")
    ld = np.log(np.abs(K.dfwd_vec(m.family, bids, pts[:, :-1])))
    cum = ne._freeze(pts, bids, ld)
    off = pts.shape[1] - 1 if off is None else off
    return [ne.OrbitWindow(m=m, points=x, branch_ids=b, logderivs=d, cumlog=c, off=off)
            for x, b, d, c in zip(pts, bids, ld, cum)]


@dataclass(frozen=True)
class ShadowRow:
    """One shadowed gpo as scalars: a row of a ``shadowing.Shadows`` table,
    with its gpo (a ChartGpo, or the row's walk) and its point as a window."""

    gpo: object
    tau0: float
    log_p0: float
    log_err: float
    worst: float
    point: ne.OrbitWindow


def shadow_row(m, shadows, k, gpo=None):
    """Row k of the Shadows table ``shadows`` as a ShadowRow, its gpo
    ``gpo`` (the row's walk if None).  Raises the row's EdgeBroken."""
    if k in shadows.broken:
        raise shadows.broken[k]
    (point,) = make_pseudo_window(m, shadows.points[k:k + 1], shadows.branches[k:k + 1],
                                  off=-shadows.n_lo)
    return ShadowRow(gpo=shadows.walks[k] if gpo is None else gpo,
                     tau0=float(shadows.tau0[k]), log_p0=float(shadows.log_p0[k]),
                     log_err=float(shadows.log_err[k]), worst=float(shadows.worst[k]),
                     point=point)


def shadow(m, g, cfg):
    """Shadow one ChartGpo: ``shadow_many`` on a batch of one, its row's
    view.  Raises EdgeBroken if a step image escapes its target chart."""
    walk = np.arange(len(g.charts))[None]
    return shadow_row(m, sh.shadow_many(m, chart_table(g.charts), walk, g.n_lo, cfg), 0, gpo=g)


def _recurrence_diagnostic(g):
    keys = [(c.theta0, c.u, c.idx_p) for c in g.charts]
    pos = [k for n, k in zip(g.indices(), keys) if n > 0]
    neg = [k for n, k in zip(g.indices(), keys) if n < 0]
    return {
        "repeats_forward": len(pos) != len(set(pos)),
        "repeats_backward": len(neg) != len(set(neg)),
    }


def inverse_check_charts(res1, res2, cfg):
    """``shadowing.inverse_check`` chart by chart, on shadow results whose
    gpos are ChartGpos: the loop over the scalar charts it replaced."""
    g1, g2 = res1.gpo, res2.gpo
    lo = max(g1.n_lo, g2.n_lo)
    hi = min(g1.n_hi, g2.n_hi)
    eps = cfg.epsilon

    # double-coding proxy
    for n in range(lo, hi + 1):
        d = abs(res1.point.x(n) - res2.point.x(n))
        if d == 0.0:
            continue
        log_thr = math.log(2.0) + np.logaddexp(g1.chart(n).log_p, g2.chart(n).log_p)
        if math.log(d) > log_thr:
            raise sh.NotDoubleCoding(
                f"coordinate {n} differs by {d:g} (log threshold {log_thr:g}); "
                f"recurrence: {_recurrence_diagnostic(g1)} / {_recurrence_diagnostic(g2)}")

    clauses = {}

    def run_clause(name, values):
        # values: list of (n, value, bound, ok)
        ok = all(v[3] for v in values)
        worst = max(values, key=lambda v: v[1] - v[2])
        clauses[name] = (ok, sh.ClauseWitness(worst[0], worst[1], worst[2]))

    c1, c2, c3, c4, c5a, c5b = [], [], [], [], [], []
    for n in range(lo, hi + 1):
        a, b = g1.chart(n), g2.chart(n)
        d = abs(a.theta0 - b.theta0)
        # (1) center distance <= 2 max(p, q): compare in log space
        bound_log = math.log(2.0) + max(a.log_p, b.log_p)
        ok1 = d == 0.0 or math.log(d) <= bound_log
        c1.append((n, 0.0 if d == 0.0 else math.log(d), bound_log, ok1))
        # (2) u ratio
        r = abs(math.log(a.u / b.u))
        c2.append((n, r, 2.0 * math.sqrt(eps), r <= 2.0 * math.sqrt(eps)))
        # (3) Q ratio
        rq = abs(a.params.logQ - b.params.logQ)
        c3.append((n, rq, eps ** (1.0 / 3.0), rq <= eps ** (1.0 / 3.0)))
        # (4) p ratio
        rp = abs(a.log_p - b.log_p)
        c4.append((n, rp, eps ** (1.0 / 3.0), rp <= eps ** (1.0 / 3.0)))
        # (5) affine change of coordinates Psi_b^{-1} o Psi_a = t + Delta + delta
        delta = b.u * (a.theta0 - b.theta0)
        bound5 = math.log(3.0) + b.log_p
        ok5 = delta == 0.0 or math.log(abs(delta)) < bound5
        c5a.append((n, -math.inf if delta == 0.0 else math.log(abs(delta)), bound5, ok5))
        slope = abs(b.u / a.u - 1.0)
        c5b.append((n, slope, 4.0 * math.sqrt(eps), slope < 4.0 * math.sqrt(eps)))

    for name, values in (("1 center distance", c1), ("2 u ratio", c2), ("3 Q ratio", c3),
                         ("4 p ratio", c4), ("5 offset", c5a), ("5 slope", c5b)):
        run_clause(name, values)
    return sh.InverseReport(
        passed=all(ok for ok, _ in clauses.values()), clauses=clauses,
        recurrence={"g1": _recurrence_diagnostic(g1), "g2": _recurrence_diagnostic(g2)},
        common_range=(lo, hi),
    )


@dataclass(frozen=True)
class UnstableInterval:
    """R[p_0] of the zeroth chart plus the backward reconstruction rule."""

    gpo: ChartGpo
    steps: dict

    def reconstruct(self, tau, depth=None):
        """Backward coordinates tau_n, n = 0, -1, ..., from tau_0 = tau."""
        g = self.gpo
        depth = -g.n_lo if depth is None else depth
        out = {0: float(tau)}
        for n in range(0, -depth, -1):
            s = self.steps[n - 1]
            out[n - 1] = s.a * out[n] + s.b
        return out


def unstable_interval(m, g, cfg, step):
    """Unstable-set descriptor of a gpo's backward half (indices <= 0), its
    steps from ``step(m, v_to, v_from, cfg)`` (``step_map``, or the tests'
    ``oracles.step_map_oracle``)."""
    steps = {}
    for n in range(g.n_lo, min(g.n_hi, 0)):
        steps[n] = step(m, g.chart(n), g.chart(n + 1), cfg)
    return UnstableInterval(gpo=g, steps=steps)


@dataclass
class FibreDescriptors:
    """Stable/unstable fibre descriptors of one sampled point, the scalar
    reading of a cover row's fibre columns in ``markov_refine.PointClasses``."""

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
        return cg.lt_log_threshold(d, self.log_100p, strict=False)


def fibres(table, cover, q):
    """Descriptors of the s/u fibres of row q of a ``markov_refine.Cover``,
    whose rectangle's vertex is a row of the VertexTable ``table``."""
    n = cover.back_len
    v = cover.vid[np.searchsorted(cover.start, q, side="right") - 1]
    theta0, u, log_p = (float(col[v]) for col in (table.theta0, table.u, table.log_p))
    return FibreDescriptors(x0=float(cover.points[q, n]),
                            back_word=tuple(cover.branches[q, n - 1::-1].tolist()),
                            theta0=theta0, u=u, log_100p=math.log(100.0) + log_p)


def rectangles(cover):
    """The rectangles of a ``markov_refine.Cover``, each (vid, points,
    branches) with its rows stacked."""
    bounds = cover.start.tolist()
    return [(v, cover.points[a:b], cover.branches[a:b])
            for v, a, b in zip(cover.vid.tolist(), bounds, bounds[1:])]


def cover_of(rects, back_len):
    """The ``markov_refine.Cover`` of the rectangles ``rects``, each (vid,
    points, branches) as ``rectangles`` gives them."""
    return mr.Cover(vid=np.array([v for v, _, _ in rects], dtype=np.int64),
                    start=np.cumsum([0] + [len(p) for _, p, _ in rects]),
                    points=np.concatenate([p for _, p, _ in rects]),
                    branches=np.concatenate([b for _, _, b in rects]), back_len=back_len)


def row_window(m, cover, q):
    """The window of row q of a ``markov_refine.Cover``."""
    from oracles import pseudo_window_reference  # oracles imports this module

    return pseudo_window_reference(m, cover.points[q], cover.branches[q], cover.back_len)


class EmptyCylinder(RuntimeError):
    """A sampled cylinder intersection died (possibly under-sampling)."""


def windows_agree_reference(w1, w2, depth=None, fwd=None):
    """Equality of two windows on their common range or on [-depth, fwd]."""
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


def _cell_contains(m, cover, cell, window):
    return any(windows_agree_reference(row_window(m, cover, q), window)
               for q in cell.members.tolist())


def toy_graph(adj):
    """The ``coarse_grain.GpoGraph``, without an alphabet, of an adjacency
    dict {v: [w, ...]}: a vertex for every key and successor, an edge per
    list entry, built by the pipeline's constructor from edge lists."""
    edges = [(v, w) for v, ws in adj.items() for w in ws]
    n = max([*adj, *(w for _, w in edges)], default=-1) + 1
    return cg.GpoGraph.from_edges(n, [v for v, _ in edges], [w for _, w in edges],
                                  alphabet=None)


def successors(g, v):
    """The successors of vertex v of a ``symdyn.analysis.Digraph``,
    ascending, read from its row of the edge arrays."""
    return g.succ[g.start[v]:g.start[v + 1]].tolist()


@st.composite
def digraphs(draw):
    """(n, edges): a hypothesis strategy for digraphs of up to 12 vertices
    with drawn edges, and now and then a dangling chain of up to 3 new
    vertices into or out of a drawn vertex."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, set()
    vertex = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(vertex, vertex), max_size=2 * n))
    for into in draw(st.lists(st.booleans(), max_size=2)):
        length, end = draw(st.integers(1, 3)), draw(vertex)
        chain = [end] + list(range(n, n + length))
        n += length
        edges |= set(zip(chain[1:], chain[:-1]) if into else zip(chain, chain[1:]))
    return n, edges


def hat_pi(m, tg, path, n_lo=0):
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
    for i in range(len(path) - 1):
        if path[i + 1] not in successors(tg, path[i]):
            raise ValueError(f"path not admissible at position {i}")
    anchor = -n_lo if 0 <= -n_lo < len(path) else 0
    survivors = []
    for q in tg.cells[path[anchor]].members.tolist():
        w = row_window(m, tg.cover, q)
        try:
            survivors.append(w.shift(-(n_lo + anchor)))
        except (ne.WindowExhausted, SingularPoint):
            continue
    diams = []
    for i, cid in enumerate(path):
        cell = tg.cells[cid]
        keep = []
        for w in survivors:
            try:
                wi = w.shift(n_lo + i)
            except (ne.WindowExhausted, SingularPoint):
                continue
            if _cell_contains(m, tg.cover, cell, wi):
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
