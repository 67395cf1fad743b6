"""Shadowing: from chart chains to natural-extension points.

A gpo (generalized pseudo-orbit) is a finite chain of charts linked by
weak or strong edges.  Shadowing composes the inverse-branch chart maps
forward-to-backward; each map contracts by at least e^{-chi/2}, so the
nested images of the deepest chart interval converge to the chart
coordinate of the shadowed point.

All chart-coordinate work happens in p-rescaled units tau = t/p (the raw
sizes are usually below double precision); scale ratios between
consecutive charts are exact I_eps grid steps, so the rescaled maps are
well-conditioned affine maps.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import natural_extension as ne

REL_TOL = 1e-13        # nested-interval stopping tolerance, relative to 2 p_0
CONTAINMENT_SLACK = 1e-9


class EdgeBroken(RuntimeError):
    """A chart-map step failed its containment precondition mid-composition."""


class NotDoubleCoding(RuntimeError):
    """inverse_check called on gpos whose shadowed points differ."""


@dataclass(frozen=True)
class Gpo:
    """Chart chain indexed n in [n_lo, n_hi]; strengths[i] flags the edge
    between positions i and i+1 as 'strong' or 'weak'."""

    charts: tuple
    n_lo: int
    strengths: tuple = ()
    edge_failures: tuple = ()

    @property
    def n_hi(self):
        return self.n_lo + len(self.charts) - 1

    def chart(self, n):
        return self.charts[n - self.n_lo]

    def indices(self):
        return range(self.n_lo, self.n_hi + 1)

    def vertex_keys(self):
        """Identity keys of the charts (for recurrence diagnostics)."""
        return [_chart_key(c) for c in self.charts]


def _chart_key(c):
    return (c.theta0, c.u, c.idx_p)


@dataclass(frozen=True)
class StepMap:
    """Rescaled affine model of G = Psi_to^{-1} o g o Psi_from between
    consecutive charts: tau_to = a * tau_from + b."""

    a: float
    b: float
    slope_t: float       # dG in t-units (the contraction the theorem bounds)
    size_ratio: float    # p_from / p_to as an exact grid power


def step_map(m, v_to, v_from, cfg):
    """Affine step data for the edge v_to <- v_from, computed once per edge.

    The result is a pure function of the branch of v_from's center at
    shift - 1, the theta0, u and idx_p of both charts and cfg.epsilon, so it
    is kept on v_from (``Chart.steps``) under the data of v_to; m must be
    the map of v_from's center.
    """
    key = (v_to.theta0, v_to.u, v_to.idx_p, v_to.params.epsilon, cfg.epsilon)
    s = v_from.steps.get(key)
    if s is None:
        s = v_from.steps[key] = _affine_step(m, v_to, v_from, cfg)
    return s


def _affine_step(m, v_to, v_from, cfg):
    """The rescaled affine model of the edge v_to <- v_from.

    The curvature of g over a chart range is below float resolution
    relative to the linear part (|s| <= 10 Q / u with Q on the I_eps
    grid), so the affine model is exact to working precision.

    The offset G(0) vanishes exactly when the centers are consecutive
    orbit points.  Cached orbits satisfy only one of f(x_to) == x_from
    (forward caches) or g(x_from) == x_to (backward caches) bitwise; the
    float evaluation of the other direction carries a spurious ulp that
    the chart rescaling would amplify, so both identities are accepted.
    """
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
    # p_from / p_to as an exact grid power e^{(eps/3)(idx_to - idx_from)}
    scale = math.exp((cfg.epsilon / 3.0) * (v_to.idx_p - v_from.idx_p))
    a = slope_t * scale
    if offset == 0.0:
        b = 0.0
    else:
        log_b = math.log(abs(offset)) + math.log(v_to.u) - v_to.log_p
        b = math.copysign(math.exp(min(log_b, 700.0)), offset)
    return StepMap(a=a, b=b, slope_t=slope_t, size_ratio=scale)


@dataclass
class ShadowResult:
    """Outcome of shadowing a gpo.

    tau coordinates are chart-relative (t_n = tau_n * p_n); the point is a
    pseudo-window assembled from the chart centers plus the (usually
    absorbed) tau corrections.  log_error_bound = log(2 p_0) - chi F / 2.
    """

    gpo: Gpo
    tau0: float
    log_p0: float
    point: ne.OrbitWindow
    taus: dict
    log_error_bound: float
    contraction_ratios: list
    steps_used: int
    worst_containment: float


def shadow(m, g, cfg, init_interval=(-1.0, 1.0), max_iter=1000):
    """Shadow a gpo: nested-interval contraction for t_0, backward
    reconstruction for the negative coordinates.

    Stops composing once the interval length drops below REL_TOL (relative
    to the zeroth chart size) or the forward horizon is exhausted; raises
    EdgeBroken if a step image escapes its target chart.
    """
    if g.n_hi < 1:
        raise ValueError("gpo needs forward length >= 1")
    steps = {}
    for n in range(g.n_lo, g.n_hi):
        steps[n] = step_map(m, g.chart(n), g.chart(n + 1), cfg)

    # forward-to-backward nested intervals; a step's |a| in rescaled units
    # equals the nested-length ratio len(I_{n+1})/len(I_n) in fixed units.
    # The midpoint at every visited index doubles as the forward coordinate
    # (exact once the interval has contracted past the stop tolerance).
    lo, hi = float(init_interval[0]), float(init_interval[1])
    mids = {g.n_hi: 0.5 * (lo + hi)}
    ratios = []
    used = 0
    converged = None
    for n in range(g.n_hi - 1, -1, -1):
        s = steps[n]
        a, b = s.a, s.b
        p0_img, p1_img = a * lo + b, a * hi + b
        lo2, hi2 = min(p0_img, p1_img), max(p0_img, p1_img)
        if not (-1.0 - CONTAINMENT_SLACK <= lo2 and hi2 <= 1.0 + CONTAINMENT_SLACK):
            raise EdgeBroken(
                f"step into index {n} leaves the chart: [{lo2:g}, {hi2:g}]")
        ratios.append(abs(s.a))
        lo, hi = lo2, hi2
        mids[n] = 0.5 * (lo + hi)
        used += 1
        if converged is None and hi - lo < 2.0 * REL_TOL:
            converged = used
        if used >= max_iter:
            break

    taus = {n: mids[n] for n in mids}
    worst = max(abs(t) for t in taus.values())
    for n in range(0, g.n_lo, -1):
        s = steps[n - 1]
        taus[n - 1] = s.a * taus[n] + s.b
        worst = max(worst, abs(taus[n - 1]))
        if worst > 1.0 + CONTAINMENT_SLACK:
            raise EdgeBroken(f"backward reconstruction leaves chart {n - 1}")
    used = converged if converged is not None else used

    c0 = g.chart(0)
    pts = []
    bids = []
    for n in g.indices():
        c = g.chart(n)
        t_lin = taus[n] * math.exp(c.log_p) if c.log_p > -745 else 0.0
        pts.append(c.theta0 + t_lin / c.u)
        if n < g.n_hi:
            bids.append(c.center.branch(c.shift))
    point = ne.make_pseudo_window(m, np.array(pts), np.array(bids, dtype=np.int64),
                                  off=-g.n_lo)
    return ShadowResult(
        gpo=g, tau0=taus[0], log_p0=c0.log_p, point=point, taus=taus,
        log_error_bound=math.log(2.0) + c0.log_p - cfg.chi * g.n_hi / 2.0,
        contraction_ratios=ratios, steps_used=used, worst_containment=worst,
    )


@dataclass(frozen=True)
class UnstableInterval:
    """R[p_0] of the zeroth chart plus the backward reconstruction rule."""

    gpo: Gpo
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


def unstable_interval(m, g, cfg):
    """Unstable-set descriptor of a gpo's backward half (indices <= 0)."""
    steps = {}
    for n in range(g.n_lo, min(g.n_hi, 0)):
        steps[n] = step_map(m, g.chart(n), g.chart(n + 1), cfg)
    return UnstableInterval(gpo=g, steps=steps)



# ---------------------------------------------------------------------------
# inverse-theorem audit
# ---------------------------------------------------------------------------

@dataclass
class ClauseWitness:
    n: int
    value: float
    bound: float


@dataclass
class InverseReport:
    passed: bool
    clauses: dict                 # name -> (ok, witness)
    proxy_threshold: str
    recurrence: dict              # per gpo: repeats among n>0 / n<0
    common_range: tuple

    def lines(self):
        out = [f"inverse audit over n in {self.common_range}: "
               f"{'pass' if self.passed else 'FAIL'}"]
        for name, (ok, wit) in self.clauses.items():
            out.append(f"  {name}: {'pass' if ok else 'FAIL'} "
                       f"worst n={wit.n} value={wit.value:.6g} bound={wit.bound:.6g}")
        out.append(f"  recurrence diagnostic: {self.recurrence}")
        return out


def _recurrence_diagnostic(g):
    keys = g.vertex_keys()
    pos = [k for n, k in zip(g.indices(), keys) if n > 0]
    neg = [k for n, k in zip(g.indices(), keys) if n < 0]
    return {
        "repeats_forward": len(pos) != len(set(pos)),
        "repeats_backward": len(neg) != len(set(neg)),
    }


def inverse_check(m, g1, g2, cfg, res1=None, res2=None):
    """Evaluate the five inverse-theorem conclusions on a double coding.

    Precondition (checked): the shadowed points agree coordinatewise within
    2(p_n + q_n) (the metric proxy for exact equality of the codings).
    """
    res1 = res1 or shadow(m, g1, cfg)
    res2 = res2 or shadow(m, g2, cfg)
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
            raise NotDoubleCoding(
                f"coordinate {n} differs by {d:g} (log threshold {log_thr:g}); "
                f"recurrence: {_recurrence_diagnostic(g1)} / {_recurrence_diagnostic(g2)}")

    clauses = {}

    def record(name, ok, worst):
        clauses[name] = (ok, worst)

    def run_clause(name, values):
        # values: list of (n, value, bound, ok)
        ok = all(v[3] for v in values)
        worst = max(values, key=lambda v: v[1] - v[2])
        record(name, ok, ClauseWitness(worst[0], worst[1], worst[2]))

    c1 = []
    c2 = []
    c3 = []
    c4 = []
    c5a = []
    c5b = []
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

    run_clause("1 center distance", c1)
    run_clause("2 u ratio", c2)
    run_clause("3 Q ratio", c3)
    run_clause("4 p ratio", c4)
    run_clause("5 offset", c5a)
    run_clause("5 slope", c5b)

    passed = all(ok for ok, _ in clauses.values())
    return InverseReport(
        passed=passed, clauses=clauses,
        proxy_threshold="|x_n - y_n| <= 2 (p_n + q_n) per represented index",
        recurrence={"g1": _recurrence_diagnostic(g1), "g2": _recurrence_diagnostic(g2)},
        common_range=(lo, hi),
    )
