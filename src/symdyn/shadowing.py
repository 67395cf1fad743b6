"""Shadowing: from chart chains to natural-extension points.

A gpo (generalized pseudo-orbit) is a finite chain of charts linked by
weak or strong edges, held as rows of an alphabet's vertex table
(``pesin.VertexTable``).  Shadowing composes the inverse-branch chart maps
forward-to-backward; each map contracts by at least e^{-chi/2}, so the
nested images of the deepest chart interval converge to the chart
coordinate of the shadowed point.

All chart-coordinate work happens in p-rescaled units tau = t/p (the raw
sizes are usually below double precision); scale ratios between
consecutive charts are exact I_eps grid steps, so the rescaled maps are
well-conditioned affine maps.  ``shadow_many`` shadows the gpos of a
call as the rows of one ``Shadows`` table: per row the point's coordinates
and branches, tau_0, log p_0, the error bound and the containment.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from . import natural_extension as ne

CONTAINMENT_SLACK = 1e-9
# Gpos shadowed per lockstep block: a block's (K, L) temporaries stay near
# 64 KB, which the heap reuses block after block (one block of the 1,964
# deep-cover gpos left the peak RSS ~1 MB higher than the one-gpo loop).
SHADOW_BLOCK = 256


class EdgeBroken(RuntimeError):
    """A chart-map step failed its containment precondition mid-composition."""


class NotDoubleCoding(RuntimeError):
    """inverse_check called on gpos whose shadowed points differ."""


@dataclass(frozen=True)
class Shadows:
    """The gpos of one ``shadow_many`` call, one row each.

    Row k shadows the gpo whose charts over n in [n_lo, n_hi] are the
    vertex table rows ``walks[k]``: its point x_{n_lo} .. x_{n_hi}
    (``points``) with the branches of x_{n_lo} .. x_{n_hi - 1}
    (``branches``), its chart coordinate tau_0 (t_0 = tau_0 p_0) and
    log p_0, log_err = log(2 p_0) - chi n_hi / 2 and the largest |tau_n|
    over the gpo (``worst``, its containment, at most 1 up to slack).
    ``broken`` maps each row whose step image escaped its target chart to
    the EdgeBroken of its first failing step; its float columns hold NaN.
    """

    walks: np.ndarray
    n_lo: int
    points: np.ndarray
    branches: np.ndarray
    tau0: np.ndarray
    log_p0: np.ndarray
    log_err: np.ndarray
    worst: np.ndarray
    broken: dict

    def __len__(self):
        return len(self.walks)

    @property
    def n_hi(self):
        return self.n_lo + self.walks.shape[1] - 1

    @property
    def ok(self):
        """Whether each row shadowed."""
        ok = np.ones(len(self), dtype=bool)
        ok[list(self.broken)] = False
        return ok


def step_maps(m, table, to, frm, cfg):
    """The rescaled affine models tau_to = a tau_from + b of G = Psi_to^{-1}
    o g o Psi_from, as arrays (a, b), for the edges ``to[k] <- frm[k]`` of
    rows of the VertexTable ``table``; m must be the map of the centers.
    ``shadow_many`` computes them for the distinct edges of its call in
    this one pass.

    The curvature of g over a chart range is below float resolution
    relative to the linear part (|s| <= 10 Q / u with Q on the I_eps
    grid), so the affine model is exact to working precision.

    The offset G(0) vanishes exactly when the centers are consecutive
    orbit points.  Cached orbits satisfy only one of f(x_to) == x_from
    (forward caches) or g(x_from) == x_to (backward caches) bitwise; the
    float evaluation of the other direction carries a spurious ulp that
    the chart rescaling would amplify, so both identities are accepted.
    Each value is the one the kernels' formulas give on Python floats, by
    the same operations in the same order, with one math.exp per distinct
    difference of size indices.
    """
    fam, br = m.family, table.back_branch[frm]
    x0, theta_to = table.theta0[frm], table.theta0[to]
    # dG in t-units (the contraction the theorem bounds) times p_from / p_to,
    # an exact grid power e^{(eps/3)(idx_to - idx_from)}
    a = K.dinv_vec(fam, br, x0) * table.u[to] / table.u[frm]
    diff, at = np.unique(table.idx_p[to] - table.idx_p[frm], return_inverse=True)
    a *= np.array([math.exp((cfg.epsilon / 3.0) * d) for d in diff.tolist()])[at]
    b = np.zeros(a.shape)
    rows = np.flatnonzero(K.fwd_vec(fam, br, theta_to) != x0)
    offsets = K.inv_vec(fam, br[rows], x0[rows]) - theta_to[rows]
    for k, offset, u, log_p in zip(rows.tolist(), offsets.tolist(), table.u[to[rows]].tolist(),
                                   table.log_p[to[rows]].tolist()):
        if offset != 0.0:
            log_b = math.log(abs(offset)) + math.log(u) - log_p
            b[k] = math.copysign(math.exp(min(log_b, 700.0)), offset)
    return a, b


def shadow_many(m, table, walks, n_lo, cfg):
    """Shadow K gpos in lockstep: nested-interval contraction for t_0,
    backward reconstruction for the negative coordinates.

    Row k of the (K, L) int array ``walks`` holds the rows of the
    VertexTable ``table`` of gpo k's charts over n in [n_lo, n_lo + L - 1].
    The nested intervals start from [-1, 1] at n_lo + L - 1 and compose the
    whole forward horizon.  Returns the Shadows table of the rows; a row
    whose step image escapes its target chart is broken.  Every row takes
    the IEEE operations of a one-gpo loop in the same order, so no row
    depends on the rest of its batch (which runs in blocks of SHADOW_BLOCK
    rows, sharing the ``step_maps`` of the call's distinct edges, computed
    in one pass).  Raises ValueError for the first unbroken row whose
    points are not an f-pseudo-orbit within the window tolerance.
    """
    walks = np.asarray(walks, dtype=np.int64)
    n_gpo, length = walks.shape
    n_hi = n_lo + length - 1
    if n_gpo == 0:
        return Shadows(walks, n_lo, np.empty(walks.shape), walks[:, 1:], *np.empty((4, 0)), {})
    if n_hi < 1:
        raise ValueError("gpo needs forward length >= 1")
    if n_lo > 0:
        raise ValueError("gpo needs the index 0")
    # step j (index n_lo + j) maps chart j + 1 into chart j, whose branch
    # the shadowed point takes there
    nc = len(table)
    edge, at = np.unique(walks[:, 1:] * nc + walks[:, :-1], return_inverse=True)
    a, b = step_maps(m, table, edge % nc, edge // nc, cfg)
    at = at.reshape(n_gpo, length - 1)
    branches = table.branch[walks[:, :-1]]
    points = np.full((n_gpo, length), np.nan)
    tau0, worst = np.empty(n_gpo), np.empty(n_gpo)
    broken = {}
    for i in range(0, n_gpo, SHADOW_BLOCK):
        blk = slice(i, i + SHADOW_BLOCK)
        taus, worst[blk], ok, failed = _contract(a[at[blk].T], b[at[blk].T], n_lo)
        tau0[blk] = taus[-n_lo]
        rows = i + np.flatnonzero(ok)
        points[rows] = _shadowed_points(m, table, walks[rows], taus[:, ok], branches[rows])
        broken.update((i + k, e) for k, e in sorted(failed.items()))
    log_p0 = table.log_p[walks[:, -n_lo]]
    log_err = math.log(2.0) + log_p0 - cfg.chi * n_hi / 2.0
    bad = list(broken)
    tau0[bad] = log_p0[bad] = log_err[bad] = worst[bad] = np.nan
    return Shadows(walks, n_lo, points, branches, tau0, log_p0, log_err, worst, broken)


def _contract(a, b, n_lo):
    """The lockstep contraction and backward reconstruction of K rows whose
    step j (index n_lo + j) is tau -> a[j] tau + b[j], for the (L - 1, K)
    arrays a and b.

    Returns the (L, K) taus (row j at index n_lo + j), per row the largest
    |tau| and whether it shadowed, and the EdgeBroken of the first failing
    step of each row whose step image escapes its target chart, by row.
    """
    length, n_gpo = a.shape[0] + 1, a.shape[1]
    n_hi = n_lo + length - 1

    taus = np.empty((length, n_gpo))
    broken = np.zeros(n_gpo, dtype=bool)
    failed = {}

    def fail(rows, message):
        for k in np.flatnonzero(rows & ~broken).tolist():
            failed[k] = EdgeBroken(message(k))
        broken[rows] = True

    lo_ok, hi_ok = -1.0 - CONTAINMENT_SLACK, 1.0 + CONTAINMENT_SLACK
    with np.errstate(all="ignore"):  # as silent as Python float arithmetic
        # forward-to-backward nested intervals; a step's |a| in rescaled
        # units equals the nested-length ratio len(I_{n+1})/len(I_n) in
        # fixed units.  The midpoint at every visited index doubles as the
        # forward coordinate (exact once the interval has contracted below
        # float resolution).  Python's min and max keep the first of a tie.
        lo = np.full(n_gpo, -1.0)
        hi = np.full(n_gpo, 1.0)
        taus[-1] = 0.0                   # the midpoint of [-1, 1]
        worst = np.zeros(n_gpo)
        for n in range(n_hi - 1, -1, -1):
            j = n - n_lo
            p0, p1 = a[j] * lo + b[j], a[j] * hi + b[j]
            lo, hi = np.where(p1 < p0, p1, p0), np.where(p1 > p0, p1, p0)
            out = ~((lo_ok <= lo) & (hi <= hi_ok))
            if out.any():
                fail(out, lambda k: f"step into index {n} leaves the chart: "
                                    f"[{float(lo[k]):g}, {float(hi[k]):g}]")
            taus[j] = 0.5 * (lo + hi)
            t = np.abs(taus[j])
            worst = np.where(t > worst, t, worst)
        for n in range(0, n_lo, -1):
            j = n - n_lo
            taus[j - 1] = a[j - 1] * taus[j] + b[j - 1]
            t = np.abs(taus[j - 1])
            worst = np.where(t > worst, t, worst)
            out = worst > hi_ok
            if out.any():
                fail(out, lambda k: f"backward reconstruction leaves chart {n - 1}")
    return taus, worst, ~broken, failed


def _shadowed_points(m, table, walks, taus, branches):
    """The points theta0 + tau p / u of the rows of ``walks`` (tau from the
    (L, K) ``taus``), whose steps take ``branches``.  Raises ValueError for
    the first row that is not an f-pseudo-orbit within the window
    tolerance."""
    # in place, one (K, L) temporary at a time; + and * commute bit for bit
    pts = table.p[walks]
    pts *= taus.T
    pts[~(table.log_p[walks] > -745)] = 0.0
    pts /= table.u[walks]
    pts += table.theta0[walks]
    err = np.max(np.abs(K.fwd_vec(m.family, branches, pts[:, :-1]) - pts[:, 1:]), axis=1)
    bad = np.flatnonzero(err > ne.CONSISTENCY_TOL)
    if bad.size:
        raise ValueError(f"points violate the window tolerance: {float(err[bad[0]]):g}")
    return pts


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


def _recurrence_diagnostic(table, rows, n_lo):
    """Whether a vertex, keyed (theta0, u, idx_p), repeats among the charts
    of a gpo, the table rows ``rows`` at n = n_lo, n_lo + 1, ..., at n > 0
    and at n < 0."""
    keys = list(zip(table.theta0[rows].tolist(), table.u[rows].tolist(),
                    table.idx_p[rows].tolist()))
    pos, neg = keys[1 - n_lo:], keys[:-n_lo]
    return {
        "repeats_forward": len(pos) != len(set(pos)),
        "repeats_backward": len(neg) != len(set(neg)),
    }


def inverse_check(shadows, i, j, table, cfg):
    """Evaluate the five inverse-theorem conclusions on a double coding:
    rows i and j of the Shadows table ``shadows``, whose charts are rows of
    the VertexTable ``table``, over the batch's range.  Each chart's theta0,
    u, log p and log Q are read from its row as Python floats.

    Precondition (checked): the shadowed points agree coordinatewise within
    2(p_n + q_n) (the metric proxy for exact equality of the codings).
    """
    lo, hi = shadows.n_lo, shadows.n_hi
    rows1, rows2 = shadows.walks[i], shadows.walks[j]
    eps = cfg.epsilon

    def charts(rows):
        """(theta0, u, log p, log Q) of each chart of a gpo at n in [lo, hi]."""
        return list(zip(table.theta0[rows].tolist(), table.u[rows].tolist(),
                        table.log_p[rows].tolist(), table.logQ[rows].tolist()))

    charts1, charts2 = charts(rows1), charts(rows2)

    # double-coding proxy
    for n, x, y, a, b in zip(range(lo, hi + 1), shadows.points[i].tolist(),
                             shadows.points[j].tolist(), charts1, charts2):
        d = abs(x - y)
        if d == 0.0:
            continue
        log_thr = math.log(2.0) + np.logaddexp(a[2], b[2])
        if math.log(d) > log_thr:
            raise NotDoubleCoding(
                f"coordinate {n} differs by {d:g} (log threshold {log_thr:g}); "
                f"recurrence: {_recurrence_diagnostic(table, rows1, lo)} / "
                f"{_recurrence_diagnostic(table, rows2, lo)}")

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
    for n, (theta_a, u_a, lp_a, lq_a), (theta_b, u_b, lp_b, lq_b) in zip(range(lo, hi + 1),
                                                                         charts1, charts2):
        d = abs(theta_a - theta_b)
        # (1) center distance <= 2 max(p, q): compare in log space
        bound_log = math.log(2.0) + max(lp_a, lp_b)
        ok1 = d == 0.0 or math.log(d) <= bound_log
        c1.append((n, 0.0 if d == 0.0 else math.log(d), bound_log, ok1))
        # (2) u ratio
        r = abs(math.log(u_a / u_b))
        c2.append((n, r, 2.0 * math.sqrt(eps), r <= 2.0 * math.sqrt(eps)))
        # (3) Q ratio
        rq = abs(lq_a - lq_b)
        c3.append((n, rq, eps ** (1.0 / 3.0), rq <= eps ** (1.0 / 3.0)))
        # (4) p ratio
        rp = abs(lp_a - lp_b)
        c4.append((n, rp, eps ** (1.0 / 3.0), rp <= eps ** (1.0 / 3.0)))
        # (5) affine change of coordinates Psi_b^{-1} o Psi_a = t + Delta + delta
        delta = u_b * (theta_a - theta_b)
        bound5 = math.log(3.0) + lp_b
        ok5 = delta == 0.0 or math.log(abs(delta)) < bound5
        c5a.append((n, -math.inf if delta == 0.0 else math.log(abs(delta)), bound5, ok5))
        slope = abs(u_b / u_a - 1.0)
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
        recurrence={"g1": _recurrence_diagnostic(table, rows1, lo),
                    "g2": _recurrence_diagnostic(table, rows2, lo)},
        common_range=(lo, hi),
    )
