"""Pesin-theoretic parameters and charts.

The expansion certificate, the hyperbolicity parameter u, the chart scale
ladder (Q-tilde, Q, the grid I_eps = {e^{-eps*n/3}}, delta_eps, the greedy
q) tabulated along a window, and the vertex table: the affine charts
Psi(t) = t/u + x0 on [-p, p] of an alphabet, as columns.  The chart maps
between charts are ``shadowing.step_maps``.

Scales routinely sit far below double precision (log Q is typically a few
hundred negative), so every size is carried as a natural log plus an exact
integer index on the grid I_eps.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .natural_extension import OrbitWindow


# ---------------------------------------------------------------------------
# expansion certificates and u
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    ok: bool
    margin: float        # min over tested blocks of (average log|df| - chi)
    fwd_min_avg: float
    back_min_avg: float
    worst_n: int


def expansion_certificate(w, cfg):
    """Finite-window stand-in for chi-expansion.

    True iff every forward block average (1/n) log|df^(n)| with
    n in [n_min, F] and every backward block average with n in [n_min, N]
    exceeds chi (chi and n_min from cfg).  Returns the worst margin.  Each
    side's averages are one numpy pass, whose least entry (the shortest
    block on a tie) is its worst; a window keeps its certificate per
    (chi, n_min), so it is certified once however often it is asked.
    """
    key = (cfg.chi, cfg.n_min)
    cert = w.certs.get(key)
    if cert is None:
        cert = w.certs[key] = _certify(w, *key)
    return cert


def _certify(w, chi, n_min):
    S = w.cumlog
    j = w.off
    nf = np.arange(max(min(n_min, w.fwd_len), 1), w.fwd_len + 1)
    nb = np.arange(max(min(n_min, w.back_len), 1), w.back_len + 1)
    if not nf.size and not nb.size:
        return Certificate(False, -math.inf, -math.inf, -math.inf, 0)
    # a window with no data on one side is tested on the other side only
    fmin, fn = _least(nf, (S[j + nf] - S[j]) / nf)
    bmin, bn = _least(nb, (S[j] - S[j - nb]) / nb)
    margin = min(fmin, bmin) - chi
    worst = fn if fmin <= bmin else -bn
    return Certificate(bool(margin > 0), margin, fmin, bmin, worst)


def _least(ns, avgs):
    """(least average, its block length), the shortest block on a tie;
    (inf, 0) with no blocks."""
    if not ns.size:
        return math.inf, 0
    i = int(np.argmin(avgs))
    return avgs[i], int(ns[i])


def _u_terms(S, j, depth, chi):
    n = np.arange(depth + 1, dtype=np.float64)
    idx = j - np.arange(depth + 1)
    logt = 2.0 * chi * n - 2.0 * (S[j] - S[idx])
    return logt


def u_at(w, chi, k=0):
    """u at the k-th shift, truncating the defining series at the window's
    fixed u_depth, or at the full available backward depth without one.

    Periodic windows are evaluated by phase from the canonical tiled cycle,
    so the value is independent of k mod period.
    """
    if w.period:
        return float(_u_phase_table(w, chi)[(k + w.off) % w.period])
    avail = w.back_len + k
    d = min(w.u_depth, avail) if w.u_depth else avail
    if d < 0:
        raise IndexError(f"shift {k} has no backward data")
    logt = _u_terms(w.cumlog, w.off + k, d, chi)
    m = float(np.max(logt))
    if m > 500.0:  # keep exp in range; u itself is then astronomically large
        return math.exp(0.5 * (m + math.log(float(np.sum(np.exp(logt - m))))))
    return math.sqrt(float(np.sum(np.exp(logt))))


def _u_phase_table(w, chi):
    P = w.period
    d = w.u_depth or w.back_len
    phases = np.arange(P)
    # phase of array slot i is i mod P (index k has phase (k + off) mod P),
    # and the cycle is tiled exactly: ld_phase[p] = log|df| at phase p
    ld_phase = w.logderivs[:P]
    # row p: the partial sums of log|df| over the d phases before p, backward
    S = np.zeros((P, d + 1))
    S[:, 1:] = np.cumsum(ld_phase[(phases[:, None] - 1 - np.arange(d)) % P], axis=1)
    logt = 2.0 * chi * np.arange(d + 1) - 2.0 * S
    return np.sqrt(np.sum(np.exp(logt), axis=1))


# ---------------------------------------------------------------------------
# chart sizes
# ---------------------------------------------------------------------------

def compute_Q(u, u_prev, rho, epsilon, a, beta):
    """(logQtilde, idxQ): the raw chart scale and its I_eps grid rounding.

    logQtilde = (3/b) ln(eps) + min(-(24/b) ln u, -(12/b) ln u' + (72a/b) ln rho),
    idxQ = ceil(-3 logQtilde / eps), so the grid point never exceeds Qtilde.
    """
    if u < 1.0 or u_prev < 1.0 or rho <= 0.0:
        raise ValueError("need u, u' >= 1 and rho > 0")
    lq = (3.0 / beta) * math.log(epsilon) + min(
        -(24.0 / beta) * math.log(u),
        -(12.0 / beta) * math.log(u_prev) + (72.0 * a / beta) * math.log(rho),
    )
    idx = int(math.ceil(-3.0 * lq / epsilon))
    return lq, idx


def q_greedy(idxQ_seq, cfg):
    """Greedy q indices along a window, seeded at the earliest index.

    Index form of q_n = min(e^eps q_{n-1}, delta_eps Q_n): larger grid index
    = smaller value, so the recursion is idx_n = max(idx_{n-1} - 3,
    delta_idx + idxQ_n).
    """
    nd = cfg.delta_index
    out = []
    prev = None
    for iq in idxQ_seq:
        cur = nd + int(iq) if prev is None else max(prev - 3, nd + int(iq))
        out.append(cur)
        prev = cur
    return out


# ---------------------------------------------------------------------------
# window-level parameter tables
# ---------------------------------------------------------------------------

class _PhaseTable:
    """Per-index values of a periodic window, kept once per phase: index k
    has phase (k + off) mod P."""

    __slots__ = ("values", "off")

    def __init__(self, values, off):
        self.values = values
        self.off = off

    def __getitem__(self, k):
        return self.values[(k + self.off) % len(self.values)]


@dataclass(frozen=True)
class WindowTables:
    """Per-index chart data for a window: u, d(x, S), Q and greedy q indices.

    Valid index range is [lo, hi]; u and the singular distance d(x_k, S) are
    additionally available at lo-1 and hi+1 (needed for u', u(f̂·)
    comparisons and the distance bins of the neighbours).  Each table maps
    an index to its value: a dict, or for a periodic window a table kept
    once per phase.  ``bins``, filled in by ``coarse_grain.bin_tables``,
    holds each index's coarse-graining data the same way.
    """

    w: OrbitWindow
    cfg: RunConfig
    lo: int
    hi: int
    u: object
    dist: object         # d(x_k, S)
    idxQ: object
    idx_q: object
    certified: bool
    bins: object = None

    def j_bin(self, k):
        """q-size bin: j with q in [e^{-j-1}, e^{-j+1}); canonical floor(-ln q)."""
        return int(math.floor((self.cfg.epsilon / 3.0) * self.idx_q[k]))

    def bin_indices(self):
        """The indices ``bins`` holds: the range [lo, hi], or one per phase
        for a table kept once per phase (from the least index with both
        neighbours in the window)."""
        if isinstance(self.idxQ, _PhaseTable):
            return range(1 - self.w.off, 1 - self.w.off + self.w.period)
        return range(self.lo, self.hi + 1)

    def with_bins(self, values):
        """These tables with ``bins`` holding values[i] at the i-th index of
        ``bin_indices()``."""
        if isinstance(self.idxQ, _PhaseTable):
            return replace(self, bins=_PhaseTable(values, self.w.off - 1))
        return replace(self, bins=dict(zip(self.bin_indices(), values)))


def _rho(dist, k):
    """min d(x_i, S) over the coordinates k - 1, k, k + 1."""
    return min(dist[k - 1], dist[k], dist[k + 1])


def window_tables(m, w, cfg, lo=None, hi=None):
    """Compute chart data for every index of a window (or a subrange).

    The points of a periodic window repeat exactly, so every quantity is a
    function of the phase; when the range holds a whole period it is
    computed once per phase.  Binning index k reads the cover element of
    x_{k+1}, whose radius needs x_{k+2}, so the range of a non-periodic
    window x_{-N..F} ends at F - 2 (a periodic one's at F - 1).
    """
    full_lo = -w.back_len + 1
    full_hi = w.fwd_len - (1 if w.period else 2)
    lo = full_lo if lo is None else max(lo, full_lo)
    hi = full_hi if hi is None else min(hi, full_hi)

    P = w.period
    if P and hi - full_lo + 1 >= P:
        phases = range(-w.off, P - w.off)  # the indices of phases 0, ..., P - 1
        u = _PhaseTable(_u_phase_table(w, cfg.chi).tolist(), w.off)
        dist = _PhaseTable([m.singular_distance(w.x(k)) for k in phases], w.off)
        idxQ = _PhaseTable([compute_Q(u[k], u[k - 1], _rho(dist, k), cfg.epsilon, m.a,
                                      m.beta)[1] for k in phases], w.off)
        # canonical periodic greedy q_n = delta * min_{k>=0} e^{eps k} Q_{n-k},
        # independent of the window truncation.  In indices a lag k >= P
        # term is the lag k - P term minus 3P, so the second lap of the
        # greedy recursion is the exact periodic solution.
        idx_q = _PhaseTable(q_greedy(idxQ.values * 2, cfg)[P:], w.off)
    else:
        ks = range(full_lo - 1, hi + 2)
        u = {k: u_at(w, cfg.chi, k) for k in ks}
        dist = {k: m.singular_distance(w.x(k)) for k in ks}
        idxQ = {k: compute_Q(u[k], u[k - 1], _rho(dist, k), cfg.epsilon, m.a, m.beta)[1]
                for k in range(full_lo, hi + 1)}
        seq = q_greedy([idxQ[k] for k in range(full_lo, hi + 1)], cfg)
        idx_q = dict(zip(range(full_lo, hi + 1), seq))

    return WindowTables(w=w, cfg=cfg, lo=lo, hi=hi, u=u, dist=dist, idxQ=idxQ,
                        idx_q=idx_q, certified=expansion_certificate(w, cfg).ok)


# ---------------------------------------------------------------------------
# the vertex table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexTable:
    """The charts of an alphabet as columns.  Row v is the affine chart
    Psi(t) = t/u + theta0 on [-p, p] at size index ``idx_p[v]`` of center
    ``cid[v]``: its theta0, u, log p, log Q and idx_p, p = e^{log p} from
    math.exp (0 where log p is not above -745), and the branches of its
    center point's predecessor (``back_branch``, the inverse branch of a
    step map out of the chart) and of the center point itself."""

    theta0: np.ndarray
    u: np.ndarray
    log_p: np.ndarray
    logQ: np.ndarray
    p: np.ndarray
    idx_p: np.ndarray
    cid: np.ndarray
    back_branch: np.ndarray
    branch: np.ndarray

    def __len__(self):
        return len(self.cid)


def vertex_table(centers, cid, idx_p, cfg):
    """The VertexTable of the charts of size index ``idx_p[v]`` of the
    centers ``centers[cid[v]]`` (``coarse_grain.Center``): theta0 and the
    branches from each center window's arrays at its shift, u and Q from its
    net data.  ValueError where a size exceeds its Q (idx_p < idxQ)."""
    cid = np.asarray(cid, dtype=np.int64)
    idx_p = np.asarray(idx_p, dtype=np.int64)
    floats, ints = [], []
    for c in centers:
        w, i = c.window, c.window.off + c.shift
        floats.append((w.points[i], c.gamma.u[1]))
        ints.append((c.gamma.idxQ, w.branch_ids[i - 1], w.branch_ids[i]))
    theta0, u = np.array(floats, dtype=np.float64).reshape(-1, 2)[cid].T.copy()
    idxQ, back_branch, branch = np.array(ints, dtype=np.int64).reshape(-1, 3)[cid].T.copy()
    if np.any(idx_p < idxQ):
        raise ValueError("chart size exceeds Q")
    log_p = cfg.grid_log(idx_p)
    p = np.array([math.exp(lp) if lp > -745 else 0.0 for lp in log_p.tolist()])
    return VertexTable(theta0, u, log_p, cfg.grid_log(idxQ), p, idx_p, cid, back_branch, branch)
