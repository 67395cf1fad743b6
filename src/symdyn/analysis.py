"""Quantitative consequences: closed-path counts, entropy estimates,
periodic points of the map, and the growth comparison."""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K


def _adjacency(g):
    """Adjacency dict from a GpoGraph / TmsGraph / plain dict."""
    if isinstance(g, dict):
        return g
    if hasattr(g, "out_edges") and hasattr(g, "alphabet"):
        return {v: list(g.out_edges[v]) for v in range(g.n_vertices())
                if g.out_edges[v] or g.in_edges[v]}
    if hasattr(g, "adjacency"):
        return g.adjacency()
    raise TypeError(f"no adjacency in {type(g)!r}")


def _step(adj, vec):
    """Extend the path counts ``vec`` (end vertex -> paths) by one edge."""
    new = {}
    for u, c in vec.items():
        for w in adj.get(u, ()):
            new[w] = new.get(w, 0) + c
    return new


def closed_path_counts(g, n_max):
    """[trace(A^1), ..., trace(A^n_max)]: closed paths of each length up to
    n_max (exact integers), from one walk per vertex."""
    adj = _adjacency(g)
    counts = [0] * n_max
    for v in adj:
        vec = {v: 1}
        for n in range(n_max):
            vec = _step(adj, vec)
            if not vec:
                break
            counts[n] += vec.get(v, 0)
    return counts


@dataclass
class EntropyEstimate:
    loop_growth: float        # (1/n) log trace(A^n) at the largest n with closed paths
    trace_slope: float        # lsq slope of log trace(A^n) over n
    spectral_radius: float
    n_used: int

    def lines(self):
        return [
            f"entropy estimates: loop growth {self.loop_growth:.6g}, "
            f"aggregate trace slope {self.trace_slope:.6g}, "
            f"spectral radius {self.spectral_radius:.6g} "
            f"(log {math.log(self.spectral_radius):.6g} at n <= {self.n_used})"
            if self.spectral_radius > 0 else
            f"entropy estimates: loop growth {self.loop_growth:.6g}, "
            f"trace slope {self.trace_slope:.6g}, spectral radius 0",
        ]


def spectral_radius(g, iters=200):
    """Power-iteration estimate of the adjacency spectral radius.

    The per-step norm growth oscillates on periodic graphs, so the
    geometric mean over the second half of the iteration is returned.
    """
    adj = _adjacency(g)
    keys = sorted(adj)
    pos = {v: i for i, v in enumerate(keys)}
    nv = len(keys)
    if nv == 0:
        return 0.0
    # Edges in the order of a scalar walk (sorted u, then adjacency order):
    # np.add.at adds in index order, so each entry of new is the same
    # sequence of float additions as that walk's ``new[w] += vec[u]``.
    edges = [(pos[u], pos[w]) for u in keys for w in adj.get(u, ()) if w in pos]
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    vec = np.ones(nv)
    norms = []
    for _ in range(iters):
        new = np.zeros(nv)
        np.add.at(new, dst, vec[src])
        nrm = float(np.linalg.norm(new))
        if nrm == 0.0:
            return 0.0
        norms.append(nrm)
        vec = new / nrm
    k = len(norms) // 2
    return float(np.exp(np.mean(np.log(norms[k:]))))


def gurevich_entropy(g, n_max=10):
    """Loop-growth and spectral estimates of the shift entropy.

    On non-transitive desk-scale graphs (disjoint cycles) the per-vertex
    loop growth is 0; the aggregate trace slope is the estimator with
    content there, so all three numbers are reported.
    """
    adj = _adjacency(g)
    return _estimate(closed_path_counts(adj, n_max), spectral_radius(adj))


def _estimate(counts, rho):
    """EntropyEstimate from the closed-path counts [trace(A^1), ...] and the
    spectral radius rho; the loop growth is taken at the largest n with a
    closed path."""
    loop_growth = 0.0
    best = 0
    for n in range(len(counts), 0, -1):
        c = counts[n - 1]
        if c > 0:
            loop_growth = math.log(c) / n
            best = n
            break
    ns = []
    logs = []
    for n, c in enumerate(counts, start=1):
        if c > 0:
            ns.append(n)
            logs.append(math.log(c))
    slope = _lsq_slope(ns, logs) if len(ns) >= 2 else 0.0
    return EntropyEstimate(loop_growth=loop_growth, trace_slope=slope,
                           spectral_radius=rho, n_used=best)


def _lsq_slope(xs, ys):
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xm, ym = x.mean(), y.mean()
    den = float(((x - xm) ** 2).sum())
    if den == 0.0:
        return 0.0
    return float(((x - xm) * (y - ym)).sum() / den)


# ---------------------------------------------------------------------------
# periodic points of the map
# ---------------------------------------------------------------------------

DEDUP_TOL = 1e-9
# Branch words enumerated per period: gauss (16 branches) reaches it at n = 5.
MAX_PERIODIC_WORDS = 2**20


def check_word_budget(m, n):
    """Raise ValueError when period n needs more than MAX_PERIODIC_WORDS words."""
    nb = m.finite_table()[1].shape[0]
    if nb**n > MAX_PERIODIC_WORDS:
        raise ValueError(
            f"periodic points of {m.name!r} at period {n} need {nb}^{n} = {nb**n} "
            f"branch words, over the budget of {MAX_PERIODIC_WORDS} "
            f"(MAX_PERIODIC_WORDS); lower max_period")


def map_periodic_points(m, n):
    """All solutions of f^n(x) = x, one per admissible branch word.

    Convention: the orbit must respect the half-open branch domains
    [lo, hi) at every step (so domain right endpoints are excluded, and
    maps with countably many branches are restricted to the finite
    sub-table).  Returns the roots, ascending and deduplicated within 1e-9,
    and their branch words (row i: the branches of roots[i], f(roots[i]),
    ... in the map's branch ids).  Raises ValueError when the nb^n words
    exceed MAX_PERIODIC_WORDS.
    """
    check_word_budget(m, n)
    mk, table = m.finite_table()
    nb = table.shape[0]
    # every word in lexicographic order: column k holds digit k of the index
    words = np.empty((nb**n, n), dtype=np.int64)
    rest = np.arange(nb**n, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        rest, words[:, k] = np.divmod(rest, nb)
    roots, found = K.periodic_roots(mk, table, words)
    words, roots = words[found], roots[found]
    x = roots
    good = np.ones(roots.shape, dtype=bool)
    for k in range(n):
        b = words[:, k]
        good &= (table[b, 1] <= x) & (x < table[b, 2])
        x = K.fwd_vec(mk, table, b, x)
    good &= ~(np.abs(x - roots) > DEDUP_TOL)
    order = np.flatnonzero(good)[np.argsort(roots[good], kind="stable")]
    roots, words = roots[order], words[order]
    # merge each root within DEDUP_TOL of the last root kept (j)
    keep = np.diff(roots, prepend=-np.inf) > DEDUP_TOL
    for i in np.flatnonzero(~keep):
        j = i - 1 if keep[i - 1] else j
        keep[i] = roots[i] - roots[j] > DEDUP_TOL
    ids = np.array([b.id for b in m.branches], dtype=np.int64)
    return roots[keep], ids[words[keep]]


@dataclass
class GrowthReport:
    rows: list              # (n, map_count, symbolic_count, ratio)
    map_slope: float
    symbolic_slope: float
    entropy: EntropyEstimate
    flags: list

    def lines(self):
        out = ["periodic growth report: n  map_count  closed_paths  ratio"]
        for n, mc, sc, r in self.rows:
            out.append(f"  {n:3d}  {mc:9d}  {sc:12d}  {r:.4g}")
        out.append(f"  map slope {self.map_slope:.6g}, symbolic slope "
                   f"{self.symbolic_slope:.6g}, ln 2 = {math.log(2):.6g}")
        out.extend(self.entropy.lines())
        out.extend(f"  flag: {f}" for f in self.flags)
        return out


def growth_report(m, g, n_max, spectral=None):
    """Map periodic counts vs symbolic closed-path counts, with slopes.

    The entropy estimate is derived from the same closed-path counts;
    ``spectral`` is the graph's spectral radius when the caller already
    has it (it does not depend on n_max).
    """
    adj = _adjacency(g) if g is not None else {}
    rows = []
    flags = []
    counts = closed_path_counts(adj, n_max) if adj else [0] * n_max
    for n, sc in enumerate(counts, start=1):
        mc = len(map_periodic_points(m, n)[0])
        rows.append((n, mc, sc, (mc / sc) if sc else math.inf))
    if not adj or all(r[2] == 0 for r in rows):
        flags.append("symbolic counts are zero (empty or cycle-free graph)")
    ns = [r[0] for r in rows if r[1] > 0]
    ms = [math.log(r[1]) for r in rows if r[1] > 0]
    nss = [r[0] for r in rows if r[2] > 0]
    ss = [math.log(r[2]) for r in rows if r[2] > 0]
    if adj:
        rho = spectral_radius(adj) if spectral is None else spectral
        ent = _estimate(counts, rho)
    else:
        ent = EntropyEstimate(0, 0, 0, 0)
    return GrowthReport(rows=rows,
                        map_slope=_lsq_slope(ns, ms) if len(ns) >= 2 else 0.0,
                        symbolic_slope=_lsq_slope(nss, ss) if len(ss) >= 2 else 0.0,
                        entropy=ent, flags=flags)
