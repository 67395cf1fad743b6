"""Quantitative consequences: closed-path counts, entropy estimates,
periodic points of the map, and the growth comparison."""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K


def _adjacency(g):
    """Adjacency dict from a plain dict or a GpoGraph / TmsGraph."""
    return g if isinstance(g, dict) else g.adjacency()


def _step(adj, vec):
    """Extend the path counts ``vec`` (end vertex -> paths) by one edge."""
    new = {}
    for u, c in vec.items():
        for w in adj.get(u, ()):
            new[w] = new.get(w, 0) + c
    return new


def closed_paths_and_radius(g, n_max):
    """([trace(A^1), ..., trace(A^n_max)], rho): the closed paths of each
    length up to n_max (exact integers) and the spectral radius of the
    adjacency, from one pass over its strongly connected components, since a
    closed path never leaves one.  A component that is one cycle of length L
    adds L at every n that L divides and has radius exactly 1; one without
    an edge adds nothing.  Any other is walked from each of its vertices,
    inside the component, and its radius is the largest modulus of the
    eigenvalues of its adjacency (``np.linalg.eigvals``); rho is the largest
    over the components."""
    adj = _adjacency(g)
    counts, rho = [0] * n_max, 0.0
    for comp in _components(adj):
        pos = {v: i for i, v in enumerate(comp)}
        sub = {u: [w for w in adj.get(u, ()) if w in pos] for u in comp}
        if all(len(ws) == 1 for ws in sub.values()):  # one cycle through comp
            rho = max(rho, 1.0)
            for n in range(len(comp), n_max + 1, len(comp)):
                counts[n - 1] += len(comp)
            continue
        if not any(sub.values()):
            continue
        a = np.zeros((len(comp), len(comp)))
        for i, ws in enumerate(sub.values()):
            np.add.at(a[i], [pos[w] for w in ws], 1.0)
        rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(a)))))
        for v in comp:
            vec = {v: 1}
            for n in range(n_max):
                vec = _step(sub, vec)
                if not vec:
                    break
                counts[n] += vec.get(v, 0)
    return counts, rho


def _components(adj):
    """The strongly connected components of the vertices of ``adj`` and
    their successors (Tarjan's algorithm, without recursion)."""
    index, low, stack, on_stack, comps = {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        return v, iter(adj.get(v, ()))

    for root in adj:
        if root in index:
            continue
        work = [visit(root)]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    work.append(visit(w))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    comps.append(comp)
    return comps


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


def gurevich_entropy(counts, rho):
    """Loop-growth and spectral estimates of the shift entropy from the
    closed-path counts [trace(A^1), ..., trace(A^n)] and the spectral radius
    rho; the loop growth is taken at the largest n with a closed path.

    On non-transitive desk-scale graphs (disjoint cycles) the per-vertex
    loop growth is 0; the aggregate trace slope is the estimator with
    content there, so all three numbers are reported.
    """
    loop_growth = 0.0
    best = 0
    for n in range(len(counts), 0, -1):
        c = counts[n - 1]
        if c > 0:
            loop_growth = math.log(c) / n
            best = n
            break
    return EntropyEstimate(loop_growth=loop_growth, trace_slope=_log_slope(counts),
                           spectral_radius=rho, n_used=best)


def _log_slope(counts):
    """Least-squares slope of log c over n at the counts c = counts[n - 1] > 0;
    0 with fewer than two of them."""
    pts = [(n, math.log(c)) for n, c in enumerate(counts, start=1) if c > 0]
    return _lsq_slope(*zip(*pts)) if len(pts) >= 2 else 0.0


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

# Windows a library may build: gauss at max_period = 4 (68,124 windows)
# peaked at 631 MB RSS, so this is about 300 MB; two-branch maps pass it
# up to max_period = 14.
MAX_LIBRARY_WINDOWS = 2**15


def check_window_budget(m, max_period):
    """Raise ValueError when the points of least period n <= max_period of
    the full shift on the map's nb branches exceed MAX_LIBRARY_WINDOWS.  A
    periodic point gives at most one window, so they bound the library's
    windows before a root is found.  Period n has nb^n points less those
    of the periods d | n below it (the Moebius sum over d | n of
    mu(d) nb^(n/d)), in exact integers, counted up to the first period past
    the budget; returns the count when it is within the budget."""
    nb = m.finite_table()[1].shape[0]
    # a one-branch map has one periodic point, its fixed point, at any max_period
    least, bound = [0], 0  # least[n]: the points of least period n
    for n in range(1, max_period + 1 if nb > 1 else 2):
        least.append(nb**n - sum(least[d] for d in range(1, n // 2 + 1) if n % d == 0))
        bound += least[n]
        if bound > MAX_LIBRARY_WINDOWS:
            raise ValueError(f"the library of {m.name!r} at periods up to {max_period} may build "
                             f"more windows than the budget of {MAX_LIBRARY_WINDOWS} "
                             f"(MAX_LIBRARY_WINDOWS): the points of least period up to {n} "
                             f"number {bound}; lower max_period")
    return bound


def map_periodic_points(m, n):
    """All solutions of f^n(x) = x, one per admissible branch word.

    Convention: the orbit must respect the half-open branch domains
    [lo, hi) at every step (so domain right endpoints are excluded, and
    maps with countably many branches are restricted to their family's
    first ``ids``); a word's root is kept when its cylinder shows a sign change
    of f^n(x) - x or an exact root at an endpoint.  The half-open domains
    make each float root the root of one word.  Returns the roots,
    ascending, and their branch words (row i: the branches of roots[i],
    f(roots[i]), ... in the map's branch ids).
    """
    ids = np.array(m.family.ids, dtype=np.int64)
    # every word in lexicographic order: column k holds digit k of the index
    words = np.empty((ids.size**n, n), dtype=np.int64)
    rest = np.arange(ids.size**n, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        rest, digit = np.divmod(rest, ids.size)
        words[:, k] = ids[digit]
    roots, found = K.periodic_roots(m.family, words)
    words, roots = words[found], roots[found]
    x = roots
    good = np.ones(roots.shape, dtype=bool)
    for k in range(n):
        good &= K.branch_index_vec(m.family, x) == words[:, k]
        x = K.fwd_vec(m.family, words[:, k], x)
    order = np.flatnonzero(good)[np.argsort(roots[good], kind="stable")]
    return roots[order], words[order]


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


def growth_report(map_counts, counts, rho):
    """Map periodic counts vs symbolic closed-path counts, with slopes.

    ``map_counts[n - 1]`` is the number of period-n points of the map for
    n = 1..len(map_counts), as ``LibraryReport.map_counts`` records them;
    the rows stop there.  ``counts`` are the graph's closed-path counts
    [trace(A^1), ...], at least len(map_counts) of them, and ``rho`` its
    spectral radius; the entropy estimate is derived from the rows' counts.
    """
    counts = counts[:len(map_counts)]
    rows = [(n, mc, sc, (mc / sc) if sc else math.inf)
            for n, (mc, sc) in enumerate(zip(map_counts, counts), start=1)]
    flags = [] if any(counts) else ["symbolic counts are zero (empty or cycle-free graph)"]
    return GrowthReport(rows=rows, map_slope=_log_slope(map_counts),
                        symbolic_slope=_log_slope(counts),
                        entropy=gurevich_entropy(counts, rho), flags=flags)
