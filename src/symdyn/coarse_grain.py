"""Coarse graining: the discretized chart alphabet and the gpo graph.

Charts are binned by integer data (distance, u, cover element, Q and
q-size bins, all natural-e bins); inside a bin a greedy net admits a
center unless an already-admitted one matches it to within the net
thresholds.  Admitted centers spawn charts at the admissible grid sizes
reachable from the delta Q caps and the sampled greedy sizes under (E2.3).

The net's e^{-8(j+2)} and the (E1) overlap's (p q)^4 lie below the
smallest positive double, so only equal data pass them: both are decided
by exact keys, and ``build_alphabet`` refuses an alphabet on which they do
not underflow.  (E2.1) and (E2.2) are evaluated as written, in log space
beneath underflow; (E2.3) fixes the successor's size on the integer grid.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .analysis import Digraph
from .config import RunConfig
from .pesin import VertexTable, vertex_table, window_tables


class NoNetVertex(LookupError):
    """A shifted sample falls in a bin with no net representative."""


BinKey = namedtuple("BinKey", ["k", "l", "a", "m", "j"])

LOG_TINY = -1074 * math.log(2.0)  # log of the smallest positive double


def lt_log_threshold(value, log_thr, strict=True):
    """value < e^{log_thr} (or <=), usable when the threshold underflows."""
    if value == 0.0:
        return True
    thr = math.exp(log_thr) if log_thr < 700.0 else math.inf
    if thr > 0.0:
        return value < thr if strict else value <= thr
    lv = math.log(value)
    return lv < log_thr if strict else lv <= log_thr


@dataclass(frozen=True)
class Gamma:
    """Finitely many parameters of a window shift: coordinates, u and Q."""

    theta: tuple   # (x_{-1}, x_0, x_1)
    u: tuple       # (u(f^-1), u, u(f))
    idxQ: int


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

def _edge_clauses(cfg, theta0_w, u_w, theta1_v, u_next_v, iq):
    """(E2.1) and (E2.2) for the edge v <- w, v of size index iq; (E1) and
    (E2.3) are the lookups of ``_successors``."""
    # (E2.1) d(theta_1[y], theta_0[x]) < q
    if not lt_log_threshold(abs(theta1_v - theta0_w), cfg.grid_log(iq)):
        return False
    # (E2.2) u(f y)/u(x) = e^{+-q}
    return u_next_v == u_w or lt_log_threshold(abs(math.log(u_next_v / u_w)),
                                               cfg.grid_log(iq), strict=False)


def _successors(centers, e1_index, nd, gamma, iq):
    """(center id, size index) of the strong successors of a chart of size
    index iq with data gamma: (E1) where a center's pulled-back (theta_{-1},
    1/u_{-1}) equals its (theta_0, 1/u_0), (E2.3) at p = min(e^eps q, delta Q)."""
    for cid in e1_index.get((gamma.theta[1], 1.0 / gamma.u[1]), ()):
        yield cid, max(iq - 3, nd + centers[cid].gamma.idxQ)


# ---------------------------------------------------------------------------
# alphabet
# ---------------------------------------------------------------------------

@dataclass
class Center:
    cid: int
    window: object
    shift: int
    sample: object             # the sample window that admitted it
    gamma: Gamma
    key: BinKey
    j_bins: set
    seen_q: set = field(default_factory=set)  # greedy q indices seen in samples
    sizes: list = field(default_factory=list)


@dataclass
class Alphabet:
    cfg: RunConfig
    centers: list
    bins: dict                 # exact net key (``_net_key``) -> [cid], in admission order
    vertices: VertexTable      # the charts, row vid
    vertex_index: dict         # (cid, idx_p) -> vid
    e1_index: dict             # (theta_{-1}, 1/u_{-1}) -> [cid]: the exact (E1) successors
    skipped: int               # samples rejected by the certificate
    tables: list               # WindowTables of each orbit's base window, with bins


def _net_key(gamma, key):
    """The bin, coordinates and 1/u values: the data the net compares."""
    return key, gamma.theta, tuple(1.0 / u for u in gamma.u)


def find_center(centers, bins, gamma, key):
    """The first admitted center with gamma's exact net key whose Q is
    within one grid step (e^{+-eps/3}) of gamma's, or None."""
    for cid in bins.get(_net_key(gamma, key), ()):
        if abs(centers[cid].gamma.idxQ - gamma.idxQ) <= 1:
            return centers[cid]
    return None


def _check_exact_regime(cfg, j_min, iq_min):
    """ValueError unless the largest net and (E1) thresholds, e^{-8(j+2)}
    at the least q-size bin j_min and (q q)^4 at the least size index
    iq_min, lie below the smallest positive double: only then do exact
    keys decide them."""
    for clause, log_thr in (("the net's log e^{-8(j+2)}", -8.0 * (j_min + 2)),
                            ("(E1)'s log (p q)^4", -(8.0 * cfg.epsilon / 3.0) * iq_min)):
        if not log_thr < LOG_TINY:
            raise ValueError(f"{clause} = {log_thr!r} is not below LOG_TINY = {LOG_TINY!r}, "
                             f"the log of the smallest positive double: exact keys would "
                             f"miss the data it passes")


def _gamma_and_bin(tabs, k, theta, abins):
    """Net data and bin of index k, from its coordinates theta = (x_{k-1},
    x_k, x_{k+1}) and their cover ids."""
    u3 = (tabs.u[k - 1], tabs.u[k], tabs.u[k + 1])
    gamma = Gamma(theta=theta, u=u3, idxQ=tabs.idxQ[k])
    kbins = tuple(int(math.ceil(-math.log(tabs.dist[k + i]))) - 1 for i in (-1, 0, 1))
    lbins = tuple(int(math.floor(math.log(ui))) for ui in u3)
    mbin = int(math.ceil((tabs.cfg.epsilon / 3.0) * tabs.idxQ[k])) - 1
    return gamma, BinKey(k=kbins, l=lbins, a=abins, m=mbin, j=tabs.j_bin(k))


def bin_tables(m, tables):
    """The window tables with their bins: each index's (Gamma, BinKey) over
    the whole range of each certified table, kept once per phase of a
    periodic window (``WindowTables.bin_indices``); an uncertified table
    is returned as it is.

    The cover ids of every coordinate the bins read come from one
    ``MapModel.cover_ids`` call, which scans each distinct point once.
    """
    spans = [t.bin_indices() if t.certified else () for t in tables]
    coords = [[t.w.x(k + i) for k in ks for i in (-1, 0, 1)] for t, ks in zip(tables, spans)]
    ids = iter(m.cover_ids([x for c in coords for x in c]).tolist())
    out = []
    for t, ks, x in zip(tables, spans, coords):
        a = list(itertools.islice(ids, len(x)))
        out.append(t.with_bins([_gamma_and_bin(t, k, tuple(x[3 * j:3 * j + 3]),
                                               tuple(a[3 * j:3 * j + 3]))
                                for j, k in enumerate(ks)]) if t.certified else t)
    return out


def _size_indices(cfg, j, idxQ):
    """Grid indices allowed by (CG2): p in [e^{-j-2}, e^{-j+2}], p <= delta Q."""
    lo_idx = int(math.ceil(3.0 * (j - 2) / cfg.epsilon))
    hi_idx = int(math.floor(3.0 * (j + 2) / cfg.epsilon))
    return range(max(lo_idx, cfg.delta_index + idxQ), hi_idx + 1)


def build_alphabet(m, samples, cfg):
    """Discretize a library of certified windows into a chart alphabet.

    Each sample contributes its index-0 data; samples failing the
    expansion certificate are skipped and counted.  Samples are processed
    in serialized-key order so the greedy net is reproducible.  Chart sizes
    are the (E2.3) closure of each center's cap and sampled greedy sizes
    inside its CG2 windows; charts are numbered by center, sizes ascending.
    The tables of each group's base window (least offset) are kept on the
    alphabet, in sample order, for encoding those windows, with their bins;
    the charts are the rows of a vertex table (``pesin.vertex_table``).
    ValueError if the net or (E1) threshold does not underflow on the
    alphabet (``_check_exact_regime``).
    """
    groups = {}   # the shifted views of one window
    for w in samples:
        groups.setdefault((id(w.points), w.u_depth), []).append(w)
    tables = []
    entries = []  # (sort_key, table number, k, sample)
    skipped = 0
    for group in groups.values():
        base = min(group, key=lambda w: w.off)
        tabs = window_tables(m, base, cfg)
        for w in group:
            k = w.off - base.off
            if tabs.certified and tabs.lo <= k <= tabs.hi:
                entries.append((w.record(), len(tables), k, w))
            else:
                skipped += 1
        tables.append(tabs)
    tables = bin_tables(m, tables)
    entries.sort(key=lambda e: e[0])

    centers = []
    bins = {}
    for _, t, k, w in entries:
        tabs = tables[t]
        gamma, key = tabs.bins[k]
        hit = find_center(centers, bins, gamma, key)
        if hit is None:
            hit = Center(cid=len(centers), window=tabs.w, shift=k, sample=w, gamma=gamma,
                         key=key, j_bins=set())
            centers.append(hit)
            bins.setdefault(_net_key(gamma, key), []).append(hit.cid)
        hit.j_bins.add(key.j)
        hit.seen_q.add(tabs.idx_q[k])

    nd = cfg.delta_index
    e1_index = {}
    for c in centers:
        e1_index.setdefault((c.gamma.theta[0], 1.0 / c.gamma.u[0]), []).append(c.cid)

    def in_cg2(c, ip):
        return any(ip in _size_indices(cfg, j, c.gamma.idxQ) for j in c.j_bins)

    # Along a bi-infinite strong path the size index drops by exactly 3 per
    # step except where the delta Q cap binds (E2.3), and the CG2 windows
    # bound it above, so every vertex of such a path is reached forward from
    # a capped vertex of the same path: this closure holds the whole relevant
    # core of the full CG2 ladder.
    sizes = [set(c.seen_q) for c in centers]
    for c in centers:
        if in_cg2(c, nd + c.gamma.idxQ):
            sizes[c.cid].add(nd + c.gamma.idxQ)
    stack = [(cid, ip) for cid, ips in enumerate(sizes) for ip in ips]
    while stack:
        cid, iq = stack.pop()
        for wid, ip in _successors(centers, e1_index, nd, centers[cid].gamma, iq):
            if ip not in sizes[wid] and in_cg2(centers[wid], ip):
                sizes[wid].add(ip)
                stack.append((wid, ip))
    if centers:
        _check_exact_regime(cfg, min(min(c.j_bins) for c in centers), min(map(min, sizes)))

    cids, ips = [], []
    vertex_index = {}
    for c in centers:
        c.sizes = sorted(sizes[c.cid])
        for ip in c.sizes:
            vertex_index[(c.cid, ip)] = len(ips)
            cids.append(c.cid)
            ips.append(ip)
    return Alphabet(cfg=cfg, centers=centers, bins=bins,
                    vertices=vertex_table(centers, cids, ips, cfg), vertex_index=vertex_index,
                    e1_index=e1_index, skipped=skipped, tables=tables)


# ---------------------------------------------------------------------------
# the gpo graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GpoGraph(Digraph):
    """The strong edges between the alphabet's charts, as edge arrays.

    Edges follow shift order: an edge v -> w means the chart w may follow v
    in a gpo, i.e. the construction's v <- w.
    """

    alphabet: Alphabet


def build_graph(alphabet):
    """Materialize strong edges.

    A chart v of size q can be followed only by the charts ``_successors``
    names, which pass (E1) and (E2.3); an edge needs (E2.1) and (E2.2) too.
    """
    cfg, centers, table = alphabet.cfg, alphabet.centers, alphabet.vertices
    src, dst = [], []
    for vid, (cid, iq) in enumerate(zip(table.cid.tolist(), table.idx_p.tolist())):
        v = centers[cid].gamma
        for wcid, ip in _successors(centers, alphabet.e1_index, cfg.delta_index, v, iq):
            wid = alphabet.vertex_index.get((wcid, ip))
            if wid is None:
                continue
            w = centers[wcid].gamma
            if _edge_clauses(cfg, w.theta[1], w.u[1], v.theta[2], v.u[2], iq):
                src.append(vid)
                dst.append(wid)
    return GpoGraph.from_edges(len(table), src, dst, alphabet=alphabet)


def prune_relevant(g):
    """Keep exactly the vertices on some bi-infinite strong path.

    Repeatedly keeps the vertices with an in-edge and an out-edge among the
    kept ones (the finite-graph proxy for relevance) until none is dropped;
    returns (pruned graph, kept vertex ids).
    """
    alive = np.ones(g.n, dtype=bool)
    while True:
        live = alive[g.src] & alive[g.succ]
        keep = (alive & (np.bincount(g.src[live], minlength=g.n) > 0)
                & (np.bincount(g.succ[live], minlength=g.n) > 0))
        if (keep == alive).all():
            break
        alive = keep
    pruned = GpoGraph.from_edges(g.n, g.src[live], g.succ[live], alphabet=g.alphabet)
    return pruned, np.flatnonzero(alive).tolist()


# ---------------------------------------------------------------------------
# the canonical sufficiency encoding
# ---------------------------------------------------------------------------

def sufficiency_encode(m, w, alphabet, cfg, lo=None, hi=None, tables=None):
    """Encode a certified window as a chart chain over the alphabet: the
    vertex ids of its indices n_lo, n_lo + 1, ..., and n_lo.

    For each index the net representative of the shifted data is selected
    and the chart size follows the window-truncated greedy rule; which
    consecutive charts are strong edges is ``build_graph``'s to decide.
    The bins are read from ``tables`` (the alphabet's own, binned by
    ``build_alphabet``) or binned here, and each phase's representative is
    looked up once, by the greedy net's ``find_center``.
    """
    tabs = tables or bin_tables(m, [window_tables(m, w, cfg, lo=lo, hi=hi)])[0]
    if not tabs.certified:
        raise ValueError("window fails the expansion certificate")
    lo = tabs.lo if lo is None else max(lo, tabs.lo)
    hi = tabs.hi if hi is None else min(hi, tabs.hi)

    vids = []
    found = {}  # id of a bins entry -> its center; a phase's indices share one entry
    for n in range(lo, hi + 1):
        entry = tabs.bins[n]
        if id(entry) not in found:
            found[id(entry)] = find_center(alphabet.centers, alphabet.bins, *entry)
        center = found[id(entry)]
        if center is None:
            raise NoNetVertex(f"no net representative for index {n} (bin {entry[1]})")
        ip = tabs.idx_q[n]
        vid = alphabet.vertex_index.get((center.cid, ip))
        if vid is None:
            raise NoNetVertex(
                f"size index {ip} missing for center {center.cid} at index {n}")
        vids.append(vid)
    return vids, lo
