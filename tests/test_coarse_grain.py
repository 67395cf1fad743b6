import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import symdyn
from symdyn import cli
from symdyn import coarse_grain as cg
from symdyn import library
from symdyn import natural_extension as ne
from symdyn import pesin
from symdyn.config import RunConfig

from construction import (Chart, PesinParams, alphabet_vertices, digraphs, encode, make_window,
                          radius, random_library, successors, toy_graph, vertex_chart)
from oracles import (cover_id_reference, edge_test, full_ladder_alphabet, net_all_pairs,
                     overlap_clauses, overlap_test, strong_chain, strong_clauses,
                     strong_graph_all_pairs, strong_graph_backward, weak_edge_vertices,
                     weak_successors)

CHI2 = 0.5 * math.log(2.0)


@pytest.fixture(scope="module")
def doubling():
    return symdyn.built_in("doubling")


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(chi=CHI2, epsilon=0.1)


@pytest.fixture(scope="module")
def cyc(doubling):
    return ne.make_periodic_window(doubling, 1 / 6, [0, 1], 64, 40)


@pytest.fixture(scope="module")
def cyc3(doubling):
    # period-3 orbit of the doubling map: 1/14 -> 1/7 -> 2/7 -> (4/7 - 1/2 = 1/14)
    return ne.make_periodic_window(doubling, 1 / 14, [0, 0, 1], 64, 40)


@pytest.fixture(scope="module")
def alphabet(doubling, cfg, cyc, cyc3):
    samples = [cyc.shift(k) for k in range(2)] + [cyc3.shift(k) for k in range(3)]
    return cg.build_alphabet(doubling, samples, cfg)


@pytest.fixture(scope="module")
def graph(alphabet):
    return cg.build_graph(alphabet)


class _StubWindow:
    def __init__(self, val):
        self.val = val

    def x(self, n):
        return self.val

    @property
    def x0(self):
        return self.val


def _fake_chart(theta0, u, idx_p, eps=0.1, idxQ=0):
    """A formal chart for predicate unit tests (sizes on the I_eps grid)."""
    params = PesinParams(epsilon=eps, u=u, u_prev=u, idxQ=idxQ)
    return Chart(center=_StubWindow(theta0), shift=0, params=params, idx_p=idx_p)


# -- overlap ------------------------------------------------------------------

def test_overlap_self(alphabet):
    c = vertex_chart(alphabet, 0)
    assert overlap_test(c, c)


def test_overlap_ratio_clause():
    c1 = _fake_chart(0.3, 2.0, 100)
    c2 = _fake_chart(0.3, 2.0, 106)  # p1/p2 = e^{2 eps}
    assert not overlap_test(c1, c2)
    c3 = _fake_chart(0.3, 2.0, 103)  # exactly e^{eps}: inclusive
    assert overlap_test(c1, c3)


def test_overlap_boundary_strict():
    # centers at distance exactly (p1 p2)^4 with equal u: strictly fails
    i1 = i2 = 30
    eps = 0.1
    p = math.exp(-(eps / 3.0) * i1)
    d = (p * p) ** 4
    c1 = _fake_chart(0.3, 2.0, i1)
    c2 = _fake_chart(0.3 + d, 2.0, i2)
    assert abs(c1.theta0 - c2.theta0) > 0  # representable scale
    assert not overlap_test(c1, c2)
    c3 = _fake_chart(0.3 + d / 2, 2.0, i2)
    assert overlap_test(c1, c3)


def test_overlap_symmetry():
    import numpy as np
    rng = np.random.default_rng(8)
    for _ in range(100):
        c1 = _fake_chart(float(rng.uniform(0.2, 0.4)), float(rng.uniform(1.5, 3)),
                         int(rng.integers(20, 40)))
        c2 = _fake_chart(float(rng.uniform(0.2, 0.4)), float(rng.uniform(1.5, 3)),
                         int(rng.integers(20, 40)))
        assert overlap_test(c1, c2) == overlap_test(c2, c1)


def test_overlap_monotone_scaling():
    # if charts overlap at sizes (p1, p2), they overlap at (c p1, c p2), c > 1
    c1 = _fake_chart(0.3, 2.0, 40)
    c2 = _fake_chart(0.3 + 1e-30, 2.0, 41)
    assert overlap_test(c1, c2)
    for k in (3, 9, 30):
        s1 = _fake_chart(0.3, 2.0, 40 - k)
        s2 = _fake_chart(0.3 + 1e-30, 2.0, 41 - k)
        assert overlap_test(s1, s2)


def test_control_of_u_on_overlaps(alphabet):
    # Lemma overlap(1): u1/u2 = e^{+-(p1 p2)^3} for every overlapping pair
    vs = alphabet_vertices(alphabet)
    eps = alphabet.cfg.epsilon
    for i in range(0, len(vs), 7):
        for j in range(0, len(vs), 11):
            a, b = vs[i].chart, vs[j].chart
            if overlap_test(a, b):
                lr = abs(math.log(a.u) - math.log(b.u))
                thr = -(eps) * (a.idx_p + b.idx_p)  # log (p1 p2)^3
                assert cg.lt_log_threshold(lr, thr, strict=False)


# -- edges ---------------------------------------------------------------------

def test_edge_canonical_consecutive(doubling, cfg, cyc, alphabet):
    gpo, vids = encode(doubling, cyc, alphabet, cfg, lo=0, hi=6)
    for i in range(6):
        v = gpo.charts[i]
        w = gpo.charts[i + 1]
        assert edge_test(doubling, v, w, cfg, strong=True)
        assert edge_test(doubling, v, w, cfg, strong=False)  # strong => weak


def test_edge_grid_step_violation(doubling, cfg, cyc, alphabet):
    gpo, _ = encode(doubling, cyc, alphabet, cfg, lo=0, hi=2)
    v, w = gpo.charts[0], gpo.charts[1]
    w_bad = replace(w, idx_p=w.idx_p + 3)  # one grid step off (E2.3) equality
    assert not edge_test(doubling, v, w_bad, cfg, strong=True)
    assert edge_test(doubling, v, w_bad, cfg, strong=False)  # weak survives


def test_edge_mismatched_windows(doubling, cfg, cyc, cyc3, alphabet):
    g1, _ = encode(doubling, cyc, alphabet, cfg, lo=0, hi=1)
    g2, _ = encode(doubling, cyc3, alphabet, cfg, lo=0, hi=1)
    assert not edge_test(doubling, g1.charts[0], g2.charts[1], cfg, strong=True)
    assert not edge_test(doubling, g1.charts[0], g2.charts[1], cfg, strong=False)


# At size index 0 every grid threshold is exactly 1, so a clause can be
# driven onto its boundary with float data: the verdicts there pin the
# strictness of each clause of the oracle's real arithmetic, and of the
# (E2.1) and (E2.2) clauses ``build_graph`` evaluates.
OVERLAP_AT_BOUNDARY = [
    # (theta1, u1, i1, theta2, u2, i2), overlap
    ((1.0, 2.0, 0, 0.0, 2.0, 0), False),     # d = (p1 p2)^4: strict
    ((0.5, 2.0, 0, 0.0, 2.0, 0), True),
    ((0.0, 0.5, 0, 0.0, 1.0, 0), False),     # |1/u1 - 1/u2| = (p1 p2)^4
    ((0.3, 2.0, 0, 0.3, 2.0, 3), True),      # p1/p2 = e^eps: inclusive
    ((0.3, 2.0, 0, 0.3, 2.0, 4), False),
]


@pytest.mark.parametrize("args,want", OVERLAP_AT_BOUNDARY)
def test_overlap_clauses_on_their_boundary(args, want):
    assert overlap_clauses(*args, 0.1) is want


def _strong_at_boundary(cfg, **change):
    """(E1)-(E2.3) data at q = 1 that pass every clause, with ``change``."""
    data = dict(theta_prev_w=0.0, u_prev_w=2.0, idxQ_w=-3 - cfg.delta_index, theta0_w=0.0,
                u_w=1.0, ip=-3, theta0_v=0.0, u_v=2.0, theta1_v=0.0, u_next_v=1.0, iq=0)
    data.update(change)
    return data


E2_AT_BOUNDARY = [
    ({}, True),
    ({"theta1_v": 1.0}, False),              # (E2.1) d = q: strict
    ({"theta1_v": 0.75}, True),
    ({"u_next_v": math.e}, True),            # (E2.2) log of the ratio is q in floats
    ({"u_next_v": 3.0}, False),
]


@pytest.mark.parametrize("change,want", [
    E2_AT_BOUNDARY[0],
    ({"theta_prev_w": 1.0}, False),          # (E1) d = q^8: strict
    ({"theta_prev_w": 0.5}, True),
    *E2_AT_BOUNDARY[1:],
    ({"ip": -2}, False),                     # (E2.3) one grid step off
    ({"idxQ_w": -2 - RunConfig().delta_index}, False),
])
def test_edge_clauses_on_their_boundary(change, want):
    cfg = RunConfig(chi=CHI2, epsilon=0.1)
    assert strong_clauses(cfg, *_strong_at_boundary(cfg, **change).values()) is want


@pytest.mark.parametrize("change,want", E2_AT_BOUNDARY)
def test_e2_clauses_on_their_boundary(change, want):
    # (E1) and (E2.3) are build_graph's lookups; these two clauses it evaluates
    cfg = RunConfig(chi=CHI2, epsilon=0.1)
    d = _strong_at_boundary(cfg, **change)
    assert cg._edge_clauses(cfg, d["theta0_w"], d["u_w"], d["theta1_v"], d["u_next_v"],
                            d["iq"]) is want


@pytest.mark.parametrize("name,period", [("doubling", 4), ("tent", 4), ("quadratic", 4),
                                         ("gauss", 2)])
def test_net_and_graph_match_all_pairs_oracles(name, period):
    # the exact-key net and successor lookups miss no pair the written
    # clauses pass
    m = symdyn.built_in(name)
    cfg = RunConfig(map=name, max_period=period)
    windows = library.periodic_library(m, cfg).windows
    al = cg.build_alphabet(m, windows, cfg)
    assert [(c.gamma, c.key, c.j_bins, c.seen_q) for c in al.centers] == \
        net_all_pairs(m, windows, cfg)
    g = cg.build_graph(al)
    assert [successors(g, v) for v in range(g.n)] == strong_graph_all_pairs(al)


def test_exact_regime_refuses_thresholds_above_underflow():
    cfg = RunConfig(chi=CHI2, epsilon=0.1)
    cg._check_exact_regime(cfg, 100, 3000)      # logs -816 and -800: both underflow
    with pytest.raises(ValueError, match=r"the net's log e\^\{-8\(j\+2\)\} = -16\.0 is not"):
        cg._check_exact_regime(cfg, 0, 3000)
    with pytest.raises(ValueError, match=r"\(E1\)'s log \(p q\)\^4 = -8\.0 is not"):
        cg._check_exact_regime(cfg, 100, 30)


@pytest.mark.parametrize("j_min,iq_min,clause", [(100, 30000, "the net's"),
                                                 (1000, 3000, "(E1)'s")])
def test_exact_regime_is_strict(monkeypatch, j_min, iq_min, clause):
    # the largest threshold passes just below LOG_TINY and is refused at it
    cfg = RunConfig(chi=CHI2, epsilon=0.1)
    top = max(-8.0 * (j_min + 2), -(8.0 * cfg.epsilon / 3.0) * iq_min)
    monkeypatch.setattr(cg, "LOG_TINY", math.nextafter(top, 0.0))
    cg._check_exact_regime(cfg, j_min, iq_min)
    monkeypatch.setattr(cg, "LOG_TINY", top)
    with pytest.raises(ValueError, match=re.escape(clause)):
        cg._check_exact_regime(cfg, j_min, iq_min)


def test_alphabet_refused_at_its_largest_threshold(monkeypatch, tmp_path, capsys):
    # on the built-ins (E1) at the least chart size is the larger threshold
    m = symdyn.built_in("doubling")
    cfg = RunConfig(max_period=3)
    al = cg.build_alphabet(m, library.periodic_library(m, cfg).windows, cfg)
    top = -(8.0 * cfg.epsilon / 3.0) * min(al.vertices.idx_p.tolist())
    assert -8.0 * (min(min(c.j_bins) for c in al.centers) + 2) < top < cg.LOG_TINY
    monkeypatch.setattr(cg, "LOG_TINY", math.nextafter(top, 0.0))
    assert cli.main(["graph", "--max-period", "3", "--out", str(tmp_path / "a"),
                     "--quiet"]) == 0
    monkeypatch.setattr(cg, "LOG_TINY", top)
    assert cli.main(["graph", "--max-period", "3", "--out", str(tmp_path / "b"),
                     "--quiet"]) == 2
    assert "(E1)'s log (p q)^4" in json.loads(capsys.readouterr().err.splitlines()[-1])["detail"]


# -- alphabet -------------------------------------------------------------------

def test_alphabet_empty(doubling, cfg):
    al = cg.build_alphabet(doubling, [], cfg)
    assert al.centers == [] and len(al.vertices) == 0


def test_alphabet_duplicates_collapse(doubling, cfg, cyc):
    al1 = cg.build_alphabet(doubling, [cyc, cyc.shift(1)], cfg)
    al2 = cg.build_alphabet(doubling, [cyc, cyc, cyc.shift(1), cyc.shift(1)], cfg)
    assert len(al1.centers) == len(al2.centers) == 2


def test_alphabet_period2_two_center_classes(doubling, cfg, cyc):
    al = cg.build_alphabet(doubling, [cyc.shift(k) for k in range(2)], cfg)
    assert len(al.centers) == 2
    thetas = sorted(c.gamma.theta[1] for c in al.centers)
    assert thetas == sorted([cyc.x(0), cyc.x(1)])


def test_alphabet_order_invariance(doubling, cfg, cyc, cyc3):
    samples = [cyc.shift(k) for k in range(2)] + [cyc3.shift(k) for k in range(3)]
    al1 = cg.build_alphabet(doubling, samples, cfg)
    al2 = cg.build_alphabet(doubling, list(reversed(samples)), cfg)
    k1 = [(c.gamma.theta[1], c.gamma.idxQ, tuple(c.sizes)) for c in al1.centers]
    k2 = [(c.gamma.theta[1], c.gamma.idxQ, tuple(c.sizes)) for c in al2.centers]
    assert k1 == k2


def test_alphabet_skips_uncertified(doubling, cfg):
    # a window violating the chi-expansion certificate is counted, not added
    strong_cfg = RunConfig(chi=2.0, epsilon=0.1)
    w = ne.make_periodic_window(doubling, 1 / 6, [0, 1], 64, 40)
    al = cg.build_alphabet(doubling, [w], strong_cfg)
    assert al.skipped == 1 and not al.centers


def test_discreteness_enumeration_oracle(alphabet):
    # charts with log p > t sit in bins with j <= 2 - t, so the bins with
    # larger j can be skipped when enumerating them
    for c in alphabet.centers:
        assert c.cid in alphabet.bins[cg._net_key(c.gamma, c.key)]
    for t in (-1e9, -500.0, -390.0, -370.0):
        above = [v for v in alphabet_vertices(alphabet) if v.chart.log_p > t]
        for v in above:
            assert alphabet.centers[v.cid].key.j <= 2.0 - t


def test_strong_subset_weak(doubling, cfg, graph, alphabet):
    vertices = alphabet_vertices(alphabet)
    for vid, wid in zip(graph.src.tolist(), graph.succ.tolist()):
        assert weak_edge_vertices(cfg, vertices[vid], vertices[wid])


def test_graph_cycles(graph, alphabet):
    # the period-2 and period-3 orbits close into disjoint strong cycles
    pg, kept = cg.prune_relevant(graph)
    assert len(kept) == 5
    for v in kept:
        assert len(successors(pg, v)) == 1 and np.diff(pg.pred_start)[v] == 1


# -- pruning ---------------------------------------------------------------------

def test_prune_cycle_unchanged():
    g = toy_graph({0: [1], 1: [2], 2: [0]})
    pg, kept = cg.prune_relevant(g)
    assert kept == [0, 1, 2]
    assert successors(pg, 0) == [1]


def test_prune_dangling_chain():
    g = toy_graph({0: [1], 1: [2], 2: [0], 3: [4], 4: [0]})
    pg, kept = cg.prune_relevant(g)
    assert kept == [0, 1, 2]


def test_prune_empty():
    g = toy_graph({})
    pg, kept = cg.prune_relevant(g)
    assert kept == []


def _relevant(n, edges):
    """The vertices reached from a cycle that reach a cycle, by the boolean
    closure of the adjacency (paths of length >= 1)."""
    step = np.zeros((n, n), dtype=bool)
    for v, w in edges:
        step[v, w] = True
    reach = step.copy()
    while True:
        wider = reach | ((reach.astype(np.int64) @ step.astype(np.int64)) > 0)
        if (wider == reach).all():
            break
        reach = wider
    on_cycle = np.diag(reach)
    return np.flatnonzero(reach[on_cycle].any(axis=0) & reach[:, on_cycle].any(axis=1)).tolist()


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_prune_keeps_the_vertices_on_bi_infinite_paths(graph):
    n, edges = graph
    g = toy_graph({v: [w for u, w in sorted(edges) if u == v] for v in range(n)})
    pg, kept = cg.prune_relevant(g)
    assert kept == _relevant(n, edges) and pg.n == n
    assert list(zip(pg.src.tolist(), pg.succ.tolist())) == sorted(
        (v, w) for v, w in edges if v in kept and w in kept)


# -- sufficiency -----------------------------------------------------------------

def test_sufficiency_roundtrip_periodic(doubling, cfg, cyc, alphabet):
    gpo, vids = encode(doubling, cyc, alphabet, cfg, lo=-6, hi=8)
    assert strong_chain(doubling, gpo.charts, cfg)
    # periodic orbit -> periodic vertex sequence
    assert vids[0] == vids[2] == vids[4]
    assert vids[1] == vids[3]


def test_sufficiency_missing_bin(doubling, cfg, alphabet):
    w = make_window(doubling, 0.3017, [1, 0] * 16, fwd_len=8)
    with pytest.raises(cg.NoNetVertex):
        cg.sufficiency_encode(doubling, w, alphabet, cfg, lo=0, hi=4)


def test_cover_id_terminates_and_contains(doubling):
    xs = (0.01, 0.1, 0.2, 0.3, 0.49)
    for x, cid in zip(xs, doubling.cover_ids(xs).tolist()):
        level, idx = cid >> 32, cid & 0xFFFFFFFF
        lo, hi = doubling.domain
        h = (hi - lo) / (1 << level)
        z = lo + (idx + 0.5) * h
        assert abs(x - z) < 2.0 * radius(doubling, z)


def test_weak_successors_superset_of_strong(graph, alphabet, cfg):
    vertices = alphabet_vertices(alphabet)
    for vid in range(0, graph.n, 17):
        weak = set(weak_successors(graph, vid))
        assert set(successors(graph, vid)) <= weak
        for wid in weak:
            v, w = vertices[vid], vertices[wid]
            assert w.idx_p >= v.idx_p - 3  # (WE2) p <= e^eps q


# -- relevant core against the full CG2 ladder ------------------------------------

MAP_CFG = {
    "doubling": RunConfig(chi=CHI2, epsilon=0.1),
    "tent": RunConfig(chi=CHI2, epsilon=0.1),
    "quadratic": RunConfig(chi=0.1, epsilon=0.05),
    "gauss": RunConfig(chi=0.5, epsilon=0.1),
}


def _chart_key(chart):
    return (chart.center.record(), chart.shift, chart.idx_p)


def _edges(g, vids):
    key = {v: _chart_key(vertex_chart(g.alphabet, v)) for v in vids}
    return {(key[v], key[w]) for v in vids for w in successors(g, v) if w in key}


def _assert_closure_is_ladder_core(m, samples, cfg):
    """The closure alphabet is a forward-closed subset of the full CG2 ladder
    with the same strong edges between its charts and the same relevant
    core."""
    al = cg.build_alphabet(m, samples, cfg)
    full = full_ladder_alphabet(m, samples, cfg)
    for c in al.centers:
        for iq in c.seen_q:
            assert any(iq in cg._size_indices(cfg, j, c.gamma.idxQ) for j in c.j_bins)
    g, full_g = cg.build_graph(al), strong_graph_backward(full)
    inside = [full.vertex_index[key] for key in zip(al.vertices.cid.tolist(),
                                                    al.vertices.idx_p.tolist())]
    # every capped ladder chart is in the closure, and no strong edge leaves it
    closure = set(inside)
    for v in alphabet_vertices(full):
        if v.idx_p == cfg.delta_index + v.gamma.idxQ:
            assert v.vid in closure
    for v in closure:
        assert closure.issuperset(successors(full_g, v))
    assert _edges(g, range(len(al.vertices))) == _edges(full_g, inside)
    (pg, kept), (full_pg, full_kept) = cg.prune_relevant(g), cg.prune_relevant(full_g)
    core = [_chart_key(vertex_chart(al, v)) for v in kept]
    assert core == [_chart_key(vertex_chart(full, v)) for v in full_kept]
    assert _edges(pg, kept) == _edges(full_pg, full_kept)
    return core


@pytest.mark.parametrize("name,period", [("doubling", 4), ("tent", 4),
                                         ("quadratic", 3), ("gauss", 2)])
def test_closure_matches_full_ladder_periodic(name, period):
    m = symdyn.built_in(name)
    cfg = MAP_CFG[name]
    lib = library.periodic_library(m, replace(cfg, max_period=period, back_depth=40, fwd_len=40))
    assert _assert_closure_is_ladder_core(m, lib.windows, cfg)


def test_closure_matches_full_ladder_two_u_depths(doubling, cfg):
    # the union the double-coding audit codes over
    lib = library.periodic_library(doubling, replace(cfg, max_period=4, back_depth=40,
                                                     fwd_len=40))
    windows = [replace(w, u_depth=d) for d in (30, 34) for w in lib.windows]
    assert _assert_closure_is_ladder_core(doubling, windows, cfg)


@pytest.mark.parametrize("name", list(MAP_CFG))
def test_closure_matches_full_ladder_random_windows(name):
    m = symdyn.built_in(name)
    cfg = MAP_CFG[name]
    lib = random_library(m, cfg.chi, 100, back_depth=40, fwd_len=14, seed=2026)
    samples = [w.shift(k) for w in lib.windows for k in range(9)]
    _assert_closure_is_ladder_core(m, samples, cfg)


@pytest.mark.parametrize("name,period", [("doubling", 4), ("tent", 4),
                                         ("quadratic", 3), ("gauss", 2)])
def test_alphabet_tables_encode_like_window_tables(name, period):
    # the alphabet keeps the tables of each orbit's base window; clipped to
    # an encoding range they give the chain of that range's own tables
    m = symdyn.built_in(name)
    cfg = MAP_CFG[name]
    lib = library.periodic_library(m, replace(cfg, max_period=period, back_depth=40, fwd_len=40))
    al = cg.build_alphabet(m, lib.windows, cfg)
    groups = {}
    for w in lib.windows:
        groups.setdefault(id(w.points), []).append(w)
    assert [t.w for t in al.tables] == [min(g, key=lambda w: w.off) for g in groups.values()]
    encoded = 0
    for tabs in al.tables:
        for lo, hi in ((0, 12), (-4, 10), (0, 39)):
            try:
                own = cg.sufficiency_encode(m, tabs.w, al, cfg, lo=lo, hi=hi)
            except cg.NoNetVertex:
                with pytest.raises(cg.NoNetVertex):
                    cg.sufficiency_encode(m, tabs.w, al, cfg, lo=lo, hi=hi, tables=tabs)
                continue
            kept = encode(m, tabs.w, al, cfg, lo=lo, hi=hi, tables=tabs)
            assert kept[1] == own[0]
            assert kept[0].n_lo == own[1]
            assert strong_chain(m, kept[0].charts, cfg)
            encoded += 1
    assert encoded


@pytest.mark.parametrize("name", list(MAP_CFG))
def test_bin_keys_match_definitions(name):
    # distance bins from the tables' distances, cover bins from the batched scan
    m = symdyn.built_in(name)
    cfg = MAP_CFG[name]
    lib = random_library(m, cfg.chi, 20, back_depth=40, fwd_len=14, seed=7)
    al = cg.build_alphabet(m, [w.shift(k) for w in lib.windows for k in range(3)], cfg)
    assert al.centers
    for c in al.centers:
        theta = c.gamma.theta
        assert c.key.k == tuple(int(math.ceil(-math.log(m.singular_distance(t)))) - 1
                                for t in theta)
        assert c.key.a == tuple(cover_id_reference(m, t) for t in theta)


@pytest.mark.parametrize("name", list(MAP_CFG))
@pytest.mark.parametrize("count,seed", [(100, 2026), (20, 7)])
def test_random_windows_bin_over_their_whole_range(name, count, seed):
    # index k bins x_{k+1}, whose radius needs x_{k+2}: the tables stop at F - 2
    m, cfg = symdyn.built_in(name), MAP_CFG[name]
    lib = random_library(m, cfg.chi, count, back_depth=40, fwd_len=14, seed=seed)
    tables = [pesin.window_tables(m, w, cfg) for w in lib.windows]
    assert {t.hi for t in tables} == {12}
    for t in cg.bin_tables(m, tables):
        assert t.bins.keys() == set(range(t.lo, t.hi + 1))
