import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import symdyn
from symdyn import cli
from symdyn import coarse_grain as cg
from symdyn import markov_refine as mr
from symdyn import natural_extension as ne
from symdyn.config import RunConfig, parse_config

from construction import (EmptyCylinder, _cell_contains, _member_window, encode, fibres, hat_pi,
                          make_window, record_alphabets, windows_agree_reference)
from oracles import bracket_windows, signature_partition, strong_chain

CHI2 = 0.5 * math.log(2.0)


@pytest.fixture(scope="module")
def doubling():
    return symdyn.built_in("doubling")


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(chi=CHI2, epsilon=0.1)


@pytest.fixture(scope="module")
def fixture(doubling, cfg):
    """Alphabet + pruned graph over the period-2 and both period-3 orbits."""
    cycles = [
        ne.make_periodic_window(doubling, 1 / 6, [0, 1], 64, 40),
        ne.make_periodic_window(doubling, 1 / 14, [0, 0, 1], 64, 40),
        ne.make_periodic_window(doubling, 3 / 14, [0, 1, 1], 64, 40),
    ]
    samples = [c.shift(k) for c in cycles for k in range(c.period)]
    al = cg.build_alphabet(doubling, samples, cfg)
    g = cg.build_graph(al)
    pg, kept = cg.prune_relevant(g)
    return cycles, al, pg, kept


@pytest.fixture(scope="module")
def table(fixture):
    """The vertex table of the fixture's alphabet, the rows of its covers."""
    return fixture[1].vertices


@pytest.fixture(scope="module")
def cover(doubling, cfg, fixture):
    _, _, pg, _ = fixture
    rects, dropped = mr.build_cover(doubling, pg, replace(cfg, paths_per_vertex=3,
                                                          cover_window=10, seed=1))
    return rects, dropped


def test_cover_singleton_rectangles(cover, fixture):
    rects, dropped = cover
    _, _, pg, kept = fixture
    # every vertex on the disjoint cycles carries one shadowed point
    assert len(rects) == len(kept)
    assert all(len(r.points) == 1 for r in rects)


def test_cover_shadows_each_distinct_walk_once(doubling, cfg, fixture, cover, monkeypatch):
    # on disjoint cycles every walk through a vertex is the same walk
    _, _, pg, kept = fixture
    calls = []
    shadow_many = mr.sh.shadow_many

    def counting_shadow_many(m, table, walks, n_lo, c):
        calls.extend(walks.tolist())
        return shadow_many(m, table, walks, n_lo, c)

    monkeypatch.setattr(mr.sh, "shadow_many", counting_shadow_many)
    rects, dropped = mr.build_cover(doubling, pg, replace(cfg, paths_per_vertex=3,
                                                          cover_window=10, seed=1))
    assert len(calls) == len(set(map(tuple, calls))) == len(kept)
    assert dropped == cover[1]
    assert [(r.vid, len(r.points)) for r in rects] == [(r.vid, len(r.points)) for r in cover[0]]


def _cover_bits(result):
    rects, dropped = result
    return dropped, [(r.vid, [p.point.points.tobytes() for p in r.points]) for r in rects]


def test_cover_walks_once_where_no_walk_has_a_choice(doubling, cfg, fixture, cover, monkeypatch):
    # on disjoint cycles a back/forward pair draws nothing, so every later
    # pair would repeat it: one pair per core vertex, the same cover
    _, _, pg, kept = fixture
    starts = []
    walk = mr._walk

    def counting_walk(g, rng, vid, steps, direction):
        starts.append(vid)
        return walk(g, rng, vid, steps, direction)

    monkeypatch.setattr(mr, "_walk", counting_walk)
    got = mr.build_cover(doubling, pg, replace(cfg, paths_per_vertex=3, cover_window=10, seed=1))
    assert sorted(starts) == sorted(kept * 2)
    assert _cover_bits(got) == _cover_bits(cover)


def test_cover_draws_as_every_pair_would(doubling, cfg, fixture, monkeypatch):
    # a chord from one cycle to another gives the walks through its ends a
    # choice: stopping a vertex's walks at a pair that drew nothing leaves
    # the cover of walking all paths_per_vertex pairs
    _, _, pg, kept = fixture
    a = kept[0]
    b = next(v for v in kept if v not in pg.out_edges[a] and v != a)
    out_edges = [sorted(e + [b]) if v == a else list(e) for v, e in enumerate(pg.out_edges)]
    in_edges = [sorted(e + [a]) if v == b else list(e) for v, e in enumerate(pg.in_edges)]
    g = cg.GpoGraph(alphabet=pg.alphabet, out_edges=out_edges, in_edges=in_edges)
    c = replace(cfg, paths_per_vertex=4, cover_window=10, seed=5)
    starts, walks = [], []
    walk, shadow_many = mr._walk, mr.sh.shadow_many

    def counting_walk(*args):
        starts.append(args[2])
        return walk(*args)

    def recording_shadow_many(m, table, batch, n_lo, c):
        walks.append(batch.tolist())
        return shadow_many(m, table, batch, n_lo, c)

    monkeypatch.setattr(mr.sh, "shadow_many", recording_shadow_many)
    monkeypatch.setattr(mr, "_walk", counting_walk)
    ours = mr.build_cover(doubling, g, c)
    assert 2 * len(kept) < len(starts) < 8 * len(kept)
    monkeypatch.setattr(mr, "_walk", lambda *args: (walk(*args)[0], True))
    assert _cover_bits(ours) == _cover_bits(mr.build_cover(doubling, g, c))
    assert walks[0] == walks[1] and any(b in w and a in w for w in walks[0])


def test_cover_drops_only_core_vertices(doubling, cfg, fixture):
    # a chart off the cycles is a vertex without strong edges: it is not
    # sampled and not counted as dropped
    cycles, _, _, kept = fixture
    samples = [c.shift(k) for c in cycles for k in range(c.period)]
    stray = make_window(doubling, 0.1234567, [0, 1, 1, 0, 1, 0, 0, 1] * 8, 40)
    al = cg.build_alphabet(doubling, samples + [stray], cfg)
    pg, core = cg.prune_relevant(cg.build_graph(al))
    assert len(core) == len(kept) < pg.n_vertices()
    rects, dropped = mr.build_cover(doubling, pg, replace(cfg, paths_per_vertex=3,
                                                          cover_window=10, seed=1))
    assert dropped == 0 and [r.vid for r in rects] == core


def test_cover_samples_cycles_longer_than_the_window(doubling, cfg):
    # a hand-built pruned graph: the strong 5-cycle of the orbit of 1/62,
    # walked 3 steps each way, so no side of a walk repeats a vertex; every
    # core vertex still gets a rectangle
    cyc = ne.make_periodic_window(doubling, 1 / 62, [0, 0, 0, 0, 1], 64, 40)
    al = cg.build_alphabet(doubling, [cyc.shift(k) for k in range(5)], cfg)
    gpo, vids = encode(doubling, cyc, al, cfg, lo=0, hi=5)
    assert strong_chain(doubling, gpo.charts, cfg) and vids[5] == vids[0]
    cycle = vids[:5]
    assert len(set(cycle)) == 5
    out_edges = [[] for _ in range(len(al.vertices))]
    in_edges = [[] for _ in range(len(al.vertices))]
    for v, w in zip(cycle, vids[1:]):
        out_edges[v].append(w)
        in_edges[w].append(v)
    g = cg.GpoGraph(alphabet=al, out_edges=out_edges, in_edges=in_edges)
    rects, dropped = mr.build_cover(doubling, g, replace(cfg, paths_per_vertex=3,
                                                         cover_window=3, seed=1))
    assert dropped == 0
    assert [r.vid for r in rects] == sorted(cycle)
    assert all(len(r.points) == 1 for r in rects)


def test_refine_quadratic_short_cover_window(tmp_path):
    # walks of 3 steps each way repeat no vertex on most quadratic cycles;
    # every core vertex still gets a rectangle
    cfg = parse_config("map = quadratic\npaths_per_vertex = 6\ncover_window = 3\n")
    cli.run("refine", cfg, str(tmp_path), quiet=True)
    lines = (tmp_path / "markov.report").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[-1])
    assert (rec["rectangles"], rec["dropped"]) == (459, 0)
    kept = [ln for ln in (tmp_path / "graph.txt").read_text(encoding="utf-8").splitlines()
            if ln.startswith("V ")]
    assert len(kept) == rec["rectangles"]


def test_windows_agree_on_nan_signed_zero_and_range(doubling):
    w = make_window(doubling, 0.1234567, [0, 1, 1, 0, 1] * 4, 12)
    short = make_window(doubling, 0.1234567, [0, 1, 1, 0, 1] * 2, 15)

    def with_point(win, i, value):
        pts = win.points.copy()
        pts[win.off + i] = value
        return replace(win, points=pts)

    assert not windows_agree_reference(with_point(w, -1, math.nan), with_point(w, -1, math.nan))
    assert windows_agree_reference(with_point(w, 2, 0.0), with_point(w, 2, -0.0))
    # an explicit range outside either window raises, as x(n) does
    for depth, fwd in [(w.back_len + 1, 0), (0, w.fwd_len + 1), (short.back_len + 1, 0)]:
        with pytest.raises(IndexError):
            windows_agree_reference(w, short, depth, fwd)


def test_cover_containment(cover, table):
    # shadowing containment: zeroth coordinate inside the vertex chart
    rects, _ = cover
    for z in rects:
        for p in z.points:
            assert p.worst_containment <= 1.0 + 1e-9
            assert p.point.x0 == table.theta0[z.vid]  # desk-scale absorption


def test_fibres_stable_same_x0(cover, table):
    rects, _ = cover
    z = rects[0]
    fd = fibres(table, z, 0)
    assert fd.in_stable(z.points[0].point)


def test_fibres_unstable_membership(cover, table):
    rects, _ = cover
    z = rects[0]
    fd = fibres(table, z, 0)
    assert fd.in_unstable(z.points[0].point)


def test_fibres_disjoint_across_orbits(cover, table):
    rects, _ = cover
    a, b = rects[0], rects[-1]
    if a.points[0].point.x0 != b.points[0].point.x0:
        fa = fibres(table, a, 0)
        assert not fa.in_stable(b.points[0].point)


@pytest.mark.parametrize("which", ["cover", "twin"])
def test_fibre_columns_match_the_descriptors(which, cover, twin_cover, table):
    """The fibre columns of ``point_classes`` decide each stable and unstable
    membership of every pair of points, and the unstable membership of the
    backward shift of the second, as the scalar descriptors do."""
    rects = cover[0] if which == "cover" else twin_cover[1]
    fib = mr.point_classes(table, rects).fibres
    refs = [(i, pi) for i, z in enumerate(rects) for pi in range(len(z.points))]
    a, b = np.divmod(np.arange(len(refs) ** 2), len(refs))
    rect = np.array([i for i, _ in refs])[a]
    stable = fib.x0[b] == fib.x0[a]
    unstable = (fib.word[b] == fib.word[a]) & mr._in_chart(fib, rect, fib.x0[b])
    back = (fib.word_tail[b] == fib.word_head[a]) & mr._in_chart(fib, rect, fib.x_back[b])
    for k, (ia, ib) in enumerate(zip(a.tolist(), b.tolist())):
        fd = fibres(table, rects[refs[ia][0]], refs[ia][1])
        q = _member_window(rects, refs[ib])
        assert (stable[k], unstable[k], back[k]) == (
            fd.in_stable(q), fd.in_unstable(q), fd.in_unstable(q.shift(-1)))
    assert stable.sum() >= len(refs) and back.any()


def test_in_chart_is_the_threshold_test():
    # e^{log 100p} underflows at the first two sizes and overflows at the last
    log_size = [-800.0, -745.5, -20.0, 710.0]
    xs = [0.0, -0.0, 5e-324, 1e-320, math.exp(-745.5), 1e-300, math.exp(-20.0), 1.0,
          math.inf, math.nan]
    fib = mr.Fibres(*[None] * 7, theta0=np.full(4, 0.25), u=np.full(4, 3.0),
                    size=np.array([math.exp(t) if t < 700.0 else math.inf for t in log_size]),
                    log_size=np.array(log_size))
    r, x = (g.ravel() for g in np.meshgrid(np.arange(4), 0.25 + np.array(xs) / 3.0))
    want = [cg.lt_log_threshold(abs(xv - 0.25) * 3.0, log_size[rv], strict=False)
            for rv, xv in zip(r.tolist(), x.tolist())]
    assert mr._in_chart(fib, r, x).tolist() == want


def _refined(table, rects):
    """The cells and refined graph of a cover of rows of the VertexTable
    ``table``, from its one point-class table."""
    pc = mr.point_classes(table, rects)
    cells = mr.refine(rects, pc)
    return cells, mr.hat_graph(rects, cells, pc)


def test_refine_disjoint_cover_is_identity(cover, table):
    rects, _ = cover
    cells = mr.refine(rects, mr.point_classes(table, rects))
    assert len(cells) == len(rects)
    for c in cells:
        assert len(c.members) == 1


def test_refine_matches_brute_force(cover, table):
    rects, _ = cover
    cells = mr.refine(rects, mr.point_classes(table, rects))
    ours = sorted(sorted(c.members) for c in cells)
    oracle = signature_partition(table, rects)
    assert ours == oracle


def test_refine_empty(table):
    assert mr.refine([], mr.point_classes(table, [])) == []


@pytest.fixture(scope="module")
def twin_cover(doubling, cfg, fixture):
    """A cover whose first three rectangles are repeated: Z_i = Z_j."""
    _, _, pg, _ = fixture
    rects, _ = mr.build_cover(doubling, pg, replace(cfg, paths_per_vertex=2,
                                                    cover_window=10, seed=3))
    return rects, rects + [mr.Rectangle(vid=r.vid, points=r.points) for r in rects[:3]]


def test_refine_overlapping_rectangles_against_oracle(twin_cover, table):
    # force nontrivial signatures: duplicate a rectangle so Z_i = Z_j
    rects, doubled = twin_cover
    cells, tg = _refined(table, doubled)
    ours = sorted(sorted(c.members) for c in cells)
    assert ours == signature_partition(table, doubled)
    # shared points produce 'su' signatures against the twin rectangle
    twin_sigs = [dict(c.signature) for c in cells if c.rect == 0]
    assert any(sig.get((0, len(rects))) == "su" for sig in twin_sigs)
    # a twinned cell lies in its rectangle and the twin, any other in one
    over = mr.audits(tg).rects_over_cell
    for c in cells:
        assert over[c.cell_id] == (2 if c.rect < 3 or c.rect >= len(rects) else 1)


def _other_word(res):
    """A shadow result with res's coordinates and another oldest branch."""
    w = res.point
    bids = w.branch_ids.copy()
    bids[0] = 1 - bids[0]
    return replace(res, point=replace(w, branch_ids=bids))


@pytest.mark.parametrize("which", ["cover", "twin", "other-word"])
def test_refine_signatures_match_the_descriptors(which, cover, twin_cover, table):
    # each cell's signature is its members' classification by the scalar
    # descriptors; on "other-word" a point and a copy with another backward
    # word share their s-fibres but not their u-fibres
    rects = cover[0] if which == "cover" else twin_cover[1]
    if which == "other-word":
        z = rects[0]
        rects = rects + [replace(z, points=[_other_word(p) for p in z.points])]
    pc = mr.point_classes(table, rects)
    cells = mr.refine(rects, pc)
    types = set()
    for c in cells:
        for i, pi in c.members:
            fd = fibres(table, rects[i], pi)
            want = tuple(((i, j), ("s" if any(fd.in_stable(q.point) for q in rects[j].points)
                                   else "0") +
                          ("u" if any(fd.in_unstable(q.point) for q in rects[j].points)
                           else "0"))
                         for j in pc.met[i])
            assert c.signature == want
            types.update(t for _, t in want)
    assert types == ({"su", "s0"} if which == "other-word" else {"su"})


def test_hat_graph_cycles(doubling, cfg, cover, table):
    rects, _ = cover
    cells, tg = _refined(table, rects)
    # disjoint orbit cycles: every cell has exactly one successor
    for c in cells:
        assert len(tg.out_edges[c.cell_id]) == 1
    # and the 2-cycle closes in two steps
    two = [c.cell_id for c in cells
           if abs(_member_window(rects, c.members[0]).x0 - 1 / 6) < 1e-9]
    nxt = tg.out_edges[two[0]][0]
    assert tg.out_edges[nxt][0] == two[0]


def test_hat_graph_self_loop_fixed_point(cfg):
    m = symdyn.built_in("tent")
    w = ne.make_periodic_window(m, 1 / 3, [1], 64, 40)
    al = cg.build_alphabet(m, [w.shift(k) for k in range(w.period)], cfg)
    pg, _ = cg.prune_relevant(cg.build_graph(al))
    rects, _ = mr.build_cover(m, pg, replace(cfg, paths_per_vertex=2, cover_window=8, seed=1))
    cells, tg = _refined(al.vertices, rects)
    # the float 2-cycle of the fixed point: a 2-cycle (or self-loop) exists
    cid = cells[0].cell_id
    reach = tg.out_edges[cid][0]
    assert cid in tg.out_edges[reach]


def test_hat_pi_constant_path(doubling, cfg, cover, table):
    rects, _ = cover
    cells, tg = _refined(table, rects)
    c0 = cells[0].cell_id
    path = [c0]
    for _ in range(6):
        path.append(tg.out_edges[path[-1]][0])
    w, diams = hat_pi(tg, path, n_lo=0)
    assert diams[-1] == 0.0
    assert _cell_contains(rects, cells[c0], w)


def test_hat_pi_period2(doubling, cfg, cover, table):
    rects, _ = cover
    cells, tg = _refined(table, rects)
    two = [c.cell_id for c in cells
           if abs(_member_window(rects, c.members[0]).x0 - 1 / 6) < 1e-9]
    c0 = two[0]
    c1 = tg.out_edges[c0][0]
    w, diams = hat_pi(tg, [c0, c1, c0, c1, c0], n_lo=-2)
    assert w.x(0) == pytest.approx(1 / 6, abs=1e-12) or \
        w.x(0) == pytest.approx(1 / 3, abs=1e-12)


def test_hat_pi_inadmissible(doubling, cfg, cover, table):
    rects, _ = cover
    cells, tg = _refined(table, rects)
    c0 = cells[0].cell_id
    bad = next(c.cell_id for c in cells if c.cell_id not in tg.out_edges[c0])
    with pytest.raises(ValueError):
        hat_pi(tg, [c0, bad])


def test_hat_pi_empty_cylinder():
    # an artificial adjacency not backed by samples dies in the chase
    m = symdyn.built_in("doubling")
    cfg = RunConfig(chi=CHI2, epsilon=0.1)
    c2 = ne.make_periodic_window(m, 1 / 6, [0, 1], 64, 40)
    c3 = ne.make_periodic_window(m, 1 / 14, [0, 0, 1], 64, 40)
    samples = [c2.shift(k) for k in range(2)] + [c3.shift(k) for k in range(3)]
    al = cg.build_alphabet(m, samples, cfg)
    pg, _ = cg.prune_relevant(cg.build_graph(al))
    rects, _ = mr.build_cover(m, pg, replace(cfg, paths_per_vertex=2, cover_window=8, seed=1))
    cells, tg = _refined(al.vertices, rects)
    a = cells[0].cell_id
    b = next(c.cell_id for c in cells if c.cell_id not in tg.out_edges[a])
    tg.out_edges[a] = sorted(tg.out_edges[a] + [b])  # forged edge
    with pytest.raises(EmptyCylinder):
        hat_pi(tg, [a, b])


def test_audits_pass_on_doubling_fixture(doubling, cfg, cover, table):
    rects, _ = cover
    cells, tg = _refined(table, rects)
    rep = mr.audits(tg)
    assert rep.passed
    assert rep.markov_checked > 0 and rep.markov_failures == 0
    assert all(c == 1 for c in rep.intersection_counts)  # disjoint cover
    assert rep.preimage_max <= rep.preimage_bound_max
    assert max(rep.refined_in_rect.values()) < math.inf  # local finiteness counts
    assert rep.lines()


def test_compatibility_of_brackets_across_edges(doubling, cfg, cover):
    # f-image of a bracket equals the bracket of the f-images, on sampled
    # pairs of each rectangle across shift edges
    rects, _ = cover
    checked = 0
    for z in rects[:8]:
        for p in z.points:
            for q in z.points:
                w = bracket_windows(doubling, p.point, q.point)
                lhs = w.shift(1)
                rhs = bracket_windows(doubling, p.point.shift(1),
                                      q.point.shift(1))
                for n in range(-min(lhs.back_len, rhs.back_len), 1):
                    assert lhs.x(n) == rhs.x(n)
                checked += 1
    assert checked > 0


def test_hat_pi_odd_anchor_alignment(doubling, cfg):
    # a period-3 cycle with an odd n_lo exposes the candidate anchoring:
    # the projected point's coordinate at index 0 must belong to the cell
    # sitting at path position -n_lo
    c3 = ne.make_periodic_window(doubling, 1 / 14, [0, 0, 1], 64, 40)
    al = cg.build_alphabet(doubling, [c3.shift(k) for k in range(3)], cfg)
    pg, _ = cg.prune_relevant(cg.build_graph(al))
    rects, _ = mr.build_cover(doubling, pg, replace(cfg, paths_per_vertex=2,
                                                    cover_window=9, seed=2))
    cells, tg = _refined(al.vertices, rects)
    start = cells[0].cell_id
    path = [start]
    for _ in range(6):
        path.append(tg.out_edges[path[-1]][0])
    for n_lo in (0, -1, -3):
        w, diams = hat_pi(tg, path, n_lo=n_lo)
        anchor_cell = tg.cells[path[-n_lo]]
        assert _cell_contains(rects, anchor_cell, w)
        # and the shift by n_lo + i sits in every path cell
        for i, cid in enumerate(path):
            assert _cell_contains(rects, tg.cells[cid], w.shift(n_lo + i))


def _pipeline_cover(monkeypatch, tmp_path, text):
    """The cover a ``refine`` run samples under the config ``text``, and the
    vertex table of its rows."""
    covers = []
    refine = mr.refine
    alphabets = record_alphabets(monkeypatch)

    def keep(cover, classes):
        covers.append(cover)
        return refine(cover, classes)

    monkeypatch.setattr(mr, "refine", keep)
    cli.run("refine", parse_config(text), str(tmp_path), quiet=True)
    (al,) = alphabets.values()
    return covers[0], al.vertices


def _with_point(res, i, value):
    w = res.point
    pts = w.points.copy()
    pts[w.off + i] = value
    return replace(res, point=replace(w, points=pts))


@pytest.mark.parametrize("name", ["doubling-max_period-10", "quadratic", "twin", "signed-zero"])
def test_point_classes_match_windows_agree(name, cover, twin_cover, table, monkeypatch, tmp_path):
    if name == "doubling-max_period-10":
        rects, table = _pipeline_cover(monkeypatch, tmp_path, "map = doubling\nmax_period = 10")
    elif name == "quadratic":
        rects, table = _pipeline_cover(monkeypatch, tmp_path, "map = quadratic")
    elif name == "twin":
        rects = twin_cover[1]
    else:
        # two points apart only in the sign of a zero coordinate, whose
        # shifts land on q; and q with a NaN, which agrees with nothing,
        # itself included, though its shift-side coordinates still match
        z = cover[0][0]
        p = z.points[0]
        y = next(y for y in cover[0] if windows_agree_reference(y.points[0].point, p.point.shift(1)))
        q, n = y.points[0], p.point.back_len
        rects = [replace(z, points=[_with_point(p, -n, 0.0), _with_point(p, -n, -0.0)]),
                 replace(y, points=[q, _with_point(q, n, math.nan)])]
    pc = mr.point_classes(table, rects)
    refs = [(i, pi) for i, z in enumerate(rects) for pi in range(len(z.points))]
    windows = [rects[i].points[pi].point for i, pi in refs]
    shifted = [w.shift(1) for w in windows]
    assert list(pc.cls) == list(pc.head) == list(pc.shift) == refs
    # windows_agree compares ranges holding index 0, so a pair whose zeroth
    # coordinates differ never agrees: the table must separate every such
    # pair, and windows_agree decides every other pair
    x0 = np.array([w.x0 for w in windows])
    x1 = np.array([w.x0 for w in shifted])
    cls = np.array([-1 if c is None else c for c in pc.cls.values()])
    head = np.array([-1 if c is None else c for c in pc.head.values()])
    shift = np.array([-2 if c is None else c for c in pc.shift.values()])
    assert not ((x0[:, None] != x0[None, :]) & (cls[:, None] == cls[None, :]) & (cls >= 0)).any()
    assert not ((x1[:, None] != x0[None, :]) & (shift[:, None] == head[None, :])).any()
    agreed = shift_hits = 0
    for a, b in itertools.product(range(len(refs)), repeat=2):
        ra, rb = refs[a], refs[b]
        if x0[a] == x0[b]:
            same = windows_agree_reference(windows[a], windows[b])
            assert same == (pc.cls[ra] is not None and pc.cls[ra] == pc.cls[rb])
            agreed += same
        if x1[a] == x0[b]:
            lands = windows_agree_reference(windows[b], shifted[a])
            assert lands == (pc.shift[ra] is not None and pc.shift[ra] == pc.head[rb])
            shift_hits += lands
    assert agreed >= len(refs) - (name == "signed-zero") and shift_hits > 0
    if name == "signed-zero":
        assert pc.cls[0, 0] == pc.cls[0, 1] and pc.cls[1, 1] is None
        assert pc.shift[0, 0] == pc.shift[0, 1] == pc.head[1, 0] == pc.head[1, 1]


def test_point_classes_need_one_span(cover, table, doubling, cfg, fixture):
    _, _, pg, _ = fixture
    other, _ = mr.build_cover(doubling, pg, replace(cfg, paths_per_vertex=3,
                                                    cover_window=8, seed=1))
    with pytest.raises(ValueError, match="one span"):
        mr.point_classes(table, cover[0][:1] + other[:1])
    assert mr.point_classes(table, []).cls == {}


def test_hat_pi_lets_unexpected_shift_errors_through(cover, table, monkeypatch):
    # only a window that runs out or meets a singular point drops a candidate
    rects, _ = cover
    cells, tg = _refined(table, rects)
    c0 = cells[0].cell_id

    def broken_shift(self, k):
        raise TypeError("not a shift failure")

    monkeypatch.setattr(ne.OrbitWindow, "shift", broken_shift)
    with pytest.raises(TypeError, match="not a shift failure"):
        hat_pi(tg, [c0, tg.out_edges[c0][0]], n_lo=-1)
