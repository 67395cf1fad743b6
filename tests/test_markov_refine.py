import itertools
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import symdyn
from symdyn import cli
from symdyn import coarse_grain as cg
from symdyn import markov_refine as mr
from symdyn import natural_extension as ne
from symdyn.config import RunConfig, parse_config

from construction import (EmptyCylinder, _cell_contains, cover_of, encode, fibres, hat_pi,
                          make_window, record_alphabets, rectangles, row_window,
                          windows_agree_reference)
from oracles import bracket_windows, pseudo_window_reference, signature_partition, strong_chain

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


def _sizes(rects):
    return np.diff(rects.start).tolist()


def test_cover_singleton_rectangles(cover, fixture):
    rects, dropped = cover
    _, _, pg, kept = fixture
    # every vertex on the disjoint cycles carries one shadowed point
    assert len(rects) == len(kept)
    assert _sizes(rects) == [1] * len(kept)


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
    assert rects.vid.tolist() == cover[0].vid.tolist()
    assert _sizes(rects) == _sizes(cover[0])


def _cover_bits(result):
    rects, dropped = result
    return (dropped, rects.back_len,
            *(a.dtype.str + a.tobytes().hex() for a in (rects.vid, rects.start, rects.points,
                                                         rects.branches)))


def _assert_first_copies(m, got, dropped, shadows, window):
    """The cover ``got`` (with its dropped count) is the independent reading
    of its shadowed walks, the Shadows table ``shadows``: per core vertex,
    ascending, the points of its unbroken walks less each whose window
    agrees (windows_agree) with an earlier one, bit for bit; a NaN point
    agrees with none, so every one is kept.  Returns the rows and the
    unbroken walks."""
    vertex = shadows.walks[:, window].tolist()
    kept = {}
    for k, v in enumerate(vertex):
        if k in shadows.broken:
            continue
        point = pseudo_window_reference(m, shadows.points[k], shadows.branches[k], window)
        firsts = kept.setdefault(v, [])
        if not any(windows_agree_reference(x, point) for x in firsts):
            firsts.append(point)
    want = [x for v in sorted(kept) for x in kept[v]]
    assert dropped == len(set(vertex)) - len(kept)
    assert got.vid.tolist() == sorted(kept) and got.back_len == window
    assert _sizes(got) == [len(kept[v]) for v in sorted(kept)]
    assert got.points.tobytes() == np.array([x.points for x in want]).tobytes()
    assert got.branches.tobytes() == np.array([x.branch_ids for x in want]).tobytes()
    return len(want), len(shadows) - len(shadows.broken)


@pytest.mark.parametrize("text", ["map = doubling\nmax_period = 10",
                                  "map = quadratic\npaths_per_vertex = 6\ncover_window = 3"],
                         ids=["doubling-max_period-10", "quadratic-cover_window-3"])
def test_cover_rows_are_the_first_copies_of_the_shadowed_points(text, monkeypatch, tmp_path):
    calls, covers = [], []
    shadow_many, build_cover = mr.sh.shadow_many, mr.build_cover

    def recording_shadow_many(*args):
        calls.append(shadow_many(*args))
        return calls[-1]

    def recording_build_cover(*args):
        covers.append(build_cover(*args))
        return covers[-1]

    monkeypatch.setattr(mr.sh, "shadow_many", recording_shadow_many)
    monkeypatch.setattr(mr, "build_cover", recording_build_cover)
    cfg = parse_config(text)
    cli.run("refine", cfg, str(tmp_path), quiet=True)
    (shadows,), ((got, dropped),) = calls, covers
    # these pruned graphs are unions of cycles: one walk per core vertex
    rows, shadowed = _assert_first_copies(symdyn.built_in(cfg.map), got, dropped, shadows,
                                          cfg.cover_window)
    assert rows == shadowed == len(shadows)


def _chorded(pg, kept):
    """The pruned graph with a chord from one cycle to another, which gives
    the walks through its ends a choice, and the chord's ends."""
    a = kept[0]
    b = next(v for v in kept if v not in pg.out_edges[a] and v != a)
    out_edges = [sorted(e + [b]) if v == a else list(e) for v, e in enumerate(pg.out_edges)]
    in_edges = [sorted(e + [a]) if v == b else list(e) for v, e in enumerate(pg.in_edges)]
    return cg.GpoGraph(alphabet=pg.alphabet, out_edges=out_edges, in_edges=in_edges), a, b


def test_cover_keeps_the_first_copy_of_a_point_and_every_nan(doubling, cfg, fixture,
                                                              monkeypatch):
    # distinct walks of one vertex that shadow to one point: every walk of a
    # vertex with an unbroken one shadows to a copy of its first, every
    # second copy with a NaN; and the last walk to the first point, which
    # its rectangle keeps as well
    g, _, _ = _chorded(fixture[2], fixture[3])
    calls = []
    shadow_many = mr.sh.shadow_many

    def copying_shadow_many(m, table, walks, n_lo, c):
        shadows = shadow_many(m, table, walks, n_lo, c)
        vertex = walks[:, -n_lo].tolist()
        first = {}
        for k, v in enumerate(vertex):
            if k not in shadows.broken:
                first.setdefault(v, k)
        # the row each row copies
        src = np.array([first.get(v, k) for k, v in enumerate(vertex)])
        src[-1] = next(iter(first.values()))
        cols = {f: getattr(shadows, f)[src]
                for f in ("points", "branches", "tau0", "log_p0", "log_err", "worst")}
        nan = np.array([v in first and k % 2 == 0 for k, v in enumerate(vertex)])
        nan[-1] = False
        cols["points"][nan, 0] = math.nan
        calls.append(replace(shadows, **cols,
                             broken={k: e for k, e in shadows.broken.items() if src[k] == k}))
        return calls[-1]

    monkeypatch.setattr(mr.sh, "shadow_many", copying_shadow_many)
    c = replace(cfg, paths_per_vertex=4, cover_window=10, seed=5)
    got, dropped = mr.build_cover(doubling, g, c)
    (shadows,) = calls
    rows, shadowed = _assert_first_copies(doubling, got, dropped, shadows, c.cover_window)
    nan_rows = np.isnan(got.points).any(axis=1)
    assert rows < shadowed and np.bincount(got.rect()[nan_rows]).max() > 1


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
    g, a, b = _chorded(pg, kept)
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
    assert dropped == 0 and rects.vid.tolist() == core


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
    assert rects.vid.tolist() == sorted(cycle)
    assert _sizes(rects) == [1] * 5


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


def test_cover_containment(doubling, cfg, fixture, cover, table, monkeypatch):
    # shadowing containment, and the zeroth coordinate of every row is its
    # rectangle's chart center (desk-scale absorption)
    calls = []
    shadow_many = mr.sh.shadow_many

    def recording_shadow_many(*args):
        calls.append(shadow_many(*args))
        return calls[-1]

    monkeypatch.setattr(mr.sh, "shadow_many", recording_shadow_many)
    mr.build_cover(doubling, fixture[2], replace(cfg, paths_per_vertex=3, cover_window=10,
                                                 seed=1))
    (shadows,) = calls
    assert len(shadows) and not shadows.broken and np.all(shadows.worst <= 1.0 + 1e-9)
    rects, _ = cover
    assert np.array_equal(rects.points[:, rects.back_len], table.theta0[rects.vid[rects.rect()]])


def test_fibres_stable_same_x0(doubling, cover, table):
    rects, _ = cover
    assert fibres(table, rects, 0).in_stable(row_window(doubling, rects, 0))


def test_fibres_unstable_membership(doubling, cover, table):
    rects, _ = cover
    assert fibres(table, rects, 0).in_unstable(row_window(doubling, rects, 0))


def test_fibres_disjoint_across_orbits(doubling, cover, table):
    rects, _ = cover
    a, b = 0, rects.start[-2]
    if rects.points[a, rects.back_len] != rects.points[b, rects.back_len]:
        assert not fibres(table, rects, a).in_stable(row_window(doubling, rects, b))


@pytest.mark.parametrize("which", ["cover", "twin"])
def test_fibre_columns_match_the_descriptors(which, doubling, cover, twin_cover, table):
    """The fibre columns of ``point_classes`` decide each stable and unstable
    membership of every pair of rows, and the unstable membership of the
    backward shift of the second, as the scalar descriptors do."""
    rects = cover[0] if which == "cover" else twin_cover[1]
    pc = mr.point_classes(table, rects)
    k, n = len(rects.points), rects.back_len
    x_back, x0 = rects.points[:, n - 1], rects.points[:, n]
    a, b = np.divmod(np.arange(k ** 2), k)
    rect = rects.rect()[a]
    stable = x0[b] == x0[a]
    unstable = (pc.word[b] == pc.word[a]) & mr._in_chart(pc, rect, x0[b])
    back = (pc.word_tail[b] == pc.word_head[a]) & mr._in_chart(pc, rect, x_back[b])
    windows = [row_window(doubling, rects, q) for q in range(k)]
    for t, (qa, qb) in enumerate(zip(a.tolist(), b.tolist())):
        fd, w = fibres(table, rects, qa), windows[qb]
        assert (stable[t], unstable[t], back[t]) == (
            fd.in_stable(w), fd.in_unstable(w), fd.in_unstable(w.shift(-1)))
    assert stable.sum() >= k and back.any()


def test_in_chart_is_the_threshold_test():
    # e^{log 100p} underflows at the first two sizes and overflows at the last
    log_size = [-800.0, -745.5, -20.0, 710.0]
    xs = [0.0, -0.0, 5e-324, 1e-320, math.exp(-745.5), 1e-300, math.exp(-20.0), 1.0,
          math.inf, math.nan]
    columns = SimpleNamespace(theta0=np.full(4, 0.25), u=np.full(4, 3.0),
                              size=np.array([math.exp(t) if t < 700.0 else math.inf
                                             for t in log_size]),
                              log_size=np.array(log_size))
    r, x = (g.ravel() for g in np.meshgrid(np.arange(4), 0.25 + np.array(xs) / 3.0))
    want = [cg.lt_log_threshold(abs(xv - 0.25) * 3.0, log_size[rv], strict=False)
            for rv, xv in zip(r.tolist(), x.tolist())]
    assert mr._in_chart(columns, r, x).tolist() == want


def _refined(table, rects):
    """The cells and refined graph of a cover of rows of the VertexTable
    ``table``, from its one point-class table."""
    pc = mr.point_classes(table, rects)
    cells = mr.refine(rects, pc)
    return cells, mr.hat_graph(rects, cells, pc)


def _members(cells):
    return sorted(sorted(c.members.tolist()) for c in cells)


def test_refine_disjoint_cover_is_identity(cover, table):
    rects, _ = cover
    cells = mr.refine(rects, mr.point_classes(table, rects))
    assert len(cells) == len(rects)
    for c in cells:
        assert len(c.members) == 1


def test_refine_matches_brute_force(doubling, cover, table):
    rects, _ = cover
    cells = mr.refine(rects, mr.point_classes(table, rects))
    assert _members(cells) == signature_partition(doubling, table, rects)


def test_refine_empty(doubling, cfg, fixture, table):
    # a graph without edges has no core vertex: an empty cover, refined,
    # graphed and audited as such
    n = len(table)
    g = cg.GpoGraph(alphabet=fixture[1], out_edges=[[]] * n, in_edges=[[]] * n)
    rects, dropped = mr.build_cover(doubling, g, replace(cfg, cover_window=4))
    assert (len(rects), dropped, rects.points.shape) == (0, 0, (0, 9))
    pc = mr.point_classes(table, rects)
    assert pc.cls.size == pc.met.size == 0
    cells, tg = _refined(table, rects)
    assert cells == [] and tg.out_edges == []
    rep = mr.audits(tg)
    assert (rep.markov_checked, rep.preimage_max, rep.intersection_counts) == (0, 0, [])


@pytest.fixture(scope="module")
def twin_cover(doubling, cfg, fixture):
    """A cover whose first three rectangles are repeated: Z_i = Z_j."""
    _, _, pg, _ = fixture
    rects, _ = mr.build_cover(doubling, pg, replace(cfg, paths_per_vertex=2,
                                                    cover_window=10, seed=3))
    return rects, cover_of(rectangles(rects) + rectangles(rects)[:3], rects.back_len)


def test_refine_overlapping_rectangles_against_oracle(doubling, twin_cover, table):
    # force nontrivial signatures: duplicate a rectangle so Z_i = Z_j
    rects, doubled = twin_cover
    cells, tg = _refined(table, doubled)
    assert _members(cells) == signature_partition(doubling, table, doubled)
    # shared points produce 'su' signatures against the twin rectangle
    twin_sigs = [dict(c.signature) for c in cells if c.rect == 0]
    assert any(sig.get((0, len(rects))) == "su" for sig in twin_sigs)
    # a twinned cell lies in its rectangle and the twin, any other in one
    over = mr.audits(tg).rects_over_cell
    for c in cells:
        assert over[c.cell_id] == (2 if c.rect < 3 or c.rect >= len(rects) else 1)


@pytest.mark.parametrize("which", ["cover", "twin", "other-word"])
def test_refine_signatures_match_the_descriptors(which, doubling, cover, twin_cover, table):
    # each cell's signature is its members' classification by the scalar
    # descriptors; on "other-word" a point and a copy with another oldest
    # branch share their s-fibres but not their u-fibres
    rects = cover[0] if which == "cover" else twin_cover[1]
    windows = [row_window(doubling, rects, q) for q in range(len(rects.points))]
    if which == "other-word":
        vid, pts, bids = rectangles(rects)[0]
        bids = bids.copy()
        bids[:, 0] = 1 - bids[:, 0]
        windows += [replace(w, branch_ids=b) for w, b in zip(windows, bids)]
        rects = cover_of(rectangles(rects) + [(vid, pts, bids)], rects.back_len)
    pc = mr.point_classes(table, rects)
    cells = mr.refine(rects, pc)
    bounds = rects.start.tolist()
    types = set()
    for c in cells:
        i = c.rect
        for q in c.members.tolist():
            fd = fibres(table, rects, q)
            want = tuple(((i, j), ("s" if any(fd.in_stable(windows[y])
                                              for y in range(bounds[j], bounds[j + 1]))
                                   else "0") +
                          ("u" if any(fd.in_unstable(windows[y])
                                      for y in range(bounds[j], bounds[j + 1]))
                           else "0"))
                         for j in pc.met[pc.met[:, 0] == i, 1].tolist())
            assert c.signature == want
            types.update(t for _, t in want)
    assert types == ({"su", "s0"} if which == "other-word" else {"su"})


def _cells_at(rects, cells, x0):
    return [c.cell_id for c in cells
            if abs(rects.points[c.members[0], rects.back_len] - x0) < 1e-9]


def test_hat_graph_cycles(doubling, cfg, cover, table):
    rects, _ = cover
    cells, tg = _refined(table, rects)
    # disjoint orbit cycles: every cell has exactly one successor
    for c in cells:
        assert len(tg.out_edges[c.cell_id]) == 1
    # and the 2-cycle closes in two steps
    two = _cells_at(rects, cells, 1 / 6)
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
    w, diams = hat_pi(doubling, tg, path, n_lo=0)
    assert diams[-1] == 0.0
    assert _cell_contains(doubling, rects, cells[c0], w)


def test_hat_pi_period2(doubling, cfg, cover, table):
    rects, _ = cover
    cells, tg = _refined(table, rects)
    c0 = _cells_at(rects, cells, 1 / 6)[0]
    c1 = tg.out_edges[c0][0]
    w, diams = hat_pi(doubling, tg, [c0, c1, c0, c1, c0], n_lo=-2)
    assert w.x(0) == pytest.approx(1 / 6, abs=1e-12) or \
        w.x(0) == pytest.approx(1 / 3, abs=1e-12)


def test_hat_pi_inadmissible(doubling, cfg, cover, table):
    rects, _ = cover
    cells, tg = _refined(table, rects)
    c0 = cells[0].cell_id
    bad = next(c.cell_id for c in cells if c.cell_id not in tg.out_edges[c0])
    with pytest.raises(ValueError):
        hat_pi(doubling, tg, [c0, bad])


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
        hat_pi(m, tg, [a, b])


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
    bounds = rects.start.tolist()
    for a, b in zip(bounds[:8], bounds[1:9]):
        windows = [row_window(doubling, rects, q) for q in range(a, b)]
        for p in windows:
            for q in windows:
                w = bracket_windows(doubling, p, q)
                lhs = w.shift(1)
                rhs = bracket_windows(doubling, p.shift(1), q.shift(1))
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
        w, diams = hat_pi(doubling, tg, path, n_lo=n_lo)
        anchor_cell = tg.cells[path[-n_lo]]
        assert _cell_contains(doubling, rects, anchor_cell, w)
        # and the shift by n_lo + i sits in every path cell
        for i, cid in enumerate(path):
            assert _cell_contains(doubling, rects, tg.cells[cid], w.shift(n_lo + i))


def _pipeline_cover(monkeypatch, tmp_path, text):
    """The cover a ``refine`` run samples under the config ``text``, its map
    and the vertex table of its rows."""
    covers = []
    refine = mr.refine
    alphabets = record_alphabets(monkeypatch)

    def keep(cover, classes):
        covers.append(cover)
        return refine(cover, classes)

    monkeypatch.setattr(mr, "refine", keep)
    cfg = parse_config(text)
    cli.run("refine", cfg, str(tmp_path), quiet=True)
    (al,) = alphabets.values()
    return covers[0], symdyn.built_in(cfg.map), al.vertices


def _edited(m, rects, q, n, value):
    """Row q of the cover with coordinate x_n set to value, as its points
    and its window."""
    pts = rects.points[q].copy()
    pts[rects.back_len + n] = value
    return pts, replace(row_window(m, rects, q), points=pts)


@pytest.mark.parametrize("name", ["doubling-max_period-10", "quadratic", "twin", "signed-zero"])
def test_point_classes_match_windows_agree(name, doubling, cover, twin_cover, table, monkeypatch,
                                           tmp_path):
    m = doubling
    if name == "doubling-max_period-10":
        rects, m, table = _pipeline_cover(monkeypatch, tmp_path, "map = doubling\nmax_period = 10")
    elif name == "quadratic":
        rects, m, table = _pipeline_cover(monkeypatch, tmp_path, "map = quadratic")
    elif name == "twin":
        rects = twin_cover[1]
    if name != "signed-zero":
        windows = [row_window(m, rects, q) for q in range(len(rects.points))]
    else:
        # two rows apart only in the sign of a zero coordinate, whose shifts
        # land on row q; and q with a NaN, which agrees with nothing, itself
        # included, though its shift-side coordinates still match
        base, n = cover[0], cover[0].back_len
        p = row_window(m, base, 0)
        q = next(y for y in base.start[:-1].tolist()
                 if windows_agree_reference(row_window(m, base, y), p.shift(1)))
        rows = [_edited(m, base, 0, -n, 0.0), _edited(m, base, 0, -n, -0.0),
                (base.points[q], row_window(m, base, q)), _edited(m, base, q, n, math.nan)]
        windows = [w for _, w in rows]
        i = np.searchsorted(base.start, q, side="right") - 1
        rects = cover_of([(base.vid[0], np.array([x for x, _ in rows[:2]]), base.branches[[0, 0]]),
                          (base.vid[i], np.array([x for x, _ in rows[2:]]), base.branches[[q, q]])],
                         n)
    pc = mr.point_classes(table, rects)
    k = len(rects.points)
    assert len(pc.cls) == len(pc.head) == len(pc.shift) == k
    shifted = [w.shift(1) for w in windows]
    # windows_agree compares ranges holding index 0, so a pair whose zeroth
    # coordinates differ never agrees: the table must separate every such
    # pair, and windows_agree decides every other pair
    x0 = np.array([w.x0 for w in windows])
    x1 = np.array([w.x0 for w in shifted])
    cls, head, shift = pc.cls, pc.head, pc.shift
    assert not ((x0[:, None] != x0[None, :]) & (cls[:, None] == cls[None, :]) & (cls >= 0)).any()
    assert not ((x1[:, None] != x0[None, :]) & (shift[:, None] == head[None, :])
                & (shift >= 0)[:, None]).any()
    agreed = shift_hits = 0
    for a, b in itertools.product(range(k), repeat=2):
        if x0[a] == x0[b]:
            same = windows_agree_reference(windows[a], windows[b])
            assert same == (cls[a] >= 0 and cls[a] == cls[b])
            agreed += same
        if x1[a] == x0[b]:
            lands = windows_agree_reference(windows[b], shifted[a])
            assert lands == (shift[a] >= 0 and shift[a] == head[b])
            shift_hits += lands
    assert agreed >= k - (name == "signed-zero") and shift_hits > 0
    if name == "signed-zero":
        assert cls[0] == cls[1] and cls[3] == -1
        assert shift[0] == shift[1] == head[2] == head[3] >= 0


def test_hat_pi_lets_unexpected_shift_errors_through(doubling, cover, table, monkeypatch):
    # only a window that runs out or meets a singular point drops a candidate
    rects, _ = cover
    cells, tg = _refined(table, rects)
    c0 = cells[0].cell_id

    def broken_shift(self, k):
        raise TypeError("not a shift failure")

    monkeypatch.setattr(ne.OrbitWindow, "shift", broken_shift)
    with pytest.raises(TypeError, match="not a shift failure"):
        hat_pi(doubling, tg, [c0, tg.out_edges[c0][0]], n_lo=-1)
