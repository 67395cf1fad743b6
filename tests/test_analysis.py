import math
from dataclasses import replace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import symdyn
from symdyn import analysis as an
from symdyn import coarse_grain as cg
from symdyn import library
from symdyn.config import RunConfig

from construction import f, successors, toy_graph
from oracles import brute_force_loops, closed_paths, loop_count

CHI2 = 0.5 * math.log(2.0)


def test_loop_count_self_loop():
    adj = {0: [0]}
    for n in (1, 3, 7):
        assert loop_count(adj, 0, n) == 1


def test_loop_count_two_shift():
    adj = {0: [0, 1], 1: [0, 1]}
    for n in range(1, 8):
        assert closed_paths(adj, n) == 2 ** n
    assert loop_count(adj, 0, 1) == 1


def test_loop_count_disconnected():
    adj = {0: [1], 1: [0], 2: []}
    assert loop_count(adj, 2, 4) == 0


@given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_loop_count_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, 12))
    adj = {v: sorted(set(rng.integers(0, nv, size=rng.integers(0, 4)).tolist()))
           for v in range(nv)}
    v = int(rng.integers(0, nv))
    assert loop_count(adj, v, n) == brute_force_loops(adj, v, n)


def _random_digraph(rng, nv, max_out):
    """Vertices 0..nv-1 in shuffled key order, unsorted successor lists, a
    successor outside the keys now and then (it is ignored)."""
    keys = rng.permutation(nv).tolist()
    return {v: rng.integers(0, nv + 1, size=rng.integers(0, max_out + 1)).tolist() for v in keys}


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=30, deadline=None)
def test_closed_path_counts_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    adj = _random_digraph(rng, int(rng.integers(1, 10)), 3)
    counts, _ = an.closed_paths_and_radius(toy_graph(adj), 6)
    assert counts == [sum(brute_force_loops(adj, v, n) for v in adj) for n in range(1, 7)]
    assert counts == [closed_paths(adj, n) for n in range(1, 7)]
    assert counts == [sum(loop_count(adj, v, n) for v in adj) for n in range(1, 7)]


@st.composite
def mixed_graphs(draw):
    """Disjoint cycles with chords and extra self-loops between their
    vertices, and acyclic tails into and out of them, keys in drawn order."""
    adj, nv = {}, 0
    for length in draw(st.lists(st.integers(1, 5), max_size=4)):
        adj.update({nv + i: [nv + (i + 1) % length] for i in range(length)})
        nv += length
    if nv:
        vertex = st.integers(0, nv - 1)
        for u, w in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
            adj[u].append(w)                      # a chord, or a self-loop when u == w
        for u in draw(st.lists(vertex, max_size=2)):
            adj[u].append(u)
        for into in draw(st.lists(st.booleans(), max_size=3)):
            v = draw(vertex)
            if into:
                adj[nv] = [v]                     # a tail vertex feeding the graph
            else:
                adj[v].append(nv)                 # a dead end: no key, no successor
            nv += 1
    return {v: adj[v] for v in draw(st.permutations(sorted(adj)))}


@given(mixed_graphs())
@settings(max_examples=80, deadline=None)
def test_closed_path_counts_per_component_match_brute_force(adj):
    # cycle components count in closed form, the others by their walks
    counts, _ = an.closed_paths_and_radius(toy_graph(adj), 7)
    assert counts == [sum(brute_force_loops(adj, v, n) for v in adj) for n in range(1, 8)]


X = sympy.symbols("x")


def _exact_radius(adj):
    """The characteristic polynomial of adj's adjacency matrix (sympy, exact
    integers) and its largest real root, the spectral radius of a
    nonnegative matrix, to 30 digits."""
    keys = sorted(adj)
    a = sympy.zeros(len(keys))
    for i, u in enumerate(keys):
        for w in adj[u]:
            a[i, keys.index(w)] += 1
    poly = a.charpoly(X)
    return poly.as_expr(), max(sympy.real_roots(poly)).evalf(30)


def _cycle(n, start=0):
    return {start + i: [start + (i + 1) % n] for i in range(n)}


def _chorded_cycle(n, k):
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0 with the chord k-1 -> 0, which
    closes a k-cycle."""
    adj = _cycle(n)
    adj[k - 1] = adj[k - 1] + [0]
    return adj


@pytest.mark.parametrize("name, adj, poly", [
    ("union of cycles", {**_cycle(3), **_cycle(2, 3), **_cycle(1, 5)},
     (X**3 - 1) * (X**2 - 1) * (X - 1)),
    ("full 2-shift", {i: [0, 1] for i in range(2)}, X * (X - 2)),
    ("full 3-shift", {i: [0, 1, 2] for i in range(3)}, X**2 * (X - 3)),
    ("golden mean", {0: [0, 1], 1: [0]}, X**2 - X - 1),
] + [pytest.param(f"cycle {n} chord {k}", _chorded_cycle(n, k), X**n - X**(n - k) - 1)
     for n in range(3, 7) for k in range(1, n)])
def test_spectral_radius_is_the_largest_root(name, adj, poly):
    # the radius from the exact characteristic polynomial, independent of
    # the eigenvalues closed_paths_and_radius reads; a union of cycles gives
    # 1 exactly; the same pass counts the closed paths
    got, rho = _exact_radius(adj)
    assert sympy.expand(got - poly) == 0
    counts, radius = an.closed_paths_and_radius(toy_graph(adj), 6)
    assert abs(radius - float(rho)) < 1e-9 * float(rho)
    assert counts == [closed_paths(adj, n) for n in range(1, 7)]
    if name == "union of cycles":
        assert radius == 1.0


def test_spectral_radius_two_shift():
    adj = {0: [0, 1], 1: [0, 1]}
    counts, rho = an.closed_paths_and_radius(toy_graph(adj), 10)
    assert abs(rho - 2.0) < 1e-6
    est = an.gurevich_entropy(counts, rho)
    assert abs(math.log(est.spectral_radius) - math.log(2.0)) < 1e-6


def test_gurevich_single_cycle_is_zero():
    adj = {0: [1], 1: [2], 2: [0]}
    # one loop through a vertex at every length it has any: log(1)/n = 0
    assert [loop_count(adj, 0, n) for n in range(1, 10)] == [0, 0, 1] * 3
    assert an.closed_paths_and_radius(toy_graph(adj), 9) == ([0, 0, 3] * 3, 1.0)


def test_entropy_monotone_under_edge_addition():
    rng = np.random.default_rng(5)
    for _ in range(20):
        nv = int(rng.integers(2, 8))
        adj = {v: sorted(set(rng.integers(0, nv, size=2).tolist())) for v in range(nv)}
        u, w = int(rng.integers(0, nv)), int(rng.integers(0, nv))
        bigger = {v: list(e) for v, e in adj.items()}
        if w not in bigger[u]:
            bigger[u] = sorted(bigger[u] + [w])
        assert (an.closed_paths_and_radius(toy_graph(bigger), 1)[1]
                >= an.closed_paths_and_radius(toy_graph(adj), 1)[1] - 1e-9)


def test_map_periodic_points_doubling_exact():
    m = symdyn.built_in("doubling")
    for n in range(1, 13):
        assert len(an.map_periodic_points(m, n)[0]) == 2 ** n - 1


def test_map_periodic_points_doubling_small():
    m = symdyn.built_in("doubling")
    assert an.map_periodic_points(m, 1)[0].tolist() == [0.0]
    pts = an.map_periodic_points(m, 2)[0].tolist()
    assert pts == pytest.approx([0.0, 1 / 6, 1 / 3], abs=1e-12)


def test_map_periodic_points_tent_two():
    m = symdyn.built_in("tent")
    pts = an.map_periodic_points(m, 2)[0].tolist()
    assert len(pts) == 4
    assert pts == pytest.approx([0.0, 0.2, 1 / 3, 0.4], abs=1e-12)


def test_map_periodic_points_quadratic():
    m = symdyn.built_in("quadratic")
    # conjugate of the full logistic map: same counts as the tent map
    assert len(an.map_periodic_points(m, 1)[0]) == 2
    assert len(an.map_periodic_points(m, 2)[0]) == 4
    for x in an.map_periodic_points(m, 3)[0].tolist():
        if m.singular_distance(x) <= 1e-9:
            continue  # the fixed point 0 is in the singular set
        y = x
        for _ in range(3):
            y = f(m, y)
        assert y == pytest.approx(x, abs=1e-7)


def test_growth_report_doubling():
    m = symdyn.built_in("doubling")
    cfg = RunConfig(chi=CHI2, epsilon=0.1)
    lib = library.periodic_library(m, replace(cfg, max_period=6, back_depth=64, fwd_len=14))
    al = cg.build_alphabet(m, lib.windows, cfg)
    pg, _ = cg.prune_relevant(cg.build_graph(al))
    rep = an.growth_report(lib.map_counts, *an.closed_paths_and_radius(pg, 6))
    assert [r[0] for r in rep.rows] == list(range(1, 7))
    for n, mc, sc, _ in rep.rows:
        assert mc == 2 ** n - 1
        assert sc == 2 ** n - 2  # the fixed point at 0 is singular, not coded
    # short fit range (n <= 6) overshoots; the acceptance run uses n <= 10
    assert abs(rep.map_slope - math.log(2)) < 0.2
    assert abs(rep.symbolic_slope - math.log(2)) < 0.2


def test_growth_report_empty_graph_flags():
    rep = an.growth_report((1, 3, 7), *an.closed_paths_and_radius(toy_graph({}), 3))
    assert rep.flags
    assert [r[:2] for r in rep.rows] == [(1, 1), (2, 3), (3, 7)]
    assert all(r[2] == 0 for r in rep.rows)


def test_growth_report_tent():
    # the tent fixed point closes as a float 2-cycle; counts shift to even
    # lengths but the growth rate is unchanged
    m = symdyn.built_in("tent")
    cfg = RunConfig(chi=CHI2, epsilon=0.1)
    lib = library.periodic_library(m, replace(cfg, max_period=8, back_depth=64, fwd_len=14))
    al = cg.build_alphabet(m, lib.windows, cfg)
    pg, _ = cg.prune_relevant(cg.build_graph(al))
    rep = an.growth_report(lib.map_counts, *an.closed_paths_and_radius(pg, 8))
    for n, mc, _, _ in rep.rows:
        assert mc == 2 ** n
    assert abs(rep.symbolic_slope - math.log(2)) < 0.1
    assert abs(rep.entropy.loop_growth - math.log(2)) < 0.1


@pytest.mark.parametrize("max_period", [4, 10, 12])
def test_one_walk_gives_the_rows_and_estimates_of_separate_walks(max_period):
    # full-pipeline walks the pruned graph once, to max(10, max_period): the
    # entropy estimate reads n <= 10 of it and the growth report n <=
    # max_period, as a walk of each length would give them
    m = symdyn.built_in("doubling")
    cfg = RunConfig(chi=CHI2, epsilon=0.1)
    lib = library.periodic_library(m, replace(cfg, max_period=5, back_depth=64, fwd_len=14))
    pg, kept = cg.prune_relevant(cg.build_graph(cg.build_alphabet(m, lib.windows, cfg)))
    adj = {v: successors(pg, v) for v in kept}
    adj[min(adj)].append(min(adj))   # a self-loop: closed paths at every length
    map_counts = [2**n - 1 for n in range(1, max_period + 1)]
    counts, rho = an.closed_paths_and_radius(toy_graph(adj), max(10, max_period))
    assert counts[:max_period] == [closed_paths(adj, n) for n in range(1, max_period + 1)]
    alone = an.growth_report(map_counts,
                             *an.closed_paths_and_radius(toy_graph(adj), max_period))
    shared = an.growth_report(map_counts, counts, rho)
    assert shared.rows == alone.rows and shared.lines() == alone.lines()
    est = an.gurevich_entropy(*an.closed_paths_and_radius(toy_graph(adj), 10))
    assert an.gurevich_entropy(counts[:10], rho) == est
    assert est.lines() != shared.entropy.lines() or max_period == 10


def _mobius(n):
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def _skipped_by_period(m, cfg):
    """The library at ``cfg``, its pruned graph, and the number of orbits of
    each period the library tried but kept no window of.  It tries each
    orbit of least period p among the map's period-p points once (their
    count by Moebius inversion of ``map_counts``, over p), and keeps an
    orbit as one shared points array, whose least word period is p."""
    lib = library.periodic_library(m, cfg)
    pg, _ = cg.prune_relevant(cg.build_graph(cg.build_alphabet(m, lib.windows, cfg)))
    skipped = {}
    for n in range(1, cfg.max_period + 1):
        points = sum(_mobius(n // d) * lib.map_counts[d - 1] for d in range(1, n + 1) if n % d == 0)
        assert points % n == 0, n
        skipped[n] = points // n
    orbits = {id(w.points): w for w in lib.windows}.values()
    for w in orbits:
        word = [w.branch(i) for i in range(w.period)]
        p = next(p for p in range(1, w.period + 1) if word == word[p:] + word[:p])
        skipped[p] -= 1
    assert len(orbits) == lib.orbits and min(skipped.values()) >= 0
    return lib, pg, skipped


CROSS_STAGE = [
    ("doubling", 8),
    ("doubling", 10),
    ("gauss", 2),
    pytest.param("tent", 8, marks=pytest.mark.xfail(
        strict=True, reason="two-lap float cycles: natural_extension._backward_cycles "
                            "closes the tent fixed point 1/3 as a 2-cycle")),
    pytest.param("quadratic", 8, marks=pytest.mark.xfail(
        strict=True, reason="two-lap float cycles: natural_extension._backward_cycles "
                            "closes a quadratic period-4 orbit over 8 phases")),
]


@pytest.mark.parametrize("name,max_period", CROSS_STAGE)
def test_closed_paths_are_the_kept_orbits(name, max_period):
    # the pruned graph is a union of the library's cycles, so its closed
    # paths of length n are the map's period-n points less p points for
    # each orbit of period p | n that was skipped or not certified
    cfg = RunConfig(map=name, max_period=max_period)
    lib, pg, skipped = _skipped_by_period(symdyn.built_in(name), cfg)
    counts, _ = an.closed_paths_and_radius(pg, max_period)
    for n in range(1, max_period + 1):
        lost = sum(p * skipped.get(p, 0) for p in range(1, n + 1) if n % p == 0)
        assert counts[n - 1] == lib.map_counts[n - 1] - lost, n
