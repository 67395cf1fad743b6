import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symdyn
from symdyn import analysis as an
from symdyn import coarse_grain as cg
from symdyn import library
from symdyn import pesin

from oracles import brute_force_loops, closed_paths, loop_count, spectral_radius_reference

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
    counts = an.closed_path_counts(adj, 6)
    assert counts == [sum(brute_force_loops(adj, v, n) for v in adj) for n in range(1, 7)]
    assert counts == [closed_paths(adj, n) for n in range(1, 7)]
    assert counts == [sum(loop_count(adj, v, n) for v in adj) for n in range(1, 7)]


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=30, deadline=None)
def test_spectral_radius_matches_scalar_power_iteration(seed):
    # in-degrees above 1, so the order of the float additions matters
    rng = np.random.default_rng(seed)
    adj = _random_digraph(rng, int(rng.integers(1, 30)), 6)
    assert an.spectral_radius(adj).hex() == spectral_radius_reference(adj).hex()


def test_spectral_radius_two_shift():
    adj = {0: [0, 1], 1: [0, 1]}
    assert abs(an.spectral_radius(adj) - 2.0) < 1e-6
    est = an.gurevich_entropy(adj)
    assert abs(math.log(est.spectral_radius) - math.log(2.0)) < 1e-6


def test_gurevich_single_cycle_is_zero():
    adj = {0: [1], 1: [2], 2: [0]}
    # one loop through a vertex at every length it has any: log(1)/n = 0
    assert [loop_count(adj, 0, n) for n in range(1, 10)] == [0, 0, 1] * 3
    assert an.spectral_radius(adj) == pytest.approx(1.0, abs=1e-9)


def test_entropy_monotone_under_edge_addition():
    rng = np.random.default_rng(5)
    for _ in range(20):
        nv = int(rng.integers(2, 8))
        adj = {v: sorted(set(rng.integers(0, nv, size=2).tolist())) for v in range(nv)}
        u, w = int(rng.integers(0, nv)), int(rng.integers(0, nv))
        bigger = {v: list(e) for v, e in adj.items()}
        if w not in bigger[u]:
            bigger[u] = sorted(bigger[u] + [w])
        assert an.spectral_radius(bigger) >= an.spectral_radius(adj) - 1e-9


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
            y = m.f(y)
        assert y == pytest.approx(x, abs=1e-7)


def test_growth_report_doubling():
    m = symdyn.built_in("doubling")
    lib = library.periodic_library(m, CHI2, 6, back_depth=64, fwd_len=14)
    cfg = pesin.PesinConfig(chi=CHI2, epsilon=0.1)
    al = cg.build_alphabet(m, lib.windows, cfg)
    pg, _ = cg.prune_relevant(cg.build_graph(al))
    rep = an.growth_report(m, pg, n_max=6)
    for n, mc, sc, _ in rep.rows:
        assert mc == 2 ** n - 1
        assert sc == 2 ** n - 2  # the fixed point at 0 is singular, not coded
    # short fit range (n <= 6) overshoots; the acceptance run uses n <= 10
    assert abs(rep.map_slope - math.log(2)) < 0.2
    assert abs(rep.symbolic_slope - math.log(2)) < 0.2


def test_growth_report_empty_graph_flags():
    m = symdyn.built_in("doubling")
    rep = an.growth_report(m, {}, n_max=3)
    assert rep.flags
    assert all(r[2] == 0 for r in rep.rows)


def test_growth_report_tent():
    # the tent fixed point closes as a float 2-cycle; counts shift to even
    # lengths but the growth rate is unchanged
    m = symdyn.built_in("tent")
    lib = library.periodic_library(m, CHI2, 8, back_depth=64, fwd_len=14)
    cfg = pesin.PesinConfig(chi=CHI2, epsilon=0.1)
    al = cg.build_alphabet(m, lib.windows, cfg)
    pg, _ = cg.prune_relevant(cg.build_graph(al))
    rep = an.growth_report(m, pg, n_max=8)
    for n, mc, _, _ in rep.rows:
        assert mc == 2 ** n
    assert abs(rep.symbolic_slope - math.log(2)) < 0.1
    assert abs(rep.entropy.loop_growth - math.log(2)) < 0.1


def _count_calls(monkeypatch, calls, name):
    fn = getattr(an, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(an, name, counted)


def test_growth_report_walks_the_graph_once(monkeypatch):
    # the rows' closed-path counts give the entropy estimate, and a spectral
    # radius passed in is not recomputed; the result is the estimate a
    # separate gurevich_entropy at the same n_max gives
    m = symdyn.built_in("doubling")
    lib = library.periodic_library(m, CHI2, 5, back_depth=64, fwd_len=14)
    cfg = pesin.PesinConfig(chi=CHI2, epsilon=0.1)
    pg, _ = cg.prune_relevant(cg.build_graph(cg.build_alphabet(m, lib.windows, cfg)))
    for n_max in (3, 7):
        expected = an.gurevich_entropy(pg, n_max=n_max)
        calls = []
        _count_calls(monkeypatch, calls, "closed_path_counts")
        _count_calls(monkeypatch, calls, "spectral_radius")
        rep = an.growth_report(m, pg, n_max=n_max)
        rep_given = an.growth_report(m, pg, n_max=n_max, spectral=expected.spectral_radius)
        monkeypatch.undo()
        assert calls == ["closed_path_counts", "spectral_radius", "closed_path_counts"]
        assert rep.entropy == expected and rep_given.entropy == expected
        assert rep.lines() == rep_given.lines()
