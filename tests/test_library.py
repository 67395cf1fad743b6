import time

import pytest

import symdyn
from symdyn import analysis, library
from symdyn.config import RunConfig
from symdyn.map_model import parse_map_file

from oracles import necklace_count

# Largest periods checked per map, and the orbits the half-open branch
# convention excludes: the doubling map's fixed point 1/2 is the right end
# of its domain (its word is 1 repeated, for every period).
MAX_PERIOD = {"doubling": 10, "tent": 8, "quadratic": 8, "gauss": 3}
EXCLUDED = {"doubling": 1, "tent": 0, "quadratic": 0, "gauss": 0}


@pytest.fixture(scope="module", params=list(MAX_PERIOD))
def built(request):
    name = request.param
    m = symdyn.built_in(name)
    cfg = RunConfig(map=name, max_period=MAX_PERIOD[name])
    lib = library.periodic_library(m, cfg)
    return name, m, cfg, lib


def test_necklace_count_binary():
    # OEIS A001037
    assert [necklace_count(2, n) for n in range(1, 11)] == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]


def test_orbits_match_necklace_count(built):
    # every built-in branch is full, so the period-n orbits are the primitive
    # necklaces of length n; each one is built or skipped exactly once
    name, m, cfg, lib = built
    k = m.finite_table()[1].shape[0]
    expect = sum(necklace_count(k, n) for n in range(1, MAX_PERIOD[name] + 1))
    assert lib.orbits + lib.skipped_singular == expect - EXCLUDED[name]
    assert lib.skipped_uncertified == 0


def test_window_bound_bounds_the_windows(built):
    # the window budget's bound is the points of least period up to
    # max_period, n times the primitive necklaces of each length n; a point
    # gives at most one window
    name, m, cfg, lib = built
    k = m.finite_table()[1].shape[0]
    bound = analysis.check_window_budget(m, cfg.max_period)
    assert bound == sum(n * necklace_count(k, n) for n in range(1, cfg.max_period + 1))
    assert bound >= len(lib.windows)
    assert bound == {"doubling": 1966, "tent": 472, "quadratic": 472, "gauss": 4336}[name]


def test_window_bound_of_one_branch_is_its_fixed_point():
    # one branch has one periodic point, its fixed point, at every period,
    # and the count takes no time at any max_period (counting periods up to
    # 20000 would take seconds); RunConfig's MAX_PERIOD caps such a run
    m = parse_map_file("[map]\na = 1.0\nbeta = 0.5\nkappa = 2.0\ndomain = 0.0 0.5\n"
                       "[branch]\ndom = 0.0 0.5\nkind = affine\ncoef = 0.0 0.5\n")
    t0 = time.perf_counter()
    assert analysis.check_window_budget(m, 20000) == 1
    assert time.perf_counter() - t0 < 1.0
    assert sum(n * necklace_count(1, n) for n in range(1, 30)) == 1


def test_every_orbit_starts_at_its_least_root(built):
    # the phase-0 window of each orbit sits at the least point of one lap
    # of its cycle (a float cycle may run over several laps)
    name, m, cfg, lib = built
    base = [w for w in lib.windows if w.off == cfg.back_depth]
    assert len(base) == lib.orbits
    for w in base:
        word = w.branch_ids[w.off:w.off + w.period].tolist()
        lap = next(p for p in range(1, w.period + 1) if word == word[p:] + word[:p])
        assert w.x0 == min(w.points[w.off:w.off + lap].tolist()), w.record()
