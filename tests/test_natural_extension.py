import math
import re
from dataclasses import replace

import numpy as np
import pytest

import symdyn
from symdyn import _kernels as K
from symdyn import analysis as an
from symdyn import library
from symdyn import natural_extension as ne
from symdyn.config import RunConfig
from symdyn.map_model import parse_map_file
from symdyn.pesin import expansion_certificate

from construction import (backward_orbit, deriv, f, hat_distance, make_pseudo_window,
                          make_window, preimage)
from oracles import cocycle, make_periodic_window_reference, parse_record, truncation_tail
from test_map_model import MIXED_FILE


@pytest.fixture(scope="module")
def doubling():
    return symdyn.built_in("doubling")


@pytest.fixture(scope="module")
def w16(doubling):
    # window at 1/6 with the periodic past of the period-2 orbit {1/6, 1/3}
    return make_window(doubling, 1 / 6, [1, 0] * 15, fwd_len=30)


def test_shift_zero_is_identity(w16):
    assert w16.shift(0) is w16


def test_shift_forward_coordinate(doubling, w16):
    # f(1/6) = 1/3 under 2x mod 0.5
    assert w16.shift(1).x0 == pytest.approx(1 / 3, abs=1e-15)
    assert w16.shift(1).x0 == f(doubling, w16.x0)  # theta_0 o fhat = f o theta_0


def test_shift_roundtrip_agrees_on_common_range(w16):
    w2 = w16.shift(3).shift(-3)
    for n in range(-w16.back_len, w16.fwd_len + 1):
        assert w2.x(n) == w16.x(n)


def test_shift_exhaustion(w16):
    with pytest.raises(ne.WindowExhausted):
        w16.shift(-w16.back_len)


def test_hat_distance_identical(w16):
    assert hat_distance(w16, w16, depth=20) == 0.0


def test_hat_distance_attained_at_zero(doubling):
    # equal backward words: backward contraction makes 2^n |x_n - y_n| peak at n=0
    wa = make_window(doubling, 0.30, [1, 0] * 10, fwd_len=4)
    wb = make_window(doubling, 0.31, [1, 0] * 10, fwd_len=4)
    d = hat_distance(wa, wb, depth=20)
    assert d == pytest.approx(0.01, rel=1e-9)
    assert hat_distance(wa, wb, depth=0) == pytest.approx(abs(wa.x0 - wb.x0))


def test_hat_distance_tail_bound():
    assert truncation_tail(10) == 2.0 ** -10 * 0.5


def test_cocycle_values(w16):
    s, lg = cocycle(w16, 0)
    assert (s, lg) == (1, 0.0)  # empty product
    s, lg = cocycle(w16, 3)
    assert s == 1 and math.exp(lg) == pytest.approx(8.0, rel=1e-12)
    s, lg = cocycle(w16, -2)
    assert s == 1 and math.exp(lg) == pytest.approx(0.25, rel=1e-12)


def test_cocycle_identity(w16):
    # cocycle(m+n) = cocycle(shift^n, m) * cocycle(n), in log space
    for n, mm in [(2, 3), (-3, 5), (4, -2), (-2, -4)]:
        s_total, lg_total = cocycle(w16, mm + n)
        s_n, lg_n = cocycle(w16, n)
        s_m, lg_m = cocycle(w16.shift(n), mm)
        assert s_total == s_n * s_m
        assert lg_total == pytest.approx(lg_n + lg_m, abs=1e-9)


def test_tent_cocycle_signs():
    m = symdyn.built_in("tent")
    w = make_window(m, 0.3, [1, 1, 1], fwd_len=3)
    s, lg = cocycle(w, 1)  # df = -2 on the decreasing branch
    assert s == -1 and math.exp(lg) == pytest.approx(2.0)
    s2, _ = cocycle(w, 2)
    assert s2 == (1 if deriv(w, 0) * deriv(w, 1) > 0 else -1)
    for n in range(-3, 3):  # deriv takes the sign of its branch's df
        d = float(K.dfwd_vec(m.family, w.branch(n), w.x(n)))
        assert deriv(w, n) == pytest.approx(d, rel=1e-15)


def test_window_caches_are_read_only(w16):
    for w in (w16, w16.shift(3), w16.extend_forward(5)):
        for arr in (w.points, w.branch_ids, w.logderivs, w.cumlog):
            assert not arr.flags.writeable


def test_backward_consistency_bit_for_bit(doubling, w16):
    pts = backward_orbit(doubling, w16.x0, w16.back_branches)
    for k in range(1, w16.back_len + 1):
        assert pts[k - 1] == w16.x(-k)


def test_forward_consistency_tolerance(w16, doubling):
    for n in range(-w16.back_len + 1, w16.fwd_len):
        assert abs(f(doubling, w16.x(n - 1)) - w16.x(n)) < 1e-10


def test_record_roundtrip_chain(doubling, w16):
    line = w16.record()
    w2 = parse_record(doubling, line)
    assert np.array_equal(w2.points, w16.points)
    assert np.array_equal(w2.branch_ids, w16.branch_ids)


def test_record_roundtrip_periodic(doubling):
    w = ne.make_periodic_window(doubling, 1 / 6, [0, 1], 32, 16)
    w2 = parse_record(doubling, w.record())
    assert w2.period == 2
    assert np.array_equal(w2.points, w.points)


def test_periodic_window_is_exactly_periodic(doubling):
    w = ne.make_periodic_window(doubling, 1 / 6, [0, 1], 32, 16)
    for n in range(-30, 15):
        assert w.x(n) == w.x(n + 2)
    # and an f-pseudo-orbit within the window tolerance
    for n in range(-31, 16):
        assert abs(f(doubling, w.x(n - 1)) - w.x(n)) < 1e-10


def test_periodic_window_extends_forward_periodically(doubling):
    w = ne.make_periodic_window(doubling, 1 / 6, [0, 1], 16, 4)
    w2 = w.shift(10)
    assert w2.x0 == w.x(0) if 10 % 2 == 0 else w.x(1)
    assert w2.back_len == 26


def _back_branches_comprehension(w):
    return [int(w.branch_ids[w.off - k]) for k in range(1, w.back_len + 1)]


def test_back_branches_match_the_element_reads(doubling):
    m = symdyn.built_in("quadratic")
    cyc = ne.make_periodic_window(m, 0.3, [0, 1, 1], 7, 5)
    chain = make_window(doubling, 0.3, [1, 0, 1, 1, 0], fwd_len=4)
    windows = [chain, replace(chain, off=0), replace(chain, off=1), chain.shift(3),
               chain.extend_forward(6), cyc, cyc.shift(-6), replace(cyc, off=0),
               cyc.shift(9), cyc.extend_forward(10).shift(4)]
    assert {w.off for w in windows} >= {0, 1}
    for w in windows:
        word = w.back_branches
        assert word == _back_branches_comprehension(w)
        assert all(type(b) is int for b in word)
        assert w.record().split()[1] == "back=" + ",".join(map(str, word))


def test_pseudo_window_rejects_bad_orbit(doubling):
    # the tests' pseudo-windows (``construction.make_pseudo_window``) hold
    # the tolerance ``shadow_many`` holds its rows to
    pts = np.array([[0.1, 0.2, 0.4], [0.1, 0.3, 0.1]])  # row 1: f(0.1) = 0.2 != 0.3
    with pytest.raises(ValueError, match="window tolerance: 0.1$"):
        make_pseudo_window(doubling, pts, np.array([[0, 0], [0, 1]], dtype=np.int64))


def test_make_window_rejects_singular_word(doubling):
    # the all-zeros past contracts into the exclusion zone around 0
    with pytest.raises(symdyn.SingularPoint):
        make_window(doubling, 0.1, [0] * 60, fwd_len=1)


def test_record_roundtrip_gauss():
    m = symdyn.built_in("gauss")
    w = make_window(m, 0.3141592653589793, [1, 2, 1, 3, 1], fwd_len=6)  # rationals terminate at the singular grid
    w2 = parse_record(m, w.record())
    assert np.array_equal(w2.points, w.points)
    x = (5 ** 0.5 - 1) / 4
    wp = ne.make_periodic_window(m, x, [1], 32, 8)
    wp2 = parse_record(m, wp.record())
    assert wp2.period == wp.period
    assert np.array_equal(wp2.points, wp.points)


def _window_bits(w):
    return (w.off, w.u_depth, w.period,
            *(a.dtype.str + a.tobytes().hex() for a in
              (w.points, w.branch_ids, w.logderivs, w.cumlog)))


def _base_windows_reference(m, cfg):
    """The bits of the window of every orbit the library should keep, in
    root order: the burn-in reference at the first root of each new
    primitive necklace, kept if it is chartable and certified."""
    seen, out = set(), []
    for n in range(1, cfg.max_period + 1):
        roots, words = an.map_periodic_points(m, n)
        for x, word in zip(roots.tolist(), words.tolist()):
            rots = {tuple(word[i:] + word[:i]) for i in range(n)}
            if len(rots) < n or min(rots) in seen:
                continue  # a power of a shorter word, or an orbit already met
            seen.add(min(rots))
            try:
                ref = make_periodic_window_reference(m, x, word, cfg.back_depth, cfg.horizon)
            except symdyn.SingularPoint:
                continue
            if m.window_chartable(ref.points) and expansion_certificate(ref, cfg).ok:
                out.append(_window_bits(ref))
    return out


@pytest.mark.parametrize("name,max_period", [("doubling", 10), ("tent", 8), ("quadratic", 8),
                                             ("gauss", 2), ("gauss", 3)])
def test_periodic_windows_match_burn_in_reference(name, max_period):
    # closing the cycle at the first float closure gives the window the
    # fixed 256-step burn-in gave, for every orbit the library keeps
    _check_base_windows(symdyn.built_in(name), RunConfig(map=name, max_period=max_period))


@pytest.mark.parametrize("name,max_period", [("doubling", 6), ("tent", 5)])
def test_short_periodic_windows_match_burn_in_reference(name, max_period):
    # windows of fewer than 2P + 1 coordinates check the branches of all they hold
    cfg = RunConfig(map=name, max_period=max_period, back_depth=3, fwd_len=4, encode_hi=1)
    assert cfg.back_depth + cfg.horizon < 2 * max_period
    _check_base_windows(symdyn.built_in(name), cfg)


def _check_base_windows(m, cfg):
    lib = library.periodic_library(m, cfg)
    base = [w for w in lib.windows if w.off == cfg.back_depth]   # each orbit's phase 0
    assert len(base) == len({id(w.points) for w in lib.windows}) == lib.orbits > 0
    assert [_window_bits(w) for w in base] == _base_windows_reference(m, cfg)


def _first_closure(m, x, word):
    """The step k at which the scalar backward orbit of ``word`` from x
    first closes: k >= 2E and y_k == y_{k-E}, E a multiple of len(word)."""
    P, ys = len(word), [x]
    while True:
        k = len(ys)
        ys.append(preimage(m, ys[-1], word[-k % P]))
        if any(ys[k] == ys[k - e * P] for e in range(1, 9) if k >= 2 * e * P):
            return k


def test_periodic_window_stops_at_first_closure(monkeypatch, doubling):
    # one backward batch step per scalar step up to the first closure, well
    # short of the reference's 256-step burn-in
    steps = []
    inv = K.inv_vec

    def counted(fam, bid, y):
        steps.append(np.size(y))
        return inv(fam, bid, y)

    monkeypatch.setattr(K, "inv_vec", counted)
    w = ne.make_periodic_window(doubling, 1 / 6, [0, 1], 64, 40)
    monkeypatch.undo()
    assert w.period == 2
    assert steps == [1] * _first_closure(doubling, 1 / 6, [0, 1])
    assert 0 < len(steps) < 256


def _singular_at_step(k, rows=(0,)):
    """sing_dist_vec, but reading 0 at ``rows`` on its k-th call."""
    dist, calls = K.sing_dist_vec, []

    def flagged(fam, y):
        d = dist(fam, y)
        calls.append(1)
        if len(calls) == k:
            d = d.copy()
            d[list(rows)] = 0.0
        return d

    return flagged


def test_singular_point_on_the_closing_step_is_skipped(monkeypatch, doubling):
    # a row within the exclusion radius at the step that closes it retires
    # with a SingularPoint naming that step; the library counts it as
    # skipped near the singular set
    x, word = 1 / 6, [0, 1]
    k = _first_closure(doubling, x, word)
    with monkeypatch.context() as mp:
        mp.setattr(K, "sing_dist_vec", _singular_at_step(k))
        built, chartable = ne.periodic_windows(doubling, [x, x], [word, word], 64, 40)
    assert isinstance(built[0], symdyn.SingularPoint)
    assert str(built[0]).endswith(f"at step {k}")
    assert isinstance(built[1], ne.OrbitWindow) and chartable.tolist() == [False, True]

    cfg = RunConfig(max_period=2)
    plain = library.periodic_library(doubling, cfg)
    real = ne.periodic_windows

    def closing_singular(m, xs, words, *args):
        if words.shape[1] != 2:
            return real(m, xs, words, *args)
        assert len(xs) == 1
        with monkeypatch.context() as mp:
            mp.setattr(K, "sing_dist_vec",
                       _singular_at_step(_first_closure(m, float(xs[0]), words[0].tolist())))
            return real(m, xs, words, *args)

    monkeypatch.setattr(ne, "periodic_windows", closing_singular)
    lib = library.periodic_library(doubling, cfg)
    assert lib.skipped_singular == plain.skipped_singular + 1
    assert lib.orbits == plain.orbits - 1
    assert len(lib.windows) == len(plain.windows) - 2


def test_tent_fixed_point_closes_as_a_two_cycle():
    # rounding turns the attracting fixed point 1/3 of the inverse branch
    # into a float 2-cycle: the closure at E = P is never met, E = 2P is
    m = symdyn.built_in("tent")
    w = ne.make_periodic_window(m, 1 / 3, [1], 64, 16)
    assert w.period == 2 and w.x(0) != w.x(1) == w.x(-1)
    assert sorted({w.x(0), w.x(1)}) == [0.3333333333333333, 0.33333333333333337]
    lib = library.periodic_library(m, RunConfig(map="tent", max_period=1))
    assert lib.orbits == 1 and [w.period for w in lib.windows] == [2, 2]


def test_non_closing_rows_raise_for_the_first_word(monkeypatch, doubling):
    # a NaN row neither closes nor comes near the singular set: after
    # 256 + 64P steps it fails, and the library raises for the first such
    # word in root order
    built, _ = ne.periodic_windows(doubling, [1 / 14, math.nan, math.nan],
                                   [[0, 0, 1], [0, 1, 1], [0, 0, 1]], 64, 40)
    assert isinstance(built[0], ne.OrbitWindow)
    assert [str(e) for e in built[1:]] == [
        f"backward iteration did not close into a cycle (word={w!r}) within 448 steps"
        for w in ([0, 1, 1], [0, 0, 1])]
    roots, words = an.map_periodic_points(doubling, 3)
    for w in ([0, 1, 1], [0, 0, 1]):
        roots[words.tolist().index(w)] = math.nan
    monkeypatch.setattr(library, "map_periodic_points",
                        lambda m, n: (roots, words) if n == 3 else an.map_periodic_points(m, n))
    with pytest.raises(RuntimeError, match=re.escape("(word=[0, 0, 1]) within 448 steps")):
        library.periodic_library(doubling, RunConfig(max_period=3))


def test_period_without_new_orbits_adds_no_windows(monkeypatch, doubling):
    # a period whose words are all powers of shorter words (as on a map of
    # one branch) builds an empty batch: the library adds that period's root
    # count and nothing else
    built, chartable = ne.periodic_windows(doubling, np.empty(0), np.empty((0, 2), np.int64),
                                           64, 40)
    assert built == [] and chartable.shape == (0,)
    roots, words = an.map_periodic_points(doubling, 2)
    powers = np.flatnonzero(words[:, 0] == words[:, 1])
    monkeypatch.setattr(library, "map_periodic_points", lambda m, n: (
        (roots[powers], words[powers]) if n == 2 else an.map_periodic_points(m, n)))
    one = library.periodic_library(doubling, RunConfig(max_period=1))
    lib = library.periodic_library(doubling, RunConfig(max_period=2))
    assert lib.map_counts == one.map_counts + (powers.size,) and powers.size == 1
    assert lib.lines() == one.lines()
    assert [w.record() for w in lib.windows] == [w.record() for w in one.windows]


def test_mixed_cycle_lengths_within_one_period():
    # quadratic period 4: two orbits close at E = 4, one at E = 8, in one batch
    m = symdyn.built_in("quadratic")
    words = [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]]
    roots, found = an.map_periodic_points(m, 4)
    xs = [roots[found.tolist().index(w)] for w in words]
    built, chartable = ne.periodic_windows(m, xs, words, 40, 40)
    assert sorted(w.period for w in built) == [4, 4, 8] and chartable.all()
    for w, x, word in zip(built, xs, words):
        assert _window_bits(w) == _window_bits(make_periodic_window_reference(m, x, word, 40, 40))
        assert w.points.base is not None   # a row view of its cycle length's block


def test_cycle_off_its_word_is_refused():
    # on the mixed map, branch 0's image [0, 0.4] misses the word [0, 2]'s
    # backward cycle: it closes outside branch 0, a ValueError the library
    # does not catch, as the scalar reference finds
    m = parse_map_file(MIXED_FILE)
    xs, words = [0.05, 0.05, 0.2], [[0, 2], [1, 2], [0, 2]]
    built, chartable = ne.periodic_windows(m, xs, words, 10, 5)
    assert [type(w).__name__ for w in built] == ["ValueError", "OrbitWindow", "SingularPoint"]
    assert str(built[0]).startswith("cycle point") and chartable.tolist() == [False, True, False]
    for w, x, word in zip(built, xs, words):
        try:
            ref = make_periodic_window_reference(m, x, word, 10, 5)
        except ValueError as e:
            assert type(w) is type(e)
        else:
            assert _window_bits(w) == _window_bits(ref)
