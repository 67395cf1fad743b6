import math

import numpy as np
import pytest

import symdyn
from symdyn import _kernels as K
from symdyn import library
from symdyn import natural_extension as ne
from symdyn.config import RunConfig

from oracles import cocycle, make_periodic_window_reference, parse_record, truncation_tail


@pytest.fixture(scope="module")
def doubling():
    return symdyn.built_in("doubling")


@pytest.fixture(scope="module")
def w16(doubling):
    # window at 1/6 with the periodic past of the period-2 orbit {1/6, 1/3}
    return ne.make_window(doubling, 1 / 6, [1, 0] * 15, fwd_len=30)


def test_shift_zero_is_identity(w16):
    assert w16.shift(0) is w16


def test_shift_forward_coordinate(doubling, w16):
    # f(1/6) = 1/3 under 2x mod 0.5
    assert w16.shift(1).x0 == pytest.approx(1 / 3, abs=1e-15)
    assert w16.shift(1).x0 == doubling.f(w16.x0)  # theta_0 o fhat = f o theta_0


def test_shift_roundtrip_agrees_on_common_range(w16):
    w2 = w16.shift(3).shift(-3)
    for n in range(-w16.back_len, w16.fwd_len + 1):
        assert w2.x(n) == w16.x(n)


def test_shift_exhaustion(w16):
    with pytest.raises(ne.WindowExhausted):
        w16.shift(-w16.back_len)


def test_hat_distance_identical(w16):
    assert ne.hat_distance(w16, w16, depth=20) == 0.0


def test_hat_distance_attained_at_zero(doubling):
    # equal backward words: backward contraction makes 2^n |x_n - y_n| peak at n=0
    wa = ne.make_window(doubling, 0.30, [1, 0] * 10, fwd_len=4)
    wb = ne.make_window(doubling, 0.31, [1, 0] * 10, fwd_len=4)
    d = ne.hat_distance(wa, wb, depth=20)
    assert d == pytest.approx(0.01, rel=1e-9)
    assert ne.hat_distance(wa, wb, depth=0) == pytest.approx(abs(wa.x0 - wb.x0))


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
    w = ne.make_window(m, 0.3, [1, 1, 1], fwd_len=3)
    s, lg = cocycle(w, 1)  # df = -2 on the decreasing branch
    assert s == -1 and math.exp(lg) == pytest.approx(2.0)
    s2, _ = cocycle(w, 2)
    assert s2 == (1 if w.deriv(0) * w.deriv(1) > 0 else -1)
    for n in range(-3, 3):  # deriv takes the sign of its branch's df
        d = float(K.dfwd_vec(m.map_kind, m.table, w.branch(n), w.x(n)))
        assert w.deriv(n) == pytest.approx(d, rel=1e-15)


def test_window_caches_are_read_only(w16):
    for w in (w16, w16.shift(3), w16.extend_forward(5)):
        for arr in (w.points, w.branch_ids, w.logderivs, w.cumlog):
            assert not arr.flags.writeable


def test_backward_consistency_bit_for_bit(doubling, w16):
    pts = ne.backward_orbit(doubling, w16.x0, w16.back_branches)
    for k in range(1, w16.back_len + 1):
        assert pts[k - 1] == w16.x(-k)


def test_forward_consistency_tolerance(w16, doubling):
    for n in range(-w16.back_len + 1, w16.fwd_len):
        assert abs(doubling.f(w16.x(n - 1)) - w16.x(n)) < 1e-10


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
        assert abs(doubling.f(w.x(n - 1)) - w.x(n)) < 1e-10


def test_periodic_window_extends_forward_periodically(doubling):
    w = ne.make_periodic_window(doubling, 1 / 6, [0, 1], 16, 4)
    w2 = w.shift(10)
    assert w2.x0 == w.x(0) if 10 % 2 == 0 else w.x(1)
    assert w2.back_len == 26


def test_pseudo_window_rejects_bad_orbit(doubling):
    pts = np.array([0.1, 0.3, 0.1])  # f(0.1) = 0.2 != 0.3
    with pytest.raises(ValueError):
        ne.make_pseudo_window(doubling, pts, np.array([0, 1], dtype=np.int64))


def test_make_window_rejects_singular_word(doubling):
    # the all-zeros past contracts into the exclusion zone around 0
    with pytest.raises(symdyn.SingularPoint):
        ne.make_window(doubling, 0.1, [0] * 60, fwd_len=1)


def test_record_roundtrip_gauss():
    m = symdyn.built_in("gauss")
    w = ne.make_window(m, 0.3141592653589793, [1, 2, 1, 3, 1], fwd_len=6)  # rationals terminate at the singular grid
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


@pytest.mark.parametrize("name,max_period", [("doubling", 10), ("tent", 8),
                                             ("quadratic", 8), ("gauss", 2)])
def test_periodic_windows_match_burn_in_reference(monkeypatch, name, max_period):
    # closing the cycle at the first float closure gives the window the
    # fixed 256-step burn-in gave, for every window the pipeline builds
    m = symdyn.built_in(name)
    cfg = RunConfig(map=name, max_period=max_period)
    make = ne.make_periodic_window
    built = []

    def checked(*args, **kwargs):
        try:
            ref = make_periodic_window_reference(*args, **kwargs)
        except (symdyn.SingularPoint, ValueError) as e:
            with pytest.raises(type(e)):
                make(*args, **kwargs)
            raise
        w = make(*args, **kwargs)
        assert _window_bits(w) == _window_bits(ref)
        built.append(w)
        return w

    monkeypatch.setattr(ne, "make_periodic_window", checked)
    library.periodic_library(m, cfg.chi, cfg.max_period, back_depth=cfg.back_depth,
                             fwd_len=max(cfg.fwd_len, cfg.encode_hi + 2), n_min=cfg.n_min)
    assert built


def test_periodic_window_stops_at_first_closure(monkeypatch, doubling):
    calls = []
    preimage = type(doubling).preimage

    def counted(self, y, bid):
        calls.append(bid)
        return preimage(self, y, bid)

    monkeypatch.setattr(type(doubling), "preimage", counted)
    w = ne.make_periodic_window(doubling, 1 / 6, [0, 1], 64, 40)
    assert w.period == 2
    assert 0 < len(calls) < 256
