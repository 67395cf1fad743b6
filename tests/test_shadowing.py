import math
from dataclasses import replace

import numpy as np
import pytest

import symdyn
from symdyn import cli
from symdyn import coarse_grain as cg
from symdyn import natural_extension as ne
from symdyn import shadowing as sh
from symdyn.config import RunConfig, parse_config

from construction import (ChartGpo, chart_gpo, encode, inv, inverse_check_charts, record_alphabets,
                          shadow, shadow_row, step_map, unstable_interval)
from oracles import bracket, bracket_windows, image_interval, step_map_oracle

CHI2 = 0.5 * math.log(2.0)


@pytest.fixture(scope="module")
def doubling():
    return symdyn.built_in("doubling")


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(chi=CHI2, epsilon=0.1)


@pytest.fixture(scope="module")
def cyc(doubling):
    return ne.make_periodic_window(doubling, 1 / 6, [0, 1], 64, 64)


@pytest.fixture(scope="module")
def alphabet(doubling, cfg, cyc):
    return cg.build_alphabet(doubling, [cyc.shift(k) for k in range(2)], cfg)


@pytest.fixture(scope="module")
def gpo(doubling, cfg, cyc, alphabet):
    g, _ = encode(doubling, cyc, alphabet, cfg, lo=-20, hi=20)
    return g


def test_shadow_period2_exact(doubling, cfg, gpo, cyc):
    res = shadow(doubling, gpo, cfg)
    assert res.tau0 == 0.0
    for n in range(-10, 10):
        assert res.point.x(n) == cyc.x(n)
    assert res.worst <= 1.0


def test_shadow_requires_forward(doubling, cfg, gpo):
    head = ChartGpo(charts=gpo.charts[:1], n_lo=0)
    with pytest.raises(ValueError):
        shadow(doubling, head, cfg)


def test_shadow_fixed_point_tent(cfg):
    m = symdyn.built_in("tent")
    w = ne.make_periodic_window(m, 1 / 3, [1], 64, 64)
    # float rounding turns the attracting fixed point into a 2-cycle
    assert w.period in (1, 2)
    cfgt = RunConfig(chi=CHI2, epsilon=0.1)
    al = cg.build_alphabet(m, [w.shift(k) for k in range(w.period)], cfgt)
    g, _ = encode(m, w, al, cfgt, lo=0, hi=8)
    res = shadow(m, g, cfgt)
    assert res.point.x0 == w.x0
    assert res.point.x0 == pytest.approx(1 / 3, abs=1e-12)


def test_shadow_contraction_ratios(doubling, cfg, gpo):
    # the nested-length ratio of each forward step is its step map's |a|
    for n in range(gpo.n_hi - 1, -1, -1):
        r = abs(step_map(doubling, gpo.chart(n), gpo.chart(n + 1), cfg).a)
        assert r == pytest.approx(0.5, rel=1e-12)  # = e^{-chi} for doubling
        assert r <= math.exp(-cfg.chi / 2.0)


def test_shadow_error_bound(doubling, cfg, gpo):
    res = shadow(doubling, gpo, cfg)
    c0 = gpo.chart(0)
    assert res.log_err == pytest.approx(
        math.log(2.0) + c0.log_p - cfg.chi * gpo.n_hi / 2.0)


def test_unstable_interval_halving(doubling, cfg, gpo):
    ui = unstable_interval(doubling, gpo, cfg, step_map_oracle)
    taus = ui.reconstruct(0.8, depth=10)
    for k in range(0, -10, -1):
        assert taus[k - 1] == pytest.approx(taus[k] * 0.5, rel=1e-9)


def test_unstable_interval_center_evaluation(doubling, cfg, gpo, cyc):
    # evaluation at tau = 0 follows the backward orbit of the chart centers
    ui = unstable_interval(doubling, cfg=cfg, g=gpo, step=step_map_oracle)
    taus = ui.reconstruct(0.0, depth=8)
    assert all(t == 0.0 for t in taus.values())


def test_unstable_images_nested(doubling, cfg, gpo):
    # Lemma edge(1): G(R[p]) inside R[q]
    ui = unstable_interval(doubling, gpo, cfg, step_map_oracle)
    for n in range(-1, -8, -1):
        lo, hi = image_interval(ui, n)
        assert -1.0 <= lo < hi <= 1.0


def test_hyperbolicity_along_unstable(doubling, cfg, gpo):
    # chart-coordinate separation after k backward steps <= e^{-chi k/2} x initial
    ui = unstable_interval(doubling, gpo, cfg, step_map_oracle)
    a = ui.reconstruct(0.9, depth=12)
    b = ui.reconstruct(-0.7, depth=12)
    d0 = abs(a[0] - b[0])
    for k in range(1, 12):
        sep = abs(a[-k] - b[-k])
        p_ratio = math.exp(gpo.chart(-k).log_p - gpo.chart(0).log_p)
        assert sep * p_ratio <= d0 * math.exp(-cfg.chi * k / 2.0) * (1 + 1e-9)


def test_shadow_invariance_under_shift(doubling, cfg, gpo):
    res = shadow(doubling, gpo, cfg)
    shifted = ChartGpo(charts=gpo.charts[1:], n_lo=gpo.n_lo)
    res2 = shadow(doubling, shifted, cfg)
    for n in range(gpo.n_lo, gpo.n_hi - 1):
        assert res2.point.x(n) == res.point.shift(1).x(n)


# -- brackets ------------------------------------------------------------------

def test_bracket_idempotent(doubling, cfg, gpo):
    res = shadow(doubling, gpo, cfg)
    w = bracket(doubling, res, res)
    assert np.array_equal(w.points, res.point.points)


def test_bracket_mixed_windows(doubling, cfg, cyc, alphabet):
    # forward data from a short forward chain, backward word from the deep cycle
    g_short, _ = encode(doubling, cyc, alphabet, cfg, lo=-2, hi=12)
    g_deep, _ = encode(doubling, cyc, alphabet, cfg, lo=-30, hi=4)
    r_short = shadow(doubling, g_short, cfg)
    r_deep = shadow(doubling, g_deep, cfg)
    w = bracket(doubling, r_short, r_deep)
    # the bracket extends the period-2 forward data with the periodic past
    assert w.back_len == 30
    for n in range(-30, 12):
        assert w.x(n) == cyc.x(n)


def test_bracket_of_bracket_collapses(doubling, cfg, cyc, alphabet):
    g1, _ = encode(doubling, cyc, alphabet, cfg, lo=-4, hi=10)
    g2, _ = encode(doubling, cyc, alphabet, cfg, lo=-20, hi=10)
    r1 = shadow(doubling, g1, cfg)
    r2 = shadow(doubling, g2, cfg)
    w_xy = bracket(doubling, r1, r2)
    # re-bracketing with the same unstable data is definitionally idempotent
    w_again = bracket_windows(doubling, w_xy, r2.point)
    assert np.array_equal(w_again.points, w_xy.points)


def test_bracket_requires_shared_vertex(doubling, cfg, cyc, alphabet):
    g1, _ = encode(doubling, cyc, alphabet, cfg, lo=0, hi=8)
    g2, _ = encode(doubling, cyc.shift(1), alphabet, cfg, lo=0, hi=8)
    r1 = shadow(doubling, g1, cfg)
    r2 = shadow(doubling, g2, cfg)
    with pytest.raises(ValueError):
        bracket(doubling, r1, r2)


# -- inverse audit ---------------------------------------------------------------

def _shadow_pair(m, w1, w2, al, cfg, lo, hi):
    """The encodings of two windows over [lo, hi], shadowed in one batch over
    the alphabet's vertex table, and its two rows."""
    (v1, n_lo), (v2, _) = (cg.sufficiency_encode(m, w, al, cfg, lo=lo, hi=hi) for w in (w1, w2))
    return sh.shadow_many(m, al.vertices, [v1, v2], n_lo, cfg), 0, 1


def test_inverse_check_identity(doubling, cfg, cyc, alphabet):
    rep = sh.inverse_check(*_shadow_pair(doubling, cyc, cyc, alphabet, cfg, -20, 20),
                           alphabet.vertices, cfg)
    assert rep.passed
    for name, (ok, wit) in rep.clauses.items():
        assert ok, name
    assert rep.clauses["2 u ratio"][1].value == 0.0
    assert rep.clauses["4 p ratio"][1].value == 0.0


def test_inverse_check_depth_variant_families(doubling, cfg):
    w = ne.make_periodic_window(doubling, 1 / 6, [0, 1], 64, 40)
    wa, wb = replace(w, u_depth=30), replace(w, u_depth=34)
    samples = [wa.shift(k) for k in range(2)] + [wb.shift(k) for k in range(2)]
    al = cg.build_alphabet(doubling, samples, cfg)
    assert len(al.centers) == 4  # two families, not net-merged
    shadows, i, j = _shadow_pair(doubling, wa, wb, al, cfg, -4, 10)
    assert al.vertices.u[shadows.walks[i, 4]] != al.vertices.u[shadows.walks[j, 4]]  # at n = 0
    rep = sh.inverse_check(shadows, i, j, al.vertices, cfg)
    assert rep.passed, "\n".join(rep.lines())
    assert rep.recurrence["g1"]["repeats_forward"]
    assert rep.recurrence["g1"]["repeats_backward"]


def test_inverse_check_rejects_mismatch(doubling, cfg, alphabet, cyc):
    cyc3 = ne.make_periodic_window(doubling, 1 / 14, [0, 0, 1], 64, 40)
    al = cg.build_alphabet(
        doubling, [cyc.shift(k) for k in range(2)] + [cyc3.shift(k) for k in range(3)], cfg)
    pair = _shadow_pair(doubling, cyc, cyc3, al, cfg, 0, 6)
    with pytest.raises(sh.NotDoubleCoding) as exc:
        sh.inverse_check(*pair, al.vertices, cfg)
    assert "recurrence" in str(exc.value)  # failure carries the diagnostic


def _report_bits(rep):
    """Every field of an InverseReport, floats as their hex."""
    return (rep.passed, rep.common_range, rep.recurrence,
            [(name, ok, wit.n, float(wit.value).hex(), float(wit.bound).hex())
             for name, (ok, wit) in rep.clauses.items()])


@pytest.mark.parametrize("name", ["doubling", "quadratic"])
def test_inverse_check_columns_match_the_scalar_chart_loop(name, tmp_path, monkeypatch):
    # on every double coding of an inverse-audit run, the report read from
    # the vertex table's rows is the scalar chart loop's, bit for bit: each
    # clause's ok flag, witness n, value and bound, and the recurrence dict
    alphabets = record_alphabets(monkeypatch)
    checks = []
    inverse_check = sh.inverse_check

    def recording(shadows, i, j, table, cfg):
        rep = inverse_check(shadows, i, j, table, cfg)
        checks.append((shadows, i, j, alphabets[id(table)], cfg, rep))
        return rep

    monkeypatch.setattr(sh, "inverse_check", recording)
    cli.run("inverse-audit", parse_config(f"map = {name}"), str(tmp_path), quiet=True)
    assert len(checks) > 10
    m = symdyn.built_in(name)
    for shadows, i, j, al, cfg, rep in checks:
        scalar = inverse_check_charts(*(shadow_row(m, shadows, k, chart_gpo(al, shadows.walks[k],
                                                                            shadows.n_lo))
                                        for k in (i, j)), cfg)
        assert _report_bits(rep) == _report_bits(scalar)
        assert rep.lines() == scalar.lines()


def test_lemma_edge_unique_preimage_in_chart(doubling, cfg, gpo):
    # for x in the w-chart, the edge's branch preimage is the unique
    # preimage landing inside the v-chart: exhaustive branch scan
    for i in range(3):
        v = gpo.charts[i]
        w = gpo.charts[i + 1]
        x = w.theta0
        hits = []
        for b in doubling.branches:
            y = inv(b, x)
            if not (b.lo <= y <= b.hi):
                continue
            d = abs(y - v.theta0) * v.u
            from symdyn.coarse_grain import lt_log_threshold
            if lt_log_threshold(d, v.log_p, strict=False):
                hits.append(b.id)
        assert hits == [w.center.branch(w.shift - 1)]
