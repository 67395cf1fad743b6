import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

import symdyn
from symdyn import coarse_grain, library
from symdyn import natural_extension as ne
from symdyn import pesin
from symdyn.config import RunConfig, parse_config

from construction import (Chart, DomainViolation, PesinParams, TailDiverges, alphabet_vertices,
                          chart_G, chart_table, compute_u, deriv, f, linear_reduction_slope,
                          make_window, params_at, psi, random_library, u_recursion_step)
from oracles import (delta_eps, expansion_certificate_reference, u_phase_table_reference,
                     window_tables_reference)

CHI2 = 0.5 * math.log(2.0)


@pytest.fixture(scope="module")
def doubling():
    return symdyn.built_in("doubling")


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(chi=CHI2, epsilon=0.1)


@pytest.fixture(scope="module")
def w40(doubling):
    return make_window(doubling, 1 / 6, [1, 0] * 20, fwd_len=30)


@pytest.fixture(scope="module")
def cyc(doubling):
    return ne.make_periodic_window(doubling, 1 / 6, [0, 1], 64, 40)


# -- certificate ------------------------------------------------------------

def test_certificate_doubling(w40, cfg):
    cert = pesin.expansion_certificate(w40, cfg)
    assert cert.ok
    assert cert.margin == pytest.approx(CHI2, abs=1e-12)


def test_certificate_rejects_large_chi(w40):
    assert not pesin.expansion_certificate(w40, RunConfig(chi=2.0 * math.log(2.0))).ok


def test_certificate_refuses_near_critical_window():
    m = symdyn.built_in("quadratic")
    # a genuine orbit window passing close to the critical point: |df| ~ 1.6e-3
    x = 0.25 + 1e-4
    w = make_window(m, x, [], fwd_len=4)
    cert = pesin.expansion_certificate(w, RunConfig(chi=0.1, n_min=1))
    assert not cert.ok


def _cert_bits(c):
    return (c.ok, float.hex(c.margin), float.hex(c.fwd_min_avg), float.hex(c.back_min_avg),
            c.worst_n)


@pytest.mark.parametrize("name", ["doubling", "tent", "quadratic", "gauss"])
def test_certificate_matches_block_loop(name):
    # every library window, with the library's parameters and with ones that
    # fail it, certified in one pass per side against the block-by-block loop
    m = symdyn.built_in(name)
    lib = library.periodic_library(m, RunConfig(chi=CHI2, max_period=2 if name == "gauss" else 6,
                                                back_depth=40, fwd_len=14))
    assert lib.windows
    for w in lib.windows:
        for chi, n_min in ((CHI2, 6), (0.6, 1), (CHI2, 20), (2.0, 50)):
            got = pesin.expansion_certificate(w, RunConfig(chi=chi, n_min=n_min))
            assert _cert_bits(got) == _cert_bits(expansion_certificate_reference(w, chi, n_min))


def test_certificate_short_and_one_sided_windows(doubling):
    windows = [make_window(doubling, 0.1234567, word, fwd_len)
               for word in ([], [1], [0, 1, 1] * 3) for fwd_len in (0, 1, 5, 9)]
    for w in windows:
        for n_min in (1, 6):
            got = pesin.expansion_certificate(w, RunConfig(chi=CHI2, n_min=n_min))
            assert _cert_bits(got) == _cert_bits(expansion_certificate_reference(w, CHI2, n_min))


def test_certificate_kept_per_window(doubling, cfg):
    # the library and the window's tables share one certificate; a shifted
    # view is certified afresh
    w = ne.make_periodic_window(doubling, 1 / 6, [0, 1], 64, 40)
    cert = pesin.expansion_certificate(w, cfg)
    assert pesin.expansion_certificate(w, cfg) is cert
    assert pesin.expansion_certificate(w, replace(cfg, n_min=7)) is not cert
    tabs = pesin.window_tables(doubling, w, cfg)
    assert tabs.certified is cert.ok and w.certs[(cfg.chi, cfg.n_min)] is cert
    assert w.shift(1).certs == {}


# -- u ------------------------------------------------------------------------

def _u_oracle_mpmath(w, chi, depth):
    """Independent high-precision partial sum of the defining series."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for n in range(depth + 1):
            prod = mpmath.mpf(1)
            for k in range(1, n + 1):
                prod /= mpmath.mpf(repr(deriv(w, -k)))
            total += mpmath.e ** (2 * n * mpmath.mpf(repr(chi))) * prod * prod
        return float(mpmath.sqrt(total))


def test_compute_u_doubling_sqrt2(doubling):
    w = make_window(doubling, 1 / 6, [1, 0] * 20, fwd_len=3)  # N = 40
    u, tail = compute_u(w, CHI2, n_min=3)
    assert abs(u - math.sqrt(2.0)) <= 2.0 * 2.0 ** -40
    assert tail == pytest.approx(2.0 * 2.0 ** -40, rel=1e-9)
    assert u == pytest.approx(_u_oracle_mpmath(w, CHI2, 40), rel=1e-13)


def test_compute_u_depth_zero(doubling, w40):
    assert pesin.u_at(w40, CHI2, k=-w40.back_len) == 1.0


def test_compute_u_other_chi(doubling, w40):
    chi = 0.9 * math.log(2.0)
    u, tail = compute_u(w40, chi)
    # geometric series with ratio e^{2 chi}/4 = 2^{-0.2}
    exact = (1.0 / (1.0 - 2.0 ** -0.2)) ** 0.5
    assert u == pytest.approx(exact, abs=tail + 1e-12)
    assert u == pytest.approx(_u_oracle_mpmath(w40, chi, 40), rel=1e-13)


def test_compute_u_raises_on_bad_margin(doubling, w40):
    with pytest.raises(TailDiverges):
        compute_u(w40, 1.5 * math.log(2.0))


def test_u_recursion_step_examples():
    assert u_recursion_step(math.sqrt(2), 2.0, CHI2) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert u_recursion_step(1.0, 2.0, CHI2) == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert u_recursion_step(1.0, 1e12, CHI2) == pytest.approx(1.0, abs=1e-12)


def test_u_shift_stability_on_cycles(cyc):
    assert pesin.u_at(cyc, CHI2, 0) == pesin.u_at(cyc, CHI2, 2) == pesin.u_at(cyc, CHI2, 10)
    assert pesin.u_at(cyc, CHI2, 1) == pesin.u_at(cyc, CHI2, 3)


def test_seed_error_contraction(doubling, w40):
    # two u-recursion runs along the same window, perturbed seed
    chi = CHI2
    u1, u2 = 1.3, 1.3 * (1 + 1e-6)
    diffs = []
    for n in range(12):
        d = deriv(w40, n)
        assert math.exp(2 * chi) / (d * d) < 1.0
        u1 = u_recursion_step(u1, d, chi)
        u2 = u_recursion_step(u2, d, chi)
        diffs.append(abs(u1 - u2))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_compute_u_vs_recursion_within_tail(doubling, w40):
    chi = CHI2
    u0, tail0 = compute_u(w40, chi)
    u, tail = u0, tail0
    for n in range(6):
        d = deriv(w40, n)
        u = u_recursion_step(u, d, chi)
        tail = tail * math.exp(2 * chi) / (d * d)  # propagated truncation error
        u_direct = pesin.u_at(w40, chi, k=n + 1)
        assert abs(u * u - u_direct * u_direct) <= 2 * (tail + tail0) + 1e-14


# -- Q, delta, q --------------------------------------------------------------

def test_compute_Q_spec_example():
    lq, idx = pesin.compute_Q(math.sqrt(2), math.sqrt(2), 0.1, 0.1, 1.0, 0.5)
    assert lq == pytest.approx(-353.7055, abs=2e-4)
    assert idx == 10612
    with mpmath.workdps(50):
        s2 = mpmath.sqrt(2)
        oracle = (3 / mpmath.mpf("0.5")) * mpmath.log(mpmath.mpf("0.1")) + min(
            -(24 / mpmath.mpf("0.5")) * mpmath.log(s2),
            -(12 / mpmath.mpf("0.5")) * mpmath.log(s2)
            + (72 / mpmath.mpf("0.5")) * mpmath.log(mpmath.mpf("0.1")),
        )
        assert lq == pytest.approx(float(oracle), rel=1e-12)


def test_compute_Q_grid_rounding_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = float(rng.uniform(1.0001, 4.0))
        up = float(rng.uniform(1.0001, 4.0))
        rho = float(rng.uniform(1e-4, 0.2))
        eps = float(rng.uniform(0.02, 0.5))
        lq, idx = pesin.compute_Q(u, up, rho, eps, 1.5, 0.5)
        logQ = -(eps / 3.0) * idx
        assert logQ <= lq + 1e-12
        assert lq - logQ < eps / 3.0 + 1e-12


def test_trivial_bound_uQ(doubling, cfg, cyc):
    # u(x) Q^{beta/24} <= eps^{1/8}
    tabs = pesin.window_tables(doubling, cyc, cfg, lo=0, hi=1)
    for k in (0, 1):
        p = params_at(tabs, k)
        lhs = math.log(p.u) + (doubling.beta / 24.0) * p.logQ
        assert lhs <= math.log(cfg.epsilon) / 8.0 + 1e-12


def test_delta_eps_examples():
    assert RunConfig(chi=1, epsilon=0.1).delta_index == 3 * 24
    assert delta_eps(0.1) == pytest.approx(math.exp(-2.4))
    eps = math.exp(-1.0)
    n = RunConfig(chi=1, epsilon=eps).delta_index // 3
    assert n == 3
    assert delta_eps(eps) == pytest.approx(math.exp(-3 * eps))


def test_delta_eps_enumeration_oracle():
    rng = np.random.default_rng(1)
    for eps in rng.uniform(0.01, 0.9, size=100):
        n = 1
        while not math.exp(-eps * n) < eps:
            n += 1
        assert RunConfig(chi=1, epsilon=float(eps)).delta_index == 3 * n
        assert delta_eps(float(eps)) < eps  # always


def test_q_greedy_constant(cfg):
    out = pesin.q_greedy([100] * 6, cfg)
    assert out == [cfg.delta_index + 100] * 6


def test_q_greedy_dip_recovery(cfg):
    idxQ = [100, 100, 160, 100, 100, 100, 100, 100]
    out = pesin.q_greedy(idxQ, cfg)
    nd = cfg.delta_index
    assert out[2] == nd + 160
    # recovery at rate +eps per step: 3 grid indices per step
    assert out[3] == nd + 157 and out[4] == nd + 154
    assert all(o >= nd + q for o, q in zip(out, idxQ))  # <= delta Q pointwise


def test_q_greedy_periodic_matches_deep_truncation(cfg):
    # window_tables takes the second lap of the greedy as the periodic solution
    for idxQ_cycle in ([100, 130, 90, 100], [100], [40, 400, 10, 0, 250, 5, 90]):
        P = len(idxQ_cycle)
        per = pesin.q_greedy(idxQ_cycle * 2, cfg)[P:]
        long = pesin.q_greedy(idxQ_cycle * 50, cfg)
        assert long[-P:] == per


def test_lemma_q_good_definition(doubling, cfg, cyc):
    # 0 < q < eps Q: on indices, idx_q >= delta_idx + idxQ > idxQ
    tabs = pesin.window_tables(doubling, cyc, cfg, lo=0, hi=3)
    for k in range(0, 4):
        assert cfg.grid_log(tabs.idx_q[k]) <= math.log(cfg.epsilon) + params_at(tabs, k).logQ


def test_tempering_proxy_logQ_periodic(doubling, cfg, cyc):
    tabs = pesin.window_tables(doubling, cyc, cfg, lo=-20, hi=20)
    for k in range(-20, 19):
        assert tabs.idxQ[k] == tabs.idxQ[k + 2]
        assert tabs.idx_q[k] == tabs.idx_q[k + 2]


# -- charts and chart maps ------------------------------------------------------

def _charts_for(m, cfg, w, lo, hi):
    tabs = pesin.window_tables(m, w, cfg, lo=lo, hi=hi)
    charts = {}
    for k in range(lo, hi + 1):
        charts[k] = Chart(center=w, shift=k, params=params_at(tabs, k), idx_p=tabs.idx_q[k])
    return charts, tabs


def test_chart_size_validity(doubling, cfg, cyc):
    charts, tabs = _charts_for(doubling, cfg, cyc, 0, 1)
    c = charts[0]
    assert c.log_p <= c.params.logQ
    with pytest.raises(ValueError):
        Chart(center=cyc, shift=0, params=c.params, idx_p=c.params.idxQ - 1)


@pytest.mark.parametrize("name", ["doubling", "quadratic", "gauss"])
def test_vertex_table_rows_are_the_charts(name):
    # every column of an alphabet's table holds its charts' own values, bit
    # for bit, and dtype, as the table of the scalar charts does
    cfg = RunConfig(map=name, max_period=2 if name == "gauss" else 4,
                    chi=0.5 if name == "gauss" else CHI2)
    m = symdyn.built_in(name)
    al = coarse_grain.build_alphabet(m, library.periodic_library(m, cfg).windows, cfg)
    vertices = alphabet_vertices(al)
    want = chart_table([v.chart for v in vertices])
    assert len(al.vertices) == len(vertices) > 0
    for f in fields(pesin.VertexTable):
        got, ref = getattr(al.vertices, f.name), getattr(want, f.name)
        if f.name == "cid":
            ref = np.array([v.cid for v in vertices])
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), f.name


def test_vertex_table_refuses_a_size_above_Q(doubling, cfg, cyc):
    al = coarse_grain.build_alphabet(doubling, [cyc.shift(k) for k in range(2)], cfg)
    iq = al.centers[1].gamma.idxQ
    assert pesin.vertex_table(al.centers, [1], [iq], cfg).idx_p.tolist() == [iq]  # p = Q
    with pytest.raises(ValueError, match="chart size exceeds Q"):
        pesin.vertex_table(al.centers, [1, 1], [iq, iq - 1], cfg)


def test_chart_psi_slope(doubling, cfg, cyc):
    charts, _ = _charts_for(doubling, cfg, cyc, 0, 0)
    c = charts[0]
    assert psi(c, 0.0) == c.theta0
    t = 0.001
    assert (psi(c, t) - c.theta0) == pytest.approx(t / c.u, rel=1e-12)


def test_chart_G_doubling_affine(doubling, cfg, cyc):
    # equal-u charts across one backward step: G(t) = t/2 exactly
    charts, tabs = _charts_for(doubling, cfg, cyc, -1, 0)
    dec = chart_G(doubling, charts[0], charts[-1],
                        branch_id=cyc.branch(-1), samples=32)
    assert dec.A == pytest.approx(0.5, rel=1e-12)
    assert abs(dec.A) < math.exp(-cfg.chi)
    assert dec.h0 == 0.0 and dec.dh0 == 0.0
    assert dec.log_h_sup == -math.inf  # h identically zero for affine branches
    assert dec.dG_sup < math.exp(-cfg.chi / 2.0)


def test_chart_G_identity_overlap_normalization(doubling, cfg, cyc):
    # c_to = chart at fhat^{-1} of c_from's center: h(0) = dh_0 = 0
    charts, _ = _charts_for(doubling, cfg, cyc, -1, 0)
    dec = chart_G(doubling, charts[0], charts[-1],
                        branch_id=cyc.branch(-1))
    assert abs(dec.h0) < 1e-12 and abs(dec.dh0) < 1e-12


def test_chart_G_quadratic_contraction():
    m = symdyn.built_in("quadratic")
    cfg = RunConfig(chi=0.1, epsilon=0.1)
    # period-2 orbit of the quadratic map, away from the singular set
    from symdyn.analysis import map_periodic_points
    roots = [x for x in map_periodic_points(m, 2)[0].tolist() if m.singular_distance(x) > 1e-3]
    x = roots[-1]
    word = [m.branch_at(x), m.branch_at(f(m, x))]
    w = ne.make_periodic_window(m, x, word, 64, 16)
    charts, _ = _charts_for(m, cfg, w, -1, 0)
    dec = chart_G(m, charts[0], charts[-1], branch_id=w.branch(-1))
    assert dec.mode == "log"  # quadratic chart scales underflow binary64
    assert dec.dG_sup < math.exp(-cfg.chi / 2.0)
    assert dec.h0 == 0.0
    # |h| and Hol_{beta/2}(dG) stay under the theorem's eps envelope
    assert dec.log_h_sup < math.log(cfg.epsilon)
    assert dec.log_holder < math.log(cfg.epsilon)


def test_chart_G_domain_violation(doubling, cfg, cyc):
    charts, tabs = _charts_for(doubling, cfg, cyc, -1, 0)
    big = Chart(center=cyc, shift=0, params=charts[0].params, idx_p=charts[0].params.idxQ)
    fake = PesinParams(epsilon=cfg.epsilon, u=charts[0].u, u_prev=charts[0].params.u_prev,
                       idxQ=0)
    huge = Chart(center=cyc, shift=0, params=fake, idx_p=0)  # p = 1
    with pytest.raises(DomainViolation):
        chart_G(doubling, huge, charts[-1], branch_id=cyc.branch(-1))


def test_linear_reduction_identity(doubling, cfg, cyc):
    # |(dF)_0|^2 = e^{2 chi} u'^2/(u'^2 - 1) with u' from the recursion
    u = pesin.u_at(cyc, cfg.chi, 0)
    d = deriv(cyc, 0)
    u_next = u_recursion_step(u, d, cfg.chi)
    dF0 = linear_reduction_slope(u, u_next, d)
    rhs = math.exp(2 * cfg.chi) * u_next**2 / (u_next**2 - 1.0)
    assert dF0**2 == pytest.approx(rhs, rel=1e-9)
    assert abs(dF0) > math.exp(cfg.chi)


def test_nonlinear_pesin2_bounds_on_overlap_fixtures(doubling, cfg, cyc):
    # across the identity overlap, |h(0)| and |dh_0| < eps (p q)^3
    charts, _ = _charts_for(doubling, cfg, cyc, -4, 0)
    for k in range(-3, 1):
        dec = chart_G(doubling, charts[k], charts[k - 1],
                            branch_id=cyc.branch(k - 1))
        bound = math.log(cfg.epsilon) + 3.0 * (charts[k].log_p + charts[k - 1].log_p)
        assert dec.log_h0 < bound
        assert dec.log_dh0 < bound
        assert dec.dG_sup < math.exp(-cfg.chi / 2.0)


def test_chart_G_gauss_contraction():
    m = symdyn.built_in("gauss")
    cfg = RunConfig(chi=0.5, epsilon=0.1)
    # the fixed point of the rescaled Gauss map, (sqrt(5)-1)/4
    x = (math.sqrt(5.0) - 1.0) / 4.0
    w = ne.make_periodic_window(m, x, [1], 64, 16)
    charts, _ = _charts_for(m, cfg, w, -1, 0)
    dec = chart_G(m, charts[0], charts[-1], branch_id=w.branch(-1))
    assert dec.dG_sup < math.exp(-cfg.chi / 2.0)
    assert abs(dec.A) == pytest.approx(1.0 / ((math.sqrt(5) + 1) / 2) ** 2, rel=1e-6)
    assert dec.h0 == 0.0 and abs(dec.dh0) < 1e-12


@pytest.mark.parametrize("name", ["doubling", "tent", "quadratic", "gauss"])
def test_window_tables_match_index_by_index(name):
    # per-phase tables of periodic windows (also shifted, extended and shorter
    # than their period) and per-index dicts of random windows, bit for bit
    m = symdyn.built_in(name)
    chi = 0.5 if name == "gauss" else 0.1
    cfg = RunConfig(chi=chi, epsilon=0.1)
    lib = library.periodic_library(m, replace(cfg, max_period=3, back_depth=20, fwd_len=12,
                                              encode_hi=10)).windows
    periodic = [w for w in lib if w.period == 2][:3] + [w for w in lib if w.period == 3][:3]
    windows = periodic + [w.shift(5) for w in periodic[:2]] + [w.shift(20) for w in periodic[:2]]
    # one backward step: (0, 5) holds a whole period, (-3, 1) does not
    windows += [ne.make_periodic_window(m, w.x0, [w.branch(i) for i in range(w.period)],
                                        1, w.period) for w in periodic[3:5]]
    windows += random_library(m, chi, 3, back_depth=20, fwd_len=12, seed=3).windows
    bits = lambda v: float(v).hex() if isinstance(v, float) else v
    kinds = set()
    for w in windows:
        for lo, hi in ((None, None), (0, 5), (-3, 1)):
            tabs = pesin.window_tables(m, w, cfg, lo=lo, hi=hi)
            kinds.add((bool(w.period), type(tabs.idxQ).__name__))
            ref = window_tables_reference(m, w, cfg, lo=lo, hi=hi)
            for k in ref["u"]:
                assert bits(tabs.u[k]) == bits(ref["u"][k])
            for k in ref["idxQ"]:
                assert (bits(pesin._rho(tabs.dist, k)), tabs.idxQ[k],
                        tabs.idx_q[k]) == (bits(ref["rho"][k]), ref["idxQ"][k], ref["idx_q"][k])
    assert kinds == {(True, "_PhaseTable"), (True, "dict"), (False, "dict")}


@pytest.mark.parametrize("text", ["map = doubling\nmax_period = 10", "map = tent", "map = quadratic",
                                  "map = gauss\nmax_period = 2"],
                         ids=["doubling-10", "tent", "quadratic", "gauss-2"])
def test_u_phase_tables_match_phase_by_phase(text):
    # every phase of every library window in one (P, d) pass, bit for bit,
    # at the window's own depth and relabelled to depths 30 and 34
    cfg = parse_config(text)
    for w in library.periodic_library(symdyn.built_in(cfg.map), cfg).windows:
        for v in (w, replace(w, u_depth=30), replace(w, u_depth=34)):
            ours = pesin._u_phase_table(v, cfg.chi)
            assert ours.tobytes() == u_phase_table_reference(v, cfg.chi).tobytes()


@pytest.mark.parametrize("fwd_len", [1, 3, 7])
def test_u_phase_table_of_a_window_shorter_forward_than_its_period(doubling, fwd_len):
    # a period-8 cycle cached only fwd_len < 8 steps forward has the phase
    # table of the same cycle cached a whole period forward, bit for bit,
    # also on shifted views
    word = [1, 0, 0, 1, 0, 1, 1, 0]
    short = ne.make_periodic_window(doubling, 0.2, word, 40, fwd_len)
    long = ne.make_periodic_window(doubling, 0.2, word, 40, 40)
    assert short.period == long.period == 8 and short.x0 == long.x0
    for k in (0, 1, 5):
        assert (pesin._u_phase_table(short.shift(k), CHI2).tobytes()
                == pesin._u_phase_table(long.shift(k), CHI2).tobytes())
