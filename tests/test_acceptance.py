"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion; each test also prints a summary line.
"""

import math
import time
from dataclasses import replace

import pytest

import symdyn
from symdyn import analysis as an
from symdyn import cli
from symdyn import coarse_grain as cg
from symdyn import library, map_model
from symdyn import markov_refine as mr
from symdyn import pesin
from symdyn import shadowing as sh
from symdyn.config import RunConfig

from construction import (Chart, chart_G, compute_u, cover_of, deriv, encode, hat_pi,
                          linear_reduction_slope, make_window, params_at, random_library,
                          rectangles, shadow, step_map, successors, u_recursion_step)
from oracles import signature_partition, strong_chain

LN2 = math.log(2.0)

# chart-scale parameters per built-in; epsilon <= chi/2 keeps the
# step-contraction bound e^{-chi/2} exact (|A| e^eps < e^{-chi/2})
MAP_PARAMS = {
    "doubling": dict(chi=0.5 * LN2, eps=0.1),
    "tent": dict(chi=0.5 * LN2, eps=0.1),
    "quadratic": dict(chi=0.1, eps=0.05),
    "gauss": dict(chi=0.5, eps=0.1),
}
ALL_MAPS = list(MAP_PARAMS)


def _cfg(name):
    p = MAP_PARAMS[name]
    return RunConfig(chi=p["chi"], epsilon=p["eps"])


@pytest.fixture(scope="module")
def random_libs():
    """1000 certified random windows per built-in (criteria 3 and 4)."""
    out = {}
    for name in ALL_MAPS:
        m = symdyn.built_in(name)
        p = MAP_PARAMS[name]
        lib = random_library(m, p["chi"], 1000, back_depth=40,
                                     fwd_len=14, seed=708 + len(name))
        assert len(lib.windows) == 1000, f"{name}: {len(lib.windows)} certified"
        out[name] = lib.windows
    return out


@pytest.fixture(scope="module")
def doubling_fixture():
    """Pruned graph + cover over all doubling orbits of period <= 6."""
    m = symdyn.built_in("doubling")
    cfg = _cfg("doubling")
    lib = library.periodic_library(m, replace(cfg, max_period=6, back_depth=64, fwd_len=16))
    al = cg.build_alphabet(m, lib.windows, cfg)
    pg, kept = cg.prune_relevant(cg.build_graph(al))
    return m, cfg, lib, al, pg, kept


def test_criterion_01_regularity():
    worst = {}
    t0 = time.perf_counter()
    for name in ALL_MAPS:
        m = symdyn.built_in(name)
        rep = map_model.verify_regularity(m, 10_000, seed=11)
        assert rep.passed, f"{name} failed:\n" + "\n".join(rep.lines())
        worst[name] = rep
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"regularity took {elapsed:.1f}s"
    # the quadratic's (A2)/(A3) worst behaviour sits next to the critical point:
    # the A3 worst-quotient witness and the extreme-derivative witness
    q = worst["quadratic"]
    assert abs(q.clauses["A3"].worst_x - 0.25) < 0.05
    assert abs(q.extreme_x - 0.25) < 0.05
    print(f"CRITERION 1 PASS: all four built-ins pass (A1)-(A3) at 1e4 samples "
          f"in {elapsed:.2f}s; quadratic witnesses at "
          f"x={q.clauses['A3'].worst_x:.4f}, {q.extreme_x:.4f}")


def test_criterion_02_u_fixture():
    m = symdyn.built_in("doubling")
    chi = MAP_PARAMS["doubling"]["chi"]
    w = make_window(m, 1 / 6, [1, 0] * 20, fwd_len=12)  # N = 40
    u, tail = compute_u(w, chi)
    err = abs(u - math.sqrt(2.0))
    assert err <= 2.0 * 2.0 ** -40
    # recursion vs series at every index, within the propagated tail bound
    u_rec, tail_rec = u, tail
    for n in range(w.fwd_len - 1):
        d = deriv(w, n)
        u_rec = u_recursion_step(u_rec, d, chi)
        tail_rec = tail_rec * math.exp(2 * chi) / (d * d)
        u_direct = pesin.u_at(w, chi, k=n + 1)
        assert abs(u_rec**2 - u_direct**2) <= 2 * (tail_rec + tail) + 1e-13, n
    print(f"CRITERION 2 PASS: u = sqrt(2) within {err:.3e} <= 2*2^-40 = "
          f"{2*2**-40:.3e}; recursion-vs-series inside the tail at every index")


def test_criterion_03_linear_reduction_identity(random_libs):
    checked = 0
    for name in ALL_MAPS:
        chi = MAP_PARAMS[name]["chi"]
        for w in random_libs[name]:
            u = pesin.u_at(w, chi, 0)
            d = deriv(w, 0)
            u_next = u_recursion_step(u, d, chi)
            dF0 = linear_reduction_slope(u, u_next, d)
            rhs = math.exp(2 * chi) * u_next**2 / (u_next**2 - 1.0)
            assert abs(dF0 * dF0 - rhs) <= 1e-9 * abs(rhs)
            assert abs(dF0) > math.exp(chi)
            checked += 1
    assert checked == 4000
    print(f"CRITERION 3 PASS: |(dF)_0|^2 identity at rel 1e-9 and |(dF)_0| > "
          f"e^chi on {checked} certified windows (1000 per built-in)")


def test_criterion_04_chart_map_bounds(random_libs):
    pairs = 0
    exact_checked = 0
    for name in ALL_MAPS:
        m = symdyn.built_in(name)
        cfg = _cfg(name)
        for w in random_libs[name][:125]:
            tabs = pesin.window_tables(m, w, cfg, lo=-2, hi=0)
            charts = {k: Chart(center=w, shift=k, params=params_at(tabs, k), idx_p=tabs.idx_q[k])
                      for k in (-2, -1, 0)}
            for k in (0, -1):
                c_from, c_to = charts[k], charts[k - 1]
                dec = chart_G(m, c_from, c_to, branch_id=w.branch(k - 1),
                                    samples=64)
                assert dec.dG_sup < math.exp(-cfg.chi / 2.0)
                # the exact-chart case: h(0) = dh_0 = 0 to 1e-12
                assert abs(dec.h0) < 1e-12 and abs(dec.dh0) < 1e-12
                exact_checked += 1
                # theorem bounds across the overlap: < eps (p q)^3
                bound = (math.log(cfg.epsilon)
                         + 3.0 * (c_from.log_p + c_to.log_p))
                assert dec.log_h0 < bound and dec.log_dh0 < bound
                pairs += 1
    assert pairs == 1000
    print(f"CRITERION 4 PASS: ||dG|| < e^(-chi/2), h(0)=dh0=0 (<= 1e-12), and "
          f"|h0|,|dh0| < eps(pq)^3 on {pairs} overlap fixtures; zero violations")


@pytest.fixture(scope="module")
def roundtrip_results():
    out = {}
    for name in ALL_MAPS:
        m = symdyn.built_in(name)
        cfg = _cfg(name)
        lib = random_library(m, cfg.chi, 100, back_depth=40,
                                     fwd_len=14, seed=2026)
        assert len(lib.windows) == 100
        hi = 8
        samples = [w.shift(k) for w in lib.windows for k in range(0, hi + 1)]
        al = cg.build_alphabet(m, samples, cfg)
        results = []
        for w in lib.windows:
            gpo, _ = encode(m, w, al, cfg, lo=0, hi=hi)
            assert strong_chain(m, gpo.charts, cfg), "strong edge failed in encoding"
            results.append(shadow(m, gpo, cfg))
        out[name] = results
    return out


def test_criterion_05_sufficiency_roundtrip(roundtrip_results):
    worst_slack = 0.0
    total = 0
    for name, results in roundtrip_results.items():
        for res in results:
            # every represented coordinate recovered within p_n (|tau| <= 1)
            assert res.worst <= 1.0 + 1e-9
            worst_slack = max(worst_slack, res.worst)
            total += 1
    assert total == 400
    print(f"CRITERION 5 PASS: {total} encodings (100 per built-in) strong-edge "
          f"verified; shadow recovers all coordinates within p_n "
          f"(worst |t_n|/p_n = {worst_slack:.3g})")


def _contraction_ratios(m, g, cfg):
    """|a| of the forward step maps of gpo g, from index n_hi - 1 down to 0:
    the nested-length ratios of its shadowing."""
    return [abs(step_map(m, g.chart(n), g.chart(n + 1), cfg).a)
            for n in range(g.n_hi - 1, -1, -1)]


def test_criterion_06_contraction(roundtrip_results, doubling_fixture):
    m, cfg, lib, al, pg, kept = doubling_fixture
    burn = 2
    checked = 0
    for name, results in roundtrip_results.items():
        mn, cfg_n = symdyn.built_in(name), _cfg(name)
        bound = math.exp(-MAP_PARAMS[name]["chi"] / 2.0)
        for res in results:
            for r in _contraction_ratios(mn, res.gpo, cfg_n)[burn:]:
                assert r <= bound * (1 + 1e-12), (name, r, bound)
                checked += 1
    # and on the periodic doubling fixture gpos
    for w in lib.windows[:20]:
        gpo, _ = encode(m, w, al, cfg, lo=-8, hi=12)
        shadow(m, gpo, cfg)
        for r in _contraction_ratios(m, gpo, cfg)[burn:]:
            assert r <= math.exp(-cfg.chi / 2.0) * (1 + 1e-12)
            checked += 1
    print(f"CRITERION 6 PASS: {checked} nested-interval steps decay by "
          f"<= e^(-chi/2) after burn-in on all fixture gpos")


def test_criterion_07_inverse_audit():
    m = symdyn.built_in("doubling")
    cfg = _cfg("doubling")
    lib = library.periodic_library(m, replace(cfg, max_period=6, back_depth=64, fwd_len=16))
    fams = [[replace(w, u_depth=d) for w in lib.windows] for d in (30, 34)]
    samples = fams[0] + fams[1]
    al = cg.build_alphabet(m, samples, cfg)
    reps_a = {}
    reps_b = {}
    for w in fams[0]:
        reps_a.setdefault(round(w.x0, 9), w)
    for w in fams[1]:
        reps_b.setdefault(round(w.x0, 9), w)
    audited = 0
    for key, wa in sorted(reps_a.items()):
        wb = reps_b.get(key)
        if wb is None:
            continue
        (v1, n_lo), (v2, _) = (cg.sufficiency_encode(m, w, al, cfg, lo=-4, hi=10)
                               for w in (wa, wb))
        rep = sh.inverse_check(sh.shadow_many(m, al.vertices, [v1, v2], n_lo, cfg), 0, 1,
                               al.vertices, cfg)
        assert rep.passed, "\n".join(rep.lines())
        # the recurrence diagnostic accompanies every report
        assert rep.recurrence["g1"]["repeats_forward"]
        audited += 1
    assert audited >= 20
    print(f"CRITERION 7 PASS: all five inverse-theorem clauses hold on "
          f"{audited} double-coding fixtures (two u-truncation families)")


def test_criterion_08_refinement_oracle(doubling_fixture):
    m, cfg, lib, al, pg, kept = doubling_fixture
    covers = []
    base, _ = mr.build_cover(m, pg, replace(cfg, paths_per_vertex=3, cover_window=10, seed=4))
    covers.append(base)
    # an overlapping variant: duplicated rectangles force nontrivial signatures
    covers.append(cover_of(rectangles(base) + rectangles(base)[:5], base.back_len))
    for cover in covers:
        cells = mr.refine(cover, mr.point_classes(al.vertices, cover))
        ours = sorted(sorted(c.members.tolist()) for c in cells)
        assert ours == signature_partition(m, al.vertices, cover)
        for c in cells:
            assert dict(c.signature).get((c.rect, c.rect)) == "su"  # T_ii^{su} = Z_i
    print(f"CRITERION 8 PASS: refine equals the brute-force signature partition "
          f"on {len(covers)} sampled covers ({len(covers[0])} and "
          f"{len(covers[1])} rectangles); T_ii = 'su' throughout")


def test_criterion_09_markov_audit(doubling_fixture):
    m, cfg, lib, al, pg, kept = doubling_fixture
    cover, _ = mr.build_cover(m, pg, replace(cfg, paths_per_vertex=3, cover_window=10, seed=4))
    pc = mr.point_classes(al.vertices, cover)
    cells = mr.refine(cover, pc)
    tg = mr.hat_graph(cover, cells, pc)
    rep = mr.audits(tg)
    assert rep.markov_checked > 0
    assert rep.markov_failures == 0
    # cylinder diameters along admissible paths decay at rate <= e^{-chi/2}
    rate = math.exp(-cfg.chi / 2.0)
    paths_checked = 0
    for c in cells[:10]:
        path = [c.cell_id]
        for _ in range(6):
            path.append(successors(tg, path[-1])[0])
        _, diams = hat_pi(m, tg, path, n_lo=0)
        for a, b in zip(diams, diams[1:]):
            assert b <= a * rate + 1e-300
        paths_checked += 1
    print(f"CRITERION 9 PASS: {rep.markov_checked} sampled fibre containments "
          f"hold; cylinder diameters decay at rate <= e^(-chi/2) on "
          f"{paths_checked} admissible paths")


def test_criterion_10_entropy_growth():
    t0 = time.perf_counter()
    m = symdyn.built_in("doubling")
    cfg = _cfg("doubling")
    lib = library.periodic_library(m, replace(cfg, max_period=10, back_depth=64, fwd_len=16))
    assert len(lib.windows) >= 1000
    al = cg.build_alphabet(m, lib.windows, cfg)
    pg, _ = cg.prune_relevant(cg.build_graph(al))
    rep = an.growth_report(lib.map_counts, *an.closed_paths_and_radius(pg, 10))
    elapsed = time.perf_counter() - t0
    for n, mc, _, _ in rep.rows:
        assert mc == 2 ** n - 1  # map counts exactly
    assert abs(rep.symbolic_slope - LN2) < 0.1
    assert abs(rep.entropy.loop_growth - LN2) < 0.1
    assert elapsed < 60.0
    print(f"CRITERION 10 PASS: map counts = 2^n - 1 for n=1..10; symbolic "
          f"slope {rep.symbolic_slope:.4f} within 0.1 of ln2; "
          f"{len(lib.windows)} orbit samples; {elapsed:.1f}s < 60s")


def test_criterion_11_finite_to_one(doubling_fixture):
    m, cfg, lib, al, pg, kept = doubling_fixture
    maxima = []
    for ppv in (3, 6):  # doubling the sample size
        cover, _ = mr.build_cover(m, pg, replace(cfg, paths_per_vertex=ppv, cover_window=10,
                                                 seed=4))
        pc = mr.point_classes(al.vertices, cover)
        cells = mr.refine(cover, pc)
        tg = mr.hat_graph(cover, cells, pc)
        rep = mr.audits(tg)
        assert rep.preimage_max <= rep.preimage_bound_max
        maxima.append(rep.preimage_max)
    assert maxima[0] == maxima[1]  # stable under doubling the sample size
    print(f"CRITERION 11 PASS: empirical preimage counts bounded "
          f"(max {maxima[0]}), unchanged when the sample size doubles")


def test_criterion_12_determinism(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "map = doubling\nmax_period = 4\nsamples = 400\ncover_window = 8\n"
        "encode_hi = 8\nfwd_len = 16\n", encoding="utf-8")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["full-pipeline", "--config", str(cfgfile),
                       "--out", str(out), "--quiet"])
        assert rc == 0
        outs.append(out)
    import os
    names = sorted(os.listdir(outs[0]))
    diff = [n for n in names
            if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
    assert not diff, f"artifacts differ: {diff}"
    print(f"CRITERION 12 PASS: two full-pipeline runs produced byte-identical "
          f"artifacts ({len(names)} files)")
