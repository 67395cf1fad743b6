"""Chart-layer quantities computed once per run.

Cover ids come from one batched scan per alphabet, bins are kept per
window phase and step maps per chart.  These tests check the cover ids and
step maps against the scan and the step map computed on every call
(tests/oracles.py), count that each distinct point is scanned once, each
(table, phase) binned once and each distinct edge gets one step map, and
check that a second run in the same process repeats the work, so no memo
outlives its run.
"""

from collections import Counter

import numpy as np
import pytest

import symdyn
from symdyn import cli, coarse_grain, map_model, pesin, shadowing
from symdyn import natural_extension as ne
from symdyn.config import RunConfig, parse_config

from oracles import cover_id_reference, step_map_reference

RUNS = {
    "doubling": "map = doubling",
    "tent": "map = tent",
    "quadratic": "map = quadratic",
    "gauss": "map = gauss\nmax_period = 2",
}


class Record:
    def __init__(self):
        self.covers = []     # (model, x, cover id) per point of a cover_ids call
        self.scans = []      # the distinct points of each cover_ids call
        self.bins = []       # (window, phase) per index binned; the runs bin periodic windows
        self.steps = []      # (model, v_to, v_from, cfg, StepMap) per step_map call
        self.computed = []   # edge key per step map computed


def _edge(v_to, v_from, cfg):
    return (id(v_from), v_to.theta0, v_to.u, v_to.idx_p, v_to.params.epsilon, cfg.epsilon)


def _recorded_run(text, out):
    rec = Record()
    cover_ids, gamma_and_bin = map_model.MapModel.cover_ids, coarse_grain._gamma_and_bin
    step_map, affine_step = shadowing.step_map, shadowing._affine_step

    def cover_ids_rec(m, xs):
        ids = cover_ids(m, xs)
        xs = np.asarray(xs, dtype=np.float64).tolist()
        rec.covers.extend(zip([m] * len(xs), xs, ids.tolist()))
        rec.scans.extend(set(xs))
        return ids

    def gamma_and_bin_rec(tabs, k, theta, abins):
        w = tabs.w
        rec.bins.append(((id(w.points), w.u_depth, w.off), (k + w.off) % w.period))
        return gamma_and_bin(tabs, k, theta, abins)

    def step_map_rec(m, v_to, v_from, cfg):
        s = step_map(m, v_to, v_from, cfg)
        rec.steps.append((m, v_to, v_from, cfg, s))
        return s

    def affine_step_rec(m, v_to, v_from, cfg):
        rec.computed.append(_edge(v_to, v_from, cfg))
        return affine_step(m, v_to, v_from, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(map_model.MapModel, "cover_ids", cover_ids_rec)
        mp.setattr(coarse_grain, "_gamma_and_bin", gamma_and_bin_rec)
        mp.setattr(shadowing, "step_map", step_map_rec)
        mp.setattr(shadowing, "_affine_step", affine_step_rec)
        cli.run("full-pipeline", parse_config(text), str(out), quiet=True)
    return rec


@pytest.fixture(scope="module", params=list(RUNS))
def run(request, tmp_path_factory):
    return _recorded_run(RUNS[request.param], tmp_path_factory.mktemp(request.param))


def _bits(s):
    return tuple(float.hex(getattr(s, f)) for f in ("a", "b", "slope_t", "size_ratio"))


def test_cover_ids_match_dyadic_scan(run):
    assert run.covers
    seen = {}
    for m, x, cid in run.covers:
        if x not in seen:
            seen[x] = cover_id_reference(m, x)
        assert cid == seen[x]


def test_step_maps_match_reference(run):
    assert run.steps
    done = set()
    for m, v_to, v_from, cfg, s in run.steps:
        if (id(v_to), id(v_from)) in done:
            continue
        done.add((id(v_to), id(v_from)))
        assert _bits(s) == _bits(step_map_reference(m, v_to, v_from, cfg))


def test_one_scan_per_point_one_step_map_per_edge(run):
    points = {x for _, x, _ in run.covers}
    assert Counter(run.scans).most_common(1)[0][1] == 1
    assert set(run.scans) == points
    # the alphabet bins every phase of its tables once, and the shadow stage
    # encodes those tables from the kept bins
    assert run.bins and Counter(run.bins).most_common(1)[0][1] == 1
    edges = {_edge(v_to, v_from, cfg) for _, v_to, v_from, cfg, _ in run.steps}
    assert Counter(run.computed).most_common(1)[0][1] == 1
    assert set(run.computed) == edges
    # the pipeline asks again for every edge (the shadow stage and the
    # Markov cover each shadow their gpos in one batch, which asks once per
    # distinct edge)
    asked = Counter(_edge(v_to, v_from, cfg) for _, v_to, v_from, cfg, _ in run.steps)
    assert min(asked.values()) >= 2


def test_second_run_repeats_the_work(tmp_path):
    first = _recorded_run(RUNS["doubling"], tmp_path / "first")
    second = _recorded_run(RUNS["doubling"], tmp_path / "second")
    assert first.scans and first.bins and first.computed
    assert len(second.scans) == len(first.scans)
    assert len(second.bins) == len(first.bins)
    assert len(second.computed) == len(first.computed)


def test_step_map_key_holds_what_the_step_reads():
    # edges out of one chart that differ only in the target's size, the
    # target's u or the configured epsilon get their own step maps
    m = symdyn.built_in("doubling")
    cfg = RunConfig(chi=0.3, epsilon=0.1)
    cyc = ne.make_periodic_window(m, 1 / 14, [0, 0, 1], 64, 40)
    other = ne.make_periodic_window(m, 1 / 14, [0, 0, 1], 64, 40, u_depth=20)
    tabs = pesin.window_tables(m, cyc, cfg, lo=0, hi=2)
    tabs_u = pesin.window_tables(m, other, cfg, lo=0, hi=2)
    v_from = pesin.Chart(center=cyc, shift=1, params=tabs.params_at(1), idx_p=tabs.idx_q[1])
    ip = tabs.idx_q[0]
    targets = [pesin.Chart(center=cyc, shift=0, params=tabs.params_at(0), idx_p=ip + d)
               for d in (0, 3, 6)]
    targets.append(pesin.Chart(center=other, shift=0, params=tabs_u.params_at(0), idx_p=ip))
    assert targets[-1].u != targets[0].u
    for c in (cfg, RunConfig(chi=0.3, epsilon=0.2)):
        for v_to in targets + targets:
            s = shadowing.step_map(m, v_to, v_from, c)
            assert _bits(s) == _bits(step_map_reference(m, v_to, v_from, c))
    assert len(v_from.steps) == 2 * len(targets)
