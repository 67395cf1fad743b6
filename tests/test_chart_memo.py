"""Chart-layer quantities computed once per run or per batch.

Cover ids come from one batched scan per alphabet and bins are kept per
window phase; each stage shadows its gpos in one ``shadow_many`` call,
which computes the step maps of the call's distinct edges in one
``step_maps`` pass (no chart keeps step maps).  These tests check the cover
ids against the scan of tests/oracles.py, and the step maps bit for bit
against its scalar ``step_map_reference`` and within a few ulps against
its 60-digit affine model ``step_map_oracle``; they count that each
distinct point is scanned once, each (table, phase) binned once, each stage
makes one ``shadow_many`` call and each call one ``step_maps`` pass over
each distinct edge of its walks once, and check that a second run in the
same process repeats the work, so no memo outlives its run.
"""

import math
from collections import Counter

import numpy as np
import pytest

from symdyn import cli, coarse_grain, library, map_model, shadowing
from symdyn.config import parse_config

from construction import record_alphabets, vertex_chart
from oracles import cover_id_reference, step_map_oracle, step_map_reference

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
        self.steps = []      # (model, v_to, v_from, cfg, (a, b)) per edge of a step_maps
        #                      pass, v_to and v_from as (alphabet, row)
        self.passes = []     # the number of edges of each step_maps pass
        self.calls = []      # per shadow_many call: its walks, edges and passes


def _recorded_run(text, out, command="full-pipeline"):
    rec = Record()
    cover_ids, gamma_and_bin = map_model.MapModel.cover_ids, coarse_grain._gamma_and_bin
    step_maps, shadow_many = shadowing.step_maps, shadowing.shadow_many

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

    def step_maps_rec(m, table, to, frm, cfg):
        a, b = step_maps(m, table, to, frm, cfg)
        al = alphabets[id(table)]
        rec.steps.extend((m, (al, t), (al, f), cfg, s) for t, f, s in
                         zip(to.tolist(), frm.tolist(), zip(a.tolist(), b.tolist())))
        rec.passes.append(len(a))
        return a, b

    def shadow_many_rec(m, table, walks, *args, **kwargs):
        first, passes = len(rec.steps), len(rec.passes)
        res = shadow_many(m, table, walks, *args, **kwargs)
        rec.calls.append((np.array(walks), rec.steps[first:], rec.passes[passes:]))
        return res

    with pytest.MonkeyPatch.context() as mp:
        alphabets = record_alphabets(mp)
        mp.setattr(map_model.MapModel, "cover_ids", cover_ids_rec)
        mp.setattr(coarse_grain, "_gamma_and_bin", gamma_and_bin_rec)
        mp.setattr(shadowing, "step_maps", step_maps_rec)
        mp.setattr(shadowing, "shadow_many", shadow_many_rec)
        cli.run(command, parse_config(text), str(out), quiet=True)
    return rec


@pytest.fixture(scope="module", params=list(RUNS))
def run(request, tmp_path_factory):
    return _recorded_run(RUNS[request.param], tmp_path_factory.mktemp(request.param))


def _bits(s):
    return tuple(map(float.hex, s))


def test_cover_ids_match_dyadic_scan(run):
    assert run.covers
    seen = {}
    for m, x, cid in run.covers:
        if x not in seen:
            seen[x] = cover_id_reference(m, x)
        assert cid == seen[x]


def _edges(run):
    """(model, chart to, chart from, cfg, (a, b)) of each distinct recorded
    edge."""
    done = set()
    for m, (al, t), (_, f), cfg, s in run.steps:
        if (id(al), t, f) not in done:
            done.add((id(al), t, f))
            yield m, vertex_chart(al, t), vertex_chart(al, f), cfg, s


def test_step_maps_match_reference(run):
    assert run.steps
    for m, v_to, v_from, cfg, s in _edges(run):
        ref = step_map_reference(m, v_to, v_from, cfg)
        assert _bits(s) == _bits((ref.a, ref.b))


# ulps between the step map's a and the rounded affine model's: the scalar
# lane rounds g', the two products and the exponential once each
A_ULPS = 4


def _a_agrees(a, want, cfg, v_to, v_from):
    """a within A_ULPS ulps of the model's, plus 2|x| ulps for the exponent
    x = (eps/3)(i_to - i_from), which carries the roundings of eps/3 and of
    the product (on an orbit edge |x| is eps)."""
    x = cfg.epsilon / 3.0 * (v_to.idx_p - v_from.idx_p)
    return abs(a - want) <= (A_ULPS + 2.0 * abs(x)) * math.ulp(want)


def test_step_maps_match_the_affine_model(run):
    """a as ``_a_agrees`` says, and b exactly 0 in both, on every edge of a
    run: its centers are consecutive orbit points."""
    checked = 0
    for m, v_to, v_from, cfg, (a, b) in _edges(run):
        want = step_map_oracle(m, v_to, v_from, cfg)
        assert _a_agrees(a, want.a, cfg, v_to, v_from), (a, want.a)
        assert v_from.center.x(v_from.shift - 1) == v_to.theta0
        assert b == want.b == 0.0
        checked += 1
    assert checked


@pytest.mark.parametrize("name", list(RUNS))
def test_step_maps_off_the_orbit_match_the_affine_model(name):
    """Edges between charts of an alphabet next to each other in size: a as
    ``_a_agrees`` says, and where the centers are not consecutive b to 1e-12
    relative of the affine model, or the e^700 cap of its sign above that."""
    cfg = parse_config(RUNS[name])
    m = map_model.load_map(cfg.map)
    lib = library.periodic_library(m, cfg)
    al = coarse_grain.build_alphabet(m, lib.windows, cfg)
    table = al.vertices
    # neighbours in size, both ways: p_from / p_to = e^{(eps/3)(i_to - i_from)}
    # stays in range
    order = np.argsort(table.idx_p, kind="stable")[:151]
    frm, to = np.concatenate([order[:-1], order[1:]]), np.concatenate([order[1:], order[:-1]])
    a, b = shadowing.step_maps(m, table, to, frm, cfg)
    checked = 0
    for k, (t, f) in enumerate(zip(to.tolist(), frm.tolist())):
        v_to, v_from = vertex_chart(al, t), vertex_chart(al, f)
        want = step_map_oracle(m, v_to, v_from, cfg)
        assert _a_agrees(float(a[k]), want.a, cfg, v_to, v_from), (a[k], want.a)
        if v_from.center.x(v_from.shift - 1) != v_to.theta0:
            cap = math.exp(700.0)
            assert b[k] == (pytest.approx(want.b, rel=1e-12, abs=0.0) if abs(want.b) < cap
                            else math.copysign(cap, want.b))
            checked += 1
    assert checked > 100


def _one_step_map_per_edge(call):
    """The step maps of one shadow_many call come from one step_maps pass
    over the distinct edges chart j + 1 -> chart j of its walks, each once."""
    walks, steps, passes = call
    edges = set(zip(walks[:, :-1].ravel().tolist(), walks[:, 1:].ravel().tolist()))
    asked = Counter((t, f) for _, (_, t), (_, f), _, _ in steps)
    assert passes == [len(steps)]
    assert asked and max(asked.values()) == 1
    assert set(asked) == edges


def test_one_scan_per_point_one_step_map_per_edge(run):
    points = {x for _, x, _ in run.covers}
    assert Counter(run.scans).most_common(1)[0][1] == 1
    assert set(run.scans) == points
    # the alphabet bins every phase of its tables once, and the shadow stage
    # encodes those tables from the kept bins
    assert run.bins and Counter(run.bins).most_common(1)[0][1] == 1
    # the shadow stage and the Markov cover each make one shadow_many call
    assert len(run.calls) == 2
    for call in run.calls:
        _one_step_map_per_edge(call)
    assert sum(len(steps) for _, steps, _ in run.calls) == len(run.steps)


@pytest.mark.parametrize("name", ["doubling", "quadratic"])
def test_inverse_audit_shadows_in_one_call(name, tmp_path):
    rec = _recorded_run(RUNS[name], tmp_path, command="inverse-audit")
    (call,) = rec.calls
    _one_step_map_per_edge(call)


def test_second_run_repeats_the_work(tmp_path):
    first = _recorded_run(RUNS["doubling"], tmp_path / "first")
    second = _recorded_run(RUNS["doubling"], tmp_path / "second")
    assert first.scans and first.bins and first.steps
    assert len(second.scans) == len(first.scans)
    assert len(second.bins) == len(first.bins)
    assert len(second.steps) == len(first.steps)

