"""Chart-layer quantities computed once per run or per batch.

Cover ids come from one batched scan per alphabet and bins are kept per
window phase; each stage shadows its gpos in one ``shadow_many`` call,
which computes one step map per distinct edge of the call (no chart keeps
step maps).  These tests check the cover ids and step maps against the
scan and the step map of tests/oracles.py, count that each distinct point
is scanned once, each (table, phase) binned once, each stage makes one
``shadow_many`` call and each call one step map per distinct edge of its
walks, and check that a second run in the same process repeats the work,
so no memo outlives its run.
"""

from collections import Counter

import numpy as np
import pytest

from symdyn import cli, coarse_grain, map_model, shadowing
from symdyn.config import parse_config

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
        self.calls = []      # per shadow_many call: its charts, walks and step_map calls


def _recorded_run(text, out, command="full-pipeline"):
    rec = Record()
    cover_ids, gamma_and_bin = map_model.MapModel.cover_ids, coarse_grain._gamma_and_bin
    step_map, shadow_many = shadowing.step_map, shadowing.shadow_many

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

    def shadow_many_rec(m, charts, walks, *args, **kwargs):
        first = len(rec.steps)
        res = shadow_many(m, charts, walks, *args, **kwargs)
        rec.calls.append((charts, np.array(walks), rec.steps[first:]))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(map_model.MapModel, "cover_ids", cover_ids_rec)
        mp.setattr(coarse_grain, "_gamma_and_bin", gamma_and_bin_rec)
        mp.setattr(shadowing, "step_map", step_map_rec)
        mp.setattr(shadowing, "shadow_many", shadow_many_rec)
        cli.run(command, parse_config(text), str(out), quiet=True)
    return rec


@pytest.fixture(scope="module", params=list(RUNS))
def run(request, tmp_path_factory):
    return _recorded_run(RUNS[request.param], tmp_path_factory.mktemp(request.param))


def _bits(s):
    return float.hex(s.a), float.hex(s.b)


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


def _one_step_map_per_edge(call):
    """The step maps of one shadow_many call are one per distinct edge
    chart j + 1 -> chart j of its walks."""
    charts, walks, steps = call
    edges = {(id(charts[t]), id(charts[f]))
             for t, f in zip(walks[:, :-1].ravel().tolist(), walks[:, 1:].ravel().tolist())}
    asked = Counter((id(v_to), id(v_from)) for _, v_to, v_from, _, _ in steps)
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
    assert sum(len(steps) for _, _, steps in run.calls) == len(run.steps)


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

