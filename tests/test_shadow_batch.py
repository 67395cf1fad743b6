"""The lockstep shadowing kernel against the one-gpo loop.

``shadow_many`` shadows every gpo of a batch at once.  Each gpo must get
the IEEE operations of ``oracles.shadow_reference`` in the same order, so
every column of every row and every EdgeBroken message is compared bit
for bit: on every gpo the pipeline shadows, with the reference's steps from
``oracles.step_map_oracle``, and on drawn batches over charts whose step
maps are set by hand in both.
"""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symdyn
from symdyn import cli
from symdyn import shadowing as sh
from symdyn.config import RunConfig, parse_config

from construction import (ChartGpo, StepMap, alphabet_vertices, chart_table, record_alphabets,
                          shadow, shadow_row)
from oracles import shadow_reference


def _hex(values):
    return [float.hex(v) for v in values]


def _is_float(*values):
    return all(type(v) is float for v in values)


def assert_same(got, k, want, row):
    """Row k of the Shadows table ``got`` (its gpo walk ``row``) equals
    ``want`` (from the reference, a ShadowRow or an EdgeBroken) bit for bit."""
    assert got.walks[k].tolist() == list(row)
    if isinstance(want, sh.EdgeBroken):
        assert not got.ok[k]
        assert isinstance(got.broken[k], sh.EdgeBroken) and str(got.broken[k]) == str(want)
        assert np.isnan(got.points[k]).all()
        return
    assert got.ok[k] and k not in got.broken
    columns = ("tau0", "log_p0", "log_err", "worst")
    assert all(getattr(got, f).dtype == np.float64 for f in columns)
    assert _hex(getattr(got, f)[k] for f in columns) == _hex(getattr(want, f) for f in columns)
    q = want.point
    assert q.off == -got.n_lo and (q.u_depth, q.period) == (0, 0)
    for a, b in ((got.points, q.points), (got.branches, q.branch_ids)):
        assert a.dtype == b.dtype and a[k].shape == b.shape and a[k].tobytes() == b.tobytes()


def assert_rows_same(got, want, walks):
    """Every row of the Shadows table ``got`` of ``walks`` equals its
    reference in ``want`` bit for bit."""
    assert len(got) == len(want) == len(walks)
    assert got.walks.shape == np.shape(walks)
    for k, (b, row) in enumerate(zip(want, np.asarray(walks).tolist())):
        assert_same(got, k, b, row)


def reference_batch(m, charts, walks, n_lo, cfg):
    """The one-gpo loop over the rows: a result or an EdgeBroken per row, or
    the message of the ValueError it stops at.  Over ``fake_charts`` its
    steps are the hand-set ones."""
    hand = hasattr(charts[0], "hand_steps")
    out = []
    for row in np.asarray(walks).tolist():
        g = ChartGpo(charts=tuple(charts[i] for i in row), n_lo=n_lo)
        try:
            out.append(shadow_reference(m, g, cfg, step=hand_step) if hand else
                       shadow_reference(m, g, cfg))
        except sh.EdgeBroken as e:
            out.append(e)
        except ValueError as e:
            return str(e)
    return out


def check_batch(m, charts, walks, n_lo, cfg):
    want = reference_batch(m, charts, walks, n_lo, cfg)
    if isinstance(want, str):
        with pytest.raises(ValueError) as exc:
            sh.shadow_many(m, chart_table(charts), walks, n_lo, cfg)
        assert str(exc.value) == want
        return None
    got = sh.shadow_many(m, chart_table(charts), walks, n_lo, cfg)
    assert_rows_same(got, want, walks)
    return got


# -- every gpo the pipeline shadows ---------------------------------------------

CONFIGS = {
    "doubling": "map = doubling",
    "tent": "map = tent",
    "quadratic": "map = quadratic",
    "doubling-10": "map = doubling\nmax_period = 10",
    "gauss-2": "map = gauss\nmax_period = 2",
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_pipeline_gpos_match_the_one_gpo_loop(name, tmp_path, monkeypatch):
    batches = []
    shadow_many = sh.shadow_many
    alphabets = record_alphabets(monkeypatch)

    def recording(m, table, walks, n_lo, cfg):
        caller = sys._getframe(1).f_code.co_name
        if caller == "_encode_and_shadow":
            caller = sys._getframe(2).f_code.co_name
        res = shadow_many(m, table, walks, n_lo, cfg)
        charts = [v.chart for v in alphabet_vertices(alphabets[id(table)])]
        batches.append((caller, m, charts, np.array(walks), n_lo, cfg, res))
        return res

    monkeypatch.setattr(sh, "shadow_many", recording)
    for command in ("full-pipeline", "inverse-audit"):
        cli.run(command, parse_config(CONFIGS[name]), str(tmp_path / command), quiet=True)
    assert {b[0] for b in batches} == {"build_cover", "stage_shadow", "stage_inverse"}
    shadowed = 0
    for _, m, charts, walks, n_lo, cfg, res in batches:
        assert_rows_same(res, reference_batch(m, charts, walks, n_lo, cfg), walks)
        shadowed += len(res)
    assert shadowed > 100


def _reference_record(res):
    """The shadows.txt fields of a reference ShadowRow: its window's x0,
    backward word and forward length, tau0, log p_0 and log error bound,
    each float as the repr of a Python float."""
    w = res.point
    return (("x0", repr(w.x0)), ("back", ",".join(map(str, w.back_branches))),
            ("fwd", str(w.fwd_len)), ("tau0", repr(res.tau0)), ("log_p0", repr(res.log_p0)),
            ("log_err", repr(res.log_err)))


SHADOW_RUNS = {
    **{name: CONFIGS[name] for name in ("doubling-10", "tent", "quadratic")},
    "tent-back": "map = tent\nencode_lo = -19\nencode_hi = 30\nfwd_len = 5\nback_depth = 20",
}


@pytest.mark.parametrize("name", list(SHADOW_RUNS))
def test_shadows_txt_is_the_reference_record(name, tmp_path, monkeypatch):
    # every line of shadows.txt is the record of the one-gpo loop's result
    # for its gpo, field for field; a row the loop breaks has no line (the
    # first walk is bent to end on another walk's last chart, so its last
    # step leaves the chart).  Only tent-back encodes negative indices, so
    # only its lines have a backward word.
    calls = []
    shadow_many = sh.shadow_many
    alphabets = record_alphabets(monkeypatch)

    def bending(m, table, walks, n_lo, cfg):
        walks = np.array(walks)
        walks[0, -1] = walks[np.flatnonzero(walks[:, -1] != walks[0, -1])[0], -1]
        charts = [v.chart for v in alphabet_vertices(alphabets[id(table)])]
        calls.append((m, charts, walks, n_lo, cfg))
        return shadow_many(m, table, walks, n_lo, cfg)

    monkeypatch.setattr(sh, "shadow_many", bending)
    cli.run("shadow", parse_config(SHADOW_RUNS[name]), str(tmp_path), quiet=True)
    ((m, charts, walks, n_lo, cfg),) = calls
    want = reference_batch(m, charts, walks, n_lo, cfg)
    assert isinstance(want[0], sh.EdgeBroken) and len(want) > 50
    lines = (tmp_path / "shadows.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# symdyn-shadows 1"
    assert [tuple(tuple(f.split("=", 1)) for f in ln.split(" ")) for ln in lines[1:]] == \
        [_reference_record(r) for r in want if not isinstance(r, sh.EdgeBroken)]


# -- drawn batches over charts with hand-set step maps ----------------------------

EPS = 0.1
CFG = RunConfig(chi=0.3, epsilon=EPS)
DOUBLING = symdyn.built_in("doubling")
# log p where e^{log p} from np.exp on an array and from math.exp differ
LOG_P_EXP_ULP = -78.24800379004887


def fake_charts(specs, steps):
    """Charts centred on doubling's fixed point 0 (a one-branch orbit) with
    spec (theta0, u, log p) and the step map (a, b) of the edge to <- from
    set to ``steps[(from, to)]``, which ``step_maps`` returns (see
    ``hand_set_step_maps``) and ``hand_step`` gives the reference."""
    def center(theta0):  # x_{-1} and x_0, both in branch 0
        return SimpleNamespace(points=np.array([theta0, theta0]), off=1,
                               branch_ids=np.zeros(2, dtype=np.int64), branch=lambda shift: 0)

    charts = [SimpleNamespace(theta0=theta0, u=u, log_p=log_p, idx_p=i, center=center(theta0),
                              params=SimpleNamespace(epsilon=EPS, u=u, logQ=0.0), shift=0,
                              hand_steps={})
              for i, (theta0, u, log_p) in enumerate(specs)]
    for (f, t), (a, b) in steps.items():
        charts[f].hand_steps[t] = StepMap(a=a, b=b)
    return charts


def hand_step(m, v_to, v_from, cfg):
    """The hand-set map of an edge between ``fake_charts`` charts, keyed by
    the target's index, its idx_p."""
    return v_from.hand_steps[v_to.idx_p]


@pytest.fixture(autouse=True, scope="module")
def hand_set_step_maps():
    """``shadowing.step_maps`` returns the hand-set maps of the edges of a
    ``chart_table`` of ``fake_charts`` and computes those of every other
    table."""
    step_maps = sh.step_maps

    def hand_set(m, table, to, frm, cfg):
        if not hasattr(getattr(table, "charts", (None,))[0], "hand_steps"):
            return step_maps(m, table, to, frm, cfg)
        steps = [hand_step(m, table.charts[t], table.charts[f], cfg)
                 for t, f in zip(to.tolist(), frm.tolist())]
        return np.array([s.a for s in steps]), np.array([s.b for s in steps])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sh, "step_maps", hand_set)
        yield


COEF_A = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0, math.nan]),
                   st.floats(-1.2, 1.2))
COEF_B = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, math.nan]),
                   st.floats(-0.3, 0.3))
# under -745 the chart size counts as 0; at -20 a tau of 0.05 misses the
# window tolerance
LOG_P = st.one_of(st.sampled_from([-800.0, -745.0, -744.9, -60.0, -20.0, LOG_P_EXP_ULP]),
                  st.floats(-700.0, -40.0))


@st.composite
def batches(draw):
    nc = draw(st.integers(1, 4))
    specs = [(draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([1.0, 0.75, 3.0])),
              draw(LOG_P)) for _ in range(nc)]
    steps = {(f, t): (draw(COEF_A), draw(COEF_B)) for f in range(nc) for t in range(nc)}
    length = draw(st.integers(2, 7))
    n_lo = draw(st.integers(2 - length, 0))
    row = st.lists(st.integers(0, nc - 1), min_size=length, max_size=length)
    walks = np.array(draw(st.lists(row, min_size=1, max_size=6)), dtype=np.int64)
    return fake_charts(specs, steps), walks, n_lo


@settings(max_examples=250, deadline=None)
@given(batches())
def test_drawn_batches_match_the_one_gpo_loop(batch):
    charts, walks, n_lo = batch
    check_batch(DOUBLING, charts, walks, n_lo, CFG)


def _universe():
    # chart 0 -> 0 contracts; chart 1 is entered from chart 0 by a NaN step,
    # chart 2 by a step of slope 8; chart 3 -> 3 has +-0.0 endpoint ties
    specs = [(0.0, 1.0, LOG_P_EXP_ULP), (0.0, 1.0, -60.0), (-0.0, 3.0, -800.0),
             (0.0, 1.0, -40.0)]
    steps = {(f, t): (0.5, 0.125) for f in range(4) for t in range(4)}
    steps[(0, 1)] = (math.nan, 0.0)
    steps[(0, 2)] = (8.0, 0.0)
    steps[(3, 3)] = (-0.0, -0.0)
    return fake_charts(specs, steps)


@pytest.mark.parametrize("block", [1, 4, sh.SHADOW_BLOCK])
def test_good_gpos_do_not_change_in_a_mixed_batch(block, monkeypatch):
    monkeypatch.setattr(sh, "SHADOW_BLOCK", block)
    charts = _universe()
    good = np.array([[0, 0, 0, 0], [3, 3, 3, 3], [0, 0, 3, 0]])
    alone = [shadow_row(DOUBLING, sh.shadow_many(DOUBLING, chart_table(charts), good[i:i + 1],
                                                 -1, CFG), 0)
             for i in range(3)]
    mixed = np.array([[1, 0, 0, 0],      # NaN step into index -1: tau_{-1} is NaN
                      [0, 0, 0, 0],
                      [0, 1, 0, 0],      # NaN step into index 0: forward break
                      [3, 3, 3, 3],
                      [2, 0, 0, 0],      # slope 8 into index -1: backward break
                      [0, 0, 3, 0],
                      [2, 0, 1, 0]])     # breaks at index 1, again at 0 and -1
    got = check_batch(DOUBLING, charts, mixed, -1, CFG)
    assert list(got.broken) == [2, 4, 6] and got.ok.tolist() == [1, 1, 0, 1, 0, 1, 0]
    assert str(got.broken[6]) == "step into index 1 leaves the chart: [nan, nan]"
    for i, k in enumerate((1, 3, 5)):
        assert_same(got, k, alone[i], good[i].tolist())
    assert not math.isnan(got.tau0[0]) and math.isnan(got.points[0, 0])   # x_{-1}
    assert str(got.broken[2]) == "step into index 0 leaves the chart: [nan, nan]"
    assert str(got.broken[4]) == "backward reconstruction leaves chart -1"
    # the images of -1 and 1 under the step 3 -> 3 into index 0 are 0.0 and
    # -0.0: Python's min and max keep the first, so both ends are 0.0
    tie = check_batch(DOUBLING, charts, np.array([[3, 3, 3]]), -1, CFG)
    assert float.hex(tie.tau0[0].item()) == "0x0.0p+0"
    # e^{log p} comes from math.exp, one ulp away from np.exp at this log p
    tau0, np_exp = got.tau0[1].item(), float(np.exp(np.array([LOG_P_EXP_ULP]))[0])
    assert got.points[1, 1] == tau0 * math.exp(LOG_P_EXP_ULP) != tau0 * np_exp   # x_0


@pytest.mark.parametrize("block", [1, 2, sh.SHADOW_BLOCK])
def test_window_tolerance_error_comes_from_the_first_unbroken_gpo(block, monkeypatch):
    monkeypatch.setattr(sh, "SHADOW_BLOCK", block)
    specs = [(0.0, 1.0, -20.0), (0.0, 1.0, -800.0), (0.0, 1.0, -19.0)]
    steps = {(f, t): (0.5, 0.25) for f in range(3) for t in range(3)}
    steps[(1, 0)] = (3.0, 0.0)
    charts = fake_charts(specs, steps)
    walks = np.array([[0, 1, 1],    # broken: not held to the tolerance
                      [1, 1, 1],    # within it: every chart size is 0
                      [2, 1, 1],    # misses it
                      [0, 0, 0]])   # misses it by another amount
    want = reference_batch(DOUBLING, charts, walks[2:3], 0, CFG)
    assert want.startswith("points violate the window tolerance")
    assert reference_batch(DOUBLING, charts, walks[3:], 0, CFG) != want
    with pytest.raises(ValueError) as exc:
        sh.shadow_many(DOUBLING, chart_table(charts), walks, 0, CFG)
    assert str(exc.value) == want


def test_shadow_many_edge_cases():
    charts = _universe()
    table = chart_table(charts)
    # an empty call returns an empty table, whatever its index range
    for width, n_lo in ((1, 0), (3, -1), (2, 1)):
        empty = sh.shadow_many(DOUBLING, table, np.zeros((0, width), dtype=np.int64), n_lo, CFG)
        assert isinstance(empty, sh.Shadows) and len(empty) == 0 and empty.n_lo == n_lo
        assert empty.points.shape == (0, width) and empty.branches.shape == (0, width - 1)
        assert empty.ok.shape == empty.tau0.shape == (0,) and empty.broken == {}
    with pytest.raises(ValueError, match="forward length"):
        sh.shadow_many(DOUBLING, table, np.zeros((1, 2), dtype=np.int64), -1, CFG)
    with pytest.raises(ValueError, match="index 0"):
        sh.shadow_many(DOUBLING, table, np.zeros((1, 2), dtype=np.int64), 1, CFG)
    # shadow is the batch of one's row and keeps the gpo it was given
    g = ChartGpo(charts=(charts[0],) * 4, n_lo=-2)
    res = shadow(DOUBLING, g, CFG)
    want = shadow_reference(DOUBLING, g, CFG, step=hand_step)
    columns = ("tau0", "log_p0", "log_err", "worst")
    assert res.gpo is g and _is_float(*(getattr(res, f) for f in columns))
    assert _hex(getattr(res, f) for f in columns) == _hex(getattr(want, f) for f in columns)
    for f in ("points", "branch_ids", "logderivs", "cumlog"):
        a, b = getattr(res.point, f), getattr(want.point, f)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes() and not a.flags.writeable
    with pytest.raises(sh.EdgeBroken, match="backward reconstruction leaves chart -1"):
        shadow(DOUBLING, ChartGpo(charts=(charts[2],) + (charts[0],) * 3, n_lo=-1), CFG)
