import json
import math
import os
import time
from dataclasses import replace

import pytest

from symdyn import analysis, cli, coarse_grain, markov_refine, shadowing
from symdyn.config import MAX_PERIOD, RunConfig, parse_config

from oracles import read_windows
from test_map_model import DOUBLING_FILE


def run_cli(args):
    return cli.main(args)


def test_verify_map_doubling(tmp_path):
    rc = run_cli(["verify-map", "--map", "doubling", "--samples", "500",
                  "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    report = (tmp_path / "regularity.report").read_text()
    assert report.startswith("# symdyn-regularity 1")
    assert '"passed": true' in report


def test_unknown_map_usage_error(tmp_path):
    rc = run_cli(["verify-map", "--map", "nonsense", "--out", str(tmp_path)])
    assert rc != 0


def test_nonpositive_counts_exit_2(tmp_path):
    for flags in (["--samples", "-5"], ["--samples", "0"], ["--max-period", "0"]):
        rc = run_cli(["verify-map", *flags, "--out", str(tmp_path), "--quiet"])
        assert rc == 2
        assert not (tmp_path / "regularity.report").exists()


def test_bad_chart_parameters_create_no_out(tmp_path):
    for flags in (["--eps", "0"], ["--eps", "1.5"], ["--chi", "-1"]):
        out = tmp_path / "o"
        rc = run_cli(["entropy", *flags, "--out", str(out), "--quiet"])
        assert rc == 2
        assert not out.exists()


@pytest.mark.parametrize("text", ["encode_lo = 1", "encode_lo = 20", "encode_lo = -45",
                                  "encode_hi = 0", "seed = -1", "cover_window = 1",
                                  "back_depth = 3\nfwd_len = 4\nencode_hi = 1\nmax_period = 8",
                                  "back_depth = 3\nfwd_len = 4\nencode_hi = 1\nmax_period = 7"])
def test_bad_encode_range_or_seed_creates_no_out(tmp_path, capsys, text):
    # these failed only after the library, alphabet and graph were written;
    # the first window config, whose library windows hold less than one
    # cycle of period 8, exited 1 from the library stage.  A window must
    # hold one step more (back_depth + max(fwd_len, encode_hi + 2) >
    # max_period) to view a phase past its forward horizon one cycle back:
    # the last once shadowed 113 gpos of 39 orbits, with 4 NoNetVertex
    # failures
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"map = doubling\nmax_period = 3\n{text}\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = run_cli(["shadow", "--config", str(cfgfile), "--out", str(out), "--quiet"])
    assert rc == 2
    assert text.split()[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["alphabet", "graph", "inverse-audit", "full-pipeline"])
def test_refused_alphabet_creates_no_out(tmp_path, monkeypatch, capsys, command):
    # the exact-regime refusal comes after the library but before the first
    # write; a threshold of -4000 refuses the net threshold -3072 at
    # max_period = 3.  sample-orbits builds no alphabet and still writes
    monkeypatch.setattr(coarse_grain, "LOG_TINY", -4000.0)
    out = tmp_path / "o"
    rc = run_cli([command, "--max-period", "3", "--out", str(out), "--quiet"])
    assert rc == 2
    assert "is not below LOG_TINY" in json.loads(capsys.readouterr().err)["detail"]
    assert not out.exists()
    rc = run_cli(["sample-orbits", "--max-period", "3", "--out", str(out), "--quiet"])
    assert rc == 0 and sorted(os.listdir(out)) == ["windows.txt"]


def test_non_finite_map_file_exit_2(tmp_path):
    # every sample from a nan branch would be rejected, so verify-map passed
    path = tmp_path / "nan.map"
    path.write_text("[map]\na = 1.0\nbeta = 0.5\nkappa = 2.0\ndomain = 0.0 0.5\n"
                    "singular = 0.0 0.25\n"
                    "[branch]\ndom = 0.0 0.25\nkind = affine\ncoef = nan 2.0\n"
                    "[branch]\ndom = 0.25 0.5\nkind = affine\ncoef = -0.5 2.0\n",
                    encoding="utf-8")
    rc = run_cli(["verify-map", "--map", str(path), "--out", str(tmp_path / "o"),
                  "--quiet"])
    assert rc == 2
    assert not (tmp_path / "o" / "regularity.report").exists()


@pytest.mark.parametrize("change", [
    # branch domains [0, 0.2) and [0.3, 0.5] leave a gap
    (("dom = 0.0 0.25", "dom = 0.0 0.2"), ("dom = 0.25 0.5", "dom = 0.3 0.5")),
    # 3x on [0, 0.25) maps past the domain
    (("coef = 0.0 2.0", "coef = 0 3"),),
])
def test_malformed_branches_exit_2(tmp_path, capsys, change):
    text = ("[map]\na = 1.0\nbeta = 0.5\nkappa = 2.0\ndomain = 0.0 0.5\n"
            "singular = 0.0 0.25\n"
            "[branch]\ndom = 0.0 0.25\nkind = affine\ncoef = 0.0 2.0\n"
            "[branch]\ndom = 0.25 0.5\nkind = affine\ncoef = -0.5 2.0\n")
    for old, new in change:
        text = text.replace(old, new)
    path = tmp_path / "bad.map"
    path.write_text(text, encoding="utf-8")
    rc = run_cli(["verify-map", "--map", str(path), "--out", str(tmp_path / "o"),
                  "--quiet"])
    assert rc == 2
    assert "MapFileError" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_infeasible_window_budget_exit_2(tmp_path, monkeypatch, capsys):
    # gauss at the defaults (max_period 8) and at max_period 5 has 69,616
    # points of least period up to 4, over the window budget: every command
    # that builds a library refuses before any stage runs
    def enumerate_anyway(*args, **kw):
        raise AssertionError("the library stage ran")

    monkeypatch.setattr(cli.library, "periodic_library", enumerate_anyway)
    for command in ("full-pipeline", "periodic-report", "sample-orbits", "inverse-audit"):
        for extra, top in (([], 8), (["--max-period", "5"], 5)):
            rc = run_cli([command, "--map", "gauss", "--out", str(tmp_path / "o"), "--quiet"]
                         + extra)
            assert rc == 2
            detail = json.loads(capsys.readouterr().err)["detail"]
            assert "MAX_LIBRARY_WINDOWS" in detail and f"periods up to {top} may" in detail
            assert "number 69616" in detail
    assert not (tmp_path / "o").exists()
    # max_period 3 is within the window budget: the run reaches the library
    # stage (4 is refused, test_window_budget_refuses_at_once)
    assert run_cli(["full-pipeline", "--map", "gauss", "--max-period", "3",
                    "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "the library stage ran" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["full-pipeline", "sample-orbits", "inverse-audit"])
def test_window_budget_refuses_at_once(tmp_path, monkeypatch, capsys, command):
    # gauss at max_period 4 once built 68,124 windows at a 631 MB peak RSS:
    # its 69,616 points of least period up to 4 are over the window budget,
    # so it exits 2 before any stage runs and makes no --out
    def enumerate_anyway(*args, **kw):
        raise AssertionError("the library stage ran")

    monkeypatch.setattr(cli.library, "periodic_library", enumerate_anyway)
    t0 = time.perf_counter()
    rc = run_cli([command, "--map", "gauss", "--max-period", "4",
                  "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2 and time.perf_counter() - t0 < 2.0
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert "MAX_LIBRARY_WINDOWS" in detail and "periods up to 4" in detail
    assert f"budget of {analysis.MAX_LIBRARY_WINDOWS}" in detail and "number 69616" in detail
    assert not (tmp_path / "o").exists()


def test_bad_epsilon_refused_before_the_window_budget(tmp_path, capsys):
    # gauss at max_period 9 is over the window budget too; the config is
    # checked first, so the message names epsilon
    rc = run_cli(["full-pipeline", "--map", "gauss", "--max-period", "9", "--eps", "2",
                  "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert "epsilon" in detail and "MAX_LIBRARY_WINDOWS" not in detail
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("max_period", [20000, 10**12])
def test_huge_max_period_refused_at_once(tmp_path, capsys, max_period):
    # the run config refuses max_period above MAX_PERIOD before any stage
    # runs, in a message that does not grow with max_period.  The windows
    # are deep enough to hold a cycle of every period, so only the cap
    # refuses.
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"back_depth = {max_period}\n", encoding="utf-8")
    t0 = time.perf_counter()
    rc = run_cli(["full-pipeline", "--map", "doubling", "--max-period", str(max_period),
                  "--config", str(cfgfile), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2 and time.perf_counter() - t0 < 2.0
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert detail == f"max_period must be <= MAX_PERIOD = {MAX_PERIOD}"
    assert not (tmp_path / "o").exists()


ONE_BRANCH_FILE = ("[map]\na = 1.0\nbeta = 0.5\nkappa = 2.0\ndomain = 0.0 0.5\n"
                   "[branch]\ndom = 0.0 0.5\nkind = affine\ncoef = 0.0 0.5\n")


def test_one_branch_map_is_capped_at_max_period(tmp_path, capsys):
    # a one-branch map has one periodic point at every period, so the window
    # budget admits any max_period, while the library's root finding grows
    # about quadratically in it (19.8 s at 800 once): MAX_PERIOD refuses 800
    # at once, for verify-map too, which reads no max_period
    path = tmp_path / "one.map"
    path.write_text(ONE_BRANCH_FILE, encoding="utf-8")
    cfgfile = tmp_path / "run.cfg"
    for max_period, command in ((800, "sample-orbits"), (800, "verify-map"),
                                (MAX_PERIOD + 1, "sample-orbits")):
        cfgfile.write_text(f"map = {path}\nmax_period = {max_period}\n"
                           f"back_depth = {max_period + 64}\n", encoding="utf-8")
        t0 = time.perf_counter()
        rc = run_cli([command, "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                      "--quiet"])
        assert rc == 2 and time.perf_counter() - t0 < 2.0
        assert "MAX_PERIOD" in json.loads(capsys.readouterr().err)["detail"]
        assert not (tmp_path / "o").exists()
    # at the cap the library is built
    cfgfile.write_text(f"map = {path}\nmax_period = {MAX_PERIOD}\n"
                       f"back_depth = {MAX_PERIOD + 64}\n", encoding="utf-8")
    assert run_cli(["sample-orbits", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                    "--quiet"]) == 0


@pytest.mark.parametrize("text", ["fwd_len = 3", "fwd_len = 7", "back_depth = 5\nfwd_len = 4"])
def test_orbit_period_beyond_the_forward_horizon(tmp_path, text):
    # period-8 orbits in windows cached fewer than 8 steps forward (but
    # holding a whole cycle) once read u past the cache and exited 1
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"map = doubling\nmax_period = 8\nencode_hi = 1\n{text}\n",
                       encoding="utf-8")
    rc = run_cli(["full-pipeline", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                  "--quiet"])
    assert rc == 0
    assert " periodic=8 " in (tmp_path / "o" / "windows.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("text,orbits", [("back_depth = 40\nfwd_len = 3\nmax_period = 8", 69),
                                         ("back_depth = 4\nfwd_len = 5\nmax_period = 8", 69),
                                         ("back_depth = 3\nfwd_len = 5\nmax_period = 7", 39)])
def test_one_shadowed_gpo_per_orbit_past_the_forward_horizon(tmp_path, capsys, text, orbits):
    # a phase past the cached forward horizon once re-tiled the cycle into
    # new arrays, so its view became a base window of its own and the shadow
    # stage encoded 333, 204 and 84 gpos here
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"map = doubling\nencode_hi = 1\n{text}\n", encoding="utf-8")
    rc = run_cli(["shadow", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert f" windows from {orbits} orbits " in out
    assert f"shadow: {orbits} gpos shadowed, 0 failures" in out


def test_map_file_name_with_hash(tmp_path):
    # command-line values are taken as they are, not re-read as config text,
    # where "#" starts a comment
    path = tmp_path / "my#map.txt"
    path.write_text(DOUBLING_FILE, encoding="utf-8")
    out = tmp_path / "o"
    rc = run_cli(["verify-map", "--map", str(path), "--samples", "500", "--out", str(out),
                  "--quiet"])
    assert rc == 0
    assert "map=mydoubling" in (out / "regularity.report").read_text()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["frobnicate"])


def test_config_parsing():
    cfg = parse_config("chi = 0.25\nmax_period = 5\n# comment\n")
    assert cfg.chi == 0.25 and cfg.max_period == 5
    for bad in ("no_such_key = 1\n", "chi 0.25\n", "samples = 0\n",
                "samples = -5\n", "max_period = 0\n", "workers = 2\n",
                "contract_tol = 1e-13\n", "u_depth = 30\n", "sizes_per_center = 16\n",
                "back_depth = -3\n", "back_depth = 0\n", "fwd_len = 0\n", "n_min = 0\n",
                "paths_per_vertex = -1\n", "paths_per_vertex = 0\n", "cover_window = 0\n",
                "cover_window = 1\n",
                "encode_lo = 1\n", "encode_lo = 20\n", "encode_lo = -40\n", "encode_lo = -45\n",
                "encode_hi = 0\n", "encode_hi = -5\n",
                "seed = -1\n", "chi = 0\n", "chi = -1\n", "epsilon = 0\n", "epsilon = 1.5\n"):
        with pytest.raises(ValueError, match=bad.split()[0]):  # the message names the key
            parse_config(bad)
    assert parse_config("encode_lo = -3\nseed = 0\nencode_hi = 1\n").encode_lo == -3
    # a window's tables start at index 1 - back_depth; both values are named
    with pytest.raises(ValueError) as exc:
        parse_config("encode_lo = -45\n")
    assert str(exc.value) == "encode_lo = -45 must be >= 1 - back_depth = -39"
    assert parse_config("encode_lo = -39\n").encode_lo == -39
    assert parse_config("encode_lo = -20\nback_depth = 21\n").encode_lo == -20


def test_config_file_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("map = tent\nmax_period = 3\nsamples = 200\n", encoding="utf-8")
    args = cli.build_parser().parse_args(
        ["verify-map", "--config", str(p), "--map", "doubling"])
    cfg = cli.resolve_config(args)
    assert cfg.map == "doubling"  # CLI overrides the file
    assert cfg.max_period == 3


PIPE_CFG = """
map = doubling
max_period = 4
samples = 400
cover_window = 8
encode_hi = 8
fwd_len = 16
"""


def _run_pipeline(tmp_path, name):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(PIPE_CFG, encoding="utf-8")
    out = tmp_path / name
    rc = run_cli(["full-pipeline", "--config", str(cfgfile),
                  "--out", str(out), "--quiet"])
    assert rc == 0
    return out


def test_full_pipeline_artifacts(tmp_path):
    out = _run_pipeline(tmp_path, "a")
    expected = ["regularity.report", "windows.txt", "alphabet.txt", "graph.txt",
                "graph.dot", "shadows.txt", "partition.txt", "sigma_hat.dot",
                "markov.report", "entropy.report", "growth.report"]
    for name in expected:
        assert (out / name).exists(), name
    head = (out / "graph.txt").read_text().splitlines()[0]
    assert head == "# symdyn-graph 1"


def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_full_pipeline_numeric_fields_parse_as_floats(tmp_path):
    # every key=value field of the text artifacts is a round-trip float
    # literal, or the comma-separated branch word back=; a numpy scalar repr
    # such as tau0=np.float64(0.0) is neither
    out = _run_pipeline(tmp_path, "a")
    for name in ("windows.txt", "alphabet.txt", "graph.txt", "shadows.txt"):
        numeric = 0
        for line in (out / name).read_text(encoding="utf-8").splitlines():
            for field in line.split():
                key, sep, value = field.partition("=")
                if not sep:
                    continue
                if key == "back":
                    assert all(t.isdigit() for t in value.split(",") if t), (name, field)
                else:
                    assert _parses_as_float(value), (name, field)
                    numeric += 1
        assert numeric, name


def test_full_pipeline_deterministic(tmp_path):
    out1 = _run_pipeline(tmp_path, "a")
    out2 = _run_pipeline(tmp_path, "b")
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_inverse_audit_command(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("map = doubling\nmax_period = 3\nencode_hi = 8\n",
                       encoding="utf-8")
    rc = run_cli(["inverse-audit", "--config", str(cfgfile),
                  "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 0
    rep = (tmp_path / "o" / "inverse.report").read_text()
    assert "failures: 0" in rep
    import re
    audited = int(re.search(r"double codings audited: (\d+)", rep).group(1))
    assert audited >= 3  # period <= 3 orbits of the doubling map
    # windows.txt lists both u-truncation families, the same windows twice
    records = (tmp_path / "o" / "windows.txt").read_text().splitlines()[1:]
    fam_a = [r for r in records if r.endswith(" u_depth=30")]
    fam_b = [r for r in records if r.endswith(" u_depth=34")]
    assert fam_a and len(fam_a) + len(fam_b) == len(records)
    assert [r[:-2] for r in fam_a] == [r[:-2] for r in fam_b]


def _forced_failures(monkeypatch, no_vertex, broken):
    """``sufficiency_encode`` raises NoNetVertex on the windows and
    ``shadow_many`` returns EdgeBroken for the gpos whose (x0, u depth) at
    index 0 is in ``no_vertex`` and ``broken``; both messages name it."""
    encode, shadow_many = coarse_grain.sufficiency_encode, shadowing.shadow_many
    encoded = {}    # vertex ids of an encoding -> the (x0, u depth) of its window

    def failing_encode(m, w, *args, **kwargs):
        if (w.x0, w.u_depth) in no_vertex:
            raise coarse_grain.NoNetVertex(f"forced x0={w.x0!r} u_depth={w.u_depth}")
        vids, n_lo = encode(m, w, *args, **kwargs)
        encoded[tuple(vids)] = (w.x0, w.u_depth)
        return vids, n_lo

    def breaking_shadow(*args, **kwargs):
        out = shadow_many(*args, **kwargs)
        failed = dict(out.broken)
        for k, rows in enumerate(out.walks.tolist()):
            x0, depth = encoded[tuple(rows)]
            if (x0, depth) in broken:
                failed[k] = shadowing.EdgeBroken(f"forced x0={x0!r} u_depth={depth}")
        return replace(out, broken=dict(sorted(failed.items())))

    monkeypatch.setattr(coarse_grain, "sufficiency_encode", failing_encode)
    monkeypatch.setattr(shadowing, "shadow_many", breaking_shadow)


def _report(path):
    """The (lines, records) of a ``formats.write_report`` file."""
    body = path.read_text().splitlines()[1:]
    return ([ln[2:] for ln in body if ln.startswith("# ")],
            [json.loads(ln) for ln in body if not ln.startswith("# ")])


FAILURE_RUN = "map = doubling\nmax_period = 5\n"


def test_shadow_stage_failures(tmp_path, monkeypatch, capsys):
    cfg = parse_config(FAILURE_RUN)
    cli.run("shadow", cfg, str(tmp_path / "base"), quiet=False)
    base_out = capsys.readouterr().out.splitlines()
    base = (tmp_path / "base" / "shadows.txt").read_text().splitlines()
    x0s = [float(ln.split()[0][3:]) for ln in base[1:]]
    a, b = x0s[1], x0s[3]
    depth = cfg.back_depth
    # a has no net vertex (and would break), b only breaks
    _forced_failures(monkeypatch, {(a, depth)}, {(a, depth), (b, depth)})
    cli.run("shadow", cfg, str(tmp_path / "o"), quiet=False)
    out = capsys.readouterr().out.splitlines()
    want = f"shadow: {len(x0s) - 2} gpos shadowed, 2 failures, worst containment 0"
    assert base_out[-1] == f"shadow: {len(x0s)} gpos shadowed, 0 failures, worst containment 0"
    assert out == base_out[:-1] + [want]
    assert (tmp_path / "o" / "shadows.txt").read_text().splitlines() == [
        ln for ln in base if not ln.startswith((f"x0={a!r} ", f"x0={b!r} "))]


def test_inverse_stage_failures(tmp_path, monkeypatch):
    cfg = parse_config(FAILURE_RUN)
    cli.run("inverse-audit", cfg, str(tmp_path / "base"), quiet=True)
    lines, records = _report(tmp_path / "base" / "inverse.report")
    n = len(records)
    assert lines[0] == f"double codings audited: {n}, failures: 0"
    # one block of 8 lines per orbit, in the order of the records
    blocks = [lines[1 + 8 * i: 9 + 8 * i] for i in range(n)]
    assert len(lines) == 1 + 8 * n
    x0s = [r["x0"] for r in records]
    da, db = min(cfg.back_depth, 30), min(cfg.back_depth, 30) + 4
    p, q, r, s = x0s[0], x0s[2], x0s[5], x0s[7]
    no_vertex = {(p, db), (s, da), (s, db)}
    broken = {(p, da), (q, db), (r, da), (r, db)}
    want = {p: f"NoNetVertex: forced x0={p!r} u_depth={db}",    # encoding before shadowing
            q: f"EdgeBroken: forced x0={q!r} u_depth={db}",
            r: f"EdgeBroken: forced x0={r!r} u_depth={da}",     # gpo a before gpo b
            s: f"NoNetVertex: forced x0={s!r} u_depth={da}"}
    _forced_failures(monkeypatch, no_vertex, broken)
    with pytest.raises(RuntimeError, match="inverse audit failed"):
        cli.run("inverse-audit", cfg, str(tmp_path / "o"), quiet=True)
    got_lines, got_records = _report(tmp_path / "o" / "inverse.report")
    expect = [f"double codings audited: {n - 4}, failures: 4"]
    for x0, block in zip(x0s, blocks):
        expect += [f"orbit x0={x0!r}: {want[x0]}"] if x0 in want else block
    assert got_lines == expect
    assert got_records == [rec for rec in records if rec["x0"] not in want]


def test_alphabet_command_discreteness(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("map = doubling\nmax_period = 3\n", encoding="utf-8")
    rc = run_cli(["alphabet", "--config", str(cfgfile),
                  "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 0
    assert (tmp_path / "o" / "alphabet.txt").exists()


def test_windows_roundtrip_through_files(tmp_path):
    import numpy as np

    import symdyn
    from symdyn import formats, library
    m = symdyn.built_in("doubling")
    lib = library.periodic_library(m, RunConfig(chi=0.5 * math.log(2), max_period=3,
                                                back_depth=32, fwd_len=8, encode_hi=6))
    path = tmp_path / "w.txt"
    formats.write_windows(path, lib.windows)
    back = read_windows(path, m)
    assert len(back) == len(lib.windows)
    for a, b in zip(lib.windows, back):
        assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("command,artifact", [
    ("sample-orbits", "windows.txt"),
    ("graph", "graph.txt"),
    ("shadow", "shadows.txt"),
    ("entropy", "entropy.report"),
    ("periodic-report", "growth.report"),
    ("refine", "partition.txt"),
])
def test_each_subcommand(tmp_path, command, artifact):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("map = doubling\nmax_period = 3\nencode_hi = 8\n"
                       "fwd_len = 16\ncover_window = 8\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = cli.main([command, "--config", str(cfgfile), "--out", str(out), "--quiet"])
    assert rc == 0
    assert (out / artifact).exists()


def test_graph_export_edges_name_vertex_records(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("map = doubling\nmax_period = 3\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["graph", "--config", str(cfgfile), "--out", str(out),
                     "--quiet"]) == 0
    lines = (out / "graph.txt").read_text().splitlines()
    vertices = {ln.split()[1] for ln in lines if ln.startswith("V ")}
    edges = [ln.split() for ln in lines if ln.startswith("E ")]
    assert edges
    for _, v, w, kind in edges:
        assert kind == "S" and v in vertices and w in vertices


def test_full_pipeline_walks_each_graph_and_classes_each_cover_once(monkeypatch, tmp_path):
    # one pass over the pruned graph gives the closed paths and the radius
    # for the entropy and growth reports, and one over the refined graph;
    # point classes are computed once, for the final cover (the cover's own
    # dedup numbers the raw batch's points itself)
    calls = []
    for mod, name in ((analysis, "closed_paths_and_radius"),
                      (markov_refine, "point_classes")):
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    cli.run("full-pipeline", parse_config("map = doubling"), str(tmp_path), quiet=True)
    assert sorted(calls) == ["closed_paths_and_radius"] * 2 + ["point_classes"]
