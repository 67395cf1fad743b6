import math
import os

import pytest

from symdyn import cli
from symdyn.config import parse_config

from oracles import read_windows


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


@pytest.mark.parametrize("text", ["encode_lo = 1", "encode_lo = 20", "encode_hi = 0",
                                  "seed = -1"])
def test_bad_encode_range_or_seed_creates_no_out(tmp_path, capsys, text):
    # these failed only after the library, alphabet and graph were written
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"map = doubling\nmax_period = 3\n{text}\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = run_cli(["shadow", "--config", str(cfgfile), "--out", str(out), "--quiet"])
    assert rc == 2
    assert text.split()[0] in capsys.readouterr().err
    assert not out.exists()


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


def test_infeasible_word_budget_exit_2(tmp_path, monkeypatch, capsys):
    # gauss at the defaults would enumerate 16^10 words in the growth stage
    def enumerate_anyway(*args, **kw):
        raise AssertionError("the library stage ran")

    monkeypatch.setattr(cli.library, "periodic_library", enumerate_anyway)
    for command in ("full-pipeline", "periodic-report", "sample-orbits"):
        rc = run_cli([command, "--map", "gauss", "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "16^" in err and "MAX_PERIODIC_WORDS" in err
    assert not (tmp_path / "o").exists()
    # max_period 3 grows to n = 5, 16^5 words: within budget, so the run
    # reaches the library stage
    assert run_cli(["full-pipeline", "--map", "gauss", "--max-period", "3",
                    "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "the library stage ran" in capsys.readouterr().err


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
                "encode_lo = 1\n", "encode_lo = 20\n", "encode_hi = 0\n", "encode_hi = -5\n",
                "seed = -1\n"):
        with pytest.raises(ValueError):
            parse_config(bad)
    assert parse_config("encode_lo = -3\nseed = 0\nencode_hi = 1\n").encode_lo == -3


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
    lib = library.periodic_library(m, 0.5 * math.log(2), 3, 32, 8)
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
