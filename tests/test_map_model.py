import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symdyn
from symdyn import _kernels as K
from symdyn import cli
from symdyn.map_model import (
    MapFileError,
    MapModel,
    SingularPoint,
    built_in,
    load_map,
    parse_map_file,
)
from symdyn.map_model import _worst_quotient

from oracles import verify_regularity_reference, worst_quotient_triu_reference

ALL_MAPS = ["doubling", "tent", "quadratic", "gauss"]


def test_singular_distance_doubling_sixth():
    m = built_in("doubling")
    # min of |1/6 - 0| and |1/6 - 1/4|
    assert m.singular_distance(1 / 6) == pytest.approx(1 / 12, abs=1e-15)


def test_singular_distance_at_singular_point():
    m = built_in("doubling")
    assert m.singular_distance(0.25) == 0.0
    assert m.singular_distance(0.0) == 0.0


def test_gauss_distance_matches_enumeration():
    m = built_in("gauss")
    # brute-force oracle: enumerate {0} u {1/(2n)} far enough and take the min
    pts = np.array([0.0] + [1.0 / (2.0 * n) for n in range(1, 4000)])
    rng = np.random.default_rng(3)
    for x in rng.uniform(1e-3, 0.5, size=200):
        oracle = float(np.min(np.abs(pts - x)))
        assert m.singular_distance(x) == pytest.approx(oracle, abs=0, rel=0)


def test_gauss_distance_near_branch_endpoint():
    m = built_in("gauss")
    x = 0.25 - 1e-4  # just below the endpoint 1/(2*2)
    assert m.singular_distance(x) == pytest.approx(1e-4, rel=1e-9)


def test_branch_at_doubling():
    m = built_in("doubling")
    assert m.branch_at(0.1) == 0
    assert m.branch_at(0.3) == 1
    with pytest.raises(SingularPoint):
        m.branch_at(0.25)


def test_branch_at_exclusion_radius():
    m = built_in("doubling")
    with pytest.raises(SingularPoint):
        m.branch_at(0.25 + 1e-13)


def test_gauss_branches_are_full():
    m = built_in("gauss")
    for n in (1, 2, 5):
        b = m.branch_by_id(n)
        assert b.fwd(b.hi) == pytest.approx(0.0, abs=1e-12)
        assert b.fwd(b.lo) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("name", ALL_MAPS)
def test_branch_inverse_roundtrip(name):
    m = built_in(name)
    rng = np.random.default_rng(11)
    xs = m.draw_regular_points(300, rng)
    for x in xs:
        b = m.branch_by_id(m.branch_at(x))
        assert abs(b.inv(b.fwd(x)) - x) < 1e-10
        assert b.dinv(b.fwd(x)) * b.dfwd(x) == pytest.approx(1.0, rel=1e-9)


@given(st.floats(min_value=1e-6, max_value=0.2499))
@settings(max_examples=60, deadline=None)
def test_doubling_inverse_roundtrip_property(x):
    m = built_in("doubling")
    b = m.branch_by_id(0)
    assert abs(b.inv(b.fwd(x)) - x) < 1e-10


def test_domain_diameter_enforced():
    with pytest.raises(ValueError):
        MapModel(name="bad", map_kind=K.MAPKIND_TABLE, domain=(0.0, 1.5),
                 a=1.0, beta=0.5, kappa=2.0,
                 table=np.zeros((1, 8)), sing=np.zeros(1))


@pytest.mark.parametrize("name", ALL_MAPS)
def test_regularity_passes_builtin(name):
    m = built_in(name)
    rep = m.verify_regularity(2000, seed=5)
    assert rep.passed, "\n".join(rep.lines())


def test_regularity_quadratic_small_a_fails_near_critical():
    base = built_in("quadratic")
    weak = MapModel(name="quadratic-a1", map_kind=base.map_kind, domain=base.domain,
                    a=1.0, beta=base.beta, kappa=base.kappa,
                    table=base.table.copy(), sing=base.sing.copy())
    rep = weak.verify_regularity(4000, seed=5)
    assert not rep.passed
    bad = [c for c in rep.clauses.values() if not c.passed]
    # the failing witnesses sit next to the critical point 0.25
    assert any(abs(c.worst_x - 0.25) < 0.1 for c in bad)


@pytest.mark.parametrize("name", ALL_MAPS)
def test_regularity_a3_blocks_match_one_block(name, monkeypatch):
    # 1000 samples in blocks of 7 (the last one partial) against one block
    m = built_in(name)
    one = m.verify_regularity(1000, seed=3)
    monkeypatch.setattr(symdyn.map_model, "REGULARITY_BLOCK", 7)
    blocks = m.verify_regularity(1000, seed=3)
    assert blocks.lines() == one.lines()
    assert blocks.clauses == one.clauses


MIXED_FILE = """
# one branch of each kind: affine, quadratic (critical point at 0.1), moebius
[map]
name = mixed
a = 2.5
beta = 0.5
kappa = 16.0
domain = 0.0 0.5
singular = 0.0 0.1 0.3 0.5
[branch]
dom = 0.0 0.1
kind = affine
coef = 0.0 4.0
[branch]
dom = 0.1 0.3
kind = quadratic
coef = 0.125 -2.5 12.5
inv_sign = 1
[branch]
dom = 0.3 0.5
kind = moebius
coef = 0.5 -1.0 0.1 1.0
"""


def _report_bits(rep):
    """Every report field, floats as their IEEE bit patterns."""
    bits = lambda v: np.float64(v).view(np.uint64).item()
    clauses = [(c.name, c.passed, c.checked, c.violations, c.note,
                bits(c.worst_margin), bits(c.worst_x), bits(c.worst_inner))
               for c in rep.clauses.values()]
    return (rep.map_name, rep.sample_count, clauses,
            bits(rep.extreme_x), bits(rep.extreme_value))


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 20000])
@pytest.mark.parametrize("name", ALL_MAPS + ["mixed"])
def test_regularity_matches_reference(name, samples, seed):
    # blocks of REGULARITY_BLOCK samples, one formula per branch kind and
    # the 36 pairs i < j against the whole-array three-formula 9 x 9 check
    m = parse_map_file(MIXED_FILE) if name == "mixed" else built_in(name)
    rep = m.verify_regularity(samples, seed=seed)
    assert rep.sample_count == samples
    assert _report_bits(rep) == _report_bits(verify_regularity_reference(m, samples, seed))


def _edge_rows(inner, rng):
    """Hand-built (block, inner) rows of values and points for the (A3) pairs."""
    quad = built_in("quadratic")
    z = np.linspace(0.49, 0.5, inner)  # dg is infinite at the critical value 0.5
    dgz = K.dinv_vec(quad.map_kind, quad.table, 1, z)
    rows = [
        (rng.normal(size=inner), np.full(inner, 0.3)),           # all points equal
        (np.full(inner, 2.0), np.linspace(0.1, 0.2, inner)),     # constant values
        (np.full(inner, np.inf), np.linspace(0.1, 0.2, inner)),  # inf - inf is NaN
        (np.where(np.isfinite(dgz), dgz, np.inf), z),            # infinite inverse derivative
        (rng.normal(size=inner), rng.uniform(0.0, 0.5, inner)),
        (rng.normal(size=inner), np.sort(rng.uniform(0.0, 1e-300, inner))),
    ]
    v = rng.normal(size=inner)
    v[inner // 2] = np.inf
    rows.append((v, np.linspace(0.0, 0.5, inner)))
    v = rng.normal(size=inner)
    v[-1] = np.nan
    rows.append((v, np.linspace(0.0, 0.5, inner)))
    p = np.linspace(0.0, 0.5, inner)
    p[0] = np.nan  # a NaN point gives dp = NaN, not > 0: its pairs count 0
    rows.append((rng.normal(size=inner), p))
    p = np.linspace(0.0, 0.5, inner)
    p[:2] = 0.25  # NaN values on equal points: that pair counts 0
    v = rng.normal(size=inner)
    v[:2] = np.nan
    rows.append((v, p))
    vals, pts = (np.array(c) for c in zip(*rows))
    return vals, pts


@pytest.mark.parametrize("inner", [1, 2, 3, 9])
def test_worst_quotient_offsets_match_triu_pairs(inner):
    # the pairs i < j by offset over (inner, block) rows against the
    # np.triu_indices gather over (block, inner) rows: same bits
    vals, pts = _edge_rows(inner, np.random.default_rng(inner))
    want = worst_quotient_triu_reference(vals, pts, 0.5)
    got = _worst_quotient(np.ascontiguousarray(vals.T), np.ascontiguousarray(pts.T), 0.5)
    assert got.shape == want.shape == (vals.shape[0],)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if inner == 1:
        assert not got.any()  # no pairs: every row is the initial 0
    else:
        assert got[0] == 0.0 and got[1] == 0.0  # equal points, constant values
        assert np.isinf(got[2]) and np.isinf(got[3]) and np.isinf(got[6]) and np.isinf(got[7])


def test_regularity_without_regular_points_raises():
    # with a = 100 every radius 0.5 d(x,S)^a falls under the exclusion cutoff
    base = built_in("doubling")
    m = MapModel(name="flat", map_kind=base.map_kind, domain=base.domain, a=100.0,
                 beta=base.beta, kappa=base.kappa, table=base.table.copy(), sing=base.sing.copy())
    with pytest.raises(ValueError, match="exclusion cutoff"):
        m.verify_regularity(10, seed=1)


def test_regularity_empty_report():
    m = built_in("doubling")
    rep = m.verify_regularity(0, seed=1)
    assert rep.passed and rep.sample_count == 0


def test_doubling_constant_derivative_holder_quotient_zero():
    # df is constant so the A3 quotient is identically 0: huge margin
    m = built_in("doubling")
    rep = m.verify_regularity(500, seed=2)
    assert rep.clauses["A3"].worst_margin > 100


DOUBLING_FILE = """
# a user map equal to the doubling built-in
[map]
name = mydoubling
a = 1.0
beta = 0.5
kappa = 2.0
domain = 0.0 0.5
singular = 0.0 0.25
[branch]
dom = 0.0 0.25
kind = affine
coef = 0.0 2.0
[branch]
dom = 0.25 0.5
kind = affine
coef = -0.5 2.0
"""


def test_map_file_parse():
    m = parse_map_file(DOUBLING_FILE)
    assert m.name == "mydoubling"
    assert m.f(0.1) == built_in("doubling").f(0.1)
    assert m.branch_at(0.3) == 1


def test_map_file_errors():
    with pytest.raises(MapFileError):
        parse_map_file("[map]\nname = x\n")  # missing constants
    with pytest.raises(MapFileError):
        parse_map_file("a = 1\n")  # stray line
    with pytest.raises(MapFileError):
        parse_map_file(DOUBLING_FILE.replace("kappa = 2.0", "kappa = inf"))


def test_load_map_builtin_and_file(tmp_path):
    assert load_map("tent").name == "tent"
    p = tmp_path / "m.map"
    p.write_text(DOUBLING_FILE, encoding="utf-8")
    assert load_map(str(p)).name == "mydoubling"
    with pytest.raises(KeyError):
        load_map("no-such-map")


def test_radius_rule_cutoff():
    m = built_in("quadratic")
    # near-critical points whose radius falls under the exclusion cutoff
    with pytest.raises(SingularPoint):
        m.radius(0.25 + 1e-4)
    # but ordinary points have a radius in (exclusion, 1)
    r = m.radius(0.1)
    assert m.exclusion < r < 1.0
    # a point in no branch domain has no radius, not the last branch's
    with pytest.raises(SingularPoint, match="no branch"):
        built_in("doubling").radius(0.6)


def test_difference_forms_against_mpmath():
    # stable forms g(y+s)-g(y), g'(y+s)-g'(y) vs 60-digit direct evaluation
    import mpmath

    cases = []
    mq = built_in("quadratic")
    cases.append((mq.branch_by_id(0), 0.3))
    cases.append((mq.branch_by_id(1), 0.3))
    mg = built_in("gauss")
    cases.append((mg.branch_by_id(1), 0.2))
    cases.append((mg.branch_by_id(3), 0.2))
    md = built_in("doubling")
    cases.append((md.branch_by_id(1), 0.3))

    def oracle(br, y, s, d):
        # enough digits to resolve y + s for the tiniest s below
        with mpmath.workdps(250):
            yy = mpmath.mpf(repr(y))
            ss = mpmath.mpf(repr(s))
            c = [mpmath.mpf(repr(v)) for v in (list(br.coef) + [0.0] * 4)[:4]]
            if br.kind == 0:
                g = lambda t: (t - c[0]) / c[1]
                dg = lambda t: 1 / c[1]
            elif br.kind == 1:
                sg = mpmath.mpf(repr(br.inv_sign))
                disc = lambda t: c[1] ** 2 - 4 * c[2] * (c[0] - t)
                g = lambda t: (-c[1] + sg * mpmath.sqrt(disc(t))) / (2 * c[2])
                dg = lambda t: sg / mpmath.sqrt(disc(t))
            else:
                g = lambda t: (c[0] - c[2] * t) / (c[3] * t - c[1])
                dg = lambda t: (c[1] * c[2] - c[0] * c[3]) / (c[3] * t - c[1]) ** 2
            fn = g if d == 0 else dg
            return float(fn(yy + ss) - fn(yy))

    for br, y in cases:
        for s in (1e-3, 1e-12, 1e-40, 1e-150, -1e-40):
            got = br.inv_diff(y, s)
            want = oracle(br, y, s, 0)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-320), (br.kind, s)
            got_d = br.dinv_diff(y, s)
            want_d = oracle(br, y, s, 1)
            assert got_d == pytest.approx(want_d, rel=1e-9, abs=1e-320), (br.kind, s)


GAP_FILE = DOUBLING_FILE.replace("dom = 0.0 0.25", "dom = 0.0 0.2").replace(
    "dom = 0.25 0.5", "dom = 0.3 0.5")
IMAGE_FILE = DOUBLING_FILE.replace("coef = 0.0 2.0", "coef = 0 3")


def test_map_file_branch_domains_must_partition_the_domain():
    with pytest.raises(MapFileError, match=r"branch 1 \[0\.3, 0\.5\].*partition.*gap \(0\.2, 0\.3\)"):
        parse_map_file(GAP_FILE)
    overlap = DOUBLING_FILE.replace("dom = 0.25 0.5", "dom = 0.2 0.5")
    with pytest.raises(MapFileError, match=r"branch 1 .*partition.*starts before 0\.25"):
        parse_map_file(overlap)
    short = DOUBLING_FILE.replace("dom = 0.25 0.5", "dom = 0.25 0.45")
    with pytest.raises(MapFileError, match="partition.*last branch ends at 0.45"):
        parse_map_file(short)
    with pytest.raises(MapFileError, match="branch 1 .*empty"):
        parse_map_file(DOUBLING_FILE.replace("dom = 0.25 0.5", "dom = 0.5 0.5"))


def test_map_file_branch_images_must_lie_in_the_domain():
    # 3x on [0, 0.25) runs to 0.75, past the domain [0, 0.5]
    with pytest.raises(MapFileError, match=r"branch 0 \[0\.0, 0\.25\].*f\(0\.25\) = 0\.75.*outside"):
        parse_map_file(IMAGE_FILE)


def test_branch_checks_accept_every_built_in_table():
    for name in ("doubling", "tent", "quadratic"):
        m = built_in(name)
        MapModel(name=name, map_kind=m.map_kind, domain=m.domain, a=m.a, beta=m.beta,
                 kappa=m.kappa, table=m.table.copy(), sing=m.sing.copy())
    parse_map_file(MIXED_FILE)


ONE_QUADRATIC_FILE = """
[map]
a = 2.5
beta = 0.5
kappa = 16.0
domain = 0.0 0.5
singular = 0.0 0.25 0.5
[branch]
dom = 0.0 0.5
kind = quadratic
coef = 0.0 4.0 -8.0
"""


def test_map_file_affine_branch_must_not_be_flat():
    flat = DOUBLING_FILE.replace("coef = 0.0 2.0", "coef = 0.1 0.0")
    with pytest.raises(MapFileError, match=r"branch 0 \[0\.0, 0\.25\]: .*monotone.*affine slope c1 is 0"):
        parse_map_file(flat)


def test_map_file_quadratic_vertex_must_not_lie_inside_the_branch():
    # 4y(1 - 2y) on all of [0, 0.5] folds at its vertex 0.25
    with pytest.raises(MapFileError, match=r"branch 0 \[0\.0, 0\.5\]: .*monotone.*vertex 0\.25 lies inside"):
        parse_map_file(ONE_QUADRATIC_FILE)
    with pytest.raises(MapFileError, match=r"branch 0 .*quadratic coefficient c2 is 0"):
        parse_map_file(ONE_QUADRATIC_FILE.replace("coef = 0.0 4.0 -8.0", "coef = 0.0 1.0 0.0"))
    # inv_sign must be +-1 and pick the root on the branch's side of its
    # vertex: -1 inverted 0.125 to 0.0, outside [0.1, 0.3], and 0.5 gave 0.15
    # instead of 0.2
    for sign in ("-1", "0.5"):
        with pytest.raises(MapFileError,
                           match=r"branch 1 \[0\.1, 0\.3\]: inv_sign must be 1, .*vertex 0\.1;"):
            parse_map_file(MIXED_FILE.replace("inv_sign = 1", f"inv_sign = {sign}"))
    quad = built_in("quadratic")
    table = quad.table.copy()
    table[1, 7] = 1.0  # the right branch of the fold needs the lower root
    with pytest.raises(MapFileError, match=r"branch 1 \[0\.25, 0\.5\]: inv_sign must be -1, "):
        MapModel(name="q", map_kind=quad.map_kind, domain=quad.domain, a=quad.a,
                 beta=quad.beta, kappa=quad.kappa, table=table, sing=quad.sing.copy())


@pytest.mark.parametrize("coef, clause", [
    ("0.1 0.0 -0.4 1.0", "pole"),         # 0.1 / (x - 0.4): pole inside [0.25, 0.5]
    ("0.1 0.0 -0.5 1.0", "pole"),         # pole at the right end
    ("0.1 0.0 -0.25 1.0", "pole"),        # pole at the left end
    ("0.2 0.4 1.0 2.0", "determinant"),  # (0.2 + 0.4x) / (1 + 2x) = 0.2
])
def test_map_file_moebius_branch_must_be_monotone(coef, clause):
    m = DOUBLING_FILE.replace("kind = affine\ncoef = -0.5 2.0", f"kind = moebius\ncoef = {coef}")
    with pytest.raises(MapFileError, match=rf"branch 1 \[0\.25, 0\.5\]: .*monotone.*moebius {clause}"):
        parse_map_file(m)


def test_cli_rejects_a_non_monotone_branch(tmp_path, capsys):
    p = tmp_path / "fold.map"
    p.write_text(ONE_QUADRATIC_FILE, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["verify-map", "--map", str(p), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "vertex 0.25 lies inside" in capsys.readouterr().err


def test_map_file_shape_errors_name_the_key():
    # a three-number domain failed in MapModel with a bare "too many values
    # to unpack" (found by fuzzing), and a fifth coefficient was dropped
    with pytest.raises(MapFileError, match=r"domain needs 2 numbers, got 3"):
        parse_map_file(DOUBLING_FILE.replace("domain = 0.0 0.5", "domain = 0.0 0.5 0.7"))
    with pytest.raises(MapFileError, match=r"coef takes at most 4 numbers, got 5"):
        parse_map_file(DOUBLING_FILE.replace("coef = 0.0 2.0", "coef = 0.0 2.0 0.0 0.0 7.0"))
    # a key named like the section bookkeeping is just an unknown key
    m = parse_map_file(DOUBLING_FILE.replace("[map]\n", "[map]\n__section__ = branch\n"))
    assert m.name == "mydoubling"
