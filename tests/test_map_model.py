import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symdyn
from symdyn import _kernels as K
from symdyn import cli
from symdyn.analysis import map_periodic_points
from symdyn.map_model import (
    MapFileError,
    MapModel,
    SingularPoint,
    built_in,
    load_map,
    parse_map_file,
    verify_regularity,
)
from symdyn.map_model import _radii, _sample_margins

from construction import dinv, dinv_diff, draw_regular_points, f, inv, inv_diff, radius
from oracles import (
    catalogue_branch,
    cover_id_reference,
    gauss_exact,
    regularity_grid_reference,
    verify_regularity_reference,
    verify_regularity_whole_array,
)

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


@pytest.mark.parametrize("x", [1e-310, 5e-324])
def test_gauss_subnormal_is_singular(x):
    # 1/(2x) overflows here; the true distance, under 2 x^2, rounds to 0
    m = built_in("gauss")
    d = m.singular_distance(x)
    assert type(d) is float and d == float(gauss_exact(x)[1])
    with pytest.raises(SingularPoint):
        m.branch_at(x)
    with pytest.raises(SingularPoint):
        radius(m, x)


@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_gauss_any_positive_float(x):
    # subnormals and points beyond the domain included: a finite distance,
    # and branch_at / radius return or raise SingularPoint
    m = built_in("gauss")
    assert math.isfinite(m.singular_distance(x))
    for probe in (m.branch_at, lambda x: radius(m, x)):
        try:
            probe(x)
        except SingularPoint:
            pass


def _gauss_lane_points():
    """Floats for the gauss lanes: anywhere, +-0 and subnormals, points
    beyond 1/2, and the singular points 1/(2n) and their neighbouring floats."""
    ends = st.integers(1, 10**9).map(lambda n: 0.5 / n)
    near = st.tuples(ends, st.integers(-3, 3), st.sampled_from([0.0, -1e-12, 1e-12])).map(
        lambda t: _ulps(t[0] + t[2], t[1]))
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(-1e-300, 1e-300), st.floats(0.0, 0.7), near)


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@given(_gauss_lane_points())
# regressions: 1/(2x) overflowed the scalar lane's int at 5e-324; at -0.1
# the lanes gave branches 2 and 500000000000000, at 0.6 -1 and the
# nonexistent branch 0, at 1e-19 d = 0.0 and 1e-19; at 1/6 + 1e-12 the
# exact distance is under the exclusion radius and the float one above
@example(5e-324)
@example(-0.1)
@example(0.6)
@example(1e-19)
@example(-0.0)
@example(1 / 6 + 1e-12)
@settings(max_examples=1000, deadline=None)
def test_gauss_lanes_agree_with_exact_arithmetic(x):
    # the scalar lane (MapModel) and the batch lane agree bit for bit on the
    # branch index and d(x, S); the index is the branch whose float [lo, hi)
    # holds x, and -1 off (0, 1/2); against exact rationals, a point farther
    # than the exclusion radius from S gets its exact branch and a distance
    # within 1.2e-16 (or half an ulp: off the domain d can pass 1), and a
    # point at most that far is singular
    m = built_in("gauss")
    n, d = gauss_exact(x)
    xs = np.array([x])
    b, dist = m._branch_index(x), m.singular_distance(x)
    assert type(b) is int and b == K.branch_index_vec(m.family, xs)[0]
    assert np.float64(dist).view(np.uint64) == K.sing_dist_vec(m.family, xs).view(np.uint64)[0]
    if K.GAUSS_X_MIN <= x < 0.5:
        br = m.branch_by_id(b)
        assert br.lo <= x < br.hi
    elif x <= 0.0 or x >= 0.5:
        assert b == -1
    if d > symdyn.map_model.EXCLUSION_RADIUS:
        assert b == n
        assert abs(Fraction(dist) - d) <= max(Fraction(1.2e-16), Fraction(math.ulp(dist)) / 2)
    else:
        for probe in (m.branch_at, lambda x: radius(m, x)):
            with pytest.raises(SingularPoint):
                probe(x)


def _branch_dom(m, bid):
    return None if bid < 0 else (m.branch_by_id(bid).lo, m.branch_by_id(bid).hi)


def _branch_at_dom(m, x):
    try:
        return _branch_dom(m, m.branch_at(x))
    except SingularPoint:
        return "singular"


def test_branch_section_order_does_not_matter():
    # the doubling file with its [branch] sections reversed: every lane puts
    # a point in the branch of the same domain [lo, hi), and the domain's
    # right end 0.5 in none (the built-in included)
    head, *sections = DOUBLING_FILE.split("[branch]")
    given_order = parse_map_file(DOUBLING_FILE)
    reversed_order = parse_map_file("[branch]".join([head, *sections[::-1]]))
    assert _branch_dom(reversed_order, 0) == (0.25, 0.5)
    xs = np.concatenate([[0.25, 0.5], np.random.default_rng(8).uniform(0.0, 0.5, 500)])
    ids = [K.branch_index_vec(m.family, xs) for m in (given_order, reversed_order)]
    for i, x in enumerate(xs.tolist()):
        assert _branch_dom(given_order, ids[0][i]) == _branch_dom(reversed_order, ids[1][i])
        assert _branch_at_dom(given_order, x) == _branch_at_dom(reversed_order, x)
    assert _branch_dom(given_order, ids[0][0]) == (0.25, 0.5) and ids[0][1] == ids[1][1] == -1
    assert _branch_at_dom(given_order, 0.25) == _branch_at_dom(given_order, 0.5) == "singular"
    for m in (given_order, reversed_order, built_in("doubling")):
        assert m._branch_index(0.5) == -1 and K.branch_index_vec(m.family, [0.5])[0] == -1
    for n in range(1, 6):
        (r0, w0), (r1, w1) = (map_periodic_points(m, n) for m in (given_order, reversed_order))
        assert np.array_equal(r0.view(np.uint64), r1.view(np.uint64))
        assert [[_branch_dom(given_order, b) for b in w] for w in w0.tolist()] == \
            [[_branch_dom(reversed_order, b) for b in w] for w in w1.tolist()]


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
    xs = draw_regular_points(m, 300, rng)
    for x in xs:
        b = m.branch_by_id(m.branch_at(x))
        assert abs(inv(b, b.fwd(x)) - x) < 1e-10
        assert dinv(b, b.fwd(x)) * b.dfwd(x) == pytest.approx(1.0, rel=1e-9)


@given(st.floats(min_value=1e-6, max_value=0.2499))
@settings(max_examples=60, deadline=None)
def test_doubling_inverse_roundtrip_property(x):
    m = built_in("doubling")
    b = m.branch_by_id(0)
    assert abs(inv(b, b.fwd(x)) - x) < 1e-10


def test_domain_diameter_enforced():
    with pytest.raises(ValueError):
        MapModel(name="bad", map_kind=K.MAPKIND_TABLE, domain=(0.0, 1.5),
                 a=1.0, beta=0.5, kappa=2.0,
                 table=np.zeros((1, 8)), sing=np.zeros(1))


@pytest.mark.parametrize("name", ALL_MAPS)
def test_regularity_passes_builtin(name):
    m = built_in(name)
    rep = verify_regularity(m, 2000, seed=5)
    assert rep.passed, "\n".join(rep.lines())


def test_regularity_quadratic_small_a_fails_near_critical():
    base = built_in("quadratic")
    weak = MapModel(name="quadratic-a1", map_kind=base.map_kind, domain=base.domain,
                    a=1.0, beta=base.beta, kappa=base.kappa,
                    table=base.table.copy(), sing=base.sing.copy())
    rep = verify_regularity(weak, 4000, seed=5)
    assert not rep.passed
    bad = [c for c in rep.clauses.values() if not c.passed]
    # the failing witnesses sit next to the critical point 0.25
    assert any(abs(c.worst_x - 0.25) < 0.1 for c in bad)


@pytest.mark.parametrize("name", ALL_MAPS)
def test_regularity_a3_blocks_match_one_block(name, monkeypatch):
    # 1000 samples in blocks of 7 (the last one partial) against one block
    m = built_in(name)
    one = verify_regularity(m, 1000, seed=3)
    monkeypatch.setattr(symdyn.map_model, "REGULARITY_BLOCK", 7)
    blocks = verify_regularity(m, 1000, seed=3)
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


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 20000])
@pytest.mark.parametrize("name", ALL_MAPS + ["mixed"])
def test_regularity_matches_reference(name, samples, seed):
    # the ball ends against the 9-point grid reference on the same samples:
    # the same (A1) margins, (A2) margins no larger, (A3) quotients no
    # smaller, and the same pass flags
    m = parse_map_file(MIXED_FILE) if name == "mixed" else built_in(name)
    x = draw_regular_points(m, samples, np.random.default_rng(seed))
    assert x.size == samples
    a1, a2, quot, _ = _sample_margins(m, x, _radii(m, x))
    g1, g2, gquot, _ = regularity_grid_reference(m, x)
    assert np.array_equal(a1, g1)
    assert np.all(a2 <= g2)
    assert np.all(quot >= gquot)
    rep = verify_regularity(m, samples, seed=seed)
    ref = verify_regularity_reference(m, samples, seed)
    assert rep.sample_count == ref.sample_count == samples
    assert rep.clauses["A1"] == ref.clauses["A1"]
    assert [c.passed for c in rep.clauses.values()] == [c.passed for c in ref.clauses.values()]


@pytest.mark.parametrize("name", ALL_MAPS + ["mixed"])
def test_ball_ends_are_derivative_extremes(name):
    # sup and inf of |df| over D_x and of |dg| over E_x, enclosed by interval
    # arithmetic at 50 digits, are the values at the ball ends; the (A2)
    # margin read from the ends is the one the enclosures give
    m = parse_map_file(MIXED_FILE) if name == "mixed" else built_in(name)
    x = draw_regular_points(m, 300, np.random.default_rng(13))
    rad = _radii(m, x)
    bid, fx, dx, _, r = rad
    lo, hi = m.domain
    ys = np.stack([np.maximum(x - 2 * r, lo), np.minimum(x + 2 * r, hi)])
    zs = np.stack([np.maximum(fx - 2 * r, lo), np.minimum(fx + 2 * r, hi)])
    dfy = np.abs(K.dfwd_vec(m.family, bid, ys))
    dgz = np.abs(K.dinv_vec(m.family, bid, zs))
    a2 = _sample_margins(m, x, rad)[1]
    close = lambda got, want: abs(got - float(want)) <= 1e-9 * float(want)
    iv.dps = 50
    try:
        for i in range(x.size):
            _, df, g = catalogue_branch(m.branch_by_id(int(bid[i])), iv)
            sup_f = abs(df(iv.mpf([ys[0, i], ys[1, i]])))
            sup_g = abs(1 / df(g(iv.mpf([zs[0, i], zs[1, i]]))))
            assert close(dfy[:, i].max(), sup_f.b) and close(dfy[:, i].min(), sup_f.a)
            assert close(dgz[:, i].max(), sup_g.b) and close(dgz[:, i].min(), sup_g.a)
            alogd = m.a * math.log(dx[i])
            want = min(float(iv.log(sup_f.a).a) - alogd, -alogd - float(iv.log(sup_f.b).b),
                       float(iv.log(sup_g.a).a) - alogd, -alogd - float(iv.log(sup_g.b).b))
            assert a2[i] == pytest.approx(want, rel=1e-9, abs=1e-9)
    finally:
        iv.dps = 15


def test_regularity_nan_bound_counts_as_inf(monkeypatch):
    # a NaN g'' makes a NaN (A3) bound, which fails the clause
    m = built_in("quadratic")
    monkeypatch.setattr(K, "d2inv_vec", lambda fam, bid, y: np.full(y.shape, np.nan))
    a3 = verify_regularity(m, 100, seed=1).clauses["A3"]
    assert not a3.passed and a3.violations == 100 and a3.worst_margin == -np.inf


@pytest.mark.parametrize("block", [7, 4096])
@pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 20000])
@pytest.mark.parametrize("name", ALL_MAPS + ["mixed"])
def test_streamed_regularity_matches_whole_array(name, samples, block, monkeypatch):
    # each block's first worst sample, reduced once, against one argmin
    # (argmax) over every sample's margins at once: every field, bit for bit
    m = parse_map_file(MIXED_FILE) if name == "mixed" else built_in(name)
    monkeypatch.setattr(symdyn.map_model, "REGULARITY_BLOCK", block)
    rep = verify_regularity(m, samples, seed=1)
    assert repr(rep) == repr(verify_regularity_whole_array(m, samples, 1))
    assert rep.sample_count == samples


@pytest.mark.parametrize("block", [7, 4096])
def test_regularity_tie_takes_the_first_sample(block, monkeypatch):
    # doubling's (A3) quotient bound is 0 on every sample, so all the (A3)
    # margins tie and the witness is the first kept sample
    m = built_in("doubling")
    monkeypatch.setattr(symdyn.map_model, "REGULARITY_BLOCK", block)
    a3 = verify_regularity(m, 10000, seed=4).clauses["A3"]
    assert a3.worst_margin == math.log(2.0) - math.log(1e-300)
    assert a3.worst_x == draw_regular_points(m, 10000, np.random.default_rng(4))[0]


def test_regularity_first_nan_margin_is_the_witness(monkeypatch):
    # a NaN margin (extreme) is the worst, as in np.argmin (np.argmax), and
    # the first one is the witness, in whichever block it falls
    m = built_in("quadratic")
    margins = symdyn.map_model._sample_margins

    def with_nans(m, x, rad):
        a1, a2, quot, extremes = margins(m, x, rad)
        band = (0.3 < x) & (x < 0.31)
        a1[band] = extremes[band] = np.nan
        return a1, a2, quot, extremes

    monkeypatch.setattr(symdyn.map_model, "_sample_margins", with_nans)
    monkeypatch.setattr(symdyn.map_model, "REGULARITY_BLOCK", 7)
    rep = verify_regularity(m, 2000, seed=1)
    assert repr(rep) == repr(verify_regularity_whole_array(m, 2000, 1))
    x = draw_regular_points(m, 2000, np.random.default_rng(1))
    first = x[(0.3 < x) & (x < 0.31)][0]
    assert first != x[0]
    assert math.isnan(rep.clauses["A1"].worst_margin) and rep.clauses["A1"].worst_x == first
    assert math.isnan(rep.extreme_value) and rep.extreme_x == first


def test_regularity_memory_is_bounded_by_a_block():
    # every sample's radii and margins at 200,000 samples take over 24 MiB;
    # a pass holds one block's
    m = built_in("gauss")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        verify_regularity(m, 200_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_regularity_without_regular_points_raises():
    # with a = 100 every radius 0.5 d(x,S)^a falls under the exclusion cutoff
    base = built_in("doubling")
    m = MapModel(name="flat", map_kind=base.map_kind, domain=base.domain, a=100.0,
                 beta=base.beta, kappa=base.kappa, table=base.table.copy(), sing=base.sing.copy())
    with pytest.raises(ValueError, match="exclusion cutoff"):
        verify_regularity(m, 10, seed=1)


@pytest.mark.parametrize("samples", [0, -3])
def test_regularity_refuses_no_samples(samples):
    # a check of no sample would report all three clauses as passed
    with pytest.raises(ValueError, match=f"samples >= 1, got {samples}"):
        verify_regularity(built_in("doubling"), samples, seed=1)


def test_doubling_constant_derivative_holder_quotient_zero():
    # df is constant so the A3 quotient is identically 0: huge margin
    m = built_in("doubling")
    rep = verify_regularity(m, 500, seed=2)
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
    assert f(m, 0.1) == f(built_in("doubling"), 0.1)
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
        radius(m, 0.25 + 1e-4)
    # but ordinary points have a radius in (exclusion, 1)
    r = radius(m, 0.1)
    assert m.exclusion < r < 1.0
    # a point in no branch domain has no radius, not the last branch's
    with pytest.raises(SingularPoint, match="no branch"):
        radius(built_in("doubling"), 0.6)


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
            got = inv_diff(br, y, s)
            want = oracle(br, y, s, 0)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-320), (br.kind, s)
            got_d = dinv_diff(br, y, s)
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


def test_map_file_inner_branch_endpoints_must_be_singular(tmp_path, capsys):
    # the domain ends need not be: doubling's S is {0, 0.25}, without 0.5
    assert built_in("doubling").sing.tolist() == [0.0, 0.25]
    no_join = DOUBLING_FILE.replace("singular = 0.0 0.25", "singular = 0.0")
    with pytest.raises(MapFileError, match=r"branch 1 \[0\.25, 0\.5\]: the branch endpoint "
                                           r"0\.25 lies inside the domain but is not a singular"):
        parse_map_file(no_join)
    near = MIXED_FILE.replace("singular = 0.0 0.1 0.3 0.5", "singular = 0.0 0.1 0.30000000000000004")
    with pytest.raises(MapFileError, match=r"branch 2 .*endpoint 0\.3 lies inside"):
        parse_map_file(near)
    p = tmp_path / "nojoin.map"
    p.write_text(no_join, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["verify-map", "--map", str(p), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "endpoint 0.25 lies inside the domain" in capsys.readouterr().err


TABLE_LANE_MAPS = {name: built_in(name) for name in ("doubling", "tent", "quadratic")}
TABLE_LANE_MAPS["mixed"] = parse_map_file(MIXED_FILE)


@given(st.sampled_from(sorted(TABLE_LANE_MAPS)),
       st.one_of(st.floats(), st.sampled_from([math.nan, -math.nan, math.inf, -math.inf,
                                               0.0, -0.0, 0.25, 0.5])))
@settings(max_examples=500, deadline=None)
def test_table_singular_distance_lanes_agree(name, x):
    # the scalar lane (MapModel) and the batch lane agree bit for bit on
    # d(x, S), NaN and infinities included: NaN stays NaN in both
    m = TABLE_LANE_MAPS[name]
    d = m.singular_distance(x)
    assert type(d) is float
    assert np.float64(d).view(np.uint64) == K.sing_dist_vec(m.family, np.array([x])).view(np.uint64)[0]
    assert math.isnan(d) == math.isnan(x)


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


# -- the batched cover scan ------------------------------------------------------

COVER_MODELS = {name: built_in(name) for name in ALL_MAPS}
COVER_MODELS["mixed"] = parse_map_file(MIXED_FILE)


def _ulps(x, k):
    """The float k steps from x."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _ball_edge(m, level, t, side, k):
    """The float k steps from the end z + side 2r(z) of the ball of the grid
    center z at the given level nearest lo + t (hi - lo); the center if it
    has no radius."""
    lo, hi = m.domain
    h = (hi - lo) / (1 << level)
    z = lo + (min(int(t * (1 << level)), (1 << level) - 1) + 0.5) * h
    try:
        return _ulps(z + side * 2.0 * radius(m, z), k)
    except SingularPoint:
        return z


def _cover_point(m):
    """Uniform points, points within 1e-12 of S (gauss: of 0 and the 1/(2n)),
    the float neighbours of the exclusion radius and of the distance whose
    radius d^a / 2 is the exclusion radius, around S, and those of the ends
    of grid centers' balls."""
    lo, hi = m.domain
    if m.map_kind == K.MAPKIND_GAUSS:
        sing = st.one_of(st.just(0.0), st.integers(1, 10**6).map(lambda n: 0.5 / n))
    else:
        sing = st.sampled_from(m.family.sing)
    cut = st.sampled_from([m.exclusion, (2.0 * m.exclusion) ** (1.0 / m.a)])
    near = st.builds(lambda s, d: s + d, sing, st.floats(-1e-12, 1e-12))
    edge = st.builds(lambda s, c, side, k: _ulps(s + side * c, k),
                     sing, cut, st.sampled_from([-1.0, 1.0]), st.integers(-3, 3))
    ball = st.builds(lambda *a: _ball_edge(m, *a), st.integers(0, 45), st.floats(0.0, 1.0),
                     st.sampled_from([-1.0, 1.0]), st.integers(-2, 2))
    return st.one_of(st.floats(lo, hi), near, edge, ball).map(lambda x: min(max(x, lo), hi))


@pytest.mark.parametrize("name", list(COVER_MODELS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_cover_ids_match_reference(name, data):
    # the batched scan against the per-point scan, element by element; a
    # point the scan cannot place makes the whole batch raise
    m = COVER_MODELS[name]
    xs = data.draw(st.lists(_cover_point(m), min_size=1, max_size=12))
    ref = {}
    for x in xs:
        try:
            ref[x] = cover_id_reference(m, x)
        except SingularPoint:
            ref[x] = None
    placed = [x for x in xs if ref[x] is not None]
    assert m.cover_ids(placed).tolist() == [ref[x] for x in placed]
    for x in xs:
        if ref[x] is None:
            with pytest.raises(SingularPoint, match="no cover element"):
                m.cover_ids(placed + [x])


@pytest.mark.parametrize("name", list(COVER_MODELS))
def test_cover_ids_refuse_unplaceable_and_nan_points(name):
    m = COVER_MODELS[name]
    s = 0.25 if name != "mixed" else 0.3  # a singular point of each map
    with pytest.raises(SingularPoint):
        cover_id_reference(m, s)
    with pytest.raises(SingularPoint, match="no cover element"):
        m.cover_ids([0.1234, s])
    with pytest.raises(ValueError):
        cover_id_reference(m, math.nan)
    with pytest.raises(ValueError, match="finite"):
        m.cover_ids([0.1234, math.nan])
    assert m.cover_ids([]).tolist() == []
