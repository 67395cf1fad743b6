"""The scalar lane (Branch, MapModel) and the batch kernels agree; periodic
points match closed forms."""

import itertools
import math

import mpmath
import numpy as np
import pytest

import symdyn
from symdyn import _kernels as K
from symdyn import natural_extension as ne
from symdyn.analysis import map_periodic_points
from symdyn.map_model import parse_map_file

from construction import backward_orbit, ddinv, dinv, draw_regular_points, f, inv, preimage
from oracles import (
    catalogue_branch,
    d2fwd_vec_reference,
    d2inv_vec_reference,
    ddinv_reference,
    dfwd_vec_reference,
    dinv_vec_reference,
    fwd_vec_reference,
    gauss_dfwd_reference,
    gauss_dinv_reference,
    gauss_fwd_reference,
    gauss_inv_reference,
    inv_vec_reference,
    map_periodic_points_reference,
    periodic_roots_reference,
    sing_dist_vec_reference,
)
from test_map_model import DOUBLING_FILE, MIXED_FILE


def _bits(v):
    return np.float64(v).view(np.uint64)


def _scalar_lane_points(m, rng):
    """Regular sample points plus points within a few ulps and 1e-11 of
    every branch endpoint (the singular ones among them are kept, so only
    the branch formulas, not branch_at, may see them)."""
    xs = draw_regular_points(m, 500, rng).tolist()
    for b in m.branches:
        for end, away in ((b.lo, b.hi), (b.hi, b.lo)):
            x = end
            for _ in range(3):
                x = float(np.nextafter(x, away))
                xs.append(x)
            xs.append(end + math.copysign(1e-11, away - end))
    return xs


@pytest.mark.parametrize("name", ["doubling", "tent", "quadratic", "gauss", "mixed"])
def test_scalar_vs_vectorized_eval(name):
    # the scalar lane (Branch, MapModel) against the batch kernels, bit for
    # bit; scalar results are Python floats
    m = parse_map_file(MIXED_FILE) if name == "mixed" else symdyn.built_in(name)
    fam = m.family
    xs = np.array(_scalar_lane_points(m, np.random.default_rng(7)))
    bids = K.branch_index_vec(fam, xs)
    fv = K.fwd_vec(fam, bids, xs)
    dv = K.dfwd_vec(fam, bids, xs)
    sv = K.sing_dist_vec(fam, xs)
    iv = K.inv_vec(fam, bids, fv)
    giv = K.dinv_vec(fam, bids, fv)
    g2v = K.d2inv_vec(fam, bids, fv)
    regular = 0
    for i, (x, y) in enumerate(zip(xs.tolist(), fv.tolist())):
        assert _bits(m.singular_distance(x)) == _bits(sv[i])
        if sv[i] > m.exclusion:
            regular += 1
            assert m.branch_at(x) == bids[i]
            assert _bits(f(m, x)) == _bits(fv[i])
            assert _bits(preimage(m, y, bids[i])) == _bits(iv[i])
        br = m.branch_by_id(bids[i])
        got = (br.fwd(x), br.dfwd(x), inv(br, y), dinv(br, y))
        assert all(type(v) is float for v in got)
        assert [_bits(v) for v in got] == [_bits(fv[i]), _bits(dv[i]), _bits(iv[i]), _bits(giv[i])]
        # g'' raises to the power 1.5 or 3: numpy's pow and the C library's
        # may round differently; at the critical value both give the same inf
        assert type(ddinv(br, y)) is float
        assert ddinv(br, y) == pytest.approx(g2v[i], rel=1e-15, nan_ok=True)
    assert regular >= 500


def test_ddinv_at_quadratic_critical_value():
    # the built-in quadratic 4y(1 - 2y) has its vertex at 0.25 and its
    # critical value at 0.5, where disc = 16 - 32y is 0: g'' is +inf on the
    # convex left inverse and -inf on the concave right one, in both lanes;
    # one ulp under 0.5, disc = 2^-49 and g'' = +-16 / 2^-73.5
    m = symdyn.built_in("quadratic")
    below = float(np.nextafter(0.5, 0.0))
    for br, sign in zip(m.branches, (1.0, -1.0)):
        ys = np.array([0.5, below])
        batch = K.d2inv_vec(m.family, np.full(2, br.id), ys)
        assert ddinv(br, 0.5) == batch[0] == math.copysign(math.inf, sign)
        assert ddinv(br, below) == pytest.approx(batch[1], rel=1e-15)
        assert ddinv(br, below) == pytest.approx(sign * 16.0 * 2.0**73.5, rel=1e-15)
    # the images of the vertex and of its neighbouring floats round to 0.5
    for x in (float(np.nextafter(0.25, 0.0)), 0.25, float(np.nextafter(0.25, 0.5))):
        br = m.branches[0] if x < 0.25 else m.branches[1]
        y = br.fwd(x)
        assert y == 0.5
        assert ddinv(br, y) == K.d2inv_vec(m.family, np.array([br.id]), np.array([y]))[0]


@pytest.mark.parametrize("name", ["doubling", "tent", "quadratic", "gauss", "mixed"])
def test_second_derivatives_match_mpmath_diff(name):
    # the batch f'' and g'' against 50-digit numerical differentiation
    # of the catalogue's f and g; ddinv keeps the closed form's bits
    m = parse_map_file(MIXED_FILE) if name == "mixed" else symdyn.built_in(name)
    fam = m.family
    xs = draw_regular_points(m, 60, np.random.default_rng(17))
    bids = K.branch_index_vec(fam, xs)
    ys = K.fwd_vec(fam, bids, xs)
    d2f = K.d2fwd_vec(fam, bids, xs)
    d2g = K.d2inv_vec(fam, bids, ys)
    with mpmath.workdps(50):
        for x, y, b, got_f, got_g in zip(xs.tolist(), ys.tolist(), bids.tolist(), d2f, d2g):
            br = m.branch_by_id(b)
            f, _, g = catalogue_branch(br, mpmath.mp)
            want_f = float(mpmath.diff(f, x, 2))
            want_g = float(mpmath.diff(g, y, 2))
            assert got_f == pytest.approx(want_f, rel=1e-9, abs=1e-30)
            assert got_g == pytest.approx(want_g, rel=1e-9, abs=1e-30)
            assert _bits(ddinv(br, y)) == _bits(ddinv_reference(br, y))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 100, 12345, 10**6, 10**9, 5 * 10**10])
def test_gauss_branch_matches_closed_forms(n):
    # the gauss branches are the moebius rows (1 - 2n x) / (0 + 4x); their
    # values equal the closed forms of 1/(4x) - n/2 bit for bit, endpoints
    # included (n = 5e10 puts x near 1e-11)
    br = symdyn.built_in("gauss").branch_by_id(n)
    rng = np.random.default_rng(n % 1000)
    xs = [br.lo, br.hi, *rng.uniform(br.lo, br.hi, 20).tolist()]
    for end, away in ((br.lo, br.hi), (br.hi, br.lo)):
        x = end
        for _ in range(4):
            x = float(np.nextafter(x, away))
            xs.append(x)
    for x in xs:
        assert _bits(br.fwd(x)) == _bits(gauss_fwd_reference(n, x))
        assert _bits(br.dfwd(x)) == _bits(gauss_dfwd_reference(n, x))
    ys = [0.0, 5e-324, 1e-300, 1e-11, 0.5, float(np.nextafter(0.5, 0.0)),
          *rng.uniform(0.0, 0.5, 20).tolist()]
    for y in ys + [br.fwd(x) for x in xs]:
        assert _bits(inv(br, y)) == _bits(gauss_inv_reference(n, y))
        assert _bits(dinv(br, y)) == _bits(gauss_dinv_reference(n, y))


def test_gauss_floor_array_lane_matches_floor_divide():
    # np.floor in the array lane against numpy's // 1.0 and the Python lane,
    # bit for bit: at 1/(2n) and one ulp to each side, at the clip ends and
    # one ulp past each, and on NaN
    ends = [0.5 / n for n in (1, 2, 3, 7, 16, 17, 100, 12345, 10**6, 10**9, 5 * 10**10, 2**51)]
    xs = [2.0**-53, 0.25, float(np.nextafter(2.0**-53, 0.0)), float(np.nextafter(0.25, 1.0)),
          math.nan, -math.nan]
    for x in ends:
        xs += [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, 1.0))]
    x = np.array(xs)
    got = K._gauss_floor(x)
    _assert_same_bits(got, (0.5 / np.clip(x, K.GAUSS_X_MIN, 0.25)) // 1.0)
    _assert_same_bits(got, np.array([K._gauss_floor(v) for v in xs]))


# one branch of each kind; the quadratic has its critical point at 0.1
MIXED_TABLE = np.array([
    [K.KIND_AFFINE, 0.0, 0.1, 0.0, 4.0, 0.0, 0.0, 1.0],
    [K.KIND_QUADRATIC, 0.1, 0.3, 0.125, -2.5, 12.5, 0.0, 1.0],
    [K.KIND_MOEBIUS, 0.3, 0.5, 0.5, -1.0, 0.1, 1.0, 1.0],
])
# degenerate coefficients: affine c1 = 0 and quadratic c2 = 0 hit the NaN guards
DEGENERATE_TABLE = np.array([
    [K.KIND_AFFINE, 0.0, 0.2, 0.1, 0.0, 0.0, 0.0, 1.0],
    [K.KIND_QUADRATIC, 0.2, 0.4, 0.0, 2.0, 0.0, 0.0, -1.0],
    [K.KIND_MOEBIUS, 0.4, 0.5, 1.0, -2.0, 0.0, 4.0, 1.0],
])


def _kernel_cases():
    for name in ("doubling", "tent", "quadratic", "gauss"):
        yield name, symdyn.built_in(name).family
    yield "gauss-finite", K.Table(symdyn.built_in("gauss").finite_table()[1], ())
    yield "mixed", K.Table(MIXED_TABLE, ())
    yield "degenerate", K.Table(DEGENERATE_TABLE, ())
    # one-kind tables: a scalar branch id runs the formulas on scalar coefficients
    yield "degenerate-affine", K.Table(DEGENERATE_TABLE[:1], ())
    yield "degenerate-quadratic", K.Table(DEGENERATE_TABLE[1:2], ())


KERNEL_CASES = dict(_kernel_cases())
BATCH_KERNELS = {
    "fwd": (K.fwd_vec, fwd_vec_reference),
    "dfwd": (K.dfwd_vec, dfwd_vec_reference),
    "inv": (K.inv_vec, inv_vec_reference),
    "dinv": (K.dinv_vec, dinv_vec_reference),
    "d2fwd": (K.d2fwd_vec, d2fwd_vec_reference),
    "d2inv": (K.d2inv_vec, d2inv_vec_reference),
}


def _assert_same_bits(got, want):
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kernel", BATCH_KERNELS)
@pytest.mark.parametrize("case", KERNEL_CASES)
def test_batch_kernels_match_three_formula_reference(case, kernel):
    # one formula per branch kind against every formula then np.where: same
    # bits (NaN and the sign of zero included) and the same broadcast shape
    fam = KERNEL_CASES[case]
    fast, ref = BATCH_KERNELS[kernel]
    rng = np.random.default_rng(11)
    if isinstance(fam, K.Gauss):
        bids = np.array([1, 2, 3, 7, 16, 100])
        ends = np.concatenate([1.0 / (2.0 * (bids + 1)), 1.0 / (2.0 * bids)])
    else:
        bids = np.arange(fam.table.shape[0])
        ends = fam.table[:, 1:3].ravel()
        ends = np.concatenate([ends, K.fwd_vec(fam, np.repeat(bids, 2), ends)])
    # 0.5 and 0.6 put the built-in quadratic inverse at disc = 0 and disc < 0,
    # 0.0 and -0.1 the mixed one
    special = [0.0, -0.0, 0.5, 0.6, -0.1, 1e-300, np.nan, np.inf, -np.inf]
    x = np.concatenate([ends, special, rng.uniform(-0.1, 0.6, 32)])
    n = x.size
    bid = rng.choice(bids, n)
    for b in bids:  # scalar branch id, one array of points
        _assert_same_bits(fast(fam, int(b), x), ref(fam, int(b), x))
        _assert_same_bits(fast(fam, b, x[3]), ref(fam, b, x[3]))
    _assert_same_bits(fast(fam, bid, x), ref(fam, bid, x))
    grid = x[:, None] + rng.uniform(-0.01, 0.01, (n, 9))
    grid[:, 0] = x
    _assert_same_bits(fast(fam, bid[:, None], grid), ref(fam, bid[:, None], grid))
    wide = np.broadcast_to(bid[:, None], grid.shape)
    _assert_same_bits(fast(fam, wide, grid), ref(fam, wide, grid))
    _assert_same_bits(fast(fam, bid[:, None], x[:9]), ref(fam, bid[:, None], x[:9]))


def _sing_cases():
    for name in ("doubling", "quadratic", "gauss"):
        yield name, symdyn.built_in(name).family
    doubling = symdyn.built_in("doubling")
    yield "one-point", K.Table(doubling.table, [0.25])
    yield "empty", K.Table(doubling.table, [])


SING_CASES = dict(_sing_cases())


@pytest.mark.parametrize("case", SING_CASES)
def test_sing_dist_vec_matches_broadcast_min_reference(case):
    # the running minimum over the singular points against one broadcast
    # (..., len(sing)) array: same bits and the input's shape, 0-d included;
    # the gauss closed form within 1.2e-16 of exact rational arithmetic
    fam = SING_CASES[case]
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 0.25, 0.5, 1.0 / 6.0, 1e-300, -0.1, np.nan, np.inf, -np.inf]
    x = np.concatenate([special, rng.uniform(-0.1, 0.6, 54)])
    grid = x[None, :] + rng.uniform(-1e-3, 1e-3, (9, 1))
    for pts in (x, grid, x[3], np.float64(x[4]), float(x[5]), np.asarray(x[6])):
        got = K.sing_dist_vec(fam, pts)
        want = sing_dist_vec_reference(fam, pts)
        assert np.shape(got) == np.shape(pts) == np.shape(want)
        got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
        if case == "gauss":
            assert np.allclose(got, want, rtol=0.0, atol=1.2e-16, equal_nan=True)
        else:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_forward_orbit_consistency():
    # dyadic maps shift mantissa bits out, so keep the horizon short
    m = symdyn.built_in("tent")
    pts, bids, ld = ne.forward_orbit(m, 0.123, 20)
    assert pts.shape == (21,) and bids.shape == ld.shape == (20,)
    assert np.array_equal(K.fwd_vec(m.family, bids, pts[:-1]), pts[1:])
    assert np.array_equal(bids, K.branch_index_vec(m.family, pts[:-1]))
    for k in range(20):
        assert np.exp(ld[k]) == pytest.approx(2.0, rel=1e-12)


def test_forward_orbit_long_nondyadic():
    m = symdyn.built_in("quadratic")
    pts, bids, ld = ne.forward_orbit(m, 0.1234567, 200)
    assert pts.shape == (201,)
    assert np.array_equal(K.fwd_vec(m.family, bids, pts[:-1]), pts[1:])
    d = K.dfwd_vec(m.family, bids, pts[:-1])
    assert np.array_equal(ld, np.log(np.abs(d)))
    doubling = symdyn.built_in("doubling")
    for x0, n in ((0.0625, 5), (0.125, 1)):  # 0.0625 -> 0.125 -> 0.25, singular
        with pytest.raises(symdyn.SingularPoint):
            ne.forward_orbit(doubling, x0, n)


def test_backward_orbit_validates_branches():
    m = symdyn.built_in("doubling")
    word = np.array([0, 1, 0, 1], dtype=np.int64)
    pts = backward_orbit(m, 0.3, word)
    assert pts.shape == (4,)
    x = pts[-1]
    for b in word[::-1]:
        x = float(K.fwd_vec(m.family, b, x))
    assert x == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(symdyn.SingularPoint):
        backward_orbit(m, 0.5, [1, 0])  # 0.5 <- 0.5 <- 0.25, a singular point
    # neither branch is full: 2x on [0, 0.2) and x - 0.2 on [0.2, 0.5].  The
    # preimage of 0.4 under branch 1 is 0.6, outside every branch, and the
    # preimage of 0.45 under branch 0 is 0.225, in branch 1 and off S
    half = parse_map_file(DOUBLING_FILE.replace("dom = 0.0 0.25", "dom = 0.0 0.2")
                          .replace("dom = 0.25 0.5", "dom = 0.2 0.5")
                          .replace("coef = -0.5 2.0", "coef = -0.2 1.0")
                          .replace("singular = 0.0 0.25", "singular = 0.0 0.2"))
    assert backward_orbit(half, 0.25, [1]).tolist() == [pytest.approx(0.45)]
    with pytest.raises(symdyn.SingularPoint, match="no branch"):
        backward_orbit(half, 0.4, [1])
    with pytest.raises(symdyn.SingularPoint, match="not in branch 0"):
        backward_orbit(half, 0.45, [0])


@pytest.mark.parametrize("n", range(1, 9))
def test_periodic_roots_doubling_closed_form(n):
    # y = x/2 conjugates x -> 2x mod 1: the root of the branch word b_0..b_{n-1}
    # is the repeating binary fraction 0.(b_0..b_{n-1}), halved
    m = symdyn.built_in("doubling")
    words = np.array(list(itertools.product((0, 1), repeat=n))[:-1], dtype=np.int64)
    roots, found = K.periodic_roots(m.family, words)
    assert found.all()
    for word, r in zip(words, roots):
        k = int("".join(map(str, word)), 2)
        assert r == pytest.approx(k / (2 * (2**n - 1)), abs=1e-12)


def _merged(xs, tol=1e-9):
    out = []
    for x in sorted(xs):
        if not out or x - out[-1] > tol:
            out.append(x)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_map_periodic_points_closed_form(n):
    doubling = [k / (2 * (2**n - 1)) for k in range(2**n - 1)]
    # 4x(1-x) = sin^2(2 pi t) at x = sin^2(pi t): period-n points have
    # 2^n t = +-t mod 1; the built-in map is its conjugate by y = x/2
    quadratic = _merged(math.sin(math.pi * k / d) ** 2 / 2
                        for d in (2**n - 1, 2**n + 1) for k in range(d))
    for name, expect in (("doubling", doubling), ("quadratic", quadratic)):
        got, words = map_periodic_points(symdyn.built_in(name), n)
        assert len(got) == len(expect)
        assert got.tolist() == pytest.approx(expect, abs=1e-12)
        if name == "doubling":
            # k / (2 (2^n - 1)) = 0.(b)_2 / 2 for the n binary digits b of k
            assert words.tolist() == [[int(c) for c in format(k, f"0{n}b")]
                                      for k in range(2**n - 1)]


# three-branch tables on [0, 0.5]: branch 1 maps onto branch 0 only and
# branch 2 onto branches 1 and 2 only, so words with (1, 1), (1, 2) or
# (2, 0) have empty cylinders; one table is all affine, one all quadratic,
# one mixes in a moebius branch
NON_FULL_IMAGES = ((0.0, 0.2, 0.0, 0.5), (0.2, 0.35, 0.0, 0.2), (0.35, 0.5, 0.2, 0.5))


def _non_full_row(kind, a, b, img_a, img_b):
    # img_a + (img_b - img_a) * ((1 - e) t + e t^2), t = (x - a)/(b - a), with
    # e = 0 for an affine branch: increasing on [a, b], so the quadratic
    # inverse takes the + root
    e = 0.2 if kind == K.KIND_QUADRATIC else 0.0
    d, w = img_b - img_a, b - a
    c2 = d * e / w**2
    c1 = d * (1 - e) / w - 2 * c2 * a
    c0 = img_a - d * (1 - e) * a / w + c2 * a * a
    return [kind, a, b, c0, c1, c2, 0.0, 1.0]


NON_FULL_AFFINE = np.array([_non_full_row(K.KIND_AFFINE, *r) for r in NON_FULL_IMAGES])
NON_FULL_QUADRATIC = np.array([_non_full_row(K.KIND_QUADRATIC, *r) for r in NON_FULL_IMAGES])
NON_FULL_MIXED = NON_FULL_AFFINE.copy()
NON_FULL_MIXED[2] = [K.KIND_MOEBIUS, 0.35, 0.5, -0.85, 3.0, 0.3, 2.0, 1.0]


def _reference_cases():
    for name in ("doubling", "tent", "quadratic", "gauss"):
        table = symdyn.built_in(name).finite_table()[1]
        yield name, table, range(1, 4 if name == "gauss" else 9)
    for name, table in (("non-full affine", NON_FULL_AFFINE),
                        ("non-full quadratic", NON_FULL_QUADRATIC),
                        ("non-full mixed", NON_FULL_MIXED)):
        yield name, table, range(1, 9)


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
def test_periodic_roots_match_fixed_step_reference(case):
    name, table, ns = case
    fam = K.Table(table, ())
    dead = 0
    for n in ns:
        words = np.array(list(itertools.product(range(table.shape[0]), repeat=n)),
                         dtype=np.int64)
        roots, found = K.periodic_roots(fam, words)
        ref_roots, ref_found = periodic_roots_reference(table, words)
        assert np.array_equal(found, ref_found)
        assert np.array_equal(roots[found].view(np.int64),
                              ref_roots[found].view(np.int64))
        dead += int((~found).sum())
    if name.startswith("non-full"):
        assert dead > 0


def _gauss_cycle_point(word):
    # the purely periodic continued fraction [0; a_1 .. a_n repeating] is the
    # positive fixed point t = M(t) of M = g_{a_1} o ... o g_{a_n}, where
    # g_a(t) = 1/(a + t) has the matrix [[0, 1], [1, a]]
    m00, m01, m10, m11 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
    for a in word:
        m00, m01, m10, m11 = m01, m00 + a * m01, m11, m10 + a * m11
    # m10 t^2 + (m11 - m00) t - m01 = 0
    b = m11 - m00
    t = (-b + mpmath.sqrt(b * b + 4 * m10 * m01)) / (2 * m10)
    return t / 2  # the built-in map is 1/x mod 1 conjugated by y = x/2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauss_periodic_points_continued_fractions(n):
    # each root comes with its continued-fraction digits, the gauss branch ids
    with mpmath.workdps(40):
        expect = sorted((float(_gauss_cycle_point(w)), list(w))
                        for w in itertools.product(range(1, 17), repeat=n))
    got, words = map_periodic_points(symdyn.built_in("gauss"), n)
    assert len(got) == 16**n
    assert got.tolist() == pytest.approx([x for x, _ in expect], abs=1e-12)
    assert words.tolist() == [w for _, w in expect]


def test_gauss_period_4_every_word():
    # all 16^4 words keep their root, although the forward error of the
    # steepest words exceeds 1e-9 and some roots lie closer than 1e-9; a
    # fixed sample of 2,000 roots against their continued fractions
    got, words = map_periodic_points(symdyn.built_in("gauss"), 4)
    assert len(got) == 16**4
    assert np.all(np.diff(got) > 0.0)
    assert len({tuple(w) for w in words.tolist()}) == 16**4
    pick = np.random.default_rng(4).choice(16**4, size=2000, replace=False)
    with mpmath.workdps(40):
        for i in pick.tolist():
            assert got[i] == pytest.approx(float(_gauss_cycle_point(words[i].tolist())), abs=1e-12)


@pytest.mark.parametrize("name,n", [("quadratic", 10), ("tent", 10)])
def test_map_periodic_points_match_sorted_scan(name, n):
    # the reference still checks |f^n(r) - r| <= 1e-9 and merges roots
    # closer than 1e-9; on these words neither removes a root
    m = symdyn.built_in(name)
    roots, words = map_periodic_points(m, n)
    ref = map_periodic_points_reference(m, n)
    assert [float.hex(r) for r in roots.tolist()] == [float.hex(r) for r, _ in ref]
    assert words.tolist() == [w for _, w in ref]
