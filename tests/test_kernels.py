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
from symdyn.analysis import MAX_PERIODIC_WORDS, check_word_budget, map_periodic_points
from symdyn.map_model import parse_map_file

from oracles import (
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
    xs = m.draw_regular_points(500, rng).tolist()
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
    mk, table = m.map_kind, m.table
    xs = np.array(_scalar_lane_points(m, np.random.default_rng(7)))
    bids = K.branch_index_vec(mk, table, xs)
    fv = K.fwd_vec(mk, table, bids, xs)
    dv = K.dfwd_vec(mk, table, bids, xs)
    sv = K.sing_dist_vec(mk, table, m.sing, xs)
    iv = K.inv_vec(mk, table, bids, fv)
    giv = K.dinv_vec(mk, table, bids, fv)
    regular = 0
    for i, (x, y) in enumerate(zip(xs.tolist(), fv.tolist())):
        assert _bits(m.singular_distance(x)) == _bits(sv[i])
        if sv[i] > m.exclusion:
            regular += 1
            assert m.branch_at(x) == bids[i]
            assert _bits(m.f(x)) == _bits(fv[i])
            assert _bits(m.preimage(y, bids[i])) == _bits(iv[i])
        br = m.branch_by_id(bids[i])
        got = (br.fwd(x), br.dfwd(x), br.inv(y), br.dinv(y))
        assert all(type(v) is float for v in got)
        assert [_bits(v) for v in got] == [_bits(fv[i]), _bits(dv[i]), _bits(iv[i]), _bits(giv[i])]
    assert regular >= 500


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
        assert _bits(br.inv(y)) == _bits(gauss_inv_reference(n, y))
        assert _bits(br.dinv(y)) == _bits(gauss_dinv_reference(n, y))


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
        m = symdyn.built_in(name)
        yield name, m.map_kind, m.table
    yield "gauss-finite", *symdyn.built_in("gauss").finite_table()
    yield "mixed", K.MAPKIND_TABLE, MIXED_TABLE
    yield "degenerate", K.MAPKIND_TABLE, DEGENERATE_TABLE
    # one-kind tables: a scalar branch id runs the formulas on scalar coefficients
    yield "degenerate-affine", K.MAPKIND_TABLE, DEGENERATE_TABLE[:1]
    yield "degenerate-quadratic", K.MAPKIND_TABLE, DEGENERATE_TABLE[1:2]


KERNEL_CASES = {name: (mk, table) for name, mk, table in _kernel_cases()}
BATCH_KERNELS = {
    "fwd": (K.fwd_vec, fwd_vec_reference),
    "dfwd": (K.dfwd_vec, dfwd_vec_reference),
    "inv": (K.inv_vec, inv_vec_reference),
    "dinv": (K.dinv_vec, dinv_vec_reference),
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
    mk, table = KERNEL_CASES[case]
    fast, ref = BATCH_KERNELS[kernel]
    rng = np.random.default_rng(11)
    if mk == K.MAPKIND_GAUSS:
        bids = np.array([1, 2, 3, 7, 16, 100])
        ends = np.concatenate([1.0 / (2.0 * (bids + 1)), 1.0 / (2.0 * bids)])
    else:
        bids = np.arange(table.shape[0])
        ends = table[:, 1:3].ravel()
        ends = np.concatenate([ends, K.fwd_vec(mk, table, np.repeat(bids, 2), ends)])
    # 0.5 and 0.6 put the built-in quadratic inverse at disc = 0 and disc < 0,
    # 0.0 and -0.1 the mixed one
    special = [0.0, -0.0, 0.5, 0.6, -0.1, 1e-300, np.nan, np.inf, -np.inf]
    x = np.concatenate([ends, special, rng.uniform(-0.1, 0.6, 32)])
    n = x.size
    bid = rng.choice(bids, n)
    for b in bids:  # scalar branch id, one array of points
        _assert_same_bits(fast(mk, table, int(b), x), ref(mk, table, int(b), x))
        _assert_same_bits(fast(mk, table, b, x[3]), ref(mk, table, b, x[3]))
    _assert_same_bits(fast(mk, table, bid, x), ref(mk, table, bid, x))
    grid = x[:, None] + rng.uniform(-0.01, 0.01, (n, 9))
    grid[:, 0] = x
    _assert_same_bits(fast(mk, table, bid[:, None], grid), ref(mk, table, bid[:, None], grid))
    wide = np.broadcast_to(bid[:, None], grid.shape)
    _assert_same_bits(fast(mk, table, wide, grid), ref(mk, table, wide, grid))
    _assert_same_bits(fast(mk, table, bid[:, None], x[:9]), ref(mk, table, bid[:, None], x[:9]))


def _sing_cases():
    for name in ("doubling", "quadratic", "gauss"):
        m = symdyn.built_in(name)
        yield name, m.map_kind, m.table, m.sing
    doubling = symdyn.built_in("doubling")
    yield "one-point", K.MAPKIND_TABLE, doubling.table, np.array([0.25])
    yield "empty", K.MAPKIND_TABLE, doubling.table, np.zeros(0)


SING_CASES = {name: case for name, *case in _sing_cases()}


@pytest.mark.parametrize("case", SING_CASES)
def test_sing_dist_vec_matches_broadcast_min_reference(case):
    # the running minimum over the singular points against one broadcast
    # (..., len(sing)) array: same bits and the input's shape, 0-d included
    mk, table, sing = SING_CASES[case]
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 0.25, 0.5, 1.0 / 6.0, 1e-300, -0.1, np.nan, np.inf, -np.inf]
    x = np.concatenate([special, rng.uniform(-0.1, 0.6, 54)])
    grid = x[None, :] + rng.uniform(-1e-3, 1e-3, (9, 1))
    for pts in (x, grid, x[3], np.float64(x[4]), float(x[5]), np.asarray(x[6])):
        got = K.sing_dist_vec(mk, table, sing, pts)
        want = sing_dist_vec_reference(mk, table, sing, pts)
        assert np.shape(got) == np.shape(pts) == np.shape(want)
        got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

def test_forward_orbit_consistency():
    # dyadic maps shift mantissa bits out, so keep the horizon short
    m = symdyn.built_in("tent")
    pts, bids, ld = ne.forward_orbit(m, 0.123, 20)
    assert pts.shape == (21,) and bids.shape == ld.shape == (20,)
    assert np.array_equal(K.fwd_vec(m.map_kind, m.table, bids, pts[:-1]), pts[1:])
    assert np.array_equal(bids, K.branch_index_vec(m.map_kind, m.table, pts[:-1]))
    for k in range(20):
        assert np.exp(ld[k]) == pytest.approx(2.0, rel=1e-12)


def test_forward_orbit_long_nondyadic():
    m = symdyn.built_in("quadratic")
    pts, bids, ld = ne.forward_orbit(m, 0.1234567, 200)
    assert pts.shape == (201,)
    assert np.array_equal(K.fwd_vec(m.map_kind, m.table, bids, pts[:-1]), pts[1:])
    d = K.dfwd_vec(m.map_kind, m.table, bids, pts[:-1])
    assert np.array_equal(ld, np.log(np.abs(d)))
    doubling = symdyn.built_in("doubling")
    for x0, n in ((0.0625, 5), (0.125, 1)):  # 0.0625 -> 0.125 -> 0.25, singular
        with pytest.raises(symdyn.SingularPoint):
            ne.forward_orbit(doubling, x0, n)


def test_backward_orbit_validates_branches():
    m = symdyn.built_in("doubling")
    word = np.array([0, 1, 0, 1], dtype=np.int64)
    pts = ne.backward_orbit(m, 0.3, word)
    assert pts.shape == (4,)
    x = pts[-1]
    for b in word[::-1]:
        x = float(K.fwd_vec(m.map_kind, m.table, b, x))
    assert x == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(symdyn.SingularPoint):
        ne.backward_orbit(m, 0.5, [1, 0])  # 0.5 <- 0.5 <- 0.25, a singular point
    # branch 1 is x - 0.25, not full, and 0.25 is not singular: the preimage
    # of 0.4 under branch 1 is 0.65, outside every branch, and the preimage
    # of 0.5 under branch 0 is 0.25, in branch 1
    half = parse_map_file(DOUBLING_FILE.replace("coef = -0.5 2.0", "coef = -0.25 1.0")
                          .replace("singular = 0.0 0.25", "singular = 0.0"))
    assert ne.backward_orbit(half, 0.2, [1]).tolist() == [pytest.approx(0.45)]
    with pytest.raises(symdyn.SingularPoint, match="no branch"):
        ne.backward_orbit(half, 0.4, [1])
    with pytest.raises(symdyn.SingularPoint, match="not in branch 0"):
        ne.backward_orbit(half, 0.5, [0])


@pytest.mark.parametrize("n", range(1, 9))
def test_periodic_roots_doubling_closed_form(n):
    # y = x/2 conjugates x -> 2x mod 1: the root of the branch word b_0..b_{n-1}
    # is the repeating binary fraction 0.(b_0..b_{n-1}), halved
    m = symdyn.built_in("doubling")
    words = np.array(list(itertools.product((0, 1), repeat=n))[:-1], dtype=np.int64)
    roots, found = K.periodic_roots(m.map_kind, m.table, words)
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
        mk, table = symdyn.built_in(name).finite_table()
        yield name, mk, table, range(1, 4 if name == "gauss" else 9)
    for name, table in (("non-full affine", NON_FULL_AFFINE),
                        ("non-full quadratic", NON_FULL_QUADRATIC),
                        ("non-full mixed", NON_FULL_MIXED)):
        yield name, K.MAPKIND_TABLE, table, range(1, 9)


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
def test_periodic_roots_match_fixed_step_reference(case):
    name, mk, table, ns = case
    dead = 0
    for n in ns:
        words = np.array(list(itertools.product(range(table.shape[0]), repeat=n)),
                         dtype=np.int64)
        roots, found = K.periodic_roots(mk, table, words)
        ref_roots, ref_found = periodic_roots_reference(mk, table, words)
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


@pytest.mark.parametrize("name,n", [("gauss", 4), ("quadratic", 10), ("tent", 10)])
def test_map_periodic_points_match_sorted_scan(name, n):
    # gauss n = 4 merges 133 roots, 24 of them in chains of three or more
    m = symdyn.built_in(name)
    roots, words = map_periodic_points(m, n)
    ref = map_periodic_points_reference(m, n)
    assert [float.hex(r) for r in roots.tolist()] == [float.hex(r) for r, _ in ref]
    assert words.tolist() == [w for _, w in ref]


def test_map_periodic_points_word_budget():
    gauss = symdyn.built_in("gauss")
    assert 16**5 == MAX_PERIODIC_WORDS
    check_word_budget(gauss, 5)
    with pytest.raises(ValueError, match="16\\^6"):
        map_periodic_points(gauss, 6)
    check_word_budget(symdyn.built_in("doubling"), 20)
    with pytest.raises(ValueError, match="2\\^21"):
        map_periodic_points(symdyn.built_in("doubling"), 21)
