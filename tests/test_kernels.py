"""Scalar and vectorized kernels agree; periodic points match closed forms."""

import itertools
import math

import mpmath
import numpy as np
import pytest

import symdyn
from symdyn import _kernels as K
from symdyn.analysis import MAX_PERIODIC_WORDS, check_word_budget, map_periodic_points

from oracles import (
    dfwd_vec_reference,
    dinv_vec_reference,
    fwd_vec_reference,
    inv_vec_reference,
    map_periodic_points_reference,
    periodic_roots_reference,
    sing_dist_vec_reference,
)


@pytest.mark.parametrize("name", ["doubling", "tent", "quadratic", "gauss"])
def test_scalar_vs_vectorized_eval(name):
    m = symdyn.built_in(name)
    rng = np.random.default_rng(7)
    xs = m.draw_regular_points(500, rng)
    bids = K.branch_index_vec(m.map_kind, m.table, xs)
    fv = K.fwd_vec(m.map_kind, m.table, bids, xs)
    dv = K.dfwd_vec(m.map_kind, m.table, bids, xs)
    sv = K.sing_dist_vec(m.map_kind, m.table, m.sing, xs)
    for i, x in enumerate(xs):
        b = K.branch_index(m.map_kind, m.table, x)
        assert b == bids[i]
        assert K.fwd(m.map_kind, m.table, b, x) == fv[i]
        assert K.dfwd(m.map_kind, m.table, b, x) == dv[i]
        assert K.sing_dist(m.map_kind, m.table, m.sing, x) == sv[i]
        y = fv[i]
        assert K.inv(m.map_kind, m.table, b, y) == K.inv_vec(
            m.map_kind, m.table, np.array([b]), np.array([y]))[0]
        assert K.dinv(m.map_kind, m.table, b, y) == K.dinv_vec(
            m.map_kind, m.table, np.array([b]), np.array([y]))[0]


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
    pts, bids, ld, sg, done, ok = K.forward_orbit(
        m.map_kind, m.table, 0.123, 20, m.exclusion, m.sing)
    assert ok and done == 20
    for k in range(20):
        assert K.fwd(m.map_kind, m.table, bids[k], pts[k]) == pts[k + 1]
        assert np.exp(ld[k]) == pytest.approx(2.0, rel=1e-12)


def test_forward_orbit_long_nondyadic():
    m = symdyn.built_in("quadratic")
    pts, bids, ld, sg, done, ok = K.forward_orbit(
        m.map_kind, m.table, 0.1234567, 200, m.exclusion, m.sing)
    assert ok and done == 200
    for k in range(0, 200, 17):
        assert K.fwd(m.map_kind, m.table, bids[k], pts[k]) == pts[k + 1]


def test_backward_orbit_validates_branches():
    m = symdyn.built_in("doubling")
    word = np.array([0, 1, 0, 1], dtype=np.int64)
    pts, done, ok = K.backward_orbit(m.map_kind, m.table, 0.3, word,
                                     m.exclusion, m.sing)
    assert ok
    x = pts[-1]
    for b in word[::-1]:
        x = K.fwd(m.map_kind, m.table, b, x)
    assert x == pytest.approx(0.3, abs=1e-12)


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
