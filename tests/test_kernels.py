"""Scalar and vectorized kernels agree; periodic points match closed forms."""

import itertools
import math

import mpmath
import numpy as np
import pytest

import symdyn
from symdyn import _kernels as K
from symdyn.analysis import MAX_PERIODIC_WORDS, check_word_budget, map_periodic_points

from oracles import periodic_roots_reference


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
        got = map_periodic_points(symdyn.built_in(name), n)
        assert len(got) == len(expect)
        assert got == pytest.approx(expect, abs=1e-12)


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
    with mpmath.workdps(40):
        expect = sorted(float(_gauss_cycle_point(w))
                        for w in itertools.product(range(1, 17), repeat=n))
    got = map_periodic_points(symdyn.built_in("gauss"), n)
    assert len(got) == 16**n
    assert got == pytest.approx(expect, abs=1e-12)


def test_map_periodic_points_word_budget():
    gauss = symdyn.built_in("gauss")
    assert 16**5 == MAX_PERIODIC_WORDS
    check_word_budget(gauss, 5)
    with pytest.raises(ValueError, match="16\\^6"):
        map_periodic_points(gauss, 6)
    check_word_budget(symdyn.built_in("doubling"), 20)
    with pytest.raises(ValueError, match="2\\^21"):
        map_periodic_points(symdyn.built_in("doubling"), 21)
