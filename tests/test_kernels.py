"""Scalar and vectorized kernels agree; periodic points match closed forms."""

import itertools
import math

import numpy as np
import pytest

import symdyn
from symdyn import _kernels as K
from symdyn.analysis import map_periodic_points


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
