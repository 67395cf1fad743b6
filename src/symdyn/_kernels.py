"""Batch numeric kernels: branch-table map evaluation and periodic-point
bisection over numpy arrays.

Maps are encoded for the kernels as a ``(map_kind, table, sing)`` triple:

* ``map_kind == MAPKIND_TABLE``: ``table`` has one row per branch,
  ``[kind, lo, hi, c0, c1, c2, c3, inv_sign]`` with ``kind`` one of
  affine ``c0 + c1*x``, quadratic ``c0 + c1*x + c2*x**2`` or moebius
  ``(c0 + c1*x)/(c2 + c3*x)``; ``sing`` is the finite singular set.
* ``map_kind == MAPKIND_GAUSS``: branch ``n >= 1`` is the moebius map
  ``1/(4x) - n/2`` on ``(1/(2n+2), 1/(2n)]``; the singular set
  ``{0} u {1/(2n)}`` has a closed-form distance.

This module is the batch lane (``*_vec``, ``periodic_roots``).  Single
points and orbits are the scalar lane, ``map_model.Branch`` and
``MapModel``, which evaluate the same per-kind formulas (``fwd_formula``
... ``d2inv_formula``) on one branch's coefficients.
``benchmarks/bench_kernels.py`` times both lanes.
"""

import math

import numpy as np

MAPKIND_TABLE = 0
MAPKIND_GAUSS = 1

KIND_AFFINE = 0
KIND_QUADRATIC = 1
KIND_MOEBIUS = 2

# Kernel lane recorded in run environments; there is no compiled lane.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# vectorized batch evaluation
# ---------------------------------------------------------------------------

def branch_index_vec(map_kind, table, x):
    x = np.asarray(x, dtype=np.float64)
    if map_kind == MAPKIND_GAUSS:
        safe = np.where(x > 1e-15, x, 1e-15)
        n = np.minimum(np.floor(1.0 / (2.0 * safe)), 1e18).astype(np.int64)
        n = np.maximum(n, 1)
        n = np.where(x <= 1.0 / (2.0 * (n + 1)), n + 1, n)
        n = np.where(x > 1.0 / (2.0 * n), n - 1, n)
        return n
    out = np.full(x.shape, -1, dtype=np.int64)
    for i in range(table.shape[0]):
        hit = (table[i, 1] <= x) & (x < table[i, 2])
        out = np.where(hit, i, out)
    out = np.where((out < 0) & (x == table[-1, 2]), table.shape[0] - 1, out)
    return out


# Coefficient columns of a table row: c0..c3, then the inverse-branch sign.
_C0, _C1, _C2, _C3, _SIGN = 3, 4, 5, 6, 7


def _batch(formula, map_kind, table, bid, x):
    """Evaluate ``formula(kind, col, x)`` elementwise, where ``col(j)`` is
    column ``j`` of each element's branch row.

    Each branch kind present in the table is evaluated only on the elements
    whose branch has that kind, gathering only the columns its formula
    reads; a one-kind table (every built-in) is one formula and no mask.
    The result has the broadcast shape of ``bid`` and ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        if map_kind == MAPKIND_GAUSS:
            # branch n is the moebius map (1 - 2n x) / (0 + 4x)
            bid = np.asarray(bid, dtype=np.float64)
            coef = {_C0: 1.0, _C1: -2.0 * bid, _C2: 0.0, _C3: 4.0}
            res = formula(KIND_MOEBIUS, coef.__getitem__, x)
        else:
            bid = np.asarray(bid, dtype=np.int64)
            # a table has a handful of rows: a set is cheaper than np.unique
            kinds = {int(k) for k in table[:, 0].tolist()}
            if len(kinds) == 1:
                res = formula(kinds.pop(), lambda j: table[:, j][bid], x)
            else:
                bid, x = np.broadcast_arrays(bid, x)
                kind_of = table[:, 0][bid].astype(np.int64)
                res = np.empty(x.shape)
                for kind in kinds:
                    sel = kind_of == kind
                    b = bid[sel]
                    res[sel] = formula(kind, lambda j: table[:, j][b], x[sel])
    if type(res) is np.ndarray and res.shape == x.shape:
        return res
    # formulas that do not read x (constant derivatives) have bid's shape or none
    out = np.empty(np.broadcast_shapes(bid.shape, x.shape))
    out[...] = res
    return out


# The per-kind formulas of both lanes: ``col(j)`` is column ``j`` of the
# branch row, an array of coefficients in ``_batch`` and one Python float in
# the scalar lane (``map_model.Branch``), which stays in Python arithmetic.

def _nan_if_zero(c):
    """A zero divisor as NaN: degenerate coefficients give NaN, not inf."""
    if isinstance(c, np.ndarray):
        return np.where(c == 0.0, np.nan, c)
    return math.nan if c == 0.0 else c


def _sqrt_disc(c0, c1, c2, y):
    """sqrt(max(c1^2 - 4 c2 (c0 - y), 0)) for a quadratic branch at y."""
    disc = c1 * c1 - 4.0 * c2 * (c0 - y)
    if isinstance(disc, np.ndarray):
        return np.sqrt(np.maximum(disc, 0.0))
    return math.sqrt(max(disc, 0.0))


def fwd_formula(kind, col, x):
    c0, c1 = col(_C0), col(_C1)
    if kind == KIND_AFFINE:
        return c0 + c1 * x
    if kind == KIND_QUADRATIC:
        return c0 + c1 * x + col(_C2) * x * x
    return (c0 + c1 * x) / (col(_C2) + col(_C3) * x)


def dfwd_formula(kind, col, x):
    c1 = col(_C1)
    if kind == KIND_AFFINE:
        return c1
    c2 = col(_C2)
    if kind == KIND_QUADRATIC:
        return c1 + 2.0 * c2 * x
    c0, c3 = col(_C0), col(_C3)
    den = c2 + c3 * x
    return (c1 * c2 - c0 * c3) / (den * den)


def inv_formula(kind, col, y):
    c0, c1 = col(_C0), col(_C1)
    if kind == KIND_AFFINE:
        return (y - c0) / _nan_if_zero(c1)
    c2 = col(_C2)
    if kind == KIND_QUADRATIC:
        return (-c1 + col(_SIGN) * _sqrt_disc(c0, c1, c2, y)) / (2.0 * _nan_if_zero(c2))
    return (c0 - c2 * y) / (col(_C3) * y - c1)


def dinv_formula(kind, col, y):
    c1 = col(_C1)
    if kind == KIND_AFFINE:
        return 1.0 / _nan_if_zero(c1)
    c0, c2 = col(_C0), col(_C2)
    if kind == KIND_QUADRATIC:
        # infinite at the critical value (disc <= 0)
        r = _sqrt_disc(c0, c1, c2, y)
        if isinstance(r, np.ndarray):
            return np.where(r > 0.0, col(_SIGN) / r, np.inf)
        return col(_SIGN) / r if r > 0.0 else math.inf
    c3 = col(_C3)
    den = c3 * y - c1
    return (c1 * c2 - c0 * c3) / (den * den)


def d2fwd_formula(kind, col, x):
    if kind == KIND_AFFINE:
        return 0.0
    if kind == KIND_QUADRATIC:
        return 2.0 * col(_C2)
    c0, c1, c2, c3 = col(_C0), col(_C1), col(_C2), col(_C3)
    return -2.0 * (c1 * c2 - c0 * c3) * c3 / (c2 + c3 * x) ** 3


def d2inv_formula(kind, col, y):
    if kind == KIND_AFFINE:
        return 0.0
    c0, c1, c2 = col(_C0), col(_C1), col(_C2)
    if kind == KIND_QUADRATIC:
        # disc <= 0 (the critical value) divides by 0: a signed inf in both lanes
        disc = c1 * c1 - 4.0 * c2 * (c0 - y)
        num = -2.0 * col(_SIGN) * c2
        if isinstance(disc, np.ndarray):
            return num / np.maximum(disc, 0.0) ** 1.5
        p = max(disc, 0.0) ** 1.5
        return num / p if p > 0.0 else math.copysign(math.inf, num)
    c3 = col(_C3)
    return -2.0 * (c1 * c2 - c0 * c3) * c3 / (c3 * y - c1) ** 3


def fwd_vec(map_kind, table, bid, x):
    return _batch(fwd_formula, map_kind, table, bid, x)


def dfwd_vec(map_kind, table, bid, x):
    return _batch(dfwd_formula, map_kind, table, bid, x)


def inv_vec(map_kind, table, bid, y):
    return _batch(inv_formula, map_kind, table, bid, y)


def dinv_vec(map_kind, table, bid, y):
    return _batch(dinv_formula, map_kind, table, bid, y)


def d2fwd_vec(map_kind, table, bid, x):
    return _batch(d2fwd_formula, map_kind, table, bid, x)


def d2inv_vec(map_kind, table, bid, y):
    return _batch(d2inv_formula, map_kind, table, bid, y)


def sing_dist_vec(map_kind, table, sing, x):
    x = np.asarray(x, dtype=np.float64)
    if map_kind == MAPKIND_GAUSS:
        best = np.abs(x)
        safe = np.where(x > 1e-15, x, 1e-15)
        n = np.minimum(np.floor(1.0 / (2.0 * safe)), 1e18).astype(np.int64)
        n = np.maximum(n, 1)
        for off in (-1, 0, 1):
            m = n + off
            valid = m >= 1
            d = np.abs(x - 1.0 / (2.0 * np.where(valid, m, 1)))
            best = np.where(valid & (d < best), d, best)
        return best
    best = np.full(x.shape, np.inf)
    for s in sing:  # a running minimum over the few singular points
        np.minimum(best, np.abs(x - s), out=best)
    return best


def _compose(map_kind, table, words, x):
    """f_{w[n-1]} o ... o f_{w[0]} (x) row-wise, one word per row of ``words``."""
    for k in range(words.shape[1]):
        x = fwd_vec(map_kind, table, words[:, k], x)
    return x


def periodic_roots(map_kind, table, words, iters=200):
    """Vectorized cylinder refinement + bisection over a batch of words.

    Returns ``(roots, found)``; ``roots[~found]`` is unspecified.  Only live
    words whose root is not a cylinder endpoint are bisected, each for at
    most ``iters`` steps.
    """
    words = np.asarray(words, dtype=np.int64)
    w, n = words.shape
    lo = table[words[:, n - 1], 1].copy()
    hi = table[words[:, n - 1], 2].copy()
    alive = np.ones(w, dtype=bool)
    for k in range(n - 2, -1, -1):
        b = words[:, k]
        a = inv_vec(map_kind, table, b, lo)
        c = inv_vec(map_kind, table, b, hi)
        a2 = np.maximum(np.minimum(a, c), table[b, 1])
        c2 = np.minimum(np.maximum(a, c), table[b, 2])
        alive &= a2 < c2
        lo = np.where(alive, a2, 0.0)
        hi = np.where(alive, c2, 1.0)

    idx = np.flatnonzero(alive)
    lo, hi, wd = lo[idx], hi[idx], words[idx]
    flo = _compose(map_kind, table, wd, lo) - lo
    fhi = _compose(map_kind, table, wd, hi) - hi
    exact_lo = flo == 0.0
    exact_hi = (fhi == 0.0) & ~exact_lo
    roots = np.zeros(w)
    roots[idx] = np.where(exact_lo, lo, hi)
    alive[idx] = exact_lo | exact_hi | ((flo > 0.0) != (fhi > 0.0))
    todo = alive[idx] & ~(exact_lo | exact_hi)
    idx, lo, hi, flo, wd = idx[todo], lo[todo], hi[todo], flo[todo], wd[todo]
    for _ in range(iters):
        if idx.size == 0:
            break
        mid = 0.5 * (lo + hi)
        fm = _compose(map_kind, table, wd, mid) - mid
        same = (fm > 0.0) == (flo > 0.0)
        new_lo = np.where(same, mid, lo)
        new_hi = np.where(same, hi, mid)
        flo = np.where(same, fm, flo)
        # An unchanged (lo, hi) leaves the sign of flo unchanged as well, so
        # the word sits at a fixed point of the step: retiring it here gives
        # the bits that running all ``iters`` steps would give.
        done = (new_lo == lo) & (new_hi == hi)
        lo, hi = new_lo, new_hi
        if done.any():
            roots[idx[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            idx, lo, hi, flo, wd = idx[keep], lo[keep], hi[keep], flo[keep], wd[keep]
    roots[idx] = 0.5 * (lo + hi)
    return roots, alive
