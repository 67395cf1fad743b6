"""Batch numeric kernels: map evaluation over a branch family and
periodic-point bisection, on numpy arrays.

A map's branch family is chosen once, when its ``MapModel`` is built: a
``Table`` of rows ``[kind, lo, hi, c0, c1, c2, c3, inv_sign]`` (affine
``c0 + c1*x``, quadratic ``c0 + c1*x + c2*x**2`` or moebius ``(c0 +
c1*x)/(c2 + c3*x)``) with a finite singular set, or ``Gauss``, whose
branch n >= 1 is ``gauss_row(n)``.  Every branch holds [lo, hi): the
domain's right end lies in no branch.  A family's ``index`` (the branch
holding x, or -1) and ``dist`` (d(x, S)) take a Python float or an array.

The batch lane is ``*_vec`` and ``periodic_roots``; the scalar lane,
``map_model.Branch`` (f and df, for forward orbits) and ``MapModel``, runs
the same per-kind formulas (``fwd_formula`` ... ``d2inv_formula``) on one
branch's row and the family's ``index`` and ``dist`` on one float.
``benchmarks/bench_kernels.py`` times both lanes.
"""

import functools
import math

import numpy as np

MAPKIND_TABLE = 0
MAPKIND_GAUSS = 1

KIND_AFFINE = 0
KIND_QUADRATIC = 1
KIND_MOEBIUS = 2

# Kernel lane recorded in run environments; there is no compiled lane.
USE_NUMBA = False

# Below 2^-53, floor(1/(2x)) would pass 2^52 and floats stop resolving the
# gauss singular points 1/(2n), so no float becomes an unbounded int.
GAUSS_X_MIN = 2.0**-53

# Bisection steps per periodic-root word at most.
BISECT_STEPS = 200


def _where(cond, a, b):
    """np.where on arrays, Python's conditional on floats (so the scalar lane
    stays in Python arithmetic); ``_min`` likewise."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _min(*v):
    return functools.reduce(np.minimum, v) if isinstance(v[0], np.ndarray) else min(v)


def gauss_row(n):
    """Gauss branch n >= 1 as a table row: the moebius map (1 - 2n x) / (4x)
    on [1/(2n+2), 1/(2n))."""
    return (KIND_MOEBIUS, 0.5 / (n + 1.0), 0.5 / n, 1.0, -2.0 * n, 0.0, 4.0, 1.0)


def _gauss_floor(x):
    """floor(1/(2x)) with x clipped to [2^-53, 1/4], a float in [2, 2^52].

    On such floats and on NaN, ``np.floor`` equals the Python lane's
    ``// 1.0`` bit for bit, and is many times faster than numpy's float
    ``floor_divide``."""
    if isinstance(x, np.ndarray):
        return np.floor(0.5 / np.clip(x, GAUSS_X_MIN, 0.25))
    return (0.5 / (GAUSS_X_MIN if x < GAUSS_X_MIN else 0.25 if x > 0.25 else x)) // 1.0


def gauss_index(x):
    """The gauss branch n with x in [1/(2n+2), 1/(2n)); -1 off (0, 1/2)."""
    n = _gauss_floor(x)
    # the rounded 1/(2x) can land one branch off near an endpoint
    n = n + (x < 0.5 / (n + 1.0)) - (x >= 0.5 / n)
    n = _where((0.0 < x) & (x < 0.5), n, -1.0)
    return n.astype(np.int64) if isinstance(n, np.ndarray) else int(n)


def gauss_dist(x):
    """d(x, S) for S = {0} u {1/(2n)}: 0 and the three 1/(2m) nearest
    m = floor(1/(2x)); 0 on (0, 2^-53), where x is within 2x^2 of S (the
    distance to 0 then counts as 0)."""
    n = _gauss_floor(x)
    return _min(abs(x) * ((x <= 0.0) | (x >= GAUSS_X_MIN)),
                abs(x - 0.5 / (n - 1.0)), abs(x - 0.5 / n), abs(x - 0.5 / (n + 1.0)))


class Table:
    """Finitely many branches: row i of ``table`` is branch i."""

    def __init__(self, table, sing):
        self.table, self.sing = table, tuple(float(s) for s in sing)
        self.ids = range(table.shape[0])
        self.kinds = tuple(sorted({int(k) for k in table[:, 0].tolist()}))
        self._ends = table[:, 1:3].tolist()
        f_lo, f_hi = (fwd_vec(self, self.ids, table[:, j]) for j in (1, 2))
        self._image = np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi)

    def col(self, bid):
        return lambda j: self.table[:, j][bid]

    def row(self, bid):
        if bid not in self.ids:
            raise KeyError(bid)
        return tuple(self.table[bid].tolist())

    def image(self, bid):
        return self._image[0][bid], self._image[1][bid]

    def index(self, x):
        out = -1  # the branches partition the domain: at most one i + 1 is added
        for i, (lo, hi) in enumerate(self._ends):
            out = out + (i + 1) * ((lo <= x) & (x < hi))
        return out

    def dist(self, x):
        if isinstance(x, np.ndarray):
            best = np.full(x.shape, np.inf)
            for s in self.sing:  # a running minimum over the few singular points
                np.minimum(best, np.abs(x - s), out=best)
            return best
        best = math.inf
        for s in self.sing:  # NaN propagates, as through np.minimum
            d = abs(x - s)
            if d < best or d != d:
                best = d
        return best


class Gauss:
    """The gauss branches ``gauss_row(n)``, n >= 1; words use the first 16."""

    kinds, ids = (KIND_MOEBIUS,), range(1, 17)
    index, dist = staticmethod(gauss_index), staticmethod(gauss_dist)

    def col(self, bid):
        return gauss_row(np.asarray(bid, dtype=np.float64)).__getitem__

    def row(self, bid):
        if bid < 1:
            raise KeyError(bid)
        return gauss_row(bid)

    def image(self, bid):
        return 0.0, 0.5  # every branch is full


# ---------------------------------------------------------------------------
# vectorized batch evaluation
# ---------------------------------------------------------------------------

def branch_index_vec(fam, x):
    return fam.index(np.asarray(x, dtype=np.float64))


def sing_dist_vec(fam, x):
    return fam.dist(np.asarray(x, dtype=np.float64))


# Coefficient columns of a table row: c0..c3, then the inverse-branch sign.
_C0, _C1, _C2, _C3, _SIGN = 3, 4, 5, 6, 7


def _batch(formula, fam, bid, x):
    """Evaluate ``formula(kind, col, x)`` elementwise, where ``col(j)`` is
    column ``j`` of each element's branch row.

    Each branch kind present in the family is evaluated only on the
    elements whose branch has that kind, gathering only the columns its
    formula reads; a one-kind family (every built-in) is one formula and no
    mask.  The result has the broadcast shape of ``bid`` and ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    bid = np.asarray(bid)
    with np.errstate(divide="ignore", invalid="ignore"):
        if len(fam.kinds) == 1:
            res = formula(fam.kinds[0], fam.col(bid), x)
        else:
            bid, x = np.broadcast_arrays(bid, x)
            kind_of = fam.col(bid)(0)
            res = np.empty(x.shape)
            for kind in fam.kinds:
                sel = kind_of == kind
                res[sel] = formula(kind, fam.col(bid[sel]), x[sel])
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


# The batch kernels ``fwd_vec(fam, bid, x)`` ...: ``_batch`` bound to each formula.
fwd_vec = functools.partial(_batch, fwd_formula)
dfwd_vec = functools.partial(_batch, dfwd_formula)
inv_vec = functools.partial(_batch, inv_formula)
dinv_vec = functools.partial(_batch, dinv_formula)
d2fwd_vec = functools.partial(_batch, d2fwd_formula)
d2inv_vec = functools.partial(_batch, d2inv_formula)


def _compose(fam, words, x):
    """f_{w[n-1]} o ... o f_{w[0]} (x) row-wise, one word per row of ``words``."""
    for k in range(words.shape[1]):
        x = fwd_vec(fam, words[:, k], x)
    return x


def periodic_roots(fam, words):
    """Vectorized cylinder refinement + bisection over a batch of words.

    Returns ``(roots, found)``; ``roots[~found]`` is unspecified.  Only live
    words whose root is not a cylinder endpoint are bisected, each for at
    most BISECT_STEPS steps.
    """
    words = np.asarray(words, dtype=np.int64)
    w, n = words.shape
    ends = fam.col(words[:, n - 1])
    lo, hi = ends(1), ends(2)
    alive = np.ones(w, dtype=bool)
    for k in range(n - 2, -1, -1):
        b = words[:, k]
        a = inv_vec(fam, b, lo)
        c = inv_vec(fam, b, hi)
        a2 = np.maximum(np.minimum(a, c), fam.col(b)(1))
        c2 = np.minimum(np.maximum(a, c), fam.col(b)(2))
        alive &= a2 < c2
        lo = np.where(alive, a2, 0.0)
        hi = np.where(alive, c2, 1.0)

    idx = np.flatnonzero(alive)
    lo, hi, wd = lo[idx], hi[idx], words[idx]
    flo = _compose(fam, wd, lo) - lo
    fhi = _compose(fam, wd, hi) - hi
    exact_lo = flo == 0.0
    exact_hi = (fhi == 0.0) & ~exact_lo
    roots = np.zeros(w)
    roots[idx] = np.where(exact_lo, lo, hi)
    alive[idx] = exact_lo | exact_hi | ((flo > 0.0) != (fhi > 0.0))
    todo = alive[idx] & ~(exact_lo | exact_hi)
    idx, lo, hi, flo, wd = idx[todo], lo[todo], hi[todo], flo[todo], wd[todo]
    for _ in range(BISECT_STEPS):
        if idx.size == 0:
            break
        mid = 0.5 * (lo + hi)
        fm = _compose(fam, wd, mid) - mid
        same = (fm > 0.0) == (flo > 0.0)
        new_lo = np.where(same, mid, lo)
        new_hi = np.where(same, hi, mid)
        flo = np.where(same, fm, flo)
        # An unchanged (lo, hi) leaves the sign of flo unchanged as well, so
        # the word sits at a fixed point of the step: retiring it here gives
        # the bits that running all BISECT_STEPS steps would give.
        done = (new_lo == lo) & (new_hi == hi)
        lo, hi = new_lo, new_hi
        if done.any():
            roots[idx[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            idx, lo, hi, flo, wd = idx[keep], lo[keep], hi[keep], flo[keep], wd[keep]
    roots[idx] = 0.5 * (lo + hi)
    return roots, alive
