"""Piecewise interval maps with controlled singularities.

A map model is an interval map f on a domain of diameter < 1, given by
monotone branches from a fixed closed-form catalogue (affine, quadratic,
moebius), together with its singular set, the regularity constants
(a, beta, kappa) and a canonical radius rule

    r(x) = 0.5 * min(d(x,S)^a, d(f(x),S)^a, 1),

cut off below at the exclusion radius: points whose radius would fall
under ``exclusion`` are treated as singular.  ``verify_regularity``
checks the three regularity clauses (injectivity on 2r-balls, derivative
bounds, Hölder continuity of df and dg) on random samples and reports
worst-case witnesses; failures are report entries, not errors.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from ._kernels import (
    KIND_AFFINE,
    KIND_MOEBIUS,
    KIND_QUADRATIC,
    MAPKIND_GAUSS,
    MAPKIND_TABLE,
)

EXCLUSION_RADIUS = 1e-12
# Dyadic levels the cover scan visits, coarse to fine.
COVER_MAX_LEVEL = 64
# Samples per block of the regularity check; a block holds each sample's
# inner grids, derivatives and inner-pair quotients.
REGULARITY_BLOCK = 4096

KIND_NAMES = {KIND_AFFINE: "affine", KIND_QUADRATIC: "quadratic", KIND_MOEBIUS: "moebius"}
KIND_IDS = {v: k for k, v in KIND_NAMES.items()}


class SingularPoint(ValueError):
    """Raised when a point is singular or inside the exclusion radius."""


class MapFileError(ValueError):
    """Raised on malformed map definition files."""


@dataclass(frozen=True)
class Branch:
    """One monotone branch: forward map, derivative, inverse, and stable
    difference forms g(y+s)-g(y), g'(y+s)-g'(y) used by the chart maps."""

    id: int
    lo: float
    hi: float
    kind: int
    coef: tuple
    inv_sign: float = 1.0
    row: tuple = field(init=False, repr=False, compare=False)  # its kernel table row

    def __post_init__(self):
        object.__setattr__(self, "row", (self.kind, self.lo, self.hi, *self.coef, self.inv_sign))

    # the scalar lane: the batch kernels' formulas on this branch's row

    def fwd(self, x):
        return float(K.fwd_formula(self.kind, self.row.__getitem__, x))

    def dfwd(self, x):
        return float(K.dfwd_formula(self.kind, self.row.__getitem__, x))

    def inv(self, y):
        return float(K.inv_formula(self.kind, self.row.__getitem__, y))

    def dinv(self, y):
        return float(K.dinv_formula(self.kind, self.row.__getitem__, y))

    def inv_diff(self, y, s):
        """g(y+s) - g(y), stable for tiny s."""
        c0, c1, c2, c3 = self.coef
        if self.kind == KIND_AFFINE:
            return s / c1
        if self.kind == KIND_QUADRATIC:
            da = c1 * c1 - 4.0 * c2 * (c0 - (y + s))
            db = c1 * c1 - 4.0 * c2 * (c0 - y)
            return 2.0 * self.inv_sign * s / (math.sqrt(max(da, 0.0)) + math.sqrt(max(db, 0.0)))
        return (c1 * c2 - c0 * c3) * s / ((c3 * (y + s) - c1) * (c3 * y - c1))

    def dinv_diff(self, y, s):
        """g'(y+s) - g'(y), stable for tiny s."""
        c0, c1, c2, c3 = self.coef
        if self.kind == KIND_AFFINE:
            return 0.0
        if self.kind == KIND_QUADRATIC:
            a = c1 * c1 - 4.0 * c2 * (c0 - (y + s))
            b = c1 * c1 - 4.0 * c2 * (c0 - y)
            sa, sb = math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0))
            return self.inv_sign * (-4.0 * c2 * s) / (sa * sb * (sa + sb))
        kk = c1 * c2 - c0 * c3
        a = c3 * (y + s) - c1
        b = c3 * y - c1
        return kk * (-c3 * s) * (a + b) / (a * a * b * b)

    def ddinv(self, y):
        """g''(y) in closed form (for log-mode curvature bounds)."""
        c0, c1, c2, c3 = self.coef
        if self.kind == KIND_AFFINE:
            return 0.0
        if self.kind == KIND_QUADRATIC:
            disc = c1 * c1 - 4.0 * c2 * (c0 - y)
            return -2.0 * self.inv_sign * c2 / max(disc, 0.0) ** 1.5
        return -2.0 * (c1 * c2 - c0 * c3) * c3 / (c3 * y - c1) ** 3


@functools.lru_cache(maxsize=256)
def _gauss_branch(n):
    lo = 1.0 / (2.0 * (n + 1))
    hi = 1.0 / (2.0 * n)
    return Branch(id=n, lo=lo, hi=hi, kind=KIND_MOEBIUS, coef=(1.0, -2.0 * n, 0.0, 4.0))


@dataclass(frozen=True)
class MapModel:
    """A piecewise map with singular-set oracle and regularity constants."""

    name: str
    map_kind: int
    domain: tuple
    a: float
    beta: float
    kappa: float
    table: np.ndarray = field(repr=False)
    sing: np.ndarray = field(repr=False)
    exclusion: float = EXCLUSION_RADIUS
    _branches: tuple = field(init=False, repr=False, compare=False)
    _cover_ids: dict = field(init=False, repr=False, compare=False)  # x -> cover id
    _sing: tuple = field(init=False, repr=False, compare=False)  # sing as Python floats

    def __post_init__(self):
        lo, hi = self.domain
        if not hi - lo < 1.0:
            raise ValueError("domain diameter must be < 1")
        if self.a < 1.0 or not (0.0 < self.beta < 1.0) or self.kappa <= 1.0:
            raise ValueError("need a >= 1, beta in (0,1), kappa > 1")
        self.table.setflags(write=False)
        self.sing.setflags(write=False)
        if self.map_kind == MAPKIND_GAUSS:
            branches = tuple(_gauss_branch(n) for n in range(1, 17))
        else:
            branches = tuple(
                Branch(id=i, lo=float(row[1]), hi=float(row[2]), kind=int(row[0]),
                       coef=tuple(float(c) for c in row[3:7]), inv_sign=float(row[7]))
                for i, row in enumerate(self.table))
            _check_branches(branches, self.domain)
        object.__setattr__(self, "_branches", branches)
        object.__setattr__(self, "_cover_ids", {})
        object.__setattr__(self, "_sing", tuple(self.sing.tolist()))

    # -- branch access ------------------------------------------------

    @property
    def branches(self):
        return list(self._branches)

    def branch_by_id(self, bid):
        if self.map_kind == MAPKIND_GAUSS:
            if bid < 1:
                raise KeyError(bid)
            return _gauss_branch(int(bid))
        if not 0 <= bid < len(self._branches):
            raise KeyError(bid)
        return self._branches[int(bid)]

    def branch_at(self, x):
        """Id of the unique branch whose domain contains x.

        Raises SingularPoint if x is within the exclusion radius of the
        singular set (or outside every branch domain).
        """
        if self.singular_distance(x) <= self.exclusion:
            raise SingularPoint(f"x={x!r} is within the exclusion radius of the singular set")
        b = self._branch_index(x)
        if b < 0:
            raise SingularPoint(f"x={x!r} lies in no branch domain")
        return b

    def _branch_index(self, x):
        """Id of the branch whose domain [lo, hi) contains x (the last branch
        also holds its hi), or -1; gauss branch n holds (1/(2n+2), 1/(2n)]."""
        if self.map_kind == MAPKIND_GAUSS:
            n = max(math.floor(1.0 / (2.0 * x)), 1)
            # floating floor can land one branch off near an endpoint
            if x <= 1.0 / (2.0 * (n + 1)):
                n += 1
            elif x > 1.0 / (2.0 * n):
                n -= 1
            return n
        for b in self._branches:
            if b.lo <= x < b.hi:
                return b.id
        return self._branches[-1].id if x == self._branches[-1].hi else -1

    # -- pointwise dynamics --------------------------------------------

    def singular_distance(self, x):
        if self.map_kind == MAPKIND_GAUSS:
            # singular set {0} u {1/(2n)}: 0 and the three nearest 1/(2m)
            best = abs(x)
            if x > 0.0:
                n = max(math.floor(1.0 / (2.0 * x)), 1)
                for m in range(max(n - 1, 1), n + 2):
                    d = abs(x - 1.0 / (2.0 * m))
                    if d < best:
                        best = d
            return float(best)
        best = math.inf
        for s in self._sing:
            d = abs(x - s)
            if d < best:
                best = d
        return float(best)

    def f(self, x):
        return self.branch_by_id(self.branch_at(x)).fwd(x)

    def preimage(self, y, bid):
        """g_bid(y): the preimage of y through the given inverse branch."""
        return self.branch_by_id(bid).inv(y)

    def radius(self, x):
        """Canonical r(x); raises SingularPoint below the exclusion cutoff."""
        dx = self.singular_distance(x)
        if dx <= self.exclusion:
            raise SingularPoint(f"x={x!r} singular")
        b = self._branch_index(x)
        if b < 0:
            raise SingularPoint(f"x={x!r} lies in no branch domain")
        fx = self.branch_by_id(b).fwd(x)
        dfx = self.singular_distance(fx)
        if dfx <= self.exclusion:
            raise SingularPoint(f"f(x)={fx!r} singular")
        r = 0.5 * min(dx**self.a, dfx**self.a, 1.0)
        if r < self.exclusion:
            raise SingularPoint(f"radius at x={x!r} falls under the exclusion cutoff")
        return r

    def cover_id(self, x):
        """Id of the canonical cover element containing x, (level << 32) | index.

        The id reads only the domain and the radius rule, so each point is
        scanned once per model (a NaN x is never stored: its scan raises).
        """
        cid = self._cover_ids.get(x)
        if cid is None:
            cid = self._cover_ids[x] = _cover_scan(self, x)
        return cid

    def finite_table(self, n_branches=None):
        """(map_kind, table) with GAUSS restricted to its first branches.

        Needed by word-enumeration routines (periodic points); table maps
        return themselves.
        """
        if self.map_kind == MAPKIND_TABLE:
            return MAPKIND_TABLE, self.table
        n = 16 if n_branches is None else n_branches
        rows = [_gauss_branch(m).row for m in range(1, n + 1)]
        return MAPKIND_TABLE, np.array(rows, dtype=np.float64)

    # -- regularity ----------------------------------------------------

    def window_chartable(self, points):
        """True iff every cached coordinate admits a radius above the cutoff.

        points must be consecutive orbit values; the radius at x_i uses
        d(x_i, S) and d(x_{i+1}, S), both available in the cache.
        """
        d = K.sing_dist_vec(self.map_kind, self.table, self.sing, points)
        if np.any(d <= self.exclusion):
            return False
        r = 0.5 * np.minimum(np.minimum(d[:-1] ** self.a, d[1:] ** self.a), 1.0)
        return bool(np.all(r >= self.exclusion))

    def draw_regular_points(self, count, rng, max_tries=200):
        """Sample points uniformly on the domain, rejecting singular ones
        (including points with no admissible radius)."""
        lo, hi = self.domain
        out = np.empty(0)
        tries = 0
        while out.size < count and tries < max_tries:
            tries += 1
            x = rng.uniform(lo, hi, size=max(64, 2 * (count - out.size)))
            b, _, dx, dfx, r = _radii(self, x)
            ok = (dx > self.exclusion) & (b >= 0) & (dfx > self.exclusion) & (r >= self.exclusion)
            out = np.concatenate([out, x[ok]])
        return out[:count]

    def verify_regularity(self, sample_count, seed, inner=9):
        return verify_regularity(self, sample_count, seed, inner)


# ---------------------------------------------------------------------------
# branch checks and the dyadic cover
# ---------------------------------------------------------------------------

def _check_branches(branches, domain):
    """Raise MapFileError unless the branch domains partition ``domain``,
    every branch is monotone on its domain, inverts onto it (a quadratic's
    ``inv_sign``) and maps its endpoints into ``domain``."""
    lo, hi = domain
    clause = f"branch domains must partition the domain [{lo!r}, {hi!r}]"
    edge = lo
    for b in sorted(branches, key=lambda b: b.lo):
        name = f"branch {b.id} [{b.lo!r}, {b.hi!r}]"
        if not b.lo < b.hi:
            raise MapFileError(f"{name}: empty branch domain")
        if b.lo > edge:
            raise MapFileError(f"{name}: {clause}; gap ({edge!r}, {b.lo!r}) before it")
        if b.lo < edge:
            raise MapFileError(f"{name}: {clause}; it starts before {edge!r}")
        edge = b.hi
        fault = _monotone_fault(b)
        if fault:
            raise MapFileError(f"{name}: a branch must be monotone on its domain; {fault}")
        if b.kind == KIND_QUADRATIC:
            vertex = -b.coef[1] / (2.0 * b.coef[2])
            sign = 1.0 if (vertex <= b.lo) == (b.coef[2] > 0.0) else -1.0
            if b.inv_sign != sign:
                raise MapFileError(f"{name}: inv_sign must be {sign:g}, the root on the branch's "
                                   f"side of the vertex {vertex!r}; got {b.inv_sign!r}")
        for x in (b.lo, b.hi):
            y = b.fwd(x)
            if not lo <= y <= hi:
                raise MapFileError(f"{name}: the image f({x!r}) = {y!r} lies outside "
                                   f"the domain [{lo!r}, {hi!r}]")
    if edge != hi:
        raise MapFileError(f"{clause}; the last branch ends at {edge!r}")


def _monotone_fault(b):
    """Why the catalogue formula of branch b is not monotone (and invertible)
    on [b.lo, b.hi], or None."""
    c0, c1, c2, c3 = b.coef
    if b.kind == KIND_AFFINE:
        return "the affine slope c1 is 0" if c1 == 0.0 else None
    if b.kind == KIND_QUADRATIC:
        if c2 == 0.0:
            return "the quadratic coefficient c2 is 0"
        vertex = -c1 / (2.0 * c2)
        return f"the quadratic vertex {vertex!r} lies inside it" if b.lo < vertex < b.hi else None
    if c1 * c2 - c0 * c3 == 0.0:
        return "the moebius determinant c1 c2 - c0 c3 is 0"
    den = (c2 + c3 * b.lo, c2 + c3 * b.hi)
    return None if min(den) > 0.0 or max(den) < 0.0 else "the moebius pole c2 + c3 x = 0 lies in it"


def _cover_scan(m, x):
    """Scan dyadic grids coarse to fine for the first grid center whose
    radius-rule ball contains x."""
    lo, hi = m.domain
    width = hi - lo
    for level in range(COVER_MAX_LEVEL):
        h = width / (1 << level)
        i = int((x - lo) / h)
        i = min(max(i, 0), (1 << level) - 1)
        z = lo + (i + 0.5) * h
        try:
            r = m.radius(z)
        except SingularPoint:
            continue
        if abs(x - z) < 2.0 * r:
            return (level << 32) | i
    raise SingularPoint(f"no cover element found for x={x!r}")


# ---------------------------------------------------------------------------
# regularity report
# ---------------------------------------------------------------------------

@dataclass
class ClauseResult:
    name: str
    passed: bool
    checked: int
    violations: int
    worst_margin: float
    worst_x: float
    worst_inner: float
    note: str = ""


@dataclass
class RegularityReport:
    map_name: str
    sample_count: int
    clauses: dict
    extreme_x: float = math.nan       # sample with the most extreme derivative
    extreme_value: float = math.nan   # max(|dg|, 1/|df|) over inner samples

    @property
    def passed(self):
        return all(c.passed for c in self.clauses.values())

    def lines(self):
        out = [f"regularity report: map={self.map_name} samples={self.sample_count}"]
        for c in self.clauses.values():
            status = "pass" if c.passed else "FAIL"
            out.append(
                f"  {c.name}: {status} checked={c.checked} violations={c.violations} "
                f"worst_margin={c.worst_margin:.6g} at x={c.worst_x:.12g} inner={c.worst_inner:.12g}"
            )
        if not math.isnan(self.extreme_x):
            out.append(f"  extreme derivative {self.extreme_value:.6g} at x={self.extreme_x:.12g}")
        return out


def verify_regularity(m, sample_count, seed, inner=9):
    """Sampled check of the three regularity clauses.

    Draws points x with x, f(x) regular; on each ball D_x = B(x, 2r(x)) and
    E_x = B(f(x), 2r(x)) checks branch monotonicity (A1), the derivative
    bounds d(x,S)^a <= |df|,|dg| <= d(x,S)^-a (A2) and the Hölder quotients
    |df_y - df_z| / |y-z|^beta <= kappa (A3), over ``inner`` deterministic
    inner points per ball.  The clauses run per block of
    ``REGULARITY_BLOCK`` samples.
    """
    if sample_count <= 0:
        return RegularityReport(m.name, 0, {c: ClauseResult(c, True, 0, 0, math.inf, math.nan, math.nan)
                                            for c in ("A1", "A2", "A3")})

    rng = np.random.default_rng(seed)
    x = m.draw_regular_points(sample_count, rng)
    n = x.size
    if n == 0:
        raise ValueError(f"map {m.name!r}: no sampled point has a radius above the exclusion cutoff")
    blocks = [_sample_margins(m, x[s:s + REGULARITY_BLOCK], inner)
              for s in range(0, n, REGULARITY_BLOCK)]
    a1_margin, a2_margin, quot, a3_inner, extremes = (np.concatenate(c) for c in zip(*blocks))
    a1_ok = a1_margin >= -1e-15
    a2_ok = a2_margin >= 0.0
    a3_margin = math.log(m.kappa) - np.log(np.maximum(quot, 1e-300))
    a3_ok = quot <= m.kappa

    def clause(name, ok, margin, inner_pts):
        w = int(np.argmin(margin))
        return ClauseResult(
            name=name, passed=bool(ok.all()), checked=n, violations=int((~ok).sum()),
            worst_margin=float(margin[w]), worst_x=float(x[w]), worst_inner=float(inner_pts[w]),
        )

    clauses = {"A1": clause("A1", a1_ok, a1_margin, x), "A2": clause("A2", a2_ok, a2_margin, x),
               "A3": clause("A3", a3_ok, a3_margin, a3_inner)}
    wi = int(np.argmax(extremes))
    return RegularityReport(m.name, n, clauses, float(x[wi]), float(extremes[wi]))


def _radii(m, x):
    """Branch ids (-1 off every branch), images, d(x,S), d(f(x),S) and the
    radius rule r(x) of the points x."""
    bid = K.branch_index_vec(m.map_kind, m.table, x)
    fx = K.fwd_vec(m.map_kind, m.table, np.maximum(bid, 0), x)
    dx = K.sing_dist_vec(m.map_kind, m.table, m.sing, x)
    dfx = K.sing_dist_vec(m.map_kind, m.table, m.sing, fx)
    return bid, fx, dx, dfx, 0.5 * np.minimum(np.minimum(dx**m.a, dfx**m.a), 1.0)


def _sample_margins(m, x, inner):
    """Per-sample (A1) and (A2) margins, worst (A3) quotient with its inner
    witness, and extreme derivative max(|dg|, 1/|df|) of the samples x."""
    mk, tab = m.map_kind, m.table
    bid, fx, dx, dfx, r = _radii(m, x)

    lo, hi = m.domain
    d_lo, d_hi = np.maximum(x - 2 * r, lo), np.minimum(x + 2 * r, hi)
    e_lo, e_hi = np.maximum(fx - 2 * r, lo), np.minimum(fx + 2 * r, hi)

    # branch domain endpoints per sample
    if mk == MAPKIND_GAUSS:
        b_lo, b_hi = 1.0 / (2.0 * (bid + 1)), 1.0 / (2.0 * bid)
        img_lo, img_hi = 0.0, 0.5
    else:
        b_lo, b_hi = tab[bid, 1], tab[bid, 2]
        f_lo, f_hi = K.fwd_vec(mk, tab, bid, b_lo), K.fwd_vec(mk, tab, bid, b_hi)
        img_lo, img_hi = np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi)

    # (A1): D_x inside the covering branch domain, E_x inside its image.
    a1_margin = np.minimum(np.minimum(d_lo - b_lo, b_hi - d_hi),
                           np.minimum(e_lo - img_lo, img_hi - e_hi))

    # inner sample grids (deterministic, endpoints inset by a relative hair),
    # one row per inner point: every reduction over the inner points runs
    # elementwise across contiguous rows
    t = ((np.arange(inner) + 0.5) / inner)[:, None]
    ys = d_lo + (d_hi - d_lo) * t
    zs = e_lo + (e_hi - e_lo) * t

    dfy = K.dfwd_vec(mk, tab, bid, ys)
    dgz = K.dinv_vec(mk, tab, bid, zs)

    # (A2): a log|df| or log|dg| below a log d(x,S) or above -a log d(x,S)
    # fails (|dg| = inf fails the upper bound).  v - c rounds monotonically
    # in v, so each bound is applied to the extremes over the rows.
    with np.errstate(divide="ignore", invalid="ignore"):
        ldfy = np.log(np.abs(dfy))
        ldgz = np.log(np.abs(dgz))
    ldfy = np.where(np.isfinite(ldfy), ldfy, -np.inf)
    gfin = np.isfinite(ldgz)
    low = np.minimum(ldfy.min(axis=0), np.where(gfin, ldgz, -np.inf).min(axis=0))
    high = np.maximum(ldfy.max(axis=0), np.where(gfin, ldgz, np.inf).max(axis=0))
    alogd = m.a * np.log(dx)
    a2_margin = np.minimum(low - alogd, -alogd - high)

    # (A3): Hölder quotients over the inner pairs, forward and inverse.
    q_fwd = _worst_quotient(dfy, ys, m.beta)
    q_inv = _worst_quotient(np.where(np.isfinite(dgz), dgz, np.inf), zs, m.beta)
    a3_inner = np.where(q_inv >= q_fwd, zs[0], ys[0])

    # extreme-derivative witness: the most violent |dg| or 1/|df| seen
    extremes = np.maximum(np.abs(np.where(np.isfinite(dgz), dgz, 0.0)).max(axis=0),
                          1.0 / np.maximum(np.abs(dfy).min(axis=0), 1e-300))
    return a1_margin, a2_margin, np.maximum(q_fwd, q_inv), a3_inner, extremes


def _worst_quotient(vals, pts, beta):
    """max over pairs of rows i < j, taken by offset k = j - i, of
    |v_i - v_j| / |p_i - p_j|^beta per column; a non-finite quotient counts
    as inf (a NaN propagates through every maximum), equal points as 0."""
    worst = np.zeros(vals.shape[1:])
    q = np.empty_like(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, vals.shape[0]):
            dp = np.abs(pts[:-k] - pts[k:])
            qk = q[k:]
            qk.fill(0.0)
            np.divide(np.abs(vals[:-k] - vals[k:]), dp**beta, out=qk, where=dp > 0)
            np.maximum(worst, qk.max(axis=0), out=worst)
    worst[np.isnan(worst)] = np.inf
    return worst


# ---------------------------------------------------------------------------
# built-in maps (affinely conjugated onto [0, 0.5])
# ---------------------------------------------------------------------------

def _table_model(name, rows, sing, a, beta, kappa, domain=(0.0, 0.5)):
    return MapModel(
        name=name, map_kind=MAPKIND_TABLE, domain=domain, a=a, beta=beta, kappa=kappa,
        table=np.array(rows, dtype=np.float64), sing=np.array(sing, dtype=np.float64),
    )


def built_in(name):
    """Built-in maps: doubling, tent, quadratic, gauss."""
    if name == "doubling":
        return _table_model(
            "doubling",
            [[KIND_AFFINE, 0.0, 0.25, 0.0, 2.0, 0.0, 0.0, 1.0],
             [KIND_AFFINE, 0.25, 0.5, -0.5, 2.0, 0.0, 0.0, 1.0]],
            sing=[0.0, 0.25], a=1.0, beta=0.5, kappa=2.0,
        )
    if name == "tent":
        return _table_model(
            "tent",
            [[KIND_AFFINE, 0.0, 0.25, 0.0, 2.0, 0.0, 0.0, 1.0],
             [KIND_AFFINE, 0.25, 0.5, 1.0, -2.0, 0.0, 0.0, 1.0]],
            sing=[0.0, 0.25], a=1.0, beta=0.5, kappa=2.0,
        )
    if name == "quadratic":
        # 4y(1-2y): the logistic map 4x(1-x) conjugated by y = x/2
        return _table_model(
            "quadratic",
            [[KIND_QUADRATIC, 0.0, 0.25, 0.0, 4.0, -8.0, 0.0, 1.0],
             [KIND_QUADRATIC, 0.25, 0.5, 0.0, 4.0, -8.0, 0.0, -1.0]],
            sing=[0.0, 0.25, 0.5], a=2.5, beta=0.5, kappa=16.0,
        )
    if name == "gauss":
        # 1/x mod 1 conjugated by y = x/2; singular set {0} u {1/(2n)}
        return MapModel(
            name="gauss", map_kind=MAPKIND_GAUSS, domain=(0.0, 0.5),
            a=3.0, beta=0.5, kappa=8.0,
            table=np.zeros((0, 8)), sing=np.zeros(0),
        )
    raise KeyError(f"unknown built-in map {name!r}")


BUILT_IN_NAMES = ("doubling", "tent", "quadratic", "gauss")


# ---------------------------------------------------------------------------
# map definition files
# ---------------------------------------------------------------------------

def parse_map_file(text):
    """Parse the UTF-8 key-value map format (see README); returns a MapModel."""
    sections = []
    cur = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            cur = {}
            sections.append((line[1:-1], cur))
            continue
        if cur is None or "=" not in line:
            raise MapFileError(f"stray line outside a section: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        cur[key] = val

    header = [s for title, s in sections if title == "map"]
    if len(header) != 1:
        raise MapFileError("need exactly one [map] section")
    h = header[0]
    try:
        a, beta, kappa = (float(h[k]) for k in ("a", "beta", "kappa"))
        domain = tuple(float(v) for v in h["domain"].split())
        sing = [float(v) for v in h.get("singular", "").split()]
    except (KeyError, ValueError) as e:
        raise MapFileError(f"bad [map] section: {e}") from e
    if not all(map(math.isfinite, (a, beta, kappa, *domain, *sing))):
        raise MapFileError("bad [map] section: non-finite number")
    if len(domain) != 2:
        raise MapFileError(f"bad [map] section: domain needs 2 numbers, got {len(domain)}")

    rows = []
    for title, s in sections:
        if title != "branch":
            continue
        try:
            lo, hi = (float(v) for v in s["dom"].split())
            kind = KIND_IDS[s["kind"]]
            coef = [float(v) for v in s["coef"].split()]
            inv_sign = float(s.get("inv_sign", "1"))
        except (KeyError, ValueError) as e:
            raise MapFileError(f"bad [branch] section: {e}") from e
        if not all(map(math.isfinite, (lo, hi, *coef, inv_sign))):
            raise MapFileError(f"bad [branch] section: non-finite number in {s['dom']!r}")
        if len(coef) > 4:
            raise MapFileError(f"bad [branch] section: coef takes at most 4 numbers, got {len(coef)}")
        rows.append([kind, lo, hi, *coef, *[0.0] * (4 - len(coef)), inv_sign])
    if not rows:
        raise MapFileError("no [branch] sections")
    return _table_model(h.get("name", "custom"), rows, sing, a, beta, kappa, domain=domain)


def load_map(spec):
    """Resolve a map by built-in name or by path to a definition file."""
    if spec in BUILT_IN_NAMES:
        return built_in(spec)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_map_file(fh.read())
    except OSError as e:
        raise KeyError(f"unknown map {spec!r} (not a built-in, not a readable file)") from e
