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
worst-case witnesses; failures are report entries, not errors.  It is one
streaming pass over blocks of ``REGULARITY_BLOCK`` draws, so its memory is
a block's, whatever the sample count.
"""

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
# ball ends and the derivatives there.
REGULARITY_BLOCK = 4096
# Draw rounds of the regularity sampler at most, for maps whose regular
# points are rare.
SAMPLE_ROUNDS = 200

KIND_NAMES = {KIND_AFFINE: "affine", KIND_QUADRATIC: "quadratic", KIND_MOEBIUS: "moebius"}
KIND_IDS = {v: k for k, v in KIND_NAMES.items()}


class SingularPoint(ValueError):
    """Raised when a point is singular or inside the exclusion radius."""


class MapFileError(ValueError):
    """Raised on malformed map definition files."""


@dataclass(frozen=True)
class Branch:
    """One monotone branch: its domain and coefficients, and its forward map
    and derivative in Python floats (its inverse runs in the batch lane)."""

    id: int
    lo: float
    hi: float
    kind: int
    coef: tuple
    inv_sign: float
    row: tuple = field(repr=False, compare=False)  # its family's row of these numbers

    # the scalar lane: the batch kernels' formulas on this branch's row

    def fwd(self, x):
        return float(K.fwd_formula(self.kind, self.row.__getitem__, x))

    def dfwd(self, x):
        return float(K.dfwd_formula(self.kind, self.row.__getitem__, x))


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
    family: object = field(init=False, repr=False, compare=False)  # _kernels.Table or Gauss
    _branches: dict = field(init=False, repr=False, compare=False)  # id -> Branch, as met

    def __post_init__(self):
        lo, hi = self.domain
        if not hi - lo < 1.0:
            raise ValueError("domain diameter must be < 1")
        if self.a < 1.0 or not (0.0 < self.beta < 1.0) or self.kappa <= 1.0:
            raise ValueError("need a >= 1, beta in (0,1), kappa > 1")
        self.table.setflags(write=False)
        self.sing.setflags(write=False)
        object.__setattr__(self, "_branches", {})
        if self.map_kind == MAPKIND_GAUSS:
            object.__setattr__(self, "family", K.Gauss())
        else:
            object.__setattr__(self, "family", K.Table(self.table, self.sing))
            _check_branches(self.branches, self.domain, self.family.sing)

    # -- branch access ------------------------------------------------

    @property
    def branches(self):
        """The finite branches: every table row, the first 16 gauss branches."""
        return [self.branch_by_id(i) for i in self.family.ids]

    def branch_by_id(self, bid):
        b = self._branches.get(bid)
        if b is None:  # KeyError for an id the family lacks
            row = self.family.row(int(bid))
            b = self._branches[bid] = Branch(id=int(bid), lo=row[1], hi=row[2], kind=int(row[0]),
                                             coef=row[3:7], inv_sign=row[7], row=row)
        return b

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
        """Id of the branch whose [lo, hi) holds x, or -1 (none holds the domain's hi)."""
        return self.family.index(x)

    # -- pointwise dynamics --------------------------------------------

    def singular_distance(self, x):
        return float(self.family.dist(x))

    def cover_ids(self, xs):
        """Ids of the canonical cover elements containing the points xs, each
        (level << 32) | index.

        The dyadic grids are scanned coarse to fine: at each level, every
        distinct point not yet placed is tested against its grid center z
        in one numpy pass, and takes the first level whose radius-rule ball
        B(z, 2r(z)) holds it.  d(z, S), the branch index and f(z) come from
        the batch lane; d^a is a libm power per element, a Python float
        ``**`` (numpy's vectorised power can differ from libm by an ulp).
        ValueError for a non-finite point, SingularPoint for a point no
        level places.
        """
        xs = np.asarray(xs, dtype=np.float64)
        bad = xs[~np.isfinite(xs)]
        if bad.size:
            raise ValueError(f"cover ids need finite points, got {float(bad[0])!r}")
        x, inv = np.unique(xs, return_inverse=True)
        ids = np.empty(x.size, dtype=np.int64)
        todo = np.arange(x.size)
        lo, hi = self.domain
        width = hi - lo
        for level in range(COVER_MAX_LEVEL):
            if todo.size == 0:
                break
            n = 1 << level
            h = width / n
            xt = x[todo]
            # int((x - lo) / h) clipped to the grid, exact up to n = 2^63
            i = np.minimum(np.clip((xt - lo) / h, 0.0, float(n)).astype(np.uint64),
                           np.uint64(n - 1))
            z = lo + (i.astype(np.float64) + 0.5) * h
            bid = K.branch_index_vec(self.family, z)
            dz = K.sing_dist_vec(self.family, z)
            dfz = K.sing_dist_vec(self.family, K.fwd_vec(self.family, np.maximum(bid, 0), z))
            live = np.flatnonzero(~(dz <= self.exclusion) & (bid >= 0) & ~(dfz <= self.exclusion))
            r = np.array([0.5 * min(p**self.a, q**self.a, 1.0)
                          for p, q in zip(dz[live].tolist(), dfz[live].tolist())])
            hit = live[~(r < self.exclusion) & (np.abs(xt[live] - z[live]) < 2.0 * r)]
            ids[todo[hit]] = (np.uint64(level << 32) | i[hit]).astype(np.int64)
            todo = np.delete(todo, hit)
        if todo.size:
            bad = xs[np.isin(inv, todo)][0]
            raise SingularPoint(f"no cover element found for x={float(bad)!r}")
        return ids[inv]

    def finite_table(self, n_branches=None):
        """(MAPKIND_TABLE, the rows of ``branches[:n_branches]``) for word enumeration."""
        return MAPKIND_TABLE, np.array([b.row for b in self.branches[:n_branches]], dtype=np.float64)

    # -- regularity ----------------------------------------------------

    def window_chartable(self, points):
        """True iff every cached coordinate admits a radius above the cutoff;
        one bool per row of a 2-D ``points``.

        points must be consecutive orbit values; the radius at x_i uses
        d(x_i, S) and d(x_{i+1}, S), both available in the cache.
        """
        d = K.sing_dist_vec(self.family, points)
        r = 0.5 * np.minimum(np.minimum(d[..., :-1] ** self.a, d[..., 1:] ** self.a), 1.0)
        return ~np.any(d <= self.exclusion, axis=-1) & np.all(r >= self.exclusion, axis=-1)


# ---------------------------------------------------------------------------
# branch checks
# ---------------------------------------------------------------------------

def _check_branches(branches, domain, sing):
    """Raise MapFileError unless the branch domains partition ``domain``,
    every endpoint inside the domain is a singular point, every branch is
    monotone on its domain, inverts onto it (a quadratic's ``inv_sign``) and
    maps its endpoints into ``domain``."""
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
        if b.lo != lo and b.lo not in sing:
            raise MapFileError(f"{name}: the branch endpoint {b.lo!r} lies inside the domain "
                               f"but is not a singular point")
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


@dataclass
class RegularityReport:
    map_name: str
    sample_count: int
    clauses: dict
    extreme_x: float       # sample with the most extreme derivative
    extreme_value: float   # max(|dg|, 1/|df|) at the ball ends

    @property
    def passed(self):
        return all(c.passed for c in self.clauses.values())

    def lines(self):
        out = [f"regularity report: map={self.map_name} samples={self.sample_count}"]
        for c in self.clauses.values():
            status = "pass" if c.passed else "FAIL"
            out.append(f"  {c.name}: {status} checked={c.checked} violations={c.violations} "
                       f"worst_margin={c.worst_margin:.6g} at x={c.worst_x:.12g}")
        out.append(f"  extreme derivative {self.extreme_value:.6g} at x={self.extreme_x:.12g}")
        return out


def verify_regularity(m, sample_count, seed):
    """Sampled check of the three regularity clauses.

    Draws points x with x, f(x) regular; on each ball D_x = B(x, 2r(x)) and
    E_x = B(f(x), 2r(x)) checks branch monotonicity (A1), the derivative
    bounds d(x,S)^a <= |df|,|dg| <= d(x,S)^-a (A2) and the Hölder quotients
    |df_y - df_z| / |y-z|^beta <= kappa (A3), from the values at the two ends
    of each ball.  One pass over the blocks of ``_sample_blocks`` keeps each
    clause's violation count and each block's first worst sample; the
    report's witness is the first worst of those, as over all samples at
    once (a NaN margin is the worst).  Memory is bounded by a block.
    Raises ValueError for a sample count below 1, which would check nothing.
    """
    if sample_count < 1:
        raise ValueError(f"regularity check needs samples >= 1, got {sample_count}")
    log_kappa = math.log(m.kappa)
    n, violations, worst = 0, np.zeros(3, dtype=np.int64), []
    for x, rad in _sample_blocks(m, sample_count, np.random.default_rng(seed)):
        a1_margin, a2_margin, quot, extremes = _sample_margins(m, x, rad)
        n += x.size
        oks = (a1_margin >= -1e-15, a2_margin >= 0.0, quot <= m.kappa)
        violations += [np.count_nonzero(~ok) for ok in oks]
        # rows: the three clause margins, then the negated extremes, whose
        # first argmin is the extremes' first argmax
        rows = np.stack([a1_margin, a2_margin, log_kappa - np.log(np.maximum(quot, 1e-300)),
                         -extremes])
        w = np.argmin(rows, axis=1)
        worst.append((rows[np.arange(4), w], x[w]))
    if n == 0:
        raise ValueError(f"map {m.name!r}: no sampled point has a radius above the exclusion cutoff")
    value, at = (np.array(c) for c in zip(*worst))
    b = np.argmin(value, axis=0)
    value, at = value[b, np.arange(4)], at[b, np.arange(4)]
    clauses = {name: ClauseResult(name=name, passed=bool(violations[i] == 0), checked=n,
                                  violations=int(violations[i]), worst_margin=float(value[i]),
                                  worst_x=float(at[i]))
               for i, name in enumerate(("A1", "A2", "A3"))}
    return RegularityReport(m.name, n, clauses, float(at[3]), -float(value[3]))


def _radii(m, x):
    """Branch ids (-1 off every branch), images, d(x,S), d(f(x),S) and the
    radius rule r(x) of the points x."""
    bid = K.branch_index_vec(m.family, x)
    fx = K.fwd_vec(m.family, np.maximum(bid, 0), x)
    dx = K.sing_dist_vec(m.family, x)
    dfx = K.sing_dist_vec(m.family, fx)
    return bid, fx, dx, dfx, 0.5 * np.minimum(np.minimum(dx**m.a, dfx**m.a), 1.0)


def _sample_blocks(m, count, rng):
    """Up to ``count`` points x drawn uniformly on the domain with x and
    f(x) regular and an admissible radius, yielded as ``(x, _radii(m, x))``
    per block of ``REGULARITY_BLOCK`` draws that keeps any.  A round draws
    twice the points still missing (at least 64), for at most
    ``SAMPLE_ROUNDS`` rounds; the draws are one stream, whatever the block."""
    lo, hi = m.domain
    got = 0
    for _ in range(SAMPLE_ROUNDS):
        size = max(64, 2 * (count - got))
        for s in range(0, size, REGULARITY_BLOCK):
            if got == count:
                return
            xs = rng.uniform(lo, hi, size=min(REGULARITY_BLOCK, size - s))
            rad = _radii(m, xs)
            b, _, dx, dfx, r = rad
            ok = (dx > m.exclusion) & (b >= 0) & (dfx > m.exclusion) & (r >= m.exclusion)
            keep = np.flatnonzero(ok)[:count - got]
            if keep.size:
                got += keep.size
                yield xs[keep], [v[keep] for v in rad]


def _sample_margins(m, x, rad):
    """Per-sample (A1) and (A2) margins, (A3) quotient bound and extreme
    derivative max(|dg|, 1/|df|) of the samples x, whose _radii are rad.

    Where (A1) holds, D_x and E_x lie inside one monotone branch and its
    image, on which |df|, |dg|, |f''| and |g''| are monotone: their extremes
    over a ball are their values at its two ends.
    """
    bid, fx, dx, _, r = rad

    lo, hi = m.domain
    ys = np.stack([np.maximum(x - 2 * r, lo), np.minimum(x + 2 * r, hi)])    # ends of D_x
    zs = np.stack([np.maximum(fx - 2 * r, lo), np.minimum(fx + 2 * r, hi)])  # ends of E_x

    # the covering branch's domain and image per sample
    b_lo, b_hi = map(m.family.col(bid), (1, 2))
    img_lo, img_hi = m.family.image(bid)

    # (A1): D_x inside the covering branch domain, E_x inside its image.
    a1_margin = np.minimum(np.minimum(ys[0] - b_lo, b_hi - ys[1]),
                           np.minimum(zs[0] - img_lo, img_hi - zs[1]))

    dfy = K.dfwd_vec(m.family, bid, ys)
    dgz = K.dinv_vec(m.family, bid, zs)

    # (A2): a log|df| or log|dg| below a log d(x,S) or above -a log d(x,S)
    # fails, and so does a non-finite one.  v - c rounds monotonically in v,
    # so each bound is applied to the extremes over the four end values.
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.abs(np.concatenate([dfy, dgz])))
    alogd = m.a * np.log(dx)
    a2_margin = np.minimum(logs.min(axis=0) - alogd, -alogd - logs.max(axis=0))
    a2_margin[~np.isfinite(logs).all(axis=0)] = -np.inf

    # (A3): by the mean value theorem, |df_y - df_z| <= max|f''| |y - z|
    # <= max|f''| w^(1 - beta) |y - z|^beta on a ball of width w, and the
    # same for dg; a NaN bound counts as inf.
    with np.errstate(invalid="ignore"):
        quot = np.maximum(
            np.abs(K.d2fwd_vec(m.family, bid, ys)).max(axis=0) * (ys[1] - ys[0]) ** (1.0 - m.beta),
            np.abs(K.d2inv_vec(m.family, bid, zs)).max(axis=0) * (zs[1] - zs[0]) ** (1.0 - m.beta))
    quot[np.isnan(quot)] = np.inf

    # extreme-derivative witness: the most violent |dg| or 1/|df| seen
    extremes = np.maximum(np.abs(np.where(np.isfinite(dgz), dgz, 0.0)).max(axis=0),
                          1.0 / np.maximum(np.abs(dfy).min(axis=0), 1e-300))
    return a1_margin, a2_margin, quot, extremes


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
        # 1/x mod 1 conjugated by y = x/2; singular set {0} u {1/(2n)}, whose
        # points are not floats: d(x, S) may round up by 2^-55, and so the
        # exclusion radius is widened by as much
        return MapModel(
            name="gauss", map_kind=MAPKIND_GAUSS, domain=(0.0, 0.5),
            a=3.0, beta=0.5, kappa=8.0, table=np.zeros((0, 8)), sing=np.zeros(0),
            exclusion=EXCLUSION_RADIUS + 2.0**-55,
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
