"""Finite-window points of the natural extension.

A point of the inverse limit is approximated by a window: the zeroth
coordinate, a backward branch word of length N selecting one past, and a
forward horizon F.  All cached quantities (points, branch ids,
log-derivatives, prefix sums) live in shared immutable arrays; shifting is index
relabeling on the same arrays, so quantities computed at a given absolute
index are bitwise identical regardless of which shifted view computed them.

Two constructors:

* ``make_window`` builds a genuine float orbit of f (backward cache is the
  exact inverse-branch iteration, forward cache the exact f iteration).
* ``make_periodic_window`` builds the bitwise-periodic backward cycle of a
  periodic branch word (inverse branches contract, so the float backward
  orbit closes exactly; the cycle is taken at the first closure) and tiles
  it.  The result is an f-pseudo-orbit within ~1e-16, well inside the
  1e-10 window tolerance, and every derived quantity is exactly periodic.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels as K
from .map_model import MapModel, SingularPoint

CONSISTENCY_TOL = 1e-10


class WindowExhausted(RuntimeError):
    """A shift would leave less backward depth than required."""


@dataclass(frozen=True)
class OrbitWindow:
    """View of a finite orbit window x_{-N..F} with cached derivatives."""

    m: MapModel
    points: np.ndarray      # x_{-N} .. x_F
    branch_ids: np.ndarray  # branch of x_i for i in [-N, F-1]
    logderivs: np.ndarray   # log|df| at x_i  for i in [-N, F-1]
    cumlog: np.ndarray      # prefix sums; cumlog[j] = sum(logderivs[:j])
    off: int                # array index of x_0
    u_depth: int = 0        # fixed u truncation depth; 0 = full available
    period: int = 0         # > 0 for periodic (cycle) windows

    # -- basic geometry --------------------------------------------------

    @property
    def back_len(self):
        return self.off

    @property
    def fwd_len(self):
        return self.points.shape[0] - 1 - self.off

    def x(self, n=0):
        """Coordinate x_n (n in [-N, F])."""
        i = self.off + n
        if not 0 <= i < self.points.shape[0]:
            raise IndexError(f"coordinate {n} outside window [{-self.back_len}, {self.fwd_len}]")
        return float(self.points[i])

    @property
    def x0(self):
        return float(self.points[self.off])

    def branch(self, n):
        """Branch id of x_n (n in [-N, F-1])."""
        i = self.off + n
        if not 0 <= i < self.branch_ids.shape[0]:
            raise IndexError(n)
        return int(self.branch_ids[i])

    @property
    def back_branches(self):
        """Backward word: entry k-1 is the branch of x_{-k}."""
        return [int(self.branch_ids[self.off - k]) for k in range(1, self.back_len + 1)]

    def deriv(self, n):
        """df at x_n: the cached |df| with the sign of its branch's df there."""
        i = self.off + n
        sign = self.m.branch_by_id(self.branch_ids[i]).dfwd(self.points[i])
        return math.copysign(math.exp(self.logderivs[i]), sign)

    # -- shifts -----------------------------------------------------------

    def shift(self, k, min_back=1):
        """The window of the k-th shift; backward depth grows with k > 0.

        Forward room is re-derived by iterating f (periodically for cycle
        windows) when k exceeds the cached horizon.  Raises WindowExhausted
        if the shifted view would keep less than ``min_back`` backward depth.
        """
        if k == 0:
            return self
        if self.off + k < min_back:
            raise WindowExhausted(
                f"shift by {k} leaves backward depth {self.off + k} < {min_back}")
        w = self
        need_fwd = (self.off + k) - (self.points.shape[0] - 1 - 1)
        if need_fwd > 0:
            w = w.extend_forward(need_fwd + 4)
        return replace(w, off=w.off + k)

    def extend_forward(self, extra):
        """New window with ``extra`` more forward steps cached."""
        if self.period > 0:
            reps = (extra + self.period - 1) // self.period
            n_old = self.points.shape[0]
            pts = np.concatenate([self.points[:-1],
                                  np.tile(self.points[-1 - self.period:-1], reps + 1)])
            pts = pts[: n_old + reps * self.period]
            bid = np.concatenate([self.branch_ids,
                                  np.tile(self.branch_ids[-self.period:], reps)])
            ld = np.concatenate([self.logderivs, np.tile(self.logderivs[-self.period:], reps)])
        else:
            pts2, bid2, ld2 = forward_orbit(self.m, self.points[-1], extra)
            pts = np.concatenate([self.points, pts2[1:]])
            bid = np.concatenate([self.branch_ids, bid2])
            ld = np.concatenate([self.logderivs, ld2])
        return _assemble(self.m, pts, bid, ld, self.off, self.u_depth, self.period)

    # -- serialization ------------------------------------------------------

    def record(self):
        """One-line text record: x0, backward word, horizon, period, u_depth."""
        word = ",".join(str(b) for b in self.back_branches)
        parts = [f"x0={self.x0!r}", f"back={word}", f"fwd={self.fwd_len}"]
        if self.period:
            parts.append(f"periodic={self.period}")
        if self.u_depth:
            parts.append(f"u_depth={self.u_depth}")
        return " ".join(parts)


def hat_distance(w1, w2, depth):
    """Truncated natural-extension distance max_{-depth<=n<=0} 2^n |x_n - y_n|.

    A lower bound for the full metric; the terms beyond ``depth`` add at
    most 2^-depth times the domain diameter.  Both windows need backward
    depth >= depth.
    """
    if w1.back_len < depth or w2.back_len < depth:
        raise WindowExhausted(f"need backward depth {depth}")
    a1 = w1.points[w1.off - depth: w1.off + 1]
    a2 = w2.points[w2.off - depth: w2.off + 1]
    n = np.arange(-depth, 1, dtype=np.float64)
    return float(np.max(2.0**n * np.abs(a1 - a2)))


def _assemble(m, pts, bid, ld, off, u_depth=0, period=0):
    cum = np.zeros(ld.shape[0] + 1)
    cum[1:] = np.cumsum(ld)
    for arr in (pts, bid, ld, cum):
        arr.setflags(write=False)
    return OrbitWindow(m=m, points=pts, branch_ids=bid, logderivs=ld,
                       cumlog=cum, off=off, u_depth=u_depth, period=period)


def forward_orbit(m, x, nsteps):
    """The f-orbit x_0..x_n of x (n = nsteps), the branch ids and log|df| of
    x_0..x_{n-1}.  Raises SingularPoint if an iterate comes within the
    exclusion radius of the singular set, lies in no branch domain or has
    df = 0 or non-finite."""
    x = float(x)
    pts, bids, ds = [x], [], []
    for k in range(nsteps):
        br = m.branch_by_id(m.branch_at(x))
        d = br.dfwd(x)
        if d == 0.0 or not math.isfinite(d):
            raise SingularPoint(f"forward orbit reaches df = {d!r} after {k} steps")
        bids.append(br.id)
        ds.append(d)
        x = br.fwd(x)
        pts.append(x)
    if m.singular_distance(x) <= m.exclusion:
        raise SingularPoint(f"forward orbit hit the singular set after {nsteps} steps")
    return np.array(pts), np.array(bids, dtype=np.int64), np.log(np.abs(np.array(ds)))


def backward_orbit(m, x, word):
    """x_{-1}, x_{-2}, ... of the inverse-branch iteration from x along
    ``word``, where word[k] is the branch that must contain x_{-k-1}.
    Raises SingularPoint if a preimage is singular or leaves its branch."""
    y = float(x)
    pts = []
    for k, b in enumerate(word):
        y = m.preimage(y, b)
        if m.branch_at(y) != b:
            raise SingularPoint(f"backward word invalid after {k} steps: x_{-k - 1}={y!r} "
                                f"is not in branch {b}")
        pts.append(y)
    return np.array(pts)


def make_window(m, x0, back_word, fwd_len, u_depth=0):
    """Window from a zeroth coordinate, backward branch word and horizon.

    The backward cache is the exact inverse-branch iteration from x0 (so
    recomputing it reproduces the cache bit for bit); the forward cache is
    the exact f iteration.
    """
    word = np.asarray(back_word, dtype=np.int64)
    back_pts = backward_orbit(m, x0, word)[::-1]  # x_{-N}, ..., x_{-1}
    fpts, fbid, fld = forward_orbit(m, x0, fwd_len)
    pts = np.concatenate([back_pts, fpts])
    bids = np.concatenate([word[::-1], fbid])
    bld = np.log(np.abs(K.dfwd_vec(m.map_kind, m.table, word[::-1], back_pts)))
    ld = np.concatenate([bld, fld])
    return _assemble(m, pts, bids, ld, off=word.shape[0], u_depth=u_depth)


def make_periodic_window(m, x0_approx, fwd_word, back_depth, fwd_len, u_depth=None):
    """Window over the bitwise-periodic backward cycle of ``fwd_word``.

    ``fwd_word[j]`` is the branch containing orbit point c_j (c_{j+1} =
    f(c_j), indices mod P).  Inverse branches contract, so backward
    iteration reaches an exactly periodic float cycle; the cycle is taken
    as soon as the float orbit closes, and the window tiles it.
    ``u_depth`` defaults to ``back_depth`` so u-values are shift-stable.
    """
    word = [int(b) for b in fwd_word]
    P = len(word)
    y = float(x0_approx)
    hist = []
    max_steps = 256 + 64 * P
    for k in range(1, max_steps + 1):
        b = word[(-k) % P]
        y = m.preimage(y, b)
        if m.singular_distance(y) <= m.exclusion:
            raise SingularPoint(f"periodic word passes within exclusion radius at step {k}")
        hist.append(y)
        # the float backward orbit may close only at a multiple of P
        # (rounding can turn an attracting fixed point into a 2-cycle);
        # once closed it stays closed, so the first match is the least one
        for mult in range(1, 9):
            E = mult * P
            if k < 2 * E or hist[-1] != hist[-1 - E]:
                continue
            cyc = [0.0] * E
            for i in range(E):
                kk = k - i
                cyc[(-kk) % E] = hist[-1 - i]
            return _periodic_from_cycle(m, cyc, word * mult, back_depth, fwd_len,
                                        back_depth if u_depth is None else u_depth)
    raise RuntimeError("backward iteration did not close into a cycle "
                       f"(word={word!r}) within {max_steps} steps")


def _periodic_from_cycle(m, cyc, word, back_depth, fwd_len, u_depth):
    P = len(word)
    idx = np.arange(-back_depth, fwd_len + 1)
    pts = np.array([cyc[i % P] for i in idx])
    bids = np.array([word[i % P] for i in idx[:-1]], dtype=np.int64)
    for i, b in enumerate(bids[: 2 * P]):
        if m.branch_at(pts[i]) != b:
            raise ValueError(f"cycle point {pts[i]!r} is not in branch {b}")
    d = K.dfwd_vec(m.map_kind, m.table, bids, pts[:-1])
    if np.any(d == 0) or not np.all(np.isfinite(d)):
        raise SingularPoint("cycle passes through a critical point")
    # exact periodic tiling of the per-phase log-derivs
    ld_phase = np.log(np.abs(K.dfwd_vec(m.map_kind, m.table,
                                        np.array(word, dtype=np.int64),
                                        np.array(cyc))))
    ld = np.array([ld_phase[i % P] for i in idx[:-1]])
    err = np.max(np.abs(K.fwd_vec(m.map_kind, m.table, bids, pts[:-1]) - pts[1:]))
    if err > CONSISTENCY_TOL:
        raise ValueError(f"cycle violates the window tolerance: {err:g}")
    return _assemble(m, pts, bids, ld, off=back_depth, u_depth=u_depth, period=P)


def make_pseudo_window(m, pts, bids, u_depth=0, off=None):
    """Window from explicit cached coordinates (shadowing output).

    Points must form an f-pseudo-orbit within the window tolerance; the
    backward bit-for-bit recomputation property is *not* enforced here.
    """
    pts = np.asarray(pts, dtype=np.float64)
    bids = np.asarray(bids, dtype=np.int64)
    err = np.max(np.abs(K.fwd_vec(m.map_kind, m.table, bids, pts[:-1]) - pts[1:]))
    if err > CONSISTENCY_TOL:
        raise ValueError(f"points violate the window tolerance: {err:g}")
    ld = np.log(np.abs(K.dfwd_vec(m.map_kind, m.table, bids, pts[:-1])))
    return _assemble(m, pts.copy(), bids.copy(), ld, off=len(pts) - 1 if off is None else off,
                     u_depth=u_depth)
