"""Finite-window points of the natural extension.

A point of the inverse limit is approximated by a window: the zeroth
coordinate, a backward branch word of length N selecting one past, and a
forward horizon F.  All cached quantities (points, branch ids,
log-derivatives, prefix sums) live in shared immutable arrays; shifting is index
relabeling on the same arrays, so quantities computed at a given absolute
index are bitwise identical regardless of which shifted view computed them.

``make_periodic_window`` builds the bitwise-periodic backward cycle of a
periodic branch word (inverse branches contract, so the float backward
orbit closes exactly; the cycle is taken at the first closure) and tiles
it.  The result is an f-pseudo-orbit within ~1e-16, well inside the 1e-10
window tolerance, and every derived quantity is exactly periodic.
``make_pseudo_window`` wraps the shadowed points of a batch of gpos.
"""

import math
from dataclasses import dataclass, field, replace

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
    # pesin.expansion_certificate results, per (chi, n_min); a shifted or
    # relabelled view starts with none
    certs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        return self.branch_ids[:self.off][::-1].tolist()

    # -- shifts -----------------------------------------------------------

    def shift(self, k):
        """The window of the k-th shift; backward depth grows with k > 0.

        Forward room is re-derived by iterating f (periodically for cycle
        windows) when k exceeds the cached horizon.  Raises WindowExhausted
        if the shifted view would keep no backward depth.
        """
        if k == 0:
            return self
        if self.off + k < 1:
            raise WindowExhausted(f"shift by {k} leaves backward depth {self.off + k} < 1")
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
        word = ",".join(map(str, self.back_branches))
        parts = [f"x0={self.x0!r}", f"back={word}", f"fwd={self.fwd_len}"]
        if self.period:
            parts.append(f"periodic={self.period}")
        if self.u_depth:
            parts.append(f"u_depth={self.u_depth}")
        return " ".join(parts)


def _freeze(pts, bid, ld):
    """The prefix sums of ``ld`` along its last axis; makes all four read-only."""
    cum = np.zeros(ld.shape[:-1] + (ld.shape[-1] + 1,))
    cum[..., 1:] = np.cumsum(ld, axis=-1)
    for arr in (pts, bid, ld, cum):
        arr.setflags(write=False)
    return cum


def _assemble(m, pts, bid, ld, off, u_depth=0, period=0):
    cum = _freeze(pts, bid, ld)
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


def make_periodic_window(m, x0_approx, fwd_word, back_depth, fwd_len):
    """Window over the bitwise-periodic backward cycle of ``fwd_word``.

    ``fwd_word[j]`` is the branch containing orbit point c_j (c_{j+1} =
    f(c_j), indices mod P).  Inverse branches contract, so backward
    iteration reaches an exactly periodic float cycle; the cycle is taken
    as soon as the float orbit closes, and the window tiles it.  Its u
    depth is ``back_depth``, so u-values are shift-stable.
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
            return _periodic_from_cycle(m, cyc, word * mult, back_depth, fwd_len)
    raise RuntimeError("backward iteration did not close into a cycle "
                       f"(word={word!r}) within {max_steps} steps")


def _periodic_from_cycle(m, cyc, word, back_depth, fwd_len):
    P = len(word)
    idx = np.arange(-back_depth, fwd_len + 1)
    pts = np.array([cyc[i % P] for i in idx])
    bids = np.array([word[i % P] for i in idx[:-1]], dtype=np.int64)
    for i, b in enumerate(bids[: 2 * P]):
        if m.branch_at(pts[i]) != b:
            raise ValueError(f"cycle point {pts[i]!r} is not in branch {b}")
    d = K.dfwd_vec(m.family, bids, pts[:-1])
    if np.any(d == 0) or not np.all(np.isfinite(d)):
        raise SingularPoint("cycle passes through a critical point")
    # exact periodic tiling of the per-phase log-derivs
    ld_phase = np.log(np.abs(K.dfwd_vec(m.family, np.array(word, dtype=np.int64), np.array(cyc))))
    ld = np.array([ld_phase[i % P] for i in idx[:-1]])
    err = np.max(np.abs(K.fwd_vec(m.family, bids, pts[:-1]) - pts[1:]))
    if err > CONSISTENCY_TOL:
        raise ValueError(f"cycle violates the window tolerance: {err:g}")
    return _assemble(m, pts, bids, ld, off=back_depth, u_depth=back_depth, period=P)


def make_pseudo_window(m, pts, bids, off=None):
    """Windows from explicit cached coordinates (shadowing output), one per
    row of the (K, L) points and (K, L - 1) branch ids; each window is a
    row view of shared read-only arrays.

    Every row must be an f-pseudo-orbit within the window tolerance, else
    ValueError for the first row that is not; the backward bit-for-bit
    recomputation property is *not* enforced here.
    """
    pts = np.array(pts, dtype=np.float64, order="C")
    bids = np.array(bids, dtype=np.int64, order="C")
    err = np.max(np.abs(K.fwd_vec(m.family, bids, pts[:, :-1]) - pts[:, 1:]), axis=1)
    bad = np.flatnonzero(err > CONSISTENCY_TOL)
    if bad.size:
        raise ValueError(f"points violate the window tolerance: {float(err[bad[0]]):g}")
    ld = np.log(np.abs(K.dfwd_vec(m.family, bids, pts[:, :-1])))
    cum = _freeze(pts, bids, ld)
    off = pts.shape[1] - 1 if off is None else off
    return [OrbitWindow(m=m, points=x, branch_ids=b, logderivs=d, cumlog=c, off=off)
            for x, b, d, c in zip(pts, bids, ld, cum)]
