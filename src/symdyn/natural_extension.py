"""Finite-window points of the natural extension.

A point of the inverse limit is approximated by a window: the zeroth
coordinate, a backward branch word of length N selecting one past, and a
forward horizon F.  All cached quantities (points, branch ids,
log-derivatives, prefix sums) live in shared immutable arrays; shifting is index
relabeling on the same arrays, so quantities computed at a given absolute
index are bitwise identical regardless of which shifted view computed them.

``periodic_windows`` builds the bitwise-periodic backward cycles of a batch
of periodic branch words of one length (inverse branches contract, so the
float backward orbit closes exactly; each row's cycle is taken at its first
closure) in one numpy iteration over all rows, and tiles each cycle length's
cycles into one block of arrays, a window per row;
``make_periodic_window`` is its one-row call.  A window is an f-pseudo-orbit
within ~1e-16, well inside the 1e-10 window tolerance, and every derived
quantity is exactly periodic.  ``OrbitWindow.phases`` views a cycle window
at each phase.  Shadowed points are no windows: ``shadowing.shadow_many``
keeps them as rows of its table, and holds them to the same tolerance.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .map_model import MapModel, SingularPoint

CONSISTENCY_TOL = 1e-10
# A backward cycle may close at multiples 1..CLOSE_MULTS of its word's length.
CLOSE_MULTS = 8
# Rows of one backward batch at most: larger batches only add temporaries
# (gauss at max_period = 4 has 16,320 orbits of period 4).
BATCH_ROWS = 1024


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
    # the text of ``record``, built on first use; a new view starts without
    text: str = field(default=None, init=False, repr=False, compare=False)

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
        return OrbitWindow(m=w.m, points=w.points, branch_ids=w.branch_ids,
                           logderivs=w.logderivs, cumlog=w.cumlog, off=w.off + k,
                           u_depth=w.u_depth, period=w.period)

    def phases(self):
        """One view per phase of a cycle window, on the same arrays: this
        window, then the shift by k, or by k - period once k reaches the
        cached horizon."""
        P, F = self.period, self.fwd_len
        return [self.shift(k if k < F else k - P) for k in range(P)]

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
        """One-line text record: x0, backward word, horizon, period, u_depth;
        built once per view."""
        if self.text is None:
            word = ",".join(map(str, self.back_branches))
            parts = [f"x0={self.x0!r}", f"back={word}", f"fwd={self.fwd_len}"]
            if self.period:
                parts.append(f"periodic={self.period}")
            if self.u_depth:
                parts.append(f"u_depth={self.u_depth}")
            object.__setattr__(self, "text", " ".join(parts))
        return self.text

    def back_field(self):
        """The ``back=`` field of ``record()``: the backward word."""
        return self.record().split(" ", 2)[1]


def _freeze(pts, bid, ld):
    """The prefix sums of ``ld`` along its last axis; makes all four read-only."""
    cum = np.zeros(ld.shape[:-1] + (ld.shape[-1] + 1,))
    np.cumsum(ld, axis=-1, out=cum[..., 1:])
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
    depth is ``back_depth``, so u-values are shift-stable.  The one-row
    call of ``periodic_windows``; raises what that row's build raised.
    """
    built, _ = periodic_windows(m, [float(x0_approx)], [[int(b) for b in fwd_word]],
                                back_depth, fwd_len)
    if isinstance(built[0], Exception):
        raise built[0]
    return built[0]


def periodic_windows(m, xs, words, back_depth, fwd_len):
    """The cycle windows of R periodic words of one length P, the rows of
    the (R, P) ``words`` (R may be 0), built together.

    Row r iterates the inverse branches of ``words[r]`` backward from
    ``xs[r]``, BATCH_ROWS rows at a time in one numpy pass, and retires at
    its first float closure (see ``_backward_cycles``); the closed rows of
    each cycle length are tiled into one (R_E, L) block of read-only
    arrays, each window a row view of it.  Returns ``(built, chartable)``:
    ``built[r]`` is row r's window, or the exception its build raised
    (SingularPoint near the singular set or at a critical point, ValueError
    for a cycle off its word or off the window tolerance, RuntimeError for
    a row that does not close); ``chartable[r]`` is ``m.window_chartable``
    of its points, False for a row that raised.
    """
    xs = np.asarray(xs, dtype=np.float64)
    words = np.asarray(words, dtype=np.int64)
    built, chartable = [], np.zeros(xs.size, dtype=bool)
    for lo in range(0, xs.size, BATCH_ROWS):
        part, chartable[lo:lo + BATCH_ROWS] = _batch_windows(
            m, xs[lo:lo + BATCH_ROWS], words[lo:lo + BATCH_ROWS], back_depth, fwd_len)
        built += part
    return built, chartable


def _batch_windows(m, xs, words, back_depth, fwd_len):
    """``periodic_windows`` on one batch of rows."""
    built = [None] * xs.size
    chartable = np.zeros(xs.size, dtype=bool)
    for rows, cyc in _backward_cycles(m, xs, words, built):
        E = cyc.shape[1]
        cycle_word = np.tile(words[rows], E // words.shape[1])
        d = K.dfwd_vec(m.family, cycle_word, cyc)
        idx = np.arange(-back_depth, fwd_len + 1) % E   # the phase of x_{-N} .. x_F
        ok = _check_cycles(m, rows, cyc, cycle_word, d, idx, built)
        pts = cyc[ok][:, idx]
        bid = cycle_word[ok][:, idx[:-1]]
        # exact periodic tiling of the per-phase log-derivs
        ld = np.log(np.abs(d[ok]))[:, idx[:-1]]
        cum = _freeze(pts, bid, ld)
        # a window of L > E coordinates holds every phase and every pair of
        # consecutive phases, as one lap c_0 .. c_{E-1}, c_0 does
        lap = cyc[ok][:, np.arange(E + 1) % E] if idx.size > E else pts
        chartable[rows[ok]] = m.window_chartable(lap)
        for r, x, b, g, c in zip(rows[ok].tolist(), pts, bid, ld, cum):
            built[r] = OrbitWindow(m=m, points=x, branch_ids=b, logderivs=g, cumlog=c,
                                   off=back_depth, u_depth=back_depth, period=E)
    return built, chartable


def _backward_cycles(m, y, words, built):
    """The bitwise backward cycles of rows ``y`` under ``words``, as
    (rows, (R_E, E) cycle points) per cycle length E; c_j of a row's cycle
    is the point in branch ``words[r][j % P]``.

    Each step k applies the inverse branch ``words[:, -k % P]`` to every live
    row.  The float backward orbit may close only at a multiple E of P
    (rounding can turn an attracting fixed point into a 2-cycle); once
    closed it stays closed, so a row retires at the first step k >= 2E with
    y_k == y_{k-E}, at the least such E.  A row within the exclusion radius
    at step k retires with a SingularPoint, even if step k closes it; a row
    not closed after 256 + 64P steps gets a RuntimeError.  Only the last
    8P + 1 iterates of each row are kept, in a ring.
    """
    R, P = words.shape
    fam = m.family
    mults = P * np.arange(1, CLOSE_MULTS + 1)
    span = CLOSE_MULTS * P + 1
    ring = np.empty((R, span))
    live = np.arange(R)
    done = np.zeros(R, dtype=bool)   # retired since the live arrays were last compacted
    word = words
    closed = {}
    max_steps = 256 + 64 * P
    for k in range(1, max_steps + 1):
        if not live.size:
            break
        y = K.inv_vec(fam, word[:, -k % P], y)
        ring[:, k % span] = y
        sing = ~done & (K.sing_dist_vec(fam, y) <= m.exclusion)
        for i in np.flatnonzero(sing).tolist():
            built[live[i]] = SingularPoint(
                f"periodic word passes within exclusion radius at step {k}")
        done |= sing
        lengths = mults[: min(CLOSE_MULTS, k // (2 * P))]   # the E with 2E <= k
        if lengths.size:
            hit = (ring[:, (k - lengths) % span] == y[:, None]) & ~done[:, None]
            close = np.flatnonzero(hit.any(axis=1))
            if close.size:
                first = lengths[hit[close].argmax(axis=1)]
                for e in sorted(set(first.tolist())):
                    sel = close[first == e]
                    # c_j = y_{k-i} for the i in [0, e) with -(k - i) = j mod e
                    i = (np.arange(e) + k) % e
                    cyc = ring[sel][:, (k - i) % span]
                    closed.setdefault(e, []).append((live[sel], cyc))
                done[close] = True
        if done.sum() * 2 > live.size:   # compact once half the rows have retired
            keep = ~done
            live, y, ring, word, done = live[keep], y[keep], ring[keep], word[keep], done[keep]
    for r in live[~done].tolist():
        built[r] = RuntimeError("backward iteration did not close into a cycle "
                                f"(word={words[r].tolist()!r}) within {max_steps} steps")
    return [(np.concatenate([rows for rows, _ in parts]), np.concatenate([c for _, c in parts]))
            for _, parts in sorted(closed.items())]


def _check_cycles(m, rows, cyc, cycle_word, d, idx, built):
    """The checks of the windows over phases ``idx`` of the (R_E, E) cycles
    ``cyc``, whose derivatives are ``d``: the first 2E coordinates each in
    the branch of its word, no critical point and f-consistency within
    CONSISTENCY_TOL.  A failing row gets the exception of its first failed
    check in ``built``.  Returns the indices into ``rows`` of the rest."""
    fam = m.family
    failed = {}
    nchk = min(2 * cyc.shape[1], idx.size - 1)
    x, b = cyc[:, idx[:nchk]], cycle_word[:, idx[:nchk]]
    # every cycle point passed the exclusion test as an iterate, so only its
    # branch is left to check
    bi = K.branch_index_vec(fam, x)
    bad = bi != b
    for r in np.flatnonzero(bad.any(axis=1)).tolist():
        i = int(bad[r].argmax())
        xi = x[r, i]
        if bi[r, i] < 0:
            failed[r] = SingularPoint(f"x={xi!r} lies in no branch domain")
        else:
            failed[r] = ValueError(f"cycle point {xi!r} is not in branch {b[r, i]}")
    # x_{-N} .. x_{F-1} take the phases in idx[:-1], each among its first E
    seen = idx[:min(cyc.shape[1], idx.size - 1)]
    critical = np.any(d[:, seen] == 0, axis=1) | ~np.all(np.isfinite(d[:, seen]), axis=1)
    err = np.max(np.abs(K.fwd_vec(fam, cycle_word, cyc) - np.roll(cyc, -1, axis=1))[:, seen],
                 axis=1)
    for r in np.flatnonzero(critical | (err > CONSISTENCY_TOL)).tolist():
        if r not in failed:
            failed[r] = (SingularPoint("cycle passes through a critical point") if critical[r]
                         else ValueError(f"cycle violates the window tolerance: {err[r]:g}"))
    keep = np.ones(rows.size, dtype=bool)
    for r, e in failed.items():
        built[rows[r]] = e
        keep[r] = False
    return np.flatnonzero(keep)
