"""Orbit libraries: windows along the periodic cycles of a map.

The periodic library enumerates periodic orbits up to a given period,
closes the new orbits of each period into their bitwise backward cycles
in one batch (``natural_extension.periodic_windows``), and emits one
window per phase (all phases share the cycle arrays, so the
coarse-graining net dedupes them consistently).  An orbit is the
necklace (least rotation) of its points' branch words, one per point
under the half-open branch convention.  Orbits passing through the singular set's exclusion zone are
skipped and counted; each period's root count is kept for the growth rows.
"""

from dataclasses import dataclass

from . import natural_extension as ne
from .analysis import map_periodic_points
from .map_model import SingularPoint
from .pesin import expansion_certificate


@dataclass
class LibraryReport:
    windows: list
    orbits: int
    skipped_singular: int
    skipped_uncertified: int
    map_counts: tuple = ()  # periodic library: the map's period-n points, n = 1..max_period

    def lines(self):
        return [
            f"library: {len(self.windows)} windows from {self.orbits} orbits "
            f"({self.skipped_singular} orbits skipped near the singular set, "
            f"{self.skipped_uncertified} samples failed the certificate)"
        ]


def _necklace(word):
    """Least rotation of a primitive word; None for a power of a shorter word."""
    rots = [word[i:] + word[:i] for i in range(len(word))]
    return None if word in rots[1:] else min(rots)


def periodic_library(m, cfg):
    """Windows along every periodic orbit of period <= cfg.max_period.

    One bitwise cycle per orbit, started at its least root, one window per
    phase, each a view of the cycle window of backward depth cfg.back_depth
    and forward horizon cfg.horizon; uncertified cycles (expansion below chi
    somewhere along the orbit) are dropped.  ValueError when a cycle closes
    in floats only after more points than a window can view each phase of
    (more than back_depth + horizon).
    """
    seen = set()
    windows = []
    orbits = 0
    skipped_singular = 0
    skipped_uncert = 0
    map_counts = []
    for n in range(1, cfg.max_period + 1):
        roots, words = map_periodic_points(m, n)
        map_counts.append(len(roots))
        new = []
        for i, word in enumerate(words.tolist()):
            key = _necklace(tuple(word))
            if key is None or key in seen:
                continue  # a point of a shorter orbit, or of one already met
            seen.add(key)
            new.append(i)
        built, chartable = ne.periodic_windows(m, roots[new], words[new],
                                               cfg.back_depth, cfg.horizon)
        for w, ok, word in zip(built, chartable.tolist(), words[new].tolist()):
            if isinstance(w, Exception) and not isinstance(w, SingularPoint):
                raise w
            if not ok:  # no window near the singular set, or one not chartable
                skipped_singular += 1
                continue
            if not expansion_certificate(w, cfg).ok:
                skipped_uncert += n
                continue
            try:
                phases = w.phases()
            except ne.WindowExhausted as e:
                raise ValueError(
                    f"the orbit of branch word {word} (period {n}) closes as a float cycle of "
                    f"{w.period} points: back_depth + max(fwd_len, encode_hi + 2) = "
                    f"{cfg.back_depth} + {cfg.horizon} must be > {w.period} to view each "
                    f"phase ({e})") from e
            orbits += 1
            windows.extend(phases)
    return LibraryReport(windows=windows, orbits=orbits,
                         skipped_singular=skipped_singular,
                         skipped_uncertified=skipped_uncert,
                         map_counts=tuple(map_counts))
