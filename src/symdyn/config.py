"""Run configuration.

Config files are UTF-8 text, one ``key = value`` per line, ``#`` comments
allowed.  Keys (all optional, defaults below):

    map             built-in name or path to a map definition file
    chi             expansion threshold, > 0 (default 0.5 ln 2)
    epsilon         chart-scale parameter in (0, 1)
    back_depth      backward window depth N (>= 1)
    fwd_len         forward horizon F (>= 1)
    n_min           smallest block length tested by expansion certificates (>= 1)
    seed            RNG seed, >= 0 (all sampling is deterministic given the seed)
    samples         regularity sample count (>= 1)
    max_period      periodic-orbit library: largest period enumerated (1 to MAX_PERIOD)
    paths_per_vertex  sampled strong paths per vertex in the Markov cover (>= 1)
    cover_window    half-length of the sampled paths (>= 2)
    encode_lo/encode_hi  encoding range within windows
                    (1 - back_depth <= encode_lo <= 0 < encode_hi)

A library window spans back_depth + max(fwd_len, encode_hi + 2) orbit
steps, which must exceed max_period, so that a phase past the forward
horizon can be viewed one cycle back.
"""

import math
from dataclasses import dataclass, fields, replace

# The largest max_period a run may ask for.  The window budget
# (analysis.MAX_LIBRARY_WINDOWS) refuses every map of two or more branches
# above period 14, so this binds only a one-branch map, whose root finding
# grows about quadratically in max_period.
MAX_PERIOD = 64


@dataclass(frozen=True)
class RunConfig:
    """The lemmas behind the construction hold only "for epsilon small
    enough" with no explicit threshold; 0.1 is the default working value
    and the test suite flags epsilon values at which assertions fail."""

    map: str = "doubling"
    chi: float = 0.5 * math.log(2.0)
    epsilon: float = 0.1
    back_depth: int = 40
    fwd_len: int = 40
    n_min: int = 6
    seed: int = 20260809
    samples: int = 10000
    max_period: int = 8
    paths_per_vertex: int = 3
    cover_window: int = 12
    encode_lo: int = 0
    encode_hi: int = 12

    def __post_init__(self):
        if not self.chi > 0:
            raise ValueError("chi must be > 0")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        for name in ("samples", "max_period", "back_depth", "fwd_len", "n_min",
                     "paths_per_vertex", "encode_hi"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_period > MAX_PERIOD:
            raise ValueError(f"max_period must be <= MAX_PERIOD = {MAX_PERIOD}")
        if self.cover_window < 2:  # a rectangle's points need F >= 2 to be told apart
            raise ValueError("cover_window must be >= 2")
        if self.encode_lo > 0:
            raise ValueError("encode_lo must be <= 0")
        if self.encode_lo < 1 - self.back_depth:  # a window's tables start at 1 - back_depth
            raise ValueError(f"encode_lo = {self.encode_lo} must be >= 1 - back_depth = "
                             f"{1 - self.back_depth}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.back_depth + self.horizon <= self.max_period:
            raise ValueError(
                f"back_depth + max(fwd_len, encode_hi + 2) = {self.back_depth + self.horizon} "
                f"must be > max_period = {self.max_period}: a library window holds less "
                f"than one cycle past its first point")

    @property
    def horizon(self):
        """Forward horizon of a library window: fwd_len, or room to encode
        up to encode_hi if that is longer."""
        return max(self.fwd_len, self.encode_hi + 2)

    def grid_log(self, idx):
        """log of the I_eps grid point with integer index idx."""
        return -(self.epsilon / 3.0) * idx

    @property
    def delta_index(self):
        """Grid index of delta_eps = e^{-eps*n}, n minimal with e^{-eps*n} < eps."""
        t = -math.log(self.epsilon) / self.epsilon
        return 3 * (int(math.floor(t)) + 1)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name, value):
    t = _FIELD_TYPES[name]
    if t in (int, "int"):
        return int(value)
    if t in (float, "float"):
        return float(value)
    return value


def parse_config(text, base=None):
    cfg = base or RunConfig()
    updates = {}
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {i}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"config line {i}: unknown key {key!r}")
        updates[key] = _coerce(key, val)
    return replace(cfg, **updates)


def load_config(path, base=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base=base)
