import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("parent,change,better,bound,expect", [
    ([1.0] * 5, [1.1] * 5, "lower", 0.25, "within bound"),
    ([1.0] * 5, [1.3] * 5, "lower", 0.25, "worse"),
    ([1.0] * 10, [0.8] * 10, "lower", 0.25, "better"),
    # five pairs are too few to claim a gain
    ([1.0] * 5, [0.8] * 5, "lower", 0.25, "within bound"),
    # wins 8 of 10 pairs: below nine tenths
    ([1.0] * 10, [0.8] * 8 + [1.2] * 2, "lower", 0.25, "within bound"),
    # the parent spreads by IQR / median = 2 / 3 > 0.25
    ([1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 2.5, 3.5, 4.5, 5.5], "lower", 0.25, "unresolved"),
    # ... unless every change run reads better than every parent run
    ([1.0, 2.0, 3.0, 4.0, 5.0], [0.1, 0.2, 0.3, 0.4, 0.5], "lower", 0.25, "within bound"),
    ([1.0, 2.0, 3.0, 4.0, 5.0] * 2, [0.1, 0.2, 0.3, 0.4, 0.5] * 2, "lower", 0.25, "better"),
    ([1.0] * 5, [0.9] * 5, "higher", 0.05, "worse"),
    ([0.0] * 3, [0.0] * 3, "lower", 0.25, "within bound"),
])
def test_verdict(parent, change, better, bound, expect):
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    assert bench_pairs.verdict(parent, change, better, bound, wins) == expect


def test_summarise_writes_change_bound_and_verdict():
    def rec(wall, commit):
        return {"wall_s": wall, "error_rate": 0.0, "env": {"commit": commit, "src_sha256": "x"}}

    parent = {("w", s): rec(2.0, "p") for s in (1, 2, 3)}
    change = {("w", s): rec(2.6, "c") for s in (1, 2, 3)}
    change[("w", 4)] = rec(1.0, "c")  # unpaired: ignored
    out = bench_pairs.summarise(parent, change, {"wall_s": ("lower", 0.25),
                                                 "pass_rate": ("higher", 0.05)})
    rows = out["workloads"]["w"]["metrics"]
    assert out["workloads"]["w"]["seeds"] == [1, 2, 3]
    assert rows["wall_s"]["rel_change"] == pytest.approx(0.3)
    assert rows["wall_s"]["bound"] == 0.25
    assert rows["wall_s"]["verdict"] == "worse"
    assert rows["pass_rate"]["rel_change"] == 0.0
    assert rows["pass_rate"]["verdict"] == "within bound"
