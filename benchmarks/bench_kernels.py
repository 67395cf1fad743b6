"""Benchmark both kernel lanes and print the best of three timings each:
the scalar lane (``Branch``/``MapModel``, through the orbit builders behind
``make_window``) and the batch lane (``_kernels``: ``*_vec``,
``periodic_roots``).

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np


def bench(reps=3):
    import symdyn
    from symdyn import _kernels as K
    from symdyn import library
    from symdyn import natural_extension as ne
    from symdyn.analysis import map_periodic_points

    m = symdyn.built_in("quadratic")
    out = {}

    def timeit(name, fn, n=reps):
        out[name] = min(_time_one(fn) for _ in range(n))

    rng = np.random.default_rng(0)
    xs = m.draw_regular_points(2000, rng)

    def windows(word, fwd_len):
        for x in xs[:500]:
            try:
                ne.make_window(m, float(x), word, fwd_len)
            except symdyn.SingularPoint:
                pass  # the orbit stops where it meets the singular set

    timeit("make_window forward orbits (500 x 200 steps)", lambda: windows([], 200))

    word = [0, 1] * 100
    timeit("make_window backward orbits (500 x 200 steps)", lambda: windows(word, 0))

    timeit("periodic points n=12 (4096 words)",
           lambda: map_periodic_points(m, 12))

    gauss = symdyn.built_in("gauss")
    timeit("periodic points gauss n=4 (65,536 words)",
           lambda: map_periodic_points(gauss, 4))

    timeit("random library (100 certified windows)",
           lambda: library.random_library(m, 0.1, 100, back_depth=40,
                                          fwd_len=14, seed=3))

    def regularity():
        m.verify_regularity(10_000, seed=1)

    timeit("verify_regularity (1e4 samples, vectorized)", regularity)
    timeit("verify_regularity (2e5 samples)", lambda: m.verify_regularity(200_000, seed=1))

    # the inner grids of the regularity check: one row per inner point, one
    # branch id per column
    ys = np.linspace(-1e-4, 1e-4, 9)[:, None] + m.draw_regular_points(200_000, rng)
    bid = K.branch_index_vec(m.map_kind, m.table, ys[4])

    def grid_derivatives():
        K.dfwd_vec(m.map_kind, m.table, bid, ys)
        K.dinv_vec(m.map_kind, m.table, bid, ys)

    timeit("dfwd_vec / dinv_vec on (9, 200000)", grid_derivatives)
    return out


def _time_one(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main():
    print(f"{'kernel':55s} {'time':>10s}")
    for name, t in bench().items():
        print(f"{name:55s} {t:9.4f}s")


if __name__ == "__main__":
    main()
