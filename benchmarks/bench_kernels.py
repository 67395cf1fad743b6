"""Benchmark both kernel lanes and print the best of three timings each:
the scalar lane (``Branch``/``MapModel``, through the orbit builders behind
``tests/construction.py:make_window``) and the batch lane (``_kernels``:
``*_vec``, ``periodic_roots``); the periodic library of gauss at
``max_period = 3`` and doubling at 10; the regularity check, with the
tracemalloc peak of its 200,000-sample pass in the row's name; the cover
ids of the gauss ``max_period = 2`` alphabet, in one batched ``cover_ids``
scan (the row's time) and point by point through
``tests/oracles.py:cover_id_reference`` (in the row's name); then, on
doubling at ``max_period = 10``, the gpos of the deep Markov cover,
shadowed in one lockstep ``shadow_many`` batch and one one-row
``shadow_many`` call per gpo, the cover's step maps in the one
``step_maps`` pass a batch makes, ``point_classes``, ``refine``,
``hat_graph`` and ``audits`` on the cover, ``write_alphabet``, the graph
layer (``build_graph``, ``prune_relevant`` and the cover's walks,
``markov_refine._draw_walks``) and the ``closed_paths_and_radius`` pass of
``full-pipeline`` on the pruned graph.
A call computes the step maps of the distinct edges of its own walks, so
the per-gpo row also computes every gpo's step maps again.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import importlib
import os
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(reps=3):
    import symdyn
    from symdyn import _kernels as K
    from symdyn import shadowing as sh
    from symdyn.analysis import map_periodic_points
    from symdyn.map_model import verify_regularity

    C = _tests_module("construction")
    m = symdyn.built_in("quadratic")
    out = {}

    def timeit(name, fn, n=reps):
        out[name] = min(_time_one(fn) for _ in range(n))

    rng = np.random.default_rng(0)
    xs = C.draw_regular_points(m, 2000, rng)

    def windows(word, fwd_len):
        for x in xs[:500]:
            try:
                C.make_window(m, float(x), word, fwd_len)
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
           lambda: C.random_library(m, 0.1, 100, back_depth=40, fwd_len=14, seed=3))

    # the periodic library, one backward batch per period
    from symdyn import library
    from symdyn.config import parse_config

    for name, period in (("gauss", 3), ("doubling", 10)):
        cfg = parse_config(f"map = {name}\nmax_period = {period}\n")
        lm = symdyn.built_in(name)
        timeit(f"periodic_library {name} max_period={period}",
               lambda: library.periodic_library(lm, cfg))

    def regularity():
        verify_regularity(m, 10_000, seed=1)

    timeit("verify_regularity (1e4 samples, vectorized)", regularity)
    tracemalloc.start()
    try:
        verify_regularity(m, 200_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    timeit(f"verify_regularity (2e5 samples; peak {peak / 2**20:.2f} MiB)",
           lambda: verify_regularity(m, 200_000, seed=1))

    # the ball ends of the regularity check: one row per end, one branch id
    # per column
    x = C.draw_regular_points(m, 200_000, rng)
    ends = np.stack([x - 1e-4, x + 1e-4])
    bid = K.branch_index_vec(m.family, x)

    def end_derivatives():
        K.dfwd_vec(m.family, bid, ends)
        K.dinv_vec(m.family, bid, ends)

    def end_second_derivatives():
        K.d2fwd_vec(m.family, bid, ends)
        K.d2inv_vec(m.family, bid, ends)

    timeit("dfwd_vec / dinv_vec on (2, 200000)", end_derivatives)
    timeit("d2fwd_vec / d2inv_vec on (2, 200000)", end_second_derivatives)

    # the gauss branch index and d(x, S), one formula in both lanes: point by
    # point through MapModel, and on one array
    gx = C.draw_regular_points(gauss, 200_000, rng)
    gl = gx[:20_000].tolist()
    timeit("gauss index, scalar lane (20,000 points)",
           lambda: [gauss._branch_index(v) for v in gl])
    timeit("gauss d(x, S), scalar lane (20,000 points)",
           lambda: [gauss.singular_distance(v) for v in gl])
    timeit("gauss branch_index_vec (200,000 points)", lambda: K.branch_index_vec(gauss.family, gx))
    timeit("gauss sing_dist_vec (200,000 points)", lambda: K.sing_dist_vec(gauss.family, gx))

    # every coordinate the gauss max_period = 2 alphabet bins; the reference
    # scans each distinct point once, as the batch does
    xs = [w.x(k) for w in gauss_alphabet_windows() for k in (-1, 0, 1)]
    reference = _tests_module("oracles").cover_id_reference
    t_ref = min(_time_one(lambda: [reference(gauss, x) for x in sorted(set(xs))])
                for _ in range(reps))
    timeit(f"cover_ids, gauss max_period=2 alphabet ({len(set(xs))} points; "
           f"per point {t_ref:.4f}s)", lambda: gauss.cover_ids(xs))

    al, pg, cover, (m, table, walks, n_lo, cfg) = deep_cover_batch()
    k = walks.shape[0]
    timeit(f"shadow_many, deep cover ({k} gpos, one batch)",
           lambda: sh.shadow_many(m, table, walks, n_lo, cfg))

    def one_at_a_time():
        for row in walks:
            sh.shadow_many(m, table, row[None], n_lo, cfg)

    timeit(f"shadow per gpo, deep cover ({k} gpos, own step maps)", one_at_a_time)

    nc = len(al.vertices)
    edge = np.unique(walks[:, 1:] * nc + walks[:, :-1])
    timeit(f"step_maps, deep cover ({edge.size} edges, one array pass)",
           lambda: sh.step_maps(m, table, edge % nc, edge // nc, cfg))

    from symdyn import analysis, coarse_grain, formats, markov_refine

    def refine_stage():
        pc = markov_refine.point_classes(table, cover)
        cells = markov_refine.refine(cover, pc)
        markov_refine.audits(markov_refine.hat_graph(cover, cells, pc))

    timeit(f"point_classes + refine + hat_graph + audits, deep cover "
           f"({len(cover.points)} rows)", refine_stage)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alphabet.txt")
        timeit(f"write_alphabet, doubling max_period=10 ({nc} charts)",
               lambda: formats.write_alphabet(path, al))
    def graph_layer():
        g, _ = coarse_grain.prune_relevant(coarse_grain.build_graph(al))
        markov_refine._draw_walks(g, cfg)

    timeit(f"build_graph + prune_relevant + cover walks, doubling max_period=10 "
           f"({pg.n_edges()} edges, {k} walks)", graph_layer)
    timeit(f"closed_paths_and_radius, doubling max_period=10 ({pg.n_edges()} edges, n <= 10)",
           lambda: analysis.closed_paths_and_radius(pg, 10))
    return out


def deep_cover_batch():
    """The alphabet, the pruned graph, the Markov cover and the arguments
    (m, table, walks, n_lo, run config) of the one ``shadow_many`` call
    ``build_cover`` makes in ``full-pipeline`` on doubling at
    max_period = 10."""
    from symdyn import coarse_grain, library, markov_refine
    from symdyn import shadowing as sh
    from symdyn.config import parse_config
    from symdyn.map_model import load_map

    cfg = parse_config("map = doubling\nmax_period = 10\n")
    m = load_map(cfg.map)
    al = coarse_grain.build_alphabet(m, library.periodic_library(m, cfg).windows, cfg)
    pg, _ = coarse_grain.prune_relevant(coarse_grain.build_graph(al))
    calls = []
    shadow_many = sh.shadow_many

    def record(*args):
        calls.append(args)
        return shadow_many(*args)

    sh.shadow_many = record
    try:
        cover, _ = markov_refine.build_cover(m, pg, cfg)
    finally:
        sh.shadow_many = shadow_many
    (call,) = calls
    return al, pg, cover, call


def gauss_alphabet_windows():
    """The library windows ``full-pipeline`` bins on gauss at max_period = 2."""
    from symdyn import library
    from symdyn.config import parse_config
    from symdyn.map_model import load_map

    cfg = parse_config("map = gauss\nmax_period = 2\n")
    return library.periodic_library(load_map(cfg.map), cfg).windows


def _tests_module(name):
    """``tests/<name>.py``, imported with ``tests/`` on the module path."""
    tests = os.path.join(ROOT, "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    return importlib.import_module(name)


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
