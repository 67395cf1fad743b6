import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "bench_kernels.py")
_spec = importlib.util.spec_from_file_location("bench_kernels", _PATH)
bench_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernels)


def test_bench_kernels_runs():
    # one repetition of every row, so the script keeps up with the kernels
    out = bench_kernels.bench(reps=1)
    assert len(out) == 22
    assert all(t > 0.0 for t in out.values())
