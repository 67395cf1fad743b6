"""Write the outputs of a fixed set of CLI runs, to diff two checkouts.

    python3 benchmarks/artifact_runs.py DIR [--src SRC]

Runs each invocation of ``perfbench/workloads.py`` plus ``EXTRA``, at
seeds 1 and 7, as ``python -m symdyn.cli`` with ``SRC`` (default: this
checkout's ``src``) on the path.  Each run writes ``DIR/s<seed>/<label>/``:
its config file, its ``--out`` artifacts under ``out/``, and ``stdout``,
``stderr`` and ``exit_code``.  Paths are relative to that directory, so
two trees compare with ``diff -r``; a change that keeps behaviour leaves
them identical:

    python3 benchmarks/artifact_runs.py /tmp/before --src PARENT/src
    python3 benchmarks/artifact_runs.py /tmp/after
    diff -r /tmp/before /tmp/after
"""

import argparse
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 7)

# Non-default configs that reach what the perfbench invocations do not:
# negative encoding indices, a short cover window, a long u-depth audit
# and the countable-branch map one period deeper.
EXTRA = [
    ("shadow", "map = tent\nencode_lo = -19\nencode_hi = 30\nfwd_len = 5\nback_depth = 20"),
    ("refine", "map = quadratic\npaths_per_vertex = 6\ncover_window = 3"),
    ("inverse-audit", "map = doubling\nencode_hi = 50\nfwd_len = 5\nback_depth = 12"),
    ("full-pipeline", "map = gauss\nmax_period = 3"),
]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def invocations():
    """The perfbench invocations in workload order, then ``EXTRA``."""
    wl = _workloads()
    return [inv for invs in wl.WORKLOADS.values() for inv in invs] + EXTRA


def run(invocation, seed, dest, src):
    """Run one invocation at one seed with ``src`` on the path, writing its
    config, outputs and exit code under ``dest``."""
    os.makedirs(dest)
    with open(os.path.join(dest, "config"), "w", encoding="utf-8") as fh:
        fh.write(_workloads().config_text(invocation, seed))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "symdyn.cli", invocation[0],
                           "--config", "config", "--out", "out"],
                          cwd=dest, env=env, capture_output=True, check=False)
    for name, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                       ("exit_code", f"{proc.returncode}\n".encode())):
        with open(os.path.join(dest, name), "wb") as fh:
            fh.write(data)
    return proc.returncode


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dir", help="output tree; must not exist")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="the src directory whose symdyn runs")
    args = p.parse_args(argv)
    label = _workloads().label
    for seed in SEEDS:
        for inv in invocations():
            dest = os.path.join(args.dir, f"s{seed}", label(inv).replace(" ", "_"))
            rc = run(inv, seed, dest, args.src)
            print(f"s{seed} {label(inv)}: exit {rc}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
