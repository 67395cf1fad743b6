"""Benchmark worker: the single process that runs one workload.

Started by ``run.py``; it is not meant to be run by hand.  It imports
``symdyn`` from ``src/`` of the checkout, resolves the workload's configs
and loads its maps (the set-up), then runs passes over the workload's
invocations until the time allowed is used, checking every invocation's
output.  Progress goes to stdout as one JSON event per line; the parent
enforces the per-invocation time budget from those events.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --artifacts DIR [--spans FILE] [--setup-only] [--record]
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import degeneracy, mismatches, observe, out_digest  # noqa: E402
from layers import Tracer, layer_metrics, scaling  # noqa: E402
from workloads import SCALING_REFERENCE, WORKLOADS, config_text, label  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")


def emit(stream, **event):
    stream.write(json.dumps(event) + "\n")
    stream.flush()


def set_up(invocations, seed):
    """Import symdyn from this checkout, resolve every config and load every
    map; returns the seconds it took and what the passes need."""
    t0 = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import symdyn
    from symdyn import cli
    from symdyn.config import parse_config
    from symdyn.map_model import load_map
    if os.path.dirname(os.path.dirname(os.path.abspath(symdyn.__file__))) != src:
        raise ImportError(f"symdyn imported from {symdyn.__file__}, not from {src}")
    cfgs = [parse_config(config_text(inv, seed)) for inv in invocations]
    maps = {cfg.map: load_map(cfg.map) for cfg in cfgs}
    return time.perf_counter() - t0, cli, cfgs, maps


def environment():
    import numpy
    import symdyn
    from symdyn import _kernels
    return {"numba_lane": bool(_kernels.USE_NUMBA), "python": platform.python_version(),
            "numpy": numpy.__version__, "symdyn": symdyn.__version__}


class Runner:
    """Runs passes over one workload's invocations and checks their output."""

    def __init__(self, cli, invocations, cfgs, artifacts, events, expected, tracer):
        self.cli, self.invocations, self.cfgs = cli, invocations, cfgs
        self.artifacts, self.events, self.expected = artifacts, events, expected
        self.tracer = tracer
        self.digests = {}       # invocation index -> --out digest of the first pass
        self.degeneracy = {}    # invocation label -> flags
        self.observed = {}      # invocation label -> gated values
        self.errors = []

    def invoke(self, pass_id, i, invocation, cfg, traced=False):
        """One timed ``cli.run``: (seconds, error or None, out dir, stdout)."""
        out = os.path.join(self.artifacts, f"inv{i}")
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        buf = io.StringIO()
        tracer = self.tracer if traced else None
        emit(self.events, ev="begin", pass_id=pass_id, inv=i)
        with tracer or contextlib.nullcontext():
            if tracer is not None:
                tracer.begin(pass_id, i)
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    self.cli.run(invocation[0], cfg, out, quiet=False)
            except Exception as e:  # a failed invocation fails the pass, not the run
                error = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
        emit(self.events, ev="end", pass_id=pass_id, inv=i)
        return dt, error, out, buf.getvalue()

    def check(self, i, invocation, cfg, out, stdout):
        """Problems with one invocation's output, and its --out byte count."""
        key = label(invocation)
        try:
            obs = observe(invocation[0], out, stdout)
            flags = degeneracy(invocation[0], out, cfg.max_period)
        except (OSError, ValueError, KeyError, IndexError) as e:
            return [f"{key}: unreadable output: {type(e).__name__}: {e}"], 0
        self.observed[key] = obs
        self.degeneracy.setdefault(key, flags)
        digest, nbytes = out_digest(out)
        bad = []
        if self.expected is not None:
            if key not in self.expected:
                bad.append(f"{key}: no recorded values in expected.json")
            else:
                bad.extend(f"{key}: {m}" for m in mismatches(obs, self.expected[key]))
        if self.digests.setdefault(i, digest) != digest:
            bad.append(f"{key}: --out bytes differ from the first pass")
        return bad, nbytes

    def run_pass(self, pass_id, traced):
        wall, nbytes, problems = 0.0, 0, []
        for i, (invocation, cfg) in enumerate(zip(self.invocations, self.cfgs)):
            dt, error, out, stdout = self.invoke(pass_id, i, invocation, cfg, traced)
            wall += dt
            if error is not None:
                problems.append(f"{label(invocation)}: {error}")
                break
            bad, n = self.check(i, invocation, cfg, out, stdout)
            problems.extend(bad)
            nbytes += n
        # a CLI user runs one pass per process, so its peak is the figure
        # that matters; later passes add allocator fragmentation
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"pass_id": pass_id, "traced": traced, "wall_s": wall, "peak_rss_mb": peak,
                "ok": not problems, "bytes": nbytes, "errors": problems[:5]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--artifacts", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    events = sys.stdout
    invocations = WORKLOADS[args.workload]
    setup_s, cli, cfgs, _maps = set_up(invocations, args.seed)
    from symdyn.config import parse_config
    emit(events, ev="setup", setup_s=setup_s)
    if args.setup_only:
        return 0

    expected = None
    if not args.record:
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
    tracer = Tracer() if args.trace else None
    runner = Runner(cli, invocations, cfgs, args.artifacts, events, expected, tracer)

    passes = []
    start = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        # the traced run alternates untraced and traced passes
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(runner.run_pass(len(passes), traced))
        emit(events, ev="pass", **passes[-1])
        lengths.append(time.perf_counter() - t0)
        if args.record:
            break
        # stop where the run ends closest to --seconds (but the traced run
        # needs at least one untraced and one traced pass)
        need_both = args.trace and len(passes) < 2
        elapsed = time.perf_counter() - start
        if not need_both and elapsed + statistics.median(lengths) / 2 >= args.seconds:
            break

    done = {"errors": runner.errors, "degeneracy": runner.degeneracy, "env": environment()}
    if args.record:
        done["observed"] = runner.observed
    if tracer is not None:
        for site in sorted(tracer.missing):
            print(f"perfbench: call site {site} not found; its layer reads 0",
                  file=sys.stderr)
        done["layers"] = {p["pass_id"]: layer_metrics(tracer, p["pass_id"], p["wall_s"])
                          for p in passes if p["traced"]}
        if args.workload == "pipeline-deep":
            ref = SCALING_REFERENCE
            cfg = parse_config(config_text(ref, args.seed))
            _, error, out, stdout = runner.invoke("ref", 0, ref, cfg, traced=True)
            if error is None:
                runner.errors.extend(runner.check("ref", ref, cfg, out, stdout)[0])
                deep = next(p["pass_id"] for p in passes if p["traced"])
                done["scaling"] = scaling(tracer, (deep, 0), ("ref", 0))
            else:
                runner.errors.append(f"scaling reference: {error}")
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "inv", "error"],
                       "spans": tracer.spans}, fh)
    emit(events, ev="done", **done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
