"""symdyn pipeline benchmark.

Runs one workload (or every workload with ``--workload all``) in a single
worker process that imports ``symdyn`` from ``src/`` of this checkout,
checks every invocation's output, and prints the end-to-end metrics (or,
with ``--trace 1``, the per-layer metrics measured by wrapping each
layer's public functions from outside).  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload pipeline-default --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --record      # rewrite perfbench/expected.json

Every run also writes a JSON record with the environment, per-pass
timings, degeneracy flags and (traced) the span file to ``.perfbench-out/``.
"""

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_PROBES = 4                 # extra fresh processes that only time the set-up
INVOCATION_BUDGET_S = 100.0      # a single cli.run longer than this is killed
RUN_CAP_S = 170.0                # the worker is killed past this, whatever it is doing


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit():
    """HEAD of the checkout if it is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """sha256 over every file under src/, to identify the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def worker_env():
    cap = str(nproc())
    env = dict(os.environ, OMP_NUM_THREADS=cap, OPENBLAS_NUM_THREADS=cap,
               MKL_NUM_THREADS=cap)
    env.pop("PYTHONPATH", None)
    return env


class WorkerFailed(RuntimeError):
    pass


class Worker:
    """One child process and the JSON events it prints, one per line."""

    def __init__(self, argv):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                                     stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT)
        self.buf = b""

    def next_event(self, deadline):
        """The next event, or None if the deadline passes first."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerFailed(f"worker exited with code {self.proc.wait()}")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def set_up_once(argv):
    w = Worker(argv + ["--setup-only"])
    try:
        ev = w.next_event(time.monotonic() + 60.0)
        if ev is None or ev.get("ev") != "setup":
            raise WorkerFailed("set-up probe produced no result")
        return ev["setup_s"]
    finally:
        w.stop()


def drive(argv, started):
    """Run the main worker; returns (setup_s, passes, done event or None,
    the pass killed for exceeding its budget or None)."""
    w = Worker(argv)
    cap = started + RUN_CAP_S
    setup_s, passes, done, timed_out = None, [], None, None
    running = None      # the begin event of the invocation under way
    try:
        while done is None:
            deadline = cap
            if running is not None:
                deadline = min(cap, running["t"] + INVOCATION_BUDGET_S)
            ev = w.next_event(deadline)
            if ev is None:
                if running is None:
                    raise WorkerFailed(f"the worker ran past the {RUN_CAP_S:.0f} s run cap")
                # counted as a failed pass that took at least this long
                took = time.monotonic() - running["t"]
                timed_out = {"pass_id": running["pass_id"], "traced": False, "ok": False,
                             "wall_s": took, "peak_rss_mb": None, "bytes": 0,
                             "errors": [f"pass {running['pass_id']} invocation {running['inv']}: "
                                        f"killed after {took:.0f} s"]}
                break
            kind = ev.pop("ev")
            if kind == "setup":
                setup_s = ev["setup_s"]
            elif kind == "begin":
                running = dict(ev, t=time.monotonic())
            elif kind == "end":
                running = None
            elif kind == "pass":
                passes.append(ev)
            elif kind == "done":
                done = ev
    finally:
        w.stop()
    return setup_s, passes, done, timed_out


def run_workload(workload, seed, seconds, trace, record=False):
    """Run one workload in fresh worker processes; returns its full record."""
    started = time.monotonic()
    tag = f"{workload}-seed{seed}-trace{trace}"
    artifacts = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}")
    spans = os.path.join(OUT_DIR, f"spans-{tag}.json")
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--artifacts", artifacts, "--spans", spans]
    argv += ["--record"] if record else []
    try:
        setups = [set_up_once(argv) for _ in range(0 if record else SETUP_PROBES)]
        setup_s, passes, done, timed_out = drive(argv, started)
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)
    if setup_s is None:
        raise WorkerFailed("the worker did not finish its set-up")
    setups.append(setup_s)

    if timed_out is not None:
        passes.append(timed_out)
    errors = [e for p in passes for e in p.pop("errors")]
    errors += done["errors"] if done else []
    attempted = len(passes)
    failed = sum(not p["ok"] for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    good = [p["wall_s"] for p in untraced if p["ok"]] or [p["wall_s"] for p in untraced]
    rec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "wall_s": statistics.median(good) if good else None, "wall_samples": len(good),
        "setup_s": statistics.median(setups), "setup_samples": setups,
        # set-up plus the first pass; RUSAGE_CHILDREN if that pass was killed
        "peak_rss_mb": (passes and passes[0]["peak_rss_mb"]) or (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0),
        "passes": passes, "errors": errors,
        "degeneracy": done["degeneracy"] if done else {},
        "env": dict(done["env"] if done else {}, nproc=nproc(), blas_threads=nproc(),
                    commit=commit(), src_sha256=source_digest()),
    }
    traced = [p for p in passes if p["traced"] and p["ok"]]
    if done and trace and traced and rec["wall_s"]:
        layers = [done["layers"][str(p["pass_id"])] for p in traced]
        metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = rec["wall_s"]
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / rec["wall_s"] - 1.0)
        metrics["formats.bytes"] = statistics.median(p["bytes"] for p in traced)
        rec["layers"] = metrics
        rec["scaling"] = done.get("scaling")
        rec["spans_file"] = os.path.relpath(spans, ROOT)
    if record:
        rec["observed"] = done["observed"] if done else {}
    return rec


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}


def result_line(rec):
    """The contract's last line: end-to-end metrics, or per-layer if traced."""
    ok = rec["failed"] == 0 and rec["attempted"] > 0 and not rec["errors"]
    if rec["trace"]:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(rec.get("layers", {}).items())}
    else:
        values = {"wall_s": rec["wall_s"], "setup_s": rec["setup_s"],
                  "peak_rss_mb": rec["peak_rss_mb"],
                  "pass_rate": 1.0 - rec["error_rate"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()
                   if v is not None}
    return {"correct": ok, "attempted": max(rec["attempted"], 1),
            "failed": rec["failed"] if rec["attempted"] else 1, "metrics": metrics}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name == "formats.bytes":
        return "B"
    return "count"


def summary(rec):
    """Human-readable lines for one workload's record."""
    out = [f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']}",
           f"  wall_s       {fmt(rec['wall_s'])} s  (median of {rec['wall_samples']} passes)",
           f"  setup_s      {fmt(rec['setup_s'])} s  (median of {len(rec['setup_samples'])} set-ups)",
           f"  peak_rss_mb  {fmt(rec['peak_rss_mb'])} MB",
           f"  error_rate   {fmt(rec['error_rate'])}  ({rec['failed']} of {rec['attempted']} passes failed)",
           f"  env          {json.dumps(rec['env'], sort_keys=True)}"]
    for key, flags in sorted(rec["degeneracy"].items()):
        if flags:
            out.append(f"  degeneracy   {key}: {json.dumps(flags, sort_keys=True)}")
    for err in rec["errors"][:10]:
        out.append(f"  error        {err}")
    for k, v in sorted(rec.get("layers", {}).items()):
        out.append(f"  {k:44s} {fmt(v)} {layer_unit(k)}")
    scal = rec.get("scaling")
    if scal:
        out.append(f"  scaling exponents, doubling default -> deep "
                   f"(windows {scal['windows_default']} -> {scal['windows_deep']}):")
        for k, v in sorted(scal["exponents"].items(), key=lambda kv: -kv[1]):
            out.append(f"    {k:42s} {v:6.2f}")
    return out


def fmt(v):
    return "-" if v is None else f"{v:.6g}"


def save(rec):
    path = os.path.join(OUT_DIR, f"result-{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)


def record_expected():
    """Run one pass of every workload and write the values it observed."""
    observed = {}
    for workload in WORKLOADS:
        rec = run_workload(workload, 1, 0, 0, record=True)
        if rec["failed"]:
            raise WorkerFailed(f"{workload}: {rec['errors']}")
        observed.update(rec["observed"])
    path = os.path.join(HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(observed, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(observed)} invocation records to {os.path.relpath(path, ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from one pass of every workload")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "symdyn", "__init__.py")):
        print(f"perfbench: no src/symdyn under {ROOT}; run from a symdyn checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.record:
        record_expected()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, args.trace)
        save(rec)
        print("\n".join(summary(rec)), flush=True)
        results[name] = result_line(rec)
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkerFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
