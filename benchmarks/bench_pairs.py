"""Summarise alternating parent/change perfbench runs as a BENCH json.

    python3 benchmarks/bench_pairs.py --parent PARENT/.perfbench-out \
        --change .perfbench-out --out BENCH_6.json

Reads every untraced result (``result-<workload>-seed<n>-trace0.json``) of
both checkouts.  Runs of the same workload and seed form a pair.  For each
workload and end-to-end metric it writes the median and quartiles of each
side over the paired runs, the pair count and the change's wins (pairs in
which the change is strictly better, in the direction ``BENCHMARK.json``
gives), the relative change of the median, the metric's bound and a
verdict, plus the commit and ``src_sha256`` each side's runs recorded.

Verdicts: ``unresolved`` when the parent's spread (IQR / median) exceeds
the bound, unless every change run is better than every parent run;
``worse`` when the median moves the wrong way by more than the bound;
``better`` when a gain could be claimed: at least ten pairs, the change
wins nine in ten, and the medians differ by more than the parent's IQR;
``within bound`` otherwise.
"""

import argparse
import glob
import json
import math
import os
import re
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def load(directory):
    """{(workload, seed): result record} of the untraced runs in a directory."""
    out = {}
    for path in glob.glob(os.path.join(directory, "result-*-trace0.json")):
        m = NAME.search(os.path.basename(path))
        if m:
            with open(path, encoding="utf-8") as fh:
                out[(m["workload"], int(m["seed"]))] = json.load(fh)
    return out


def metric(rec, name):
    return 1.0 - rec["error_rate"] if name == "pass_rate" else rec[name]


def spread(values):
    """Median and inclusive quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def relative(delta, base):
    """delta / |base|, with 0 / 0 = 0 and delta / 0 = +-inf."""
    if base:
        return delta / abs(base)
    return math.copysign(math.inf, delta) if delta else 0.0


def verdict(p, c, better, bound, wins):
    """Verdict on one metric from the paired parent and change values."""
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(p), statistics.median(c)
    iqr = spread(p)["q3"] - spread(p)["q1"]
    if relative(iqr, pm) > bound and not all(sign * (b - a) < 0 for a in p for b in c):
        return "unresolved"
    if sign * relative(cm - pm, pm) > bound:
        return "worse"
    if len(p) >= 10 and wins >= 0.9 * len(p) and sign * (pm - cm) > iqr:
        return "better"
    return "within bound"


def identity(records):
    """The commits and source digests a side's runs recorded."""
    return {key: sorted({str(r["env"].get(key)) for r in records})
            for key in ("commit", "src_sha256")}


def summarise(parent, change, metrics):
    pairs = sorted(set(parent) & set(change))
    workloads = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        rows = {}
        for name, (better, bound) in metrics.items():
            p = [metric(parent[(workload, s)], name) for s in seeds]
            c = [metric(change[(workload, s)], name) for s in seeds]
            wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(p, c))
            pm = statistics.median(p)
            rows[name] = {"parent": spread(p), "change": spread(c),
                          "pairs": len(seeds), "wins": wins, "better": better,
                          "bound": bound,
                          "rel_change": relative(statistics.median(c) - pm, pm),
                          "verdict": verdict(p, c, better, bound, wins)}
        workloads[workload] = {"seeds": seeds, "metrics": rows}
    return {
        "parent": identity([parent[k] for k in pairs]),
        "change": identity([change[k] for k in pairs]),
        "workloads": workloads,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent checkout's .perfbench-out")
    ap.add_argument("--change", required=True, help="the change's .perfbench-out")
    ap.add_argument("--out", required=True, help="BENCH json to write")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    summary = summarise(load(args.parent), load(args.change), metrics)
    if not summary["workloads"]:
        raise SystemExit("no workload has a run with the same seed on both sides")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, w in summary["workloads"].items():
        for name, r in w["metrics"].items():
            print(f"{workload:18s} {name:12s} parent {r['parent']['median']:.4g} "
                  f"change {r['change']['median']:.4g}  wins {r['wins']}/{r['pairs']}  "
                  f"{r['verdict']}")


if __name__ == "__main__":
    main()
