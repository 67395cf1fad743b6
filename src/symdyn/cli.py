"""Batch front end: subcommands over a config file, deterministic artifacts.

    symdyn <subcommand> [--config FILE] [--out DIR] [--map NAME] [overrides]

Subcommands: verify-map, sample-orbits, alphabet, graph, shadow,
inverse-audit, refine, entropy, periodic-report, full-pipeline.  Every
artifact is a versioned text file under --out; reruns with the same
config and seed are byte-identical.
"""

import argparse
import json
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import analysis, coarse_grain, formats, library, map_model, markov_refine, shadowing
from .config import RunConfig, load_config
from .map_model import load_map

def _ensure_out(out):
    os.makedirs(out, exist_ok=True)
    return out


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


# ---------------------------------------------------------------------------
# pipeline stages (each returns data for downstream stages)
# ---------------------------------------------------------------------------

def stage_verify(m, cfg, out, quiet):
    rep = map_model.verify_regularity(m, cfg.samples, seed=cfg.seed)
    recs = [{"clause": c.name, "passed": c.passed, "checked": c.checked,
             "violations": c.violations, "worst_margin": c.worst_margin,
             "worst_x": c.worst_x} for c in rep.clauses.values()]
    recs.append({"clause": "extreme", "x": rep.extreme_x, "value": rep.extreme_value})
    formats.write_report(os.path.join(out, "regularity.report"), "regularity",
                         rep.lines(), recs)
    for ln in rep.lines():
        _say(quiet, ln)
    if not rep.passed:
        raise RuntimeError("regularity verification failed")
    return rep


def stage_library(lib, out, quiet):
    formats.write_windows(os.path.join(out, "windows.txt"), lib.windows)
    for ln in lib.lines():
        _say(quiet, ln)


def stage_alphabet(al, out, quiet):
    formats.write_alphabet(os.path.join(out, "alphabet.txt"), al)
    _say(quiet, f"alphabet: {len(al.centers)} centers, {len(al.vertices)} charts, "
                f"{al.skipped} samples skipped")


def stage_graph(al, out, quiet):
    g = coarse_grain.build_graph(al)
    pg, kept = coarse_grain.prune_relevant(g)
    formats.write_graph(os.path.join(out, "graph.txt"), pg)
    formats.write_dot(os.path.join(out, "graph.dot"), pg)
    _say(quiet, f"graph: {g.n_edges()} strong edges; pruned to {len(kept)} "
                f"relevant vertices, {pg.n_edges()} edges")
    return g, pg, kept


def _encode_and_shadow(m, al, tables, cfg, lo, hi):
    """Encode the windows of ``tables`` over [lo, hi] and shadow their gpos
    in one ``shadow_many`` call (the windows of a stage share back_depth and
    the forward horizon, so every gpo spans the same indices).  Returns per
    table, in order, its NoNetVertex or None, and the Shadows table with a
    row for each None, in order."""
    errors, walks, n_lo = [], [], lo
    for tabs in tables:
        try:
            vids, n_lo = coarse_grain.sufficiency_encode(m, tabs.w, al, cfg, lo=lo, hi=hi,
                                                         tables=tabs)
        except coarse_grain.NoNetVertex as e:
            errors.append(e)
            continue
        errors.append(None)
        walks.append(vids)
    walks = np.array(walks, dtype=np.int64).reshape(len(walks), len(walks[0]) if walks else 0)
    return errors, shadowing.shadow_many(m, al.vertices, walks, n_lo, cfg)


def stage_shadow(m, cfg, al, out, quiet):
    """Encode and shadow one window per orbit: the base window whose tables
    the alphabet kept."""
    errors, shadows = _encode_and_shadow(m, al, sorted(al.tables, key=lambda t: t.w.record()),
                                         cfg, cfg.encode_lo, cfg.encode_hi)
    ok = shadows.ok
    failures = len(errors) - int(ok.sum())
    formats.write_shadows(os.path.join(out, "shadows.txt"), shadows)
    worst = max(shadows.worst[ok].tolist(), default=0.0)
    _say(quiet, f"shadow: {int(ok.sum())} gpos shadowed, {failures} failures, "
                f"worst containment {worst:.3g}")
    return shadows


def stage_inverse(m, cfg, out, quiet):
    """Double-coding audit: two u-truncation families over the same orbits."""
    base = min(cfg.back_depth, 30)
    lib = library.periodic_library(m, cfg)
    windows = [replace(w, u_depth=d) for d in (base, base + 4) for w in lib.windows]
    al = coarse_grain.build_alphabet(m, windows, cfg)
    out = _ensure_out(out)
    formats.write_windows(os.path.join(out, "windows.txt"), windows)
    lines = []
    records = []
    audited = 0
    failed = 0
    # both families share each orbit's cycle array
    reps_b = {id(t.w.points): t for t in al.tables if t.w.u_depth == base + 4}
    reps_a = sorted((t for t in al.tables if t.w.u_depth == base), key=lambda t: t.w.x0)
    errors, shadows = _encode_and_shadow(
        m, al, [t for a in reps_a for t in (a, reps_b[id(a.w.points)])], cfg, 0, cfg.encode_hi)
    rows = iter(range(len(shadows)))
    row = [next(rows) if e is None else None for e in errors]   # each encoded table's row

    for k, tabs in enumerate(reps_a):
        pair = (2 * k, 2 * k + 1)
        # an encoding failure is reported before a shadowing one, gpo a before b
        faults = [errors[t] for t in pair if errors[t] is not None]
        faults += [shadows.broken[row[t]] for t in pair if row[t] in shadows.broken]
        if not faults:
            try:
                rep = shadowing.inverse_check(shadows, row[2 * k], row[2 * k + 1],
                                              al.vertices, cfg)
            except shadowing.NotDoubleCoding as e:
                faults = [e]
        if faults:
            lines.append(f"orbit x0={tabs.w.x0!r}: {type(faults[0]).__name__}: {faults[0]}")
            failed += 1
            continue
        audited += 1
        if not rep.passed:
            failed += 1
        lines.extend(rep.lines())
        records.append({"x0": tabs.w.x0, "passed": rep.passed,
                        "recurrence": json.dumps(rep.recurrence, sort_keys=True)})
    lines.insert(0, f"double codings audited: {audited}, failures: {failed}")
    formats.write_report(os.path.join(out, "inverse.report"), "inverse",
                         lines, records)
    _say(quiet, lines[0])
    if failed:
        raise RuntimeError("inverse audit failed")
    return audited


def stage_refine(m, cfg, pg, out, quiet):
    cover, dropped = markov_refine.build_cover(m, pg, cfg)
    pc = markov_refine.point_classes(pg.alphabet.vertices, cover)
    cells = markov_refine.refine(cover, pc)
    tg = markov_refine.hat_graph(cover, cells, pc)
    audit = markov_refine.audits(tg)
    if dropped:
        audit.notes.append(f"{dropped} core vertices dropped: shadowing broke every walk "
                           f"through them")
    formats.write_partition(os.path.join(out, "partition.txt"), cells, tg)
    formats.write_dot(os.path.join(out, "sigma_hat.dot"), tg, name="sigma_hat")
    formats.write_report(os.path.join(out, "markov.report"), "markov",
                         audit.lines(),
                         [{"rectangles": len(cover), "cells": len(cells),
                           "dropped": dropped,
                           "markov_failures": audit.markov_failures,
                           "preimage_max": audit.preimage_max}])
    for ln in audit.lines():
        _say(quiet, ln)
    if not audit.passed:
        raise RuntimeError("markov audit failed")
    return cover, cells, tg, audit


def stage_entropy(counts, rho, out, quiet, tg=None):
    """Entropy estimates of the pruned graph from its closed-path counts at
    n <= 10 and its spectral radius rho, and of the refined shift tg."""
    est = analysis.gurevich_entropy(counts[:10], rho)
    lines = est.lines()
    if tg is not None:
        lines += ["refined shift:"] + analysis.gurevich_entropy(
            *analysis.closed_paths_and_radius(tg, 10)).lines()
    formats.write_report(os.path.join(out, "entropy.report"), "entropy", lines,
                         [{"loop_growth": est.loop_growth,
                           "trace_slope": est.trace_slope,
                           "spectral_radius": est.spectral_radius}])
    for ln in lines:
        _say(quiet, ln)
    return est


def stage_growth(lib, counts, rho, out, quiet):
    rep = analysis.growth_report(lib.map_counts, counts, rho)
    formats.write_report(os.path.join(out, "growth.report"), "growth",
                         rep.lines(),
                         [{"n": n, "map_count": mc, "closed_paths": sc}
                          for n, mc, sc, _ in rep.rows])
    for ln in rep.lines():
        _say(quiet, ln)
    return rep


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

COMMANDS = ("verify-map", "sample-orbits", "alphabet", "graph", "shadow",
            "inverse-audit", "refine", "entropy", "periodic-report",
            "full-pipeline")


def build_parser():
    p = argparse.ArgumentParser(prog="symdyn", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="path to a run-config file")
    p.add_argument("--out", default="symdyn-out", help="artifact directory")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--map", dest="map_name", help="built-in name or map file")
    p.add_argument("--chi", type=float)
    p.add_argument("--eps", "--epsilon", dest="epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--max-period", dest="max_period", type=int)
    return p


def resolve_config(args):
    """The run config: defaults, then the config file, then the command-line
    overrides, each applied as a value (``RunConfig`` validates them)."""
    cfg = load_config(args.config, base=RunConfig()) if args.config else RunConfig()
    overrides = {key: getattr(args, attr) for key, attr in (
        ("map", "map_name"), ("chi", "chi"), ("epsilon", "epsilon"), ("seed", "seed"),
        ("samples", "samples"), ("max_period", "max_period"))}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def run(command, cfg, out, quiet=False):
    m = load_map(cfg.map)
    if command == "verify-map":
        stage_verify(m, cfg, _ensure_out(out), quiet)
        return
    analysis.check_window_budget(m, cfg.max_period)  # every other command builds a library
    if command == "inverse-audit":
        stage_inverse(m, cfg, out, quiet)
        return

    # the library and the alphabet are built before --out is made, so a
    # refused alphabet leaves no partial artifacts
    lib = library.periodic_library(m, cfg)
    al = None if command == "sample-orbits" else coarse_grain.build_alphabet(m, lib.windows, cfg)
    out = _ensure_out(out)
    stage_library(lib, out, quiet)
    if command == "sample-orbits":
        return
    stage_alphabet(al, out, quiet)
    if command == "alphabet":
        return
    g, pg, kept = stage_graph(al, out, quiet)
    if command == "graph":
        return
    if command == "shadow":
        stage_shadow(m, cfg, al, out, quiet)
        return
    if command == "refine":
        stage_refine(m, cfg, pg, out, quiet)
        return
    # one pass over pg serves the entropy estimate (n <= 10) and the growth
    # report (n <= max_period)
    counts, rho = analysis.closed_paths_and_radius(pg, max(10, cfg.max_period))
    if command == "entropy":
        stage_entropy(counts, rho, out, quiet)
        return
    if command == "periodic-report":
        stage_growth(lib, counts, rho, out, quiet)
        return
    if command == "full-pipeline":
        stage_verify(m, cfg, out, quiet)
        stage_shadow(m, cfg, al, out, quiet)
        cover, cells, tg, audit = stage_refine(m, cfg, pg, out, quiet)
        stage_entropy(counts, rho, out, quiet, tg=tg)
        stage_growth(lib, counts, rho, out, quiet)
        return
    raise ValueError(f"unhandled command {command!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        run(args.command, cfg, args.out, quiet=args.quiet)
    except (KeyError, ValueError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "detail": str(e)}),
              file=sys.stderr)
        return 2
    except Exception as e:  # module errors: structured record, nonzero exit
        print(json.dumps({"error": type(e).__name__, "detail": str(e)}),
              file=sys.stderr)
        if os.environ.get("SYMDYN_DEBUG"):
            traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
