"""Layer tracing from outside the program.

Each layer is a public function of a ``symdyn`` module.  ``Tracer``
replaces the module attribute at every site the pipeline calls it through
(the defining module and every module that binds it by name) with a
wrapper that records one span per call, and restores the originals on
exit.  Spans are kept in memory as ``[name, start, end, parent, pass, inv,
error]`` rows; counters read from the arguments and results are summed per
(pass, invocation).  Nothing under ``src/`` is changed.
"""

import functools
import importlib
import math
import time
from collections import defaultdict


# --- counter hooks: (tracer, args, kwargs, result) -> None -----------------

def _regularity(t, args, kw, rep):
    t.add("map_model.samples_checked", rep.sample_count)


def _periodic_words(t, args, kw, result):
    m, n = args[0], args[1]
    branch_limit = args[2] if len(args) > 2 else kw.get("branch_limit")
    nb = m.finite_table(branch_limit)[1].shape[0]
    t.add("analysis.periodic_words", nb ** n)


def _library(t, args, kw, lib):
    t.add("library.windows", len(lib.windows))
    t.add("library.orbits", lib.orbits)
    t.add("library.skipped_singular", lib.skipped_singular)
    t.add("library.skipped_uncertified", lib.skipped_uncertified)


def _alphabet(t, args, kw, al):
    t.add("coarse_grain.centers", len(al.centers))
    t.add("coarse_grain.charts", len(al.vertices))


def _graph(t, args, kw, g):
    t.add("coarse_grain.strong_edges", g.n_edges())


def _prune(t, args, kw, result):
    t.add("coarse_grain.kept_vertices", len(result[1]))


def _cover(t, args, kw, result):
    rects, dropped = result
    t.add("markov_refine.rectangles", len(rects))
    t.add("markov_refine.dropped", dropped)


def _refine(t, args, kw, cells):
    t.add("markov_refine.cells", len(cells))


def _shadow_call(t, args, kw):
    gpo = args[1] if len(args) > 1 else kw["g"]
    t.add("shadowing.shadow_calls", 1)
    t.walks.add(tuple(gpo.vertex_keys()))


WRITERS = ("write_windows", "write_alphabet", "write_graph", "write_dot",
           "write_partition", "write_shadows", "write_report")

# span name -> (call sites as (module, attribute), before-call hook,
#               after-return hook, counter bumped when the call raises)
LAYERS = {
    "map_model.verify_regularity": (
        [("map_model", "verify_regularity")], None, _regularity, None),
    "analysis.map_periodic_points": (
        [("analysis", "map_periodic_points"), ("library", "map_periodic_points")],
        None, _periodic_words, None),
    "kernels.periodic_roots": ([("_kernels", "periodic_roots")], None, None, None),
    "analysis.growth_report": ([("analysis", "growth_report")], None, None, None),
    "analysis.gurevich_entropy": ([("analysis", "gurevich_entropy")], None, None, None),
    "library.periodic_library": ([("library", "periodic_library")], None, _library, None),
    "pesin.expansion_certificate": (
        [("pesin", "expansion_certificate"), ("library", "expansion_certificate")],
        None, None, None),
    "natural_extension.make_periodic_window": (
        [("natural_extension", "make_periodic_window")], None, None, None),
    "pesin.window_tables": (
        [("pesin", "window_tables"), ("coarse_grain", "window_tables")], None, None, None),
    "coarse_grain.build_alphabet": ([("coarse_grain", "build_alphabet")], None, _alphabet, None),
    "coarse_grain.build_graph": ([("coarse_grain", "build_graph")], None, _graph, None),
    "coarse_grain.prune_relevant": ([("coarse_grain", "prune_relevant")], None, _prune, None),
    "coarse_grain.sufficiency_encode": (
        [("coarse_grain", "sufficiency_encode")], None, None, "coarse_grain.encode_failures"),
    "shadowing.shadow": ([("shadowing", "shadow")], _shadow_call, None, "shadowing.edge_broken"),
    "shadowing.inverse_check": ([("shadowing", "inverse_check")], None, None, None),
    "markov_refine.build_cover": ([("markov_refine", "build_cover")], None, _cover, None),
    "markov_refine.refine": ([("markov_refine", "refine")], None, _refine, None),
    "markov_refine.hat_graph": ([("markov_refine", "hat_graph")], None, None, None),
    "markov_refine.audits": ([("markov_refine", "audits")], None, None, None),
}
LAYERS.update({f"formats.{w}": ([("formats", w)], None, None, None) for w in WRITERS})

# Counters every traced pass reports, zero when the layer never ran.
COUNTERS = ("map_model.samples_checked", "analysis.periodic_words",
            "library.windows", "library.orbits", "library.skipped_singular",
            "library.skipped_uncertified", "coarse_grain.centers",
            "coarse_grain.charts", "coarse_grain.strong_edges",
            "coarse_grain.kept_vertices", "coarse_grain.encode_failures",
            "shadowing.shadow_calls", "shadowing.edge_broken",
            "shadowing.distinct_walks", "markov_refine.rectangles",
            "markov_refine.dropped", "markov_refine.cells")


class Tracer:
    """Installs the layer wrappers and keeps spans and counters in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))   # (pass, inv) -> name -> n
        self.walks = set()      # distinct shadowed vertex-key tuples, per invocation
        self.missing = set()    # call sites absent from this checkout
        self._stack = []
        self._saved = []
        self.pass_id = self.inv_id = None

    def add(self, name, n):
        self.counts[(self.pass_id, self.inv_id)][name] += n

    # -- installation -------------------------------------------------------

    def install(self):
        for name, (sites, before, after, on_error) in LAYERS.items():
            wrapped = {}
            for modname, attr in sites:
                mod = importlib.import_module(f"symdyn.{modname}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.add(f"symdyn.{modname}.{attr}")
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn, before, after, on_error)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn, before, after, on_error):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            sid = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.pass_id, self.inv_id, None]
            spans.append(row)
            stack.append(sid)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                row[2] = clock()
                stack.pop()
                row[6] = type(e).__name__
                if on_error is not None:
                    self.add(on_error, 1)
                raise
            row[2] = clock()
            stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- invocation bookkeeping ---------------------------------------------

    def begin(self, pass_id, inv_id):
        self.pass_id, self.inv_id = pass_id, inv_id
        self.walks = set()

    def end(self):
        self.add("shadowing.distinct_walks", len(self.walks))
        self.walks = set()

    # -- reduction ------------------------------------------------------------

    def self_times(self, pass_id, inv_id=None):
        """Per-layer self time (duration minus child coverage) and the summed
        duration of top-level spans, over one pass (or one invocation)."""
        child = defaultdict(float)
        for name, t0, t1, parent, p, i, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        top = 0.0
        for sid, (name, t0, t1, parent, p, i, _) in enumerate(self.spans):
            if p != pass_id or (inv_id is not None and i != inv_id):
                continue
            out[name] += (t1 - t0) - child[sid]
            if parent < 0:
                top += t1 - t0
        return out, top

    def counters(self, pass_id, inv_id=None):
        out = defaultdict(int)
        for (p, i), names in self.counts.items():
            if p == pass_id and (inv_id is None or i == inv_id):
                for k, v in names.items():
                    out[k] += v
        return out


def layer_metrics(tracer, pass_id, wall):
    """The per-layer metrics of one traced pass whose timed wall was ``wall``."""
    selfs, top = tracer.self_times(pass_id)
    c = tracer.counters(pass_id)
    m = {f"{name}_s": selfs.get(name, 0.0) for name in LAYERS}
    m["formats.write_s"] = sum(selfs.get(f"formats.{w}", 0.0) for w in WRITERS)
    m.update({k: c.get(k, 0) for k in COUNTERS})
    m["coarse_grain.chart_keep_ratio"] = (
        c["coarse_grain.kept_vertices"] / c["coarse_grain.charts"]
        if c.get("coarse_grain.charts") else 0.0)
    m["shadowing.distinct_walk_ratio"] = (
        c["shadowing.distinct_walks"] / c["shadowing.shadow_calls"]
        if c.get("shadowing.shadow_calls") else 0.0)
    m["cli.self_s"] = wall - top
    m["trace.spans"] = sum(1 for s in tracer.spans if s[4] == pass_id)
    return m


def scaling(tracer, deep, ref):
    """Exponent log(t_deep / t_ref) / log(windows_deep / windows_ref) per
    layer, between two traced invocations given as (pass, inv) keys."""
    (sd, _), (sr, _) = tracer.self_times(*deep), tracer.self_times(*ref)
    wd = tracer.counters(*deep)["library.windows"]
    wr = tracer.counters(*ref)["library.windows"]
    out = {"windows_deep": wd, "windows_default": wr, "exponents": {}}
    if wd <= 0 or wr <= 0 or wd == wr:
        return out
    for name in sorted(set(sd) & set(sr)):
        if sd[name] > 0 and sr[name] > 0:
            out["exponents"][name] = math.log(sd[name] / sr[name]) / math.log(wd / wr)
    return out

