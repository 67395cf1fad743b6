"""Workload definitions: each is a fixed sequence of ``symdyn.cli.run``
invocations, run one after another (closed loop, one client).

An invocation is ``(command, config text)``; the benchmark appends
``seed = <--seed>`` to the config text, so the seed is the only input that
varies between runs.
"""

WORKLOADS = {
    # ROADMAP baseline scale: alphabet materialisation, write_alphabet,
    # encode/shadow and the Markov cover dominate.
    "pipeline-default": [
        ("full-pipeline", "map = doubling"),
        ("full-pipeline", "map = tent"),
        ("full-pipeline", "map = quadratic"),
    ],
    # 4.2x the windows of the default doubling run: the superlinear paths
    # (library dedup, Markov audits) dominate.
    "pipeline-deep": [
        ("full-pipeline", "map = doubling\nmax_period = 10"),
    ],
    # Countable-branch map: periodic-point enumeration over 16^n words
    # dominates; alphabet and refinement are light.
    "gauss-growth": [
        ("full-pipeline", "map = gauss\nmax_period = 2"),
    ],
    # Regularity sampling on every map, then the double-coding audit; both
    # are a small share of any full-pipeline pass.
    "verify-audit": [
        ("verify-map", "map = doubling\nsamples = 200000"),
        ("verify-map", "map = tent\nsamples = 200000"),
        ("verify-map", "map = quadratic\nsamples = 200000"),
        ("verify-map", "map = gauss\nsamples = 200000"),
        ("inverse-audit", "map = doubling"),
        ("inverse-audit", "map = quadratic"),
    ],
}

# Invocation the traced run of pipeline-deep adds once, outside its passes,
# so each layer's growth from default to deep scale can be reported.
SCALING_REFERENCE = ("full-pipeline", "map = doubling")


def label(invocation):
    """Stable key of an invocation, e.g. ``full-pipeline map=doubling max_period=10``."""
    command, text = invocation
    keys = [line.replace(" ", "") for line in text.splitlines() if line.strip()]
    return " ".join([command] + keys)


def config_text(invocation, seed):
    return f"{invocation[1]}\nseed = {seed}\n"
