"""Fuzz the map-file and run-config parsers: every input either parses or
raises one of the exceptions ``cli.main`` turns into exit 2."""

from dataclasses import fields
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symdyn.config import RunConfig, parse_config
from symdyn.map_model import MapModel, parse_map_file

# cli.main reports these as {"error": ..., "detail": ...} and exits 2
USAGE_ERRORS = (ValueError, KeyError)  # MapFileError is a ValueError

FUZZ = settings(max_examples=100, deadline=timedelta(seconds=5),
                suppress_health_check=[HealthCheck.too_slow])

NUMBERS = st.one_of(
    st.sampled_from(["0", "0.0", "0.1", "0.25", "0.5", "1", "2", "-1", "4", "-8", "1e-300",
                     "1e400", "-1e400", "nan", "inf", "-inf", "", "x", "0x10", "1_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10).map(str),
)
NUMBER_LISTS = st.lists(NUMBERS, max_size=5).map(" ".join)
MAP_KEYS = ["name", "a", "beta", "kappa", "domain", "singular", "dom", "kind", "coef",
            "inv_sign", "__section__", "other"]
KINDS = st.sampled_from(["affine", "quadratic", "moebius", "gauss", ""])


@st.composite
def map_lines(draw):
    """A line a map file could hold: a section header, a key = value pair,
    a comment or noise."""
    return draw(st.one_of(
        st.sampled_from(["[map]", "[branch]", "[other]", "[", "]", "[]", "# c", ""]),
        st.tuples(st.sampled_from(MAP_KEYS), st.one_of(NUMBER_LISTS, KINDS)).map(
            lambda kv: f"{kv[0]} = {kv[1]}"),
        st.text(max_size=20),
    ))


# a valid file for the mutations to start from: the doubling map
DOUBLING = ["[map]", "a = 1.0", "beta = 0.5", "kappa = 2.0", "domain = 0.0 0.5",
            "singular = 0.0 0.25", "[branch]", "dom = 0.0 0.25", "kind = affine",
            "coef = 0.0 2.0", "[branch]", "dom = 0.25 0.5", "kind = affine",
            "coef = -0.5 2.0"]


@st.composite
def mutated_map_files(draw):
    lines = list(DOUBLING)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert" or not lines or i == len(lines):
            lines.insert(i, draw(map_lines()))
        elif op == "replace":
            key = lines[i].split("=", 1)[0].strip()
            lines[i] = f"{key} = {draw(st.one_of(NUMBER_LISTS, KINDS))}"
        else:
            del lines[i]
    return "\n".join(lines)


MAP_TEXTS = st.one_of(st.text(max_size=200), mutated_map_files(),
                      st.lists(map_lines(), max_size=16).map("\n".join))


@FUZZ
@given(MAP_TEXTS)
def test_parse_map_file_parses_or_raises_a_usage_error(text):
    try:
        m = parse_map_file(text)
    except USAGE_ERRORS:
        return
    assert isinstance(m, MapModel)


CONFIG_KEYS = [f.name for f in fields(RunConfig)] + ["other", ""]


@st.composite
def config_lines(draw):
    return draw(st.one_of(
        st.tuples(st.sampled_from(CONFIG_KEYS), st.one_of(NUMBERS, st.text(max_size=10))).map(
            lambda kv: f"{kv[0]} = {kv[1]}"),
        st.sampled_from(["# comment", "", "=", "map"]),
        st.text(max_size=20),
    ))


CONFIG_TEXTS = st.one_of(st.text(max_size=200),
                         st.lists(config_lines(), max_size=8).map("\n".join))


@FUZZ
@given(CONFIG_TEXTS)
def test_parse_config_parses_or_raises_a_usage_error(text):
    try:
        cfg = parse_config(text)
    except USAGE_ERRORS:
        return
    assert isinstance(cfg, RunConfig)
