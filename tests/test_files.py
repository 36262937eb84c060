"""The file layer: one module reads and writes JSON and CSV, byte-stable."""

import ast
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lionman as lm
from lionman import files


PACKAGE = pathlib.Path(lm.__file__).parent


def imported_modules(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_the_file_layer_imports_json_or_csv():
    offenders = {(path.name, name) for path in PACKAGE.glob("*.py")
                 if path.name != "files.py"
                 for name in imported_modules(path) if name in ("json", "csv")}
    assert offenders == set()
    assert {"json", "csv"} <= set(imported_modules(PACKAGE / "files.py"))


def family_game(kind):
    """A short greedy game in each space family, with that family's number type."""
    if kind == "rtree":
        space, lion, man, D = lm.tripod(), lm.vertex_point("a"), lm.vertex_point("b"), Fraction(1, 3)
    elif kind == "hyperbolic":
        space, lion, man, D = lm.HyperbolicPlane(), lm.hpoint(0, 0), lm.hpoint(0.6, 0.2), 0.5
    elif kind == "l2box":
        space = lm.L2BoxSpace(n=6, base=10.0)
        lion, man, D = space.origin(), lm.PointSampler(space, scale=1.0, seed=3).draw(), 0.1
    else:
        space, lion, man, D = lm.EuclideanSpace(2), lm.epoint(0, 0), lm.epoint(3, 1), 1.0
    cfg = lm.GameConfig(space=space, domain=lm.WholeSpace(), D=D, n_steps=15, tol=1e-9,
                        lion_start=lion, man_start=man, seed=4)
    return lm.run_game(cfg, lm.GreedyStrategy(lm.WholeSpace()))


@pytest.mark.parametrize("kind", ["euclidean", "l2box", "hyperbolic", "rtree"])
def test_transcript_save_load_save_is_byte_identical(kind, tmp_path):
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    lm.save_transcript(family_game(kind), first)
    lm.save_transcript(lm.load_transcript(first), again)
    assert first.read_bytes() == again.read_bytes()
    assert first.read_bytes().endswith(b"}\n")


@pytest.mark.parametrize("make", [
    lambda: lm.l2_example_curve(6, 10.0),
    lambda: lm.hyperbolic_tube_curve(length=8.0),
    lambda: lm.tree_ray_curve(lm.ray_tree()),
    lambda: lm.geodesic_segment_curve(lm.tripod(), lm.vertex_point("a"),
                                      lm.vertex_point("b"), n_samples=5),
    lambda: lm.geodesic_segment_curve(lm.HyperbolicPlane(), lm.hpoint(0, 0),
                                      lm.hpoint(0.5, 0.1), n_samples=5),
], ids=["l2-example", "hyperbolic-tube", "tree-ray", "tree-samples", "disk-samples"])
def test_curve_save_load_save_is_byte_identical(make, tmp_path):
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    lm.save_curve(make(), first)
    lm.save_curve(lm.load_curve(first), again)
    assert first.read_bytes() == again.read_bytes()


# -- the JSON writer and the exact-number reader


SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**80, max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False).map(np.float64),
    st.text(max_size=8),
)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), inner, max_size=4)), max_leaves=24)
EDGES = {"empty": [{}, [], ()], "nested": {"a": {"b": [[], {}, ({"c": ()},)]}, "": 0},
         "text": ["café ☃ \U0001f981", "tab\t\"quote\" \\ \x00\x1f  "],
         "ints": [2**63, -2**63 - 1, 2**100, 0, -1],
         "floats": [-0.0, 1e-300, 5e-324, 1e300, math.nan, math.inf, -math.inf, 0.1],
         "numpy": [np.float64(2.5), np.float64(-0.0), np.float64(math.nan)],
         "bools": [True, False, None, {"t": True, "f": False}]}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(data=EDGES)
@example(data="top-level text")
@example(data=-0.0)
@given(data=VALUES)
def test_write_json_writes_the_bytes_of_json_dumps(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("json") / "out.json"
    files.write_json(path, data)
    assert path.read_bytes() == (json.dumps(data, indent=1, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("data", [{"a": object()}, [1, {2, 3}], {(1, 2): 0}, {1: 0, "a": 1}])
def test_write_json_rejects_what_json_rejects(data, tmp_path):
    with pytest.raises(TypeError):
        json.dumps(data, indent=1, sort_keys=True)
    with pytest.raises(TypeError):
        files.write_json(tmp_path / "out.json", data)


@pytest.mark.parametrize("text", ["3/4", "-3/4", "6/8", "0/5", "-0", "7", "-12",
                                  "123456789012345678901234567890/7", "1.5", "-2e3", " 3/4 ",
                                  "+3/4", "3_000/7", "٣/4"])
def test_read_fraction_is_fraction_of_the_text(text):
    got = files.read_fraction(text)
    assert type(got) is Fraction
    assert got == Fraction(text)


@pytest.mark.parametrize("text", ["3/", "/4", "3/-4", "-", "", "a/b", "1 / 2", "3/0", "0/0",
                                  "1/2/3", "nan", "²/3"])
def test_read_fraction_fails_as_fraction_does(text):
    with pytest.raises(Exception) as want:
        Fraction(text)
    with pytest.raises(want.type):
        files.read_fraction(text)
