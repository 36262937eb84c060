"""The file layer: one module reads and writes JSON and CSV, byte-stable."""

import ast
import pathlib
from fractions import Fraction

import pytest

import lionman as lm


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
