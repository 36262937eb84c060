"""Golden outputs of the float checkers and float walks through the CLI.

Each case runs `verify-curve`, `demo-l2`, `extract-ray`, or `simulate` and
`analyze` on a greedy game, and compares the exit codes and the sha256 of
stdout and of every written file with digests recorded before the pair
checks were rewritten.  The printed min_ratio, pair count and witness pairs
pin every float the checker reports, so any change to how pairs are listed,
ordered or reduced shows up here; the ray residuals and the games' beta
angles pin the disk's geodesic steps and distance tables.
"""

import hashlib
import json

import pytest

import lionman as lm
from lionman.cli import main


def tube_curve():
    return lm.hyperbolic_tube_curve()


def box_curve():
    return lm.l2_example_curve(6, 10.0)


def ray_curve():
    return lm.tree_ray_curve(lm.ray_tree())


def verify_curve(make_curve, *extra):
    def argvs(tmp):
        lm.save_curve(make_curve(), tmp / "curve.json")
        return [["verify-curve", "--curve", str(tmp / "curve.json"),
                 "--witness-csv", str(tmp / "witness.csv"), *extra]]
    return argvs


def extract_ray(tmp):
    lm.save_curve(tube_curve(), tmp / "curve.json")
    return [["extract-ray", "--curve", str(tmp / "curve.json"), "--lambda", "1.4142135",
             "--k-max", "8", "--out", str(tmp / "ray.csv")]]


def greedy_game(space, radius, man_start):
    """A greedy man in a ball around the lion at the origin, then analyze."""
    def argvs(tmp):
        cfg = tmp / "space.json"
        cfg.write_text(json.dumps({"space": space, "domain": {
            "kind": "ball", "center": [0, 0], "radius": radius}}))
        return [["simulate", "--space", str(cfg), "--man", "greedy", "--D", "0.5", "--N", "60",
                 "--seed", "5", "--lion", "[0,0]", "--man-start", man_start,
                 "--out", str(tmp / "run.json")],
                ["analyze", "--space", str(cfg), "--transcript", str(tmp / "run.json"),
                 "--k", "6", "--beta-csv", str(tmp / "beta.csv")]]
    return argvs


# name: (argument lists of the commands to run, their exit codes)
CASES = {
    "tube-global": (verify_curve(tube_curve, "--lambda", "1"), [4]),
    "tube-k3": (verify_curve(tube_curve, "--lambda", "1", "--k", "3"), [4]),
    "tube-pass": (verify_curve(tube_curve, "--lambda", "1.2", "--grid", "300"), [0]),
    "box-lambda1": (verify_curve(box_curve, "--lambda", "1", "--grid", "500"), [4]),
    "ray": (verify_curve(ray_curve, "--lambda", "1"), [0]),
    "demo-l2": (lambda tmp: [["demo-l2"]], [0]),
    "extract-ray-tube": (extract_ray, [0]),
    "plane-ball-greedy": (greedy_game({"kind": "euclidean", "dim": 2}, 6, "[3,1]"), [0, 0]),
    "disk-ball-greedy": (greedy_game({"kind": "hyperbolic"}, 4, "[0.7,0.3]"), [0, 4]),
}

GOLDEN = {
    "box-lambda1": {
        "stdout": "0090a67099de5fd0b218b21f070ef2c217f1d42b76d8a7880789bc7acd38003a",
        "witness.csv": "403d1943bb13562ae062c2b38980e855b5149f9cd9b79499fa179217789c032f",
    },
    "demo-l2": {
        "stdout": "52cc71a41961bf7fffa596721334a309a685572b6e718c10e71ec34843ea72e3",
    },
    "disk-ball-greedy": {
        "stdout": "77692b3bf089976a81e65e602d61d12fa498125c2116b31931fe12079df82ca8",
        "run.json": "e464064a9cf8fcedac90f65c840a5abd5c576f5f97ea865ec006096738434742",
        "beta.csv": "cc0ee9cf8e90d925ba488e183ee328868914a7e78eaab80f15717062cb05f937",
    },
    "extract-ray-tube": {
        "stdout": "2777598dbf6fa317a628110127b5159aac202d063c5d1dc10a32854fd33a1528",
        "ray.csv": "4eb75c16e4ec9df44448f238f7dcfd24056329896b7032f604a73f36de4a0b7e",
    },
    "plane-ball-greedy": {
        "stdout": "f7f29084604cecd17aa033dacbbcd74bedfe0f65921126f2ec13fa0cfff2bafa",
        "run.json": "651cca9de5fd6f0b4d3160771ad8480115f3885684d4f150a48ec532568c6eb2",
        "beta.csv": "64d1923b9a3b9b5a0ce5e8827fb2446ad4f290c20c5a358a35b4357490f11ba3",
    },
    "ray": {
        "stdout": "ac89f56579cbefdeb899063c93463077965cf50cda95166e02167286dc485611",
        "witness.csv": "0912df6f2f9a7658bf69c231ce4bb6695660d985ffec4675a377e73cb0df70f8",
    },
    "tube-global": {
        "stdout": "3493e6bb853bf56931611b956762524b0931acd48a8acb7522ea25d386dabf01",
        "witness.csv": "6fd17b0c6cd5555b55e5842a11c49358006395e162325f74eae2c877b8e0e778",
    },
    "tube-k3": {
        "stdout": "f8a4df6ca955f37ea219207d7e9ed6cc2fe4d4a6af599573ef915e72ebb14c5e",
        "witness.csv": "6fd17b0c6cd5555b55e5842a11c49358006395e162325f74eae2c877b8e0e778",
    },
    "tube-pass": {
        "stdout": "367e03a6ceb0b444cf40eb20d349ec1bd9abb2c5a34b83d0f91c93373887a90e",
        "witness.csv": "569c0facafe5fcdc40fee09a0ebae6a1bae01479681d1bdfcfe6b5473082bb86",
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_checker_cli_outputs_match_golden_digests(name, tmp_path, capsys):
    argvs, codes = CASES[name]
    assert [main(argv) for argv in argvs(tmp_path)] == codes
    digests = {f: sha(capsys.readouterr().out.encode()) if f == "stdout"
               else sha((tmp_path / f).read_bytes()) for f in GOLDEN[name]}
    assert digests == GOLDEN[name]
