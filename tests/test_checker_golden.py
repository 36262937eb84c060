"""Golden outputs of the float quasi-geodesic checker through the CLI.

Each case runs `verify-curve` (or `demo-l2`) and compares the exit code and
the sha256 of stdout and of the witness CSV with digests recorded before the
pair checks were rewritten.  The printed min_ratio, pair count and witness
pairs pin every float the checker reports, so any change to how pairs are
listed, ordered or reduced shows up here.
"""

import hashlib

import pytest

import lionman as lm
from lionman.cli import main


def tube_curve():
    return lm.hyperbolic_tube_curve()


def box_curve():
    return lm.l2_example_curve(6, 10.0)


def ray_curve():
    return lm.tree_ray_curve(lm.ray_tree())


# name: (curve maker or None for demo-l2, extra verify-curve arguments, exit code)
CASES = {
    "tube-global": (tube_curve, ["--lambda", "1"], 4),
    "tube-k3": (tube_curve, ["--lambda", "1", "--k", "3"], 4),
    "tube-pass": (tube_curve, ["--lambda", "1.2", "--grid", "300"], 0),
    "box-lambda1": (box_curve, ["--lambda", "1", "--grid", "500"], 4),
    "ray": (ray_curve, ["--lambda", "1"], 0),
    "demo-l2": (None, [], 0),
}

GOLDEN = {
    "box-lambda1": {
        "stdout": "0090a67099de5fd0b218b21f070ef2c217f1d42b76d8a7880789bc7acd38003a",
        "witness.csv": "403d1943bb13562ae062c2b38980e855b5149f9cd9b79499fa179217789c032f",
    },
    "demo-l2": {
        "stdout": "52cc71a41961bf7fffa596721334a309a685572b6e718c10e71ec34843ea72e3",
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
    make_curve, extra, code = CASES[name]
    if make_curve is None:
        argv = ["demo-l2"]
    else:
        lm.save_curve(make_curve(), tmp_path / "curve.json")
        argv = ["verify-curve", "--curve", str(tmp_path / "curve.json"),
                "--witness-csv", str(tmp_path / "witness.csv")] + extra
    assert main(argv) == code
    digests = {"stdout": sha(capsys.readouterr().out.encode())}
    if make_curve is not None:
        digests["witness.csv"] = sha((tmp_path / "witness.csv").read_bytes())
    assert digests == GOLDEN[name]
