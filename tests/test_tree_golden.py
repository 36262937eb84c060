"""Golden outputs of tree games: CLI files must stay byte-identical.

Each case runs `simulate` and then `analyze` on a tree through the CLI and
compares the sha256 of the transcript, the audit CSV, the beta CSV and the
report with digests recorded before the tree's internal point form was
rewritten.  The report carries float results of the man's-win certificate
(min_ratio), so it also pins how float walks and distances round.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm
from lionman.cli import main


def caterpillar():
    """A spine with one leg per inner vertex: edges listed in both
    orientations, non-dyadic lengths 1/3 and 5/7, and the ray on leaf a."""
    third, five7 = Fraction(1, 3), Fraction(5, 7)
    return lm.RTreeSpace(
        ["s0", "s1", "s2", "s3", "a", "b", "c"],
        [("s0", "s1", third), ("s2", "s1", five7), ("s2", "s3", third),
         ("a", "s1", five7), ("s2", "b", third), ("c", "s3", five7)],
        ray_at="a")


def seeded_tree():
    return lm.random_tree(np.random.default_rng(2024), n_vertices=40)


# name: (space, D, man, lion, man start or None for the ray start, N, k, seed)
CASES = {
    "ray-directional-1/2": (lm.ray_tree, "1/2", "directional", "q", None, 40, "6", 5),
    "ray-directional-2/3": (lm.ray_tree, "2/3", "directional", "q", None, 40, "6", 5),
    # the greedy man's best move is the ray target, outward along the ray
    "ray-greedy-1/2": (lm.ray_tree, "1/2", "greedy", "q", "r", 40, "6", 5),
    "tree40-greedy-1/4": (seeded_tree, "1/4", "greedy", "v0", "v39", 120, "3", 5),
    # random steps of D r / 16 with D = 1/3 on lengths of denominator 2
    "tree40-random-1/3": (seeded_tree, "1/3", "random", "v0", "v39", 200, "3", 7),
    # the lion walks down from the root toward a man out of reach in 8 steps
    "tree40-descent-2/3": (seeded_tree, "2/3", "stationary", "v0", "v17", 8, "1", 5),
    "caterpillar-directional-1/3": (caterpillar, "1/3", "directional", "c", None, 40, "4", 5),
    "caterpillar-greedy-2/3": (caterpillar, "2/3", "greedy", "c", "s0", 60, "4", 5),
}

GOLDEN = {
    "caterpillar-directional-1/3": {
        "run.json": "3c9c5fdf34c3d5f5a63f3bbfaa5c45a9a669aa4aa0e2d4eaf93bc8ee1d3d3105",
        "audit.csv": "05e95d75afa94f491d20d77ec45eade39874297482ac005b1a700c3c5e8ad1f5",
        "beta.csv": "8c92257d662a1f24f4c0766ca06f4a7e59bb9bdf5f34721879446152ab65039b",
        "report.json": "5024ce79147b9a4ff2265edd5a2bed1567d7ed5edd6617d6bdf0b7477a29ff8f",
    },
    "caterpillar-greedy-2/3": {
        "run.json": "ddaf9c7e72085a330339c90139aa5cc9381532565647b9c27385320d856a111d",
        "audit.csv": "2c6a9f9e8b50cfd9c0e96613d7e6746422bc4eb6cafd6c66fe6218aa504368bc",
        "beta.csv": "5e2e4c86abeb96db1fbf2f08040b0dcef9ebf822f8bc409e4c41a77e268a7047",
        "report.json": "f48e7622d819d013ce35d51f15b4fbea9c36e42807f2a6c81320381099548bf9",
    },
    "ray-directional-1/2": {
        "run.json": "8edc48dd151976e01078afecf7cab2818b2c0c192b825a076ecccccc3651d648",
        "audit.csv": "05e95d75afa94f491d20d77ec45eade39874297482ac005b1a700c3c5e8ad1f5",
        "beta.csv": "8c92257d662a1f24f4c0766ca06f4a7e59bb9bdf5f34721879446152ab65039b",
        "report.json": "39e00ab83bcaca1e094b3fce0a67447426c176dad506567251dbe52ce83f26e3",
    },
    "ray-greedy-1/2": {
        "run.json": "b82e840e177bdec1de0d5afa58b8b061fcddb8c694237313fe601e76965d2be0",
        "audit.csv": "05e95d75afa94f491d20d77ec45eade39874297482ac005b1a700c3c5e8ad1f5",
        "beta.csv": "8c92257d662a1f24f4c0766ca06f4a7e59bb9bdf5f34721879446152ab65039b",
        "report.json": "39e00ab83bcaca1e094b3fce0a67447426c176dad506567251dbe52ce83f26e3",
    },
    "ray-directional-2/3": {
        "run.json": "e2b5455b8b6d5d0e3570ff6a24c66085f2fbeb7ed078563ec5a5a00619593dda",
        "audit.csv": "05e95d75afa94f491d20d77ec45eade39874297482ac005b1a700c3c5e8ad1f5",
        "beta.csv": "8c92257d662a1f24f4c0766ca06f4a7e59bb9bdf5f34721879446152ab65039b",
        "report.json": "f32722c91d8cf1b1f8087e14ff662b7c39f961edaabf4c85f889a28636781319",
    },
    "tree40-descent-2/3": {
        "run.json": "de32afc7fbc0324ea1177b65dad44d1174cd0df8c9f9b12b8c98b5552edfeb23",
        "audit.csv": "3b68835799ec1583d27ce3f4eb8b12e6b4833d2a60e510c9145056ec9a318e30",
        "beta.csv": "e7f87f0009deceee9d20d380e8df2d75582e07f01a16bbc9947edcc1beb4824f",
        "report.json": "8add946b692dfc1dc3e549e7b7a19f0f9b9f8515ef828d29f8f19c8fc237c92e",
    },
    "tree40-random-1/3": {
        "run.json": "1708c863cc651b80a2955aef7e8bbb760e46a6ed64b386155eaf6838cf2adcea",
        "audit.csv": "2c74f2df08e4d504a2030f55893e479e1e09166c4c533a205eeb59dcf18b57dd",
        "beta.csv": "5d864bde53a1c71ba751e83737d3610128cadcae6d31fb916eb4fd6604bca583",
        "report.json": "790df5eccc329f3d6f8ca3a8e3470a5bdd6f1dd9fff33c9b986f06aa2652fe86",
    },
    "tree40-greedy-1/4": {
        "run.json": "6811f20c562bf7339b5b10ed7e53480708e424dd47eac72b0e169fb78fbac36b",
        "audit.csv": "a146cc84210e711527a8aeb7c9160bd900257f69345a42be277d59bcda10d20c",
        "beta.csv": "e057928912b022fa0a1021146aa47b1af9928e5c1a69136d722c94992bb81a54",
        "report.json": "a638ef2f6fa42be4ee102c2d204aa26d826f70212cda1c1ad51f997ce999b758",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tree_cli_outputs_match_golden_digests(name, tmp_path, capsys):
    make_space, D, man, lion, man_start, N, k, seed = CASES[name]
    space = make_space()
    cfg = tmp_path / "space.json"
    cfg.write_text(json.dumps({"space": space.to_config()}))
    argv = ["simulate", "--space", str(cfg), "--man", man, "--D", D, "--N", str(N),
            "--seed", str(seed), "--lion", json.dumps({"vertex": lion}),
            "--out", str(tmp_path / "run.json")]
    if man_start is None:
        lm.save_curve(lm.tree_ray_curve(space), tmp_path / "ray.json")
        argv += ["--curve", str(tmp_path / "ray.json")]
    else:
        argv += ["--man-start", json.dumps({"vertex": man_start})]
    assert main(argv) == 0
    main(["analyze", "--space", str(cfg), "--transcript", str(tmp_path / "run.json"),
          "--k", k, "--out", str(tmp_path / "report.json"),
          "--beta-csv", str(tmp_path / "beta.csv"), "--audit-csv", str(tmp_path / "audit.csv")])
    capsys.readouterr()
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in GOLDEN[name]}
    assert digests == GOLDEN[name]
