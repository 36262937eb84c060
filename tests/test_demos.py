"""Golden stdout of the five demos.

Each demo runs in a fresh interpreter against the package under test, and
the sha256 of what it prints is compared with the digest recorded when the
demos last changed their output on purpose.  The demos print reports of
every layer (spaces, triangles, curves, promotion, games), so a change that
moves any printed number shows up here.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import lionman as lm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lm.__file__)))

DIGESTS = {
    "01_spaces_tour.py": "74dc1bacfac895c134e9368742c4e6402d077b704e5f904a250ae6a71fe918d4",
    "02_hyperbolicity_diagnostics.py":
        "779f9cb84640b40c23388cc8c423a563fe7210341461218e7fa005208758bef0",
    "03_box_quasi_geodesic.py": "2596981c65ff14cc78e0ea0019ad2e1aaddf79ac569d55de21c3abec815188f2",
    "04_promotion_and_ray_extraction.py":
        "4ec5b8c88ad80ff8ffadc3f5c581454fb83cc087d09d7affad1893bcf44d75eb",
    "05_lion_man_game.py": "cf2790db8be61e7798aa268ea0697d6b69c341e38d1833fd0fcfe737382c58c1",
}


def test_every_demo_is_pinned():
    assert sorted(DIGESTS) == sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
                                     if f.endswith(".py"))


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_prints_its_golden_output(demo):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo]
