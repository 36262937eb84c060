"""Every name that the benchmark and the demos call in lionman exists.

`perfbench/workloads.py`, `perfbench/tracer.py` and `demos/*.py` are read
as source with `ast`, never imported or run here.  A deletion of a name they
call, such as `spaces.space_to_config` or `RTreeSpace.diameter`, would make
every benchmark run or demo fail; these checks fail first.
"""

import ast
import glob
import io
import os
from functools import reduce

import numpy as np
import pytest

import lionman as lm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = glob.glob(os.path.join(ROOT, "demos", "*.py"))
SOURCES = ["perfbench/workloads.py", "perfbench/tracer.py",
           *sorted(os.path.relpath(p, ROOT) for p in DEMOS)]
# the other owners of methods that the sources call on local names
OTHER_TYPES = (list, dict, str, bytes, io.BufferedReader, io.TextIOWrapper,
               np.random.Generator, np.ndarray)


def parse(source):
    with open(os.path.join(ROOT, source)) as fh:
        return ast.parse(fh.read(), source)


def chain(node):
    """The dotted names of an attribute chain from a plain name, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def resolves(names):
    try:
        reduce(getattr, names, lm)
    except AttributeError:
        return False
    return True


def test_the_sources_are_there():
    assert DEMOS and all(os.path.isfile(os.path.join(ROOT, s)) for s in SOURCES)


@pytest.mark.parametrize("source", SOURCES)
def test_every_lm_chain_resolves(source):
    chains = {tuple(c[1:]) for node in ast.walk(parse(source))
              if isinstance(node, ast.Attribute) and (c := chain(node)) and c[0] == "lm"}
    assert chains
    assert sorted(".".join(c) for c in chains if not resolves(c)) == []


@pytest.mark.parametrize("source", SOURCES)
def test_methods_called_on_local_names_exist(source):
    # a method called on a local name (not a module, not self) that no
    # common container, file or numpy type has must be on a lionman class
    tree = parse(source)
    modules = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    calls = {node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id not in modules | {"self", "lm"}}
    classes = [c for c in vars(lm).values() if isinstance(c, type)]
    ours = {m for m in calls if not any(hasattr(t, m) for t in OTHER_TYPES)}
    assert sorted(m for m in ours if not any(hasattr(c, m) for c in classes)) == []


def test_tracer_tables_name_existing_entry_points():
    tables = {}
    for node in parse("perfbench/tracer.py").body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            tables[node.targets[0].id] = node.value
    functions = ast.literal_eval(tables["FUNCTIONS"])
    strategies = ast.literal_eval(tables["STRATEGIES"])
    assert functions and strategies
    assert [f"{m}.{f}" for m, f, _ in functions if not resolves([m, f])] == []
    assert [name for name in strategies if not resolves([name])] == []
