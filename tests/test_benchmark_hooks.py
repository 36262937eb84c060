"""Every name that the benchmark and the demos call in lionman exists, and takes their arguments.

`perfbench/*.py` and `demos/*.py` are read as source with `ast`, never
imported or run here.  A deletion of a name they call, such as
`spaces.space_to_config` or `RTreeSpace.diameter`, or of a parameter they
pass, would make every benchmark run or demo fail; these checks fail first.
"""

import ast
import glob
import inspect
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
CALL_SOURCES = sorted(os.path.relpath(p, ROOT)
                      for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py")) + DEMOS)
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


def unbound_calls(tree):
    """Each `lm.<name>(...)` call whose arguments do not bind to the target's signature.

    The call's own argument nodes stand in for the values: binding checks
    the number of positional arguments and the keyword names.  A call that
    unpacks *args or **kwargs binds only at run time and is left out.
    """
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and (c := chain(node.func)) and c[0] == "lm"):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(reduce(getattr, c[1:], lm)).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            out.append(f"line {node.lineno}: {'.'.join(c)}: {exc}")
    return out


def test_the_sources_are_there():
    assert DEMOS and all(os.path.isfile(os.path.join(ROOT, s)) for s in SOURCES)


@pytest.mark.parametrize("source", SOURCES)
def test_every_lm_chain_resolves(source):
    chains = {tuple(c[1:]) for node in ast.walk(parse(source))
              if isinstance(node, ast.Attribute) and (c := chain(node)) and c[0] == "lm"}
    assert chains
    assert sorted(".".join(c) for c in chains if not resolves(c)) == []


@pytest.mark.parametrize("source", CALL_SOURCES)
def test_every_lm_call_binds_to_its_signature(source):
    assert unbound_calls(parse(source)) == []


def test_a_call_with_a_removed_parameter_does_not_bind():
    # the step size D comes from the transcript, and neither analysis takes it
    tree = ast.parse("lm.curve_from_transcript(space, tr, k, D)\n"
                     "lm.analyze_transcript(space, tr, k, D=D)\n"
                     "lm.rtree_capture_audit(space, tr)\n"
                     "lm.classify_outcome(*args)\n")
    assert [u.split(":")[:2] for u in unbound_calls(tree)] == [
        ["line 1", " lm.curve_from_transcript"], ["line 2", " lm.analyze_transcript"]]


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
