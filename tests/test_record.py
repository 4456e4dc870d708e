"""The frozen value classes built by ``core.record`` behave as
``@dataclass(frozen=True)`` classes do, and importing the package loads
neither ``dataclasses`` nor ``inspect``."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from treeseries._expr import Add, Mul, Var
from treeseries.core import FrozenInstanceError, Tree, parse_tree, record
from treeseries.decide import NonzeroAt, check_equiv_genfun


def _point_class(decorate):
    class Point:
        x: int
        y: int = 0
        label: str = "p"

    return decorate(Point)


def _node_class(decorate):
    class Node:
        root: str
        children: tuple = ()
        size: int = None

        def __post_init__(self):
            object.__setattr__(self, "size", 1 + sum(c.size for c in self.children))

    return decorate(Node)


def _empty_class(decorate):
    class Empty:
        pass

    return decorate(Empty)


_FROZEN_DATACLASS = dataclasses.dataclass(frozen=True)
TWINS = [
    (_point_class(record), _point_class(_FROZEN_DATACLASS)),
    (_node_class(record), _node_class(_FROZEN_DATACLASS)),
    (_empty_class(record), _empty_class(_FROZEN_DATACLASS)),
]


def _instances(cls):
    name = cls.__name__
    if name == "Point":
        return [cls(1), cls(1, 2), cls(x=1, y=2), cls(3, label="q"), cls(1, 2, "p")]
    if name == "Node":
        leaf = cls("a")
        return [leaf, cls("a"), cls("f", (leaf,)), cls(root="f", children=(leaf, leaf))]
    return [cls(), cls()]


def _observed(cls):
    objs = _instances(cls)
    return {
        "repr": [repr(o) for o in objs],
        "eq": [[a == b for b in objs] for a in objs],
        "ne": [[a != b for b in objs] for a in objs],
        "hash": [hash(o) for o in objs],
        "fields": [repr(vars(o)) for o in objs],
    }


@pytest.mark.parametrize("ours, theirs", TWINS, ids=lambda c: c.__name__)
def test_record_matches_frozen_dataclass(ours, theirs):
    assert _observed(ours) == _observed(theirs)


@pytest.mark.parametrize("ours, theirs", TWINS, ids=lambda c: c.__name__)
def test_record_is_frozen_like_a_dataclass(ours, theirs):
    for cls in (ours, theirs):
        obj = _instances(cls)[0]
        for name in (*vars(obj), "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 5)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert vars(obj) == vars(_instances(cls)[0])
    with pytest.raises(FrozenInstanceError):
        _instances(ours)[0].x = 1


BAD_CALLS = {
    "missing-required-field": ((), {}),
    "too-many-positional-arguments": ((1, 2, "p", 4), {}),
    "unknown-keyword": ((1,), {"z": 3}),
    "keyword-repeats-a-positional-argument": ((1,), {"x": 2}),
}


@pytest.mark.parametrize("args, kwargs", BAD_CALLS.values(), ids=list(BAD_CALLS))
def test_invalid_construction_raises_type_error_like_a_dataclass(args, kwargs):
    for cls in (*TWINS[0], *(TWINS[2] if args or kwargs else ())):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_record_runs_post_init_and_takes_defaults():
    assert _node_class(record)("f", (_node_class(record)("a"),)).size == 2
    tree = parse_tree("(sigma2 (sigma0) (sigma1 (sigma0)))")
    assert tree.size == 2
    assert Tree("sigma2", (Tree("sigma0"), Tree("sigma1", (Tree("sigma0"),)))) == tree
    assert Tree(root="sigma0").children == ()


def test_records_of_different_classes_are_unequal():
    x, y = Var("x"), Var("y")
    assert Add((x, y)) != Mul((x, y))
    assert Add((x, y)) == Add((Var("x"), Var("y")))
    assert hash(Add((x, y))) == hash(Add((Var("x"), Var("y"))))
    assert {Add((x, y)), Mul((x, y))} == {Mul((x, y)), Add((x, y))}


def test_verdict_and_tree_reprs_are_unchanged(bell):
    assert repr(check_equiv_genfun(bell, bell, 5)) == (
        "ZeroUpTo(n=5, bound=ZeroBound(dimension=6, max_arity=2, s=1, m=73,"
        " exponent=73*2^73))"
    )
    assert repr(NonzeroAt(3, F(-1, 2))) == "NonzeroAt(n=3, witness=Fraction(-1, 2))"
    assert repr(parse_tree("(sigma1 (sigma1 (sigma0)))")) == (
        "Tree.parse('(sigma1 (sigma1 (sigma0)))')"
    )


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done


# The package runs each layer lazily, on first use, so every probe first
# reads every public name, which runs every layer, and checks that it did.
_RUN_EVERY_LAYER = """
import sys, types, treeseries
for name in treeseries.__all__:
    getattr(treeseries, name)
for layer in ("exactmath", "core", "series", "closure", "_expr", "compile", "decide", "species"):
    assert type(sys.modules["treeseries." + layer]) is types.ModuleType, layer
"""
_LOADED = "print('dataclasses' in sys.modules, 'inspect' in sys.modules)"


def test_import_loads_neither_dataclasses_nor_inspect():
    assert _run("-c", _RUN_EVERY_LAYER + _LOADED).stdout == "False False\n"


def test_cli_start_loads_neither_dataclasses_nor_inspect():
    cli = """
import os, runpy
os._exit = sys.exit  # the command ends in os._exit, which would end the probe
try:
    runpy.run_module("treeseries", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
assert "treeseries.cli" in sys.modules
"""
    done = _run("-c", _RUN_EVERY_LAYER + cli + _LOADED, "--help")
    assert done.stdout.startswith("usage: treeseries")
    assert done.stdout.endswith("False False\n")


# importlib executes modules from code objects; a source string that the
# package passes to exec or eval is code generated at run time (the standard
# library's namedtuple, which `fractions` reaches through `decimal`, evals one)
_NO_SOURCE_STRINGS = """
import builtins, os, runpy, sys
strings = []

def guard(original):
    def guarded(code, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if isinstance(code, (str, bytes)) and caller.startswith("treeseries"):
            strings.append((original.__name__, caller))
        return original(code, *args, **kwargs)
    return guarded

builtins.exec, builtins.eval = guard(builtins.exec), guard(builtins.eval)
os._exit = sys.exit  # the command ends in os._exit, which would end the probe
try:
    runpy.run_module("treeseries", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(strings)
"""


def test_equiv_passes_no_source_string_to_exec_or_eval():
    bell = str(Path(_SRC).parent / "samples" / "bell.json")
    done = _run("-c", _NO_SOURCE_STRINGS, "equiv", "-a", bell, "-b", bell, "--cap", "5")
    verdict, strings = done.stdout.splitlines()
    assert verdict.startswith('{"verdict": "zero_up_to"')
    assert strings == "[]"
