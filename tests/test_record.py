"""The frozen value classes built by ``_record.record`` behave as
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
from treeseries._record import FrozenInstanceError, record
from treeseries.core import Tree, parse_tree
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


def test_record_runs_post_init_and_takes_defaults():
    assert _node_class(record)("f", (_node_class(record)("a"),)).size == 2
    tree = parse_tree("(sigma2 (sigma0) (sigma1 (sigma0)))")
    assert tree.size == 2
    assert Tree("sigma2", (Tree("sigma0"), Tree("sigma1", (Tree("sigma0"),)))) == tree
    assert Tree(root="sigma0").children == ()


def test_records_of_different_classes_are_unequal():
    x, y = Var("x"), Var("y")
    assert Add(x, y) != Mul(x, y)
    assert Add(x, y) == Add(Var("x"), Var("y"))
    assert hash(Add(x, y)) == hash(Add(Var("x"), Var("y")))
    assert {Add(x, y), Mul(x, y)} == {Mul(x, y), Add(x, y)}


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


def test_import_loads_neither_dataclasses_nor_inspect():
    probe = "import treeseries, sys; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    assert _run("-c", probe).stdout == "False False\n"


def test_cli_start_loads_neither_dataclasses_nor_inspect():
    # -X importtime lists every module the run imports, one per stderr line
    done = _run("-X", "importtime", "-m", "treeseries", "--help")
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "treeseries.cli" in imported
    assert not imported & {"dataclasses", "inspect"}
