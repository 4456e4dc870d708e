"""Mutants that the test suite must catch: each breaks the engine, the
common-denominator normal form, a closure operation, the species parser,
well-foundedness check and lowering, the exact ring, the value classes, or
the command's start-up or exit in a way that an oracle of the suite, not the
code under test, has to notice.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant is a module of the package, an anchor (source text that occurs
exactly once in it), the text that replaces the anchor, the test files to
run, and the least number of their tests that must fail: a little under the
number that failed when the mutant was added, as the Hypothesis tests draw
new examples on every run.  For each mutant, src/, tests/ and samples/ are
copied into a temporary directory, the anchor is replaced there, and the
test files run with that copy first on PYTHONPATH; the mutant is caught
when at least that many tests fail.  The exit code is 0 when every mutant
run is caught.  Tier-1 does not collect this file; `tests/test_mutants.py`
checks that every anchor occurs exactly once, so that a change that moves
mutated code must update its mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

ENGINE_TESTS = ("tests/test_series.py", "tests/test_random_automata.py")


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/treeseries
    anchor: str
    replacement: str
    tests: tuple
    least_failed: int


# cli.build_parser down to its docstring
_BUILD_PARSER = '''def build_parser(argv=None):
    """The parser of every subcommand, or, given ``argv``, one on which every
    subcommand has its name and help but only the one ``argv`` names (its
    first argument not starting with ``-``) has its arguments: the only
    subparser that parsing ``argv`` can reach."""
'''

MUTANTS = (
    # each term of (m - n_1 - ... - n_(k-1))^e keeps only its sign, which
    # changes the expansion only for e >= 2
    Mutant("binomial-dropped", "series.py",
           "polys.setdefault(col, [0] * (top + 1))[j] += b * c",
           "polys.setdefault(col, [0] * (top + 1))[j] += ((b > 0) - (b < 0)) * c",
           ENGINE_TESTS, 20),
    # 1 added to every cell coefficient of degree 2 or more in m, from m = 8
    Mutant("m-polynomial-off-by-one", "series.py",
           "                    c = _at(c, m)\n",
           "                    c = _at(c, m) + (len(c) > 2 and m >= 8)\n",
           ENGINE_TESTS, 15),
    # the cells that share a left factor and a column lose the last member
    # of their combined sequence
    Mutant("combined-sequence-member-dropped", "series.py",
           "cells.setdefault(left + (tuple(members),), []).append((col, 1))",
           "cells.setdefault(left + (tuple(members[:-1]),), []).append((col, 1))",
           ENGINE_TESTS, 28),
    # set(A, card>=k) for k >= 2 without the A^(k-2)/(k-2)! term of u'
    Mutant("card-ge-term-dropped", "species.py",
           "grow = Var(u) if k <= 1 else Add((Var(u), _power(w, k - 2, e.card)))",
           "grow = Var(u)",
           ("tests/test_species.py",), 45),
    # u = set(A, card>=k-1) starts at 1 for every k, not at 0 for k >= 2
    Mutant("card-ge-start-at-one", "species.py",
           "init[u] = Fraction(1 if k <= 1 else 0)",
           "init[u] = Fraction(1)",
           ("tests/test_species.py",), 55),
    # the translation keeps the atom as Var("X") instead of the EGF variable x
    Mutant("atom-not-mapped", "species.py",
           'return Var("x")  # the atom\'s EGF',
           "return e",
           ("tests/test_species.py",), 110),
    # a species may be named x, which the normalization reads as the EGF variable
    Mutant("x-definable", "species.py",
           '_RESERVED = _CONSTRUCTS | {"X", "x"}',
           '_RESERVED = _CONSTRUCTS | {"X"}',
           ("tests/test_species.py",), 1),
    # the normal form rewrites x0 as x1 + ... + xk: the 1 of
    # x0 -> 1 + x1 + ... + xk is dropped from every power it builds
    Mutant("x0-one-dropped", "exactmath.py",
           "                step[key] = step.get(key, 0) + value\n",
           "",
           ENGINE_TESTS + ("tests/test_exactmath.py",), 65),
    # records of different classes with equal fields compare equal
    Mutant("record-eq-across-classes", "core.py",
           "        if other.__class__ is self.__class__:\n",
           '        if hasattr(other, "__record_fields__"):\n',
           ("tests/test_record.py",), 1),
    # the constructor normalizes constant denominators only and keeps a
    # non-monic one of degree 1 or more
    Mutant("non-monic-denominator-kept", "exactmath.py",
           "            if lead != 1:  # a monic q is kept as it is\n",
           "            if lead != 1 and not q.degree:  # a monic q is kept as it is\n",
           ("tests/test_exactmath.py",), 14),
    # the command ends in os._exit without flushing stdout and stderr, so
    # output still buffered at the exit is lost
    Mutant("exit-without-flush", "cli.py",
           "        sys.stdout.flush()\n        sys.stderr.flush()\n",
           "        pass\n",
           ("tests/test_cli.py",), 3),
    # core reads FinalVector and absorb_final_vector from _shift, which imports
    # them from closure: the same objects, but reading one runs _shift
    Mutant("forward-to-wrong-home", "__init__.py",
           '("core", "closure"): "FinalVector absorb_final_vector"',
           '("core", "_shift"): "FinalVector absorb_final_vector"',
           ("tests/test_lazy_layers.py",), 1),
    # cli imports argparse at module level instead of inside build_parser, so
    # every command loads it, a plain command line too
    Mutant("argparse-at-module-level", "cli.py",
           _BUILD_PARSER + "    import argparse\n", "import argparse\n\n\n" + _BUILD_PARSER,
           ("tests/test_lazy_layers.py",), 2),
    # gf_inverse reads a_0 from component 1 of the initial vector, not 0
    Mutant("inverse-reads-wrong-component", "_shift.py",
           "a0 = core.initial_vector(a)[0]", "a0 = core.initial_vector(a)[1]",
           ("tests/test_closure.py", "tests/test_edges.py"), 3),
    # the well-foundedness check keeps only the Jacobian's diagonal, so it
    # misses every cycle through two names or more, such as A = X + B, B = A
    Mutant("well-foundedness-diagonal-only", "species.py",
           "left = {name: _linear_refs(expr, values, inhabited) for name, expr in spec.equations}",
           "left = {name: _linear_refs(expr, values, inhabited) & {name}"
           " for name, expr in spec.equations}",
           ("tests/test_species.py", "tests/test_cli.py"), 1),
    # the engine reads Q0(n) + 1 for the normal form's Q0(n) from size 7 on:
    # the brute-force verdict tests, which stop at size 6, cannot see it, and
    # a pair whose two sides share their structure cancels it; the witness
    # of a pair that first differs at size 7 shows it
    Mutant("normal-form-off-from-size-7", "series.py",
           "q = _at(q0_poly, m + 1) * self._cell_den",
           "q = (_at(q0_poly, m + 1) + (m >= 6)) * self._cell_den",
           ("tests/test_decide_oracle.py",), 1),
)


def _copy(tmp: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests", "samples"):
        shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):  # test_cli_parser reads the README's tour
        shutil.copy(ROOT / name, tmp / name)


def run(mutant: Mutant) -> tuple:
    """(caught, failed tests, seconds) for one mutant."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="treeseries-mutant-") as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        path = tmp / "src" / "treeseries" / mutant.module
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.anchor) != 1:
            raise SystemExit(f"{mutant.name}: the anchor does not occur exactly once "
                             f"in {mutant.module}")
        path.write_text(text.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else done.stderr
    found = re.search(r"(\d+) failed", summary)
    failed = int(found.group(1)) if found else 0
    return failed >= mutant.least_failed, failed, time.perf_counter() - start


def main(names) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(known)}",
              file=sys.stderr)
        return 2
    survived = 0
    for mutant in [known[n] for n in names] or MUTANTS:
        caught, failed, seconds = run(mutant)
        survived += not caught
        verdict = "caught" if caught else "SURVIVED"
        print(f"{mutant.name}: {verdict} ({failed} failed, at least {mutant.least_failed} "
              f"needed; {seconds:.0f} s)", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
