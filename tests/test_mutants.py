"""The mutants of `tests/mutants.py` still apply: each anchor occurs exactly
once in its module, so a change that moves mutated code updates its mutant."""

from pathlib import Path

from mutants import MUTANTS

_ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_anchor_occurs_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) == 16
    for mutant in MUTANTS:
        source = (_ROOT / "src" / "treeseries" / mutant.module).read_text(encoding="utf-8")
        assert source.count(mutant.anchor) == 1, mutant.name
        assert mutant.anchor != mutant.replacement, mutant.name
        assert all((_ROOT / path).is_file() for path in mutant.tests), mutant.name
