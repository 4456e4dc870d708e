"""automaton_to_json writes, byte for byte, what json.dumps writes for the
payload of dimension, alphabet and nonzero weight entries, and that text
reads back to the automaton it was written from."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings

from test_closure import CLOSURE_OPS, CLOSURE_SHA256, _sample_automaton
from test_compile import GOLD_SOURCES, _gold_rds
from test_random_automata import automata
from treeseries._format import format_size_rational
from treeseries.closure import gf_cauchy, gf_derive, gf_inverse, ts_add, ts_hadamard, ts_scale
from treeseries.compile import compile_rda
from treeseries.core import Automaton, RankedAlphabet, automaton_from_json, automaton_to_json

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.json"))


def json_dumps_oracle(a: Automaton) -> str:
    payload = {
        "dimension": a.dimension,
        "alphabet": [{"name": n, "arity": k} for n, k in a.alphabet.symbols],
        "weights": {},
    }
    for name, matrix in a.weights:
        text = str if matrix.arity == 0 else format_size_rational
        entries = []
        for states, row in matrix.rows.values():
            row_ix = [s + 1 for s in states]
            for j, entry in row:
                entries.append({"row": row_ix, "col": j + 1, "value": text(entry)})
        payload["weights"][name] = {"entries": entries}
    return json.dumps(payload, indent=2) + "\n"


def assert_written_as_json_dumps(a: Automaton):
    text = automaton_to_json(a)
    assert text == json_dumps_oracle(a)
    assert automaton_from_json(text) == a


@pytest.mark.parametrize("path", SAMPLES, ids=lambda path: path.name)
def test_samples(path):
    assert_written_as_json_dumps(automaton_from_json(path.read_text()))


@pytest.mark.parametrize("label, source", GOLD_SOURCES)
def test_gold_automata(label, source):
    assert_written_as_json_dumps(compile_rda(_gold_rds(label, source)))


@pytest.mark.parametrize("case", CLOSURE_SHA256)
def test_closure_outputs(case):
    op, *operands = case
    assert_written_as_json_dumps(CLOSURE_OPS[op](*map(_sample_automaton, operands)))


@settings(max_examples=40, deadline=None)
@given(automata(), automata())
def test_random_automata_and_their_closures(a1, a2):
    assert_written_as_json_dumps(a1)
    for result in (ts_add(a1, a2), ts_hadamard(a1, a2), ts_scale(a1, F(-3, 2)),
                   gf_cauchy(a1, a2), gf_derive(a1)):
        assert_written_as_json_dumps(result)
    if a1.weight("a")[0][0] != 0:
        assert_written_as_json_dumps(gf_inverse(a1))


# every character a symbol name may hold that json.dumps escapes or keeps:
# a Latin letter, an Arabic-Indic digit, an astral letter (written as a
# surrogate pair), and the three punctuation marks
NAMES = ["é", "x٣", "𝑓", "a'", "b-c", "_"]


def test_names_that_json_escapes():
    alphabet = RankedAlphabet.of(*[(n, k % 3) for k, n in enumerate(NAMES)])
    weights = {n: {} for n in NAMES}
    weights["é"] = [[1, 2]]
    weights["x٣"] = {(0, 1): "x1/(x0+1)"}
    weights["𝑓"] = {(3, 0): "-(x1+x2)/(x0)*(x1+2)"}
    a = Automaton.build(2, alphabet, weights)
    text = automaton_to_json(a)
    assert '"\\u00e9"' in text and '"x\\u0663"' in text and '"\\ud835\\udc53"' in text
    assert_written_as_json_dumps(a)


def test_negative_and_fractional_nullary_values():
    alphabet = RankedAlphabet.of(("a", 0), ("b", 0), ("f", 1))
    weights = {"a": [[F(-3, 2), 7, F(5, 3)]], "b": [[-1, 0, F(1, 10**30)]],
               "f": {(0, 2): "-1/2", (2, 0): "(2*x0-x1)/(x0+1)"}}
    assert_written_as_json_dumps(Automaton.build(3, alphabet, weights))


def test_a_symbol_with_no_entries():
    alphabet = RankedAlphabet.of(("a", 0), ("f", 2), ("u", 1))
    a = Automaton.build(2, alphabet, {"a": [[1, 0]], "f": {}, "u": {(1, 1): "x1"}})
    assert '"f": {\n      "entries": []\n    }' in automaton_to_json(a)
    assert_written_as_json_dumps(a)


def test_an_automaton_whose_weights_are_all_zero():
    alphabet = RankedAlphabet.of(("a", 0), ("f", 2))
    assert_written_as_json_dumps(
        Automaton.build(2, alphabet, {"a": [[0, 0]], "f": [["0", "0"]] * 4}))
