"""Mutation tests of the automaton JSON reader: whatever a sample file is
turned into, loading it returns an automaton or raises TreeSeriesError."""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from treeseries.core import automaton_from_json, automaton_to_json
from treeseries.errors import TreeSeriesError

SAMPLES = sorted((Path(__file__).parent.parent / "samples").glob("*.json"))
PAYLOADS = [json.loads(path.read_text()) for path in SAMPLES]

# small numbers only: a mutated dimension or arity stays small
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.sampled_from([0.5, -1.0, 1e400, float("nan")])
    | st.sampled_from(["", "0", "1/0", "x0", "x9", "1/(x0)", "(x1+1)/(x0-1)", "a", "[1]"])
    | st.text(max_size=4)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "arity", "row", "col", "value", "entries"]),
                      inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _replace(node, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        out = dict(node)
    else:
        out = list(node)
    out[head] = _replace(node[head], rest, value)
    return out


def _delete(node, path):
    head, rest = path[0], path[1:]
    out = dict(node) if isinstance(node, dict) else list(node)
    if rest:
        out[head] = _delete(node[head], rest)
    else:
        del out[head]
    return out


@st.composite
def mutated_payloads(draw):
    payload = draw(st.sampled_from(PAYLOADS))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(payload))))
        if path and draw(st.booleans()):
            payload = _delete(payload, path)
        else:
            payload = _replace(payload, path, draw(_VALUES))
    return payload


def _load(text: str):
    try:
        a = automaton_from_json(text)
    except TreeSeriesError:
        return None
    return automaton_to_json(a)


def test_samples_are_present():
    assert len(PAYLOADS) >= 3


@settings(max_examples=300, deadline=None)
@given(mutated_payloads())
def test_mutated_payload_loads_or_raises_treeseries_error(payload):
    text = _load(json.dumps(payload))
    if text is not None:
        assert _load(text) == text


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SAMPLES), st.integers(0, 10**6), st.integers(0, 8),
       st.text(alphabet='{}[]:,"0123456789-x/ ', max_size=3))
def test_spliced_text_loads_or_raises_treeseries_error(path, at, cut, insert):
    text = path.read_text()
    at %= len(text)
    _load(text[:at] + insert + text[at + cut:])
