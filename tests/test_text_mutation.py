"""Mutation tests of the text front ends and the command line.

Sample sources (``samples/*.rds``, ``*.da``, ``*.dfinite``, ``*.spec``), a
size-rational string and a tree string are mutated by character inserts,
deletes and splices, then parsed, compiled and run through
``taylor_oracle``/``count_species``: only ``TreeSeriesError`` or
``ValueError`` may escape.  The same holds when a piece of a sample is
wrapped hundreds of levels deep in one of the front end's nesting forms,
and when a long flat sum is put into a sample, which moreover must never be
reported as nested too deeply.
Mutated command lines run in process through
``cli.main``, which must return or exit with 0, 2, 3 or 4 and never raise.

Numbers stay small (every digit run is at most ``_MAX_NUMBER``) so that a
mutation cannot turn a sample into an expensive but valid input.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeseries.cli import main
from treeseries.compile import (
    compile_cda,
    compile_dfinite,
    compile_rda,
    da_to_rds,
    parse_da,
    parse_dfinite,
    parse_rds,
    taylor_oracle,
)
from treeseries.core import check_tree, evaluate, parse_tree
from treeseries.errors import TreeSeriesError
from treeseries.exactmath import parse_size_rational
from treeseries.species import count_species, parse_species, species_to_rds
from zoo import bell_automaton

SAMPLES = Path(__file__).parent.parent / "samples"
_MAX_NUMBER = 4
_CHARS = "0123 xyXAF'()+-*/^=,;<>#\n"


def _texts(pattern):
    return [path.read_text() for path in sorted(SAMPLES.glob(pattern))]


def _run_rds(text):
    system = parse_rds(text)
    taylor_oracle(system, 5)
    compile_rda(system)


def _run_cda(text):
    compile_cda(parse_rds(text))


def _run_da(text):
    compile_rda(da_to_rds(parse_da(text)))


def _run_dfinite(text):
    compile_dfinite(parse_dfinite(text))


def _run_species(text):
    spec = parse_species(text)
    count_species(spec, n_max=5)
    compile_rda(species_to_rds(spec))


def _run_size_rational(text):
    parse_size_rational(text, 2)


_BELL = bell_automaton()


def _run_tree(text):
    tree = parse_tree(text)
    check_tree(_BELL.alphabet, tree)
    evaluate(_BELL, tree)


FRONT_ENDS = {
    "rds": (_run_rds, _texts("*.rds")),
    "cda": (_run_cda, _texts("bell.rds")),  # polynomial right-hand sides
    "da": (_run_da, _texts("*.da")),
    "dfinite": (_run_dfinite, _texts("*.dfinite")),
    "spec": (_run_species, _texts("*.spec")),
    "size_rational": (_run_size_rational, ["(x1+1)*(x2-1/2)/(x0+1)*(x1+2)*(x2^2+3)", "-3*x0^2/(x0)"]),
    "tree": (_run_tree, ["(sigma2 (sigma1 (sigma0)) (sigma2 (sigma0) (sigma0)))"]),
}


_EXPRESSION_NESTING = [("(", ")"), ("(1+", ")"), ("-(", ")"), ("(2*", ")"), ("(1/(1+", "))")]
# per front end, forms that open and close one level of nesting
NESTING = {
    "rds": _EXPRESSION_NESTING,
    "cda": _EXPRESSION_NESTING,
    "da": _EXPRESSION_NESTING,
    "dfinite": _EXPRESSION_NESTING,
    "spec": [("set(", ")"), ("cycle(", ")"), ("(X+", ")"), ("(X*", ")")],
    "size_rational": [("(", ")"), ("(1+", ")"), ("(x1*", ")")],
    "tree": [("(sigma1 ", ")"), ("(sigma2 (sigma0) ", ")")],
}


# per front end, the piece that a long flat sum (for trees, a long list of
# children) repeats
FLAT = {
    "rds": "1+",
    "cda": "1+",
    "da": "1+",
    "dfinite": "a(n)+",
    "spec": "X+",
    "size_rational": "x1+",
    "tree": "(sigma0) ",
}


def _small_numbers(text):
    return all(int(run) <= _MAX_NUMBER for run in re.findall(r"\d+", text))


@st.composite
def mutated(draw, texts):
    """A text with 1-3 edits; each replaces up to 3 characters at one place by
    up to 3 new characters or by a short piece of one of ``texts``."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        if draw(st.booleans()):
            insert = draw(st.text(alphabet=_CHARS, max_size=3))
        else:
            donor = draw(st.sampled_from(texts))
            start = draw(st.integers(0, len(donor)))
            insert = donor[start:start + draw(st.integers(1, 12))]
        text = text[:at] + insert + text[at + cut:]
    assume(_small_numbers(text))
    return text


@st.composite
def nested(draw, texts, forms):
    """A text with the piece between two places wrapped 50-1500 levels deep
    in one nesting form; the first place is where a term can start, so that
    the parser descends into the nesting."""
    text = draw(st.sampled_from(texts))
    at = draw(st.sampled_from(_term_starts(text)))
    end = draw(st.integers(at, len(text)))
    opener, closer = draw(st.sampled_from(forms))
    depth = draw(st.integers(50, 1500))
    return text[:at] + opener * depth + text[at:end] + closer * depth + text[end:]


@st.composite
def flat(draw, texts, piece):
    """A text with ``piece`` repeated 1000-3000 times put before a term, so
    that the repeats lengthen a sum of the text."""
    text = draw(st.sampled_from(texts))
    at = draw(st.sampled_from([i for i in _term_starts(text) if text[i].isalnum() or text[i] == "("]))
    return text[:at] + piece * draw(st.integers(1000, 3000)) + text[at:]


def _term_starts(text):
    return [i for i in range(len(text)) if i == 0 or text[i - 1] in "=(+* "]


def test_every_front_end_has_samples():
    assert set(NESTING) == set(FLAT) == set(FRONT_ENDS)
    for name, (_, texts) in FRONT_ENDS.items():
        assert texts, name
        for text in texts:
            assert _small_numbers(text), text


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
def test_unmutated_samples_run(name):
    run, texts = FRONT_ENDS[name]
    for text in texts:
        run(text)


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
def test_mutated_text_runs_or_raises_treeseries_or_value_error(name):
    run, texts = FRONT_ENDS[name]

    @settings(max_examples=150, deadline=None)
    @given(mutated(texts))
    def check(text):
        try:
            run(text)
        except (TreeSeriesError, ValueError):
            pass

    check()


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
def test_deeply_nested_text_runs_or_raises_treeseries_or_value_error(name):
    run, texts = FRONT_ENDS[name]

    @settings(max_examples=50, deadline=None)
    @given(nested(texts, NESTING[name]))
    def check(text):
        try:
            run(text)
        except (TreeSeriesError, ValueError):
            pass

    check()


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
def test_long_flat_text_runs_and_is_not_reported_as_nested(name):
    run, texts = FRONT_ENDS[name]

    @settings(max_examples=25, deadline=None)
    @given(flat(texts, FLAT[name]))
    def check(text):
        try:
            run(text)
        except (TreeSeriesError, ValueError) as exc:
            assert "nested too deeply" not in str(exc)

    check()


# ---------------------------------------------------------------------------
# command lines

_BELL_JSON = str(SAMPLES / "bell.json")
_CUBIC_JSON = str(SAMPLES / "cubic.json")
_SPEC = str(SAMPLES / "bell.spec")
COMMAND_LINES = [
    ["series", "-a", _BELL_JSON, "-n", "4", "--counts", "--format", "csv"],
    ["eval", "-a", _BELL_JSON, "-t", "(sigma2 (sigma0) (sigma1 (sigma0)))", "--vector"],
    ["bound", "-a", _CUBIC_JSON, "--format", "json"],
    ["zero", "-a", _BELL_JSON, "--cap", "4"],
    ["equiv", "-a", _BELL_JSON, "-b", _CUBIC_JSON, "--cap", "4", "--tree-series"],
    ["equiv", "-a", _BELL_JSON, "-b", _BELL_JSON, "--cap", "3", "--require-decided"],
    ["op", "gf-scale", "-a", _BELL_JSON, "-c", "2/3"],
    ["op", "ts-scale", "-a", _CUBIC_JSON, "-c", "-1"],
    ["op", "gf-add", "-a", _BELL_JSON, "-b", _CUBIC_JSON],
    ["op", "gf-derive", "-a", _CUBIC_JSON],
    ["compile", "rda", "-f", str(SAMPLES / "bell.rds")],
    ["compile", "da", "-f", str(SAMPLES / "cubic.da")],
    ["compile", "dfinite", "-f", str(SAMPLES / "factorial.dfinite")],
    ["species", "count", "-f", _SPEC, "-n", "4"],
    ["species", "compile", "-f", _SPEC, "--target", "F"],
    ["emit-system", "-a", _BELL_JSON, "--solve", "3"],
    ["enum-trees", "--alphabet", "a/0,f/2,g/1", "-n", "3"],
    ["taylor", "-f", str(SAMPLES / "cubic.rds"), "-n", "4"],
]
# no token names an output file: a mutated command line must not write one
_VALUES = ["1/0", "0", "-1", "0/0", "x0", "", "(sigma9)", "a/0,f/-2"]
_TOKENS = _VALUES + [
    "-", "3", "abc", "--cap", "-n", "-a", "-b", "-c", "-t", "--target", "--tree-series",
    "--counts", "--format", "json", "gf-inverse", "gf-shift-backward", "ts-hadamard", "cda",
    "count", _BELL_JSON, _CUBIC_JSON, _SPEC, str(SAMPLES / "bell.rds"),
    str(SAMPLES / "missing.json"), str(SAMPLES),
]
_ARG_CHARS = "xy/()-,. 'a"


@st.composite
def mutated_argv(draw):
    """A command line with 1-2 edits: a token inserted, deleted or replaced by
    a bad value, or characters edited inside a token."""
    argv = list(draw(st.sampled_from(COMMAND_LINES)))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["replace", "insert", "delete", "edit"]))
        if kind == "insert" or not argv:
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
            continue
        at = draw(st.integers(0, len(argv) - 1))
        if kind == "replace":
            argv[at] = draw(st.sampled_from(_VALUES))
        elif kind == "delete":
            del argv[at]
        else:
            token = argv[at]
            i = draw(st.integers(0, len(token)))
            insert = draw(st.text(alphabet=_ARG_CHARS, max_size=2))
            argv[at] = token[:i] + insert + token[i + draw(st.integers(0, 2)):]
    # a deleted --cap leaves the default of 50, a long but valid tree-series scan
    assume("--tree-series" not in argv or "--cap" in argv)
    return argv


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv), err.getvalue()
        except SystemExit as exc:  # argparse: usage errors and --help
            return exc.code, err.getvalue()


def test_unmutated_command_lines_exit_0_or_4():
    for argv in COMMAND_LINES:
        assert _exit_code(argv)[0] in (0, 4), argv


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=lambda argv: "-".join(argv[:2]))
def test_bad_value_in_any_argument_exits_0_2_3_or_4(argv):
    """Every argument after the command, replaced in turn by each bad value;
    this covers ``op gf-scale -c 1/0`` and ``op ts-scale -c 1/0``."""
    for at in range(1, len(argv)):
        for value in _VALUES:
            mutated = argv[:at] + [value] + argv[at + 1:]
            code, err = _exit_code(mutated)
            assert code in (0, 2, 3, 4), (mutated, err)
            assert "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(mutated_argv())
def test_mutated_command_line_exits_0_2_3_or_4(argv):
    code, err = _exit_code(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
