import pytest

from zoo import (
    bell_automaton,
    cubic_automaton,
    labelled_trees_automaton,
    zero_automaton,
)


@pytest.fixture(scope="session")
def bell():
    return bell_automaton()


@pytest.fixture(scope="session")
def labelled():
    return labelled_trees_automaton()


@pytest.fixture(scope="session")
def cubic():
    return cubic_automaton()


@pytest.fixture(scope="session")
def zero():
    return zero_automaton()
