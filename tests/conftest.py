from __future__ import annotations

import os

import pytest

from lcer.equations import CETheory
from lcer.syntax import parse_theory

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def load_fixture(name: str):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def load_theory(name: str):
    return parse_theory(load_fixture(name))


def fresh_copy(theory: CETheory) -> CETheory:
    """theory's signature, model and equations, with an empty memo of outcomes."""
    return CETheory(theory.signature, theory.model, theory.equations)


def recorded_searches(monkeypatch) -> list:
    """Make validity.conversion_search record each search it makes, and
    return the list of (s, t, trace) it appends them to.  A search is a call
    that misses the theory's memo of outcomes, so that the memo grows; a hit
    answers without searching and is not recorded."""
    from lcer import validity

    search = validity.conversion_search
    searches = []

    def recording(theory, s, t, *args, **kwargs):
        size = len(theory.outcomes)
        trace = search(theory, s, t, *args, **kwargs)
        if len(theory.outcomes) > size:
            searches.append((s, t, trace))
        return trace

    monkeypatch.setattr(validity, "conversion_search", recording)
    return searches


@pytest.fixture(scope="session")
def mod12():
    return load_theory("mod12.th")


@pytest.fixture(scope="session")
def group():
    return load_theory("group.th")


@pytest.fixture(scope="session")
def lists():
    return load_theory("lists.th")


@pytest.fixture(scope="session")
def absmax():
    return load_theory("absmax.th")


@pytest.fixture(scope="session")
def nneg():
    return load_theory("nneg.th")


@pytest.fixture(scope="session")
def splitabst():
    return load_theory("splitabst.th")


@pytest.fixture(scope="session")
def refute_bool():
    return load_theory("refute_bool.th")


@pytest.fixture(scope="session")
def inconsistent():
    return load_theory("inconsistent.th")
