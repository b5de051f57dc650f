"""Shared test configuration."""

import sys
import warnings

import pytest

import vpmeans.special
from vpmeans.function_space import make_corpus


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # For a failing property test, hypothesis's pytest plugin imports its
    # patch writer, which imports libcst; libcst's import raises a
    # DeprecationWarning that pyproject.toml turns into an error, and that
    # error aborts the whole session.  Importing the writer here first, with
    # that warning ignored, makes the failure report as one failed test.
    if call.excinfo is not None and not call.excinfo.errisinstance(pytest.skip.Exception):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
    yield


@pytest.fixture(scope="session")
def corpus_d3():
    """The d = 3 corpus at seed 42 by id, from one `make_corpus` call."""
    return {member.tag: member for member in make_corpus(3)}


@pytest.fixture
def q_streams(monkeypatch):
    """The band limit of every Q_k stream, a `special._q_rows` call with
    parts, that a module of vpmeans runs during the test, in order."""
    streams, inner = [], vpmeans.special._q_rows

    def counted(k_max, lam, parts, width):
        if parts:
            streams.append(k_max)
        return inner(k_max, lam, parts, width)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "vpmeans" and getattr(module, "_q_rows", None) is inner:
            monkeypatch.setattr(module, "_q_rows", counted)
    return streams
