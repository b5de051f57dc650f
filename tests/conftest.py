"""Shared test configuration."""

import math
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


def _harmonic_dim(k, d):
    """Dimension of the space of degree-k spherical harmonics on S^{d-1}, in
    exact integers; 2k+1 at d = 3."""
    if k == 0:
        return 1
    # (2k+d-2)/(k+d-2) * C(k+d-2, k), split into two binomials so the
    # division never appears.
    return math.comb(k + d - 2, k) + math.comb(k + d - 3, k - 1)


@pytest.fixture(scope="session")
def harmonic_dim():
    """harmonic_dim(k, d), d >= 3 and k >= 0: the exact oracle of the float
    1 / N_k of `function_space._inverse_dims`."""
    return _harmonic_dim


@pytest.fixture
def q_streams(monkeypatch):
    """The band limit of every Q_k stream, a `special._q_rows` call, that a
    module of vpmeans runs during the test, in order."""
    streams, inner = [], vpmeans.special._q_rows

    def counted(k_max, lam, x, fill):
        streams.append(k_max)
        return inner(k_max, lam, x, fill)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "vpmeans" and getattr(module, "_q_rows", None) is inner:
            monkeypatch.setattr(module, "_q_rows", counted)
    return streams
