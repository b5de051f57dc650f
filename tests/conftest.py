"""Shared test configuration."""

import warnings

import pytest


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
