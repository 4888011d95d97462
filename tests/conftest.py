"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """(fn(), the peak of traced memory in bytes while fn ran); tracing stops even if fn raises."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The traced_peak(fn) helper: a working-set test asserts on the peak it returns."""
    return _traced_peak
