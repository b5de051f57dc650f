"""Per-run memo tables with hit and miss counters.

The spectral layers are asked for the same quantity many times in one `vpm`
run: the same multiplier prefix, the same modulus cell omega(f, n^(-1/2))_p,
the same theta-scan table.  Each such layer keeps one RunMemo.  A CLI run is
one `run_scope`, which clears them all when it starts and ends, and reports
their traffic in summary.json.  A memo only ever returns what was stored for
an identical key, so a hit is exactly what recomputation would give.  A memo's
`log` holds run-scoped records a layer appends; it is cleared with the values.
"""

from contextlib import contextmanager
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = ["RunMemo", "clear_run_memos", "run_memo_stats", "run_scope"]

_REGISTRY = {}


class RunMemo:
    """Named key -> value table.  Values are handed out as stored, so callers
    store immutable values or read-only arrays."""

    def __init__(self, name):
        if name in _REGISTRY:
            # a replaced memo would never be cleared per run nor reported
            raise ValueError(f"a run memo named {name!r} already exists")
        self._values = {}
        self.log = []
        self.hits = 0
        self.misses = 0
        _REGISTRY[name] = self

    def lookup(self, key, compute):
        """The stored value for `key`, or compute(), stored, on a miss."""
        value = self._values.get(key)
        if value is None:
            self.misses += 1
            value = compute()
            self._values[key] = value
        else:
            self.hits += 1
        return value

    def __contains__(self, key):
        return key in self._values

    def items(self):
        return list(self._values.items())

    def clear(self):
        self._values.clear()
        self.log.clear()
        self.hits = 0
        self.misses = 0

    def stats(self):
        return {"entries": len(self._values), "hits": self.hits, "misses": self.misses,
                "bytes": sum(_array_bytes(value) for value in self._values.values())}


def _array_bytes(value):
    """Bytes of the ndarrays a stored value holds: the array itself, or the
    ndarray fields of a dataclass value; 0 for scalars."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if is_dataclass(value):
        return sum(_array_bytes(getattr(value, f.name)) for f in fields(value))
    return 0


def clear_run_memos():
    """Empty every run memo and reset its counters."""
    for memo in _REGISTRY.values():
        memo.clear()


@contextmanager
def run_scope():
    """One run: every run memo is emptied on entry and again on exit."""
    clear_run_memos()
    try:
        yield
    finally:
        clear_run_memos()


def run_memo_stats():
    """{memo name: {"entries", "hits", "misses", "bytes"}} for every run memo."""
    return {name: memo.stats() for name, memo in sorted(_REGISTRY.items())}
