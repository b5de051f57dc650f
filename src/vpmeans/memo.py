"""Per-run memo tables with hit and miss counters.

The spectral layers are asked for the same quantity many times in one `vpm`
run: the same multiplier prefix, the same modulus cell omega(f, n^(-1/2))_p,
the same theta-scan table.  Each such layer keeps one RunMemo and reads it
one way, `lookup(keys, build)`, which builds the keys it misses in one call.
A CLI run is one `run_scope`, which clears them all when it starts and ends,
and reports their traffic in summary.json.  A memo returns only what was
stored for an identical key, so a hit is exactly what recomputing the same
request would give; a modulus cell built in another batch agrees to rounding.
RUN_RECORDS holds what the run's summary reports beyond the values, each kind
written by the layer that makes it, and is emptied with the memos.
"""

from contextlib import contextmanager
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = ["RUN_RECORDS", "RunMemo", "clear_run_memos", "run_memo_stats", "run_scope"]

_REGISTRY = {}
# the kernel's ladders in call order (alpha_voronovskaya, alpha_nested,
# lemma_integral), (p, synthesised, skipped) per pruned p (lp_norm_maxima), and
# d|K|function id -> the L^2 residual of each corpus member built (prepare_corpus)
RUN_RECORDS = {"refinements": [], "pruning": [], "projection_residuals": {}}


class RunMemo:
    """Named key -> value table.  Values are handed out as stored, so callers
    store immutable values or read-only arrays."""

    def __init__(self, name):
        if name in _REGISTRY:
            # a replaced memo would never be cleared per run nor reported
            raise ValueError(f"a run memo named {name!r} already exists")
        self._values = {}
        self.hits = 0
        self.misses = 0
        _REGISTRY[name] = self

    def lookup(self, keys, build):
        """The stored value of each of `keys`, in order.  The keys not stored go
        once each, in first-seen order, to one build(missing) call, which returns
        their values in that order; each counts a miss, every other key a hit.  A
        build that raises or returns a wrong count stores and counts nothing."""
        missing = [key for key in dict.fromkeys(keys) if key not in self._values]
        values = list(build(missing)) if missing else []
        if len(values) != len(missing):
            raise ValueError(f"build gave {len(values)} values for {len(missing)} keys")
        self._values.update(zip(missing, values))
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        return [self._values[key] for key in keys]

    def clear(self):
        self._values.clear()
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
    """Empty every run memo and RUN_RECORDS, and reset the counters."""
    for memo in _REGISTRY.values():
        memo.clear()
    for records in RUN_RECORDS.values():
        records.clear()


@contextmanager
def run_scope():
    """One run: the run memos and RUN_RECORDS are emptied on entry and exit."""
    clear_run_memos()
    try:
        yield
    finally:
        clear_run_memos()


def run_memo_stats():
    """{memo name: {"entries", "hits", "misses", "bytes"}} for every run memo."""
    return {name: memo.stats() for name, memo in sorted(_REGISTRY.items())}
