import numpy as np
import pytest

import vpmeans.memo
from vpmeans.experiments import run_modulus_suite, run_voronovskaya_suite
from vpmeans.memo import RUN_RECORDS, RunMemo, clear_run_memos, run_memo_stats, run_scope


@pytest.fixture
def registry(monkeypatch):
    # memos made here stay out of the package's registry
    monkeypatch.setattr(vpmeans.memo, "_REGISTRY", dict(vpmeans.memo._REGISTRY))
    return vpmeans.memo._REGISTRY


def test_duplicate_memo_name_raises(registry):
    memo = RunMemo("test_memo")
    with pytest.raises(ValueError, match="test_memo"):
        RunMemo("test_memo")
    assert registry["test_memo"] is memo
    with pytest.raises(ValueError, match="modulus"):
        RunMemo("modulus")


def test_memo_traffic_and_clear(registry):
    memo = RunMemo("test_memo")
    calls = []
    for _ in range(3):
        value = memo.lookup(("key", 1), lambda: calls.append(1) or np.ones(4))
    assert calls == [1] and np.array_equal(value, np.ones(4))
    RUN_RECORDS["pruning"].append((1.0, 1, 0))
    assert ("key", 1) in memo and ("key", 2) not in memo
    assert run_memo_stats()["test_memo"] == {"entries": 1, "hits": 2, "misses": 1, "bytes": 32}
    clear_run_memos()
    assert run_memo_stats()["test_memo"] == {"entries": 0, "hits": 0, "misses": 0, "bytes": 0}
    assert RUN_RECORDS["pruning"] == []


def test_run_scope_leaves_every_memo_empty():
    empty = {"entries": 0, "hits": 0, "misses": 0, "bytes": 0}
    run_voronovskaya_suite(3, [4])
    with run_scope():
        assert all(stats == empty for stats in run_memo_stats().values())
        run_modulus_suite(["cusp:1.0"], [2.0], [4, 8], 3)
        run_voronovskaya_suite(3, [4, 8])
        stats = run_memo_stats()
        assert stats["modulus"]["entries"] > 0 and RUN_RECORDS["refinements"]
    assert all(stats == empty for stats in run_memo_stats().values())
    assert RUN_RECORDS["refinements"] == []
