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
        [value] = memo.lookup([("key", 1)], lambda missing: calls.append(missing) or [np.ones(4)])
    assert calls == [[("key", 1)]] and np.array_equal(value, np.ones(4))
    RUN_RECORDS["pruning"].append((1.0, 1, 0))
    assert run_memo_stats()["test_memo"] == {"entries": 1, "hits": 2, "misses": 1, "bytes": 32}
    clear_run_memos()
    assert run_memo_stats()["test_memo"] == {"entries": 0, "hits": 0, "misses": 0, "bytes": 0}
    assert RUN_RECORDS["pruning"] == []


def test_memo_lookup_builds_each_missing_key_once_in_one_call(registry):
    memo = RunMemo("test_memo")
    builds = []

    def build(missing):
        builds.append(list(missing))
        return [key.upper() for key in missing]
    assert memo.lookup(["a", "b", "a"], build) == ["A", "B", "A"]
    assert builds == [["a", "b"]] and (memo.misses, memo.hits) == (2, 1)
    assert memo.lookup(["b", "c"], build) == ["B", "C"]
    assert builds == [["a", "b"], ["c"]] and (memo.misses, memo.hits) == (3, 2)
    assert memo.lookup(["c", "a", "c"], build) == ["C", "A", "C"]
    assert len(builds) == 2 and (memo.misses, memo.hits) == (3, 5)


def test_memo_lookup_failed_build_stores_and_counts_nothing(registry):
    memo = RunMemo("test_memo")
    memo.lookup(["a"], lambda missing: [1.0])
    before = run_memo_stats()["test_memo"]
    with pytest.raises(ValueError, match="1 values for 2 keys"):
        memo.lookup(["a", "b", "c"], lambda missing: [2.0])
    assert run_memo_stats()["test_memo"] == before

    def failing(missing):
        raise ZeroDivisionError("build failed")
    with pytest.raises(ZeroDivisionError, match="build failed"):
        memo.lookup(["b", "a"], failing)
    assert run_memo_stats()["test_memo"] == before == {
        "entries": 1, "hits": 0, "misses": 1, "bytes": 0}
    assert memo.lookup(["b"], lambda missing: [3.0]) == [3.0]


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
