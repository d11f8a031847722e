"""The shared resilient fork pool (repro.utils.pool).

Every failure mode must cost at most one in-process retry of the task,
never the run, and results must equal the serial path in task order.
The fake pools of :mod:`tests.pool_fakes` drive each failure path
without real processes; one test runs a real fork pool.
"""

import multiprocessing
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.utils import pool as pool_module
from repro.utils.pool import ForkPool
from repro.utils.telemetry import Telemetry
from tests import pool_fakes

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

TASKS = [1, 2, 3]
EXPECTED = [11, 14, 19]   # task * task + context


def _square_plus(task, context):
    return task * task + context


def _offset_square(task, context):
    return task * task + context["offset"]


def _always_raises(task, context):
    raise RuntimeError(f"task {task} dies again")


def _fan_out(fn, monkeypatch, exc_factory, **kwargs):
    pools = pool_fakes.install(monkeypatch, exc_factory)
    telemetry = Telemetry()
    with ForkPool(fn, 10, 2, telemetry.incr, "t", **kwargs) as pool:
        results = pool.map(TASKS)
    return results, pools, telemetry.counters


class TestFailureModes:
    def test_timeout_retries_in_process_then_rebuilds(self, monkeypatch):
        results, pools, counters = _fan_out(
            _square_plus, monkeypatch, FutureTimeout, eval_timeout=0.001,
        )
        assert results == EXPECTED
        assert counters["t_worker_timeouts"] == len(TASKS)
        assert counters["t_worker_retries"] == len(TASKS)
        assert counters["t_pool_rebuilds"] == 1
        assert "worker_errors" not in counters
        assert len(pools) == 2 and pools[0].shut_down

    def test_broken_pool_retries_in_process_then_rebuilds(
        self, monkeypatch
    ):
        results, pools, counters = _fan_out(
            _square_plus, monkeypatch,
            lambda: BrokenProcessPool("worker died"),
        )
        assert results == EXPECTED
        assert counters["worker_errors"] == len(TASKS)
        assert counters["t_worker_retries"] == len(TASKS)
        assert counters["t_pool_rebuilds"] == 1
        assert len(pools) == 2 and pools[0].shut_down

    def test_worker_exception_retries_without_rebuild(self, monkeypatch):
        results, pools, counters = _fan_out(
            _square_plus, monkeypatch, lambda: RuntimeError("boom"),
            errors="t_errors",
        )
        assert results == EXPECTED
        assert counters["t_errors"] == len(TASKS)
        assert counters["t_worker_retries"] == len(TASKS)
        assert "t_pool_rebuilds" not in counters
        assert len(pools) == 1

    def test_failing_retry_becomes_callers_rejection(self, monkeypatch):
        results, _, counters = _fan_out(
            _always_raises, monkeypatch,
            lambda: BrokenProcessPool("worker died"),
            failed=lambda task: ("rejected", task),
        )
        assert results == [("rejected", task) for task in TASKS]
        assert counters["t_worker_retries"] == len(TASKS)

    def test_failing_retry_without_rejection_propagates(
        self, monkeypatch
    ):
        with pytest.raises(RuntimeError, match="dies again"):
            _fan_out(
                _always_raises, monkeypatch,
                lambda: BrokenProcessPool("worker died"),
            )
        assert pool_module._CONTEXT is None


class TestPoolLifecycle:
    def test_one_worker_runs_in_process(self, monkeypatch):
        created = []
        monkeypatch.setattr(
            pool_module, "create",
            lambda workers, incr=None: created.append(workers),
        )
        with ForkPool(_square_plus, 10, 1, Telemetry().incr, "t") as pool:
            assert pool.map(TASKS) == EXPECTED
        assert created == []

    def test_no_fork_counts_unavailable_and_runs_serially(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            pool_module.multiprocessing, "get_all_start_methods",
            lambda: ["spawn"],
        )
        telemetry = Telemetry()
        with ForkPool(_square_plus, 10, 4, telemetry.incr, "t") as pool:
            assert pool.pool is None
            assert pool.map(TASKS) == EXPECTED
        assert telemetry.counters["pool_unavailable"] == 1

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_real_fork_pool_inherits_context_and_keeps_order(self):
        # A lambda cannot be pickled: workers only see it by inheriting
        # the context from the parent.
        context = {"offset": 10, "unpicklable": lambda: None}
        telemetry = Telemetry()
        with ForkPool(_offset_square, context, 2, telemetry.incr,
                      "t") as pool:
            assert pool.pool is not None
            results = pool.map(list(range(12)))
        assert results == [task * task + 10 for task in range(12)]
        assert telemetry.counters == {}
        assert pool_module._CONTEXT is None

