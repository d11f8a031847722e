"""Resilient DSE candidate evaluation: timeouts, broken pools, retries.

A long-running exploration must never die because one candidate hangs
or a worker process is killed: the explorer retries the candidate once
serially, records it as rejected if that also fails, rebuilds the pool,
and keeps the trajectory bit-identical to a serial run (retries re-run
the same pure evaluation function with the same spawned seed).
"""

from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.adg import topologies
from repro.dse.explorer import DesignSpaceExplorer
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel
from tests import pool_fakes

DSE_ITERS = 3
SCHED_ITERS = 15


def _make_explorer(**kwargs):
    return DesignSpaceExplorer(
        [make_kernel("mm", 0.05)],
        topologies.dse_initial(),
        rng=DeterministicRng(42),
        sched_iters=SCHED_ITERS,
        initial_sched_iters=SCHED_ITERS * 3,
        **kwargs,
    )


def _run_with_failing_pool(exc_factory, monkeypatch, **run_kwargs):
    explorer = _make_explorer()
    pools = pool_fakes.install(monkeypatch, exc_factory)
    result = explorer.run(max_iters=DSE_ITERS, workers=2, **run_kwargs)
    return explorer, result, pools


@pytest.fixture(scope="module")
def serial_result():
    return _make_explorer().run(max_iters=DSE_ITERS)


class TestResilientPool:
    def test_timeouts_fall_back_and_match_serial(
        self, serial_result, monkeypatch
    ):
        explorer, result, pools = _run_with_failing_pool(
            FutureTimeout, monkeypatch, eval_timeout=0.001, batch=1,
        )
        counters = explorer.telemetry.counters
        assert counters["dse_worker_timeouts"] > 0
        assert counters["dse_worker_retries"] > 0
        assert counters["dse_pool_rebuilds"] > 0
        # Every timed-out pool was torn down, and the serial retries
        # reproduce the serial trajectory exactly.
        assert all(pool.shut_down for pool in pools[:-1])
        assert result.best_objective == serial_result.best_objective
        assert len(result.history) == len(serial_result.history)

    def test_broken_pool_falls_back_and_matches_serial(
        self, serial_result, monkeypatch
    ):
        explorer, result, pools = _run_with_failing_pool(
            lambda: BrokenProcessPool("worker died"), monkeypatch,
            batch=1,
        )
        counters = explorer.telemetry.counters
        assert counters["worker_errors"] > 0
        assert counters["dse_worker_retries"] > 0
        assert counters["dse_pool_rebuilds"] > 0
        assert result.best_objective == serial_result.best_objective

    def test_retry_failure_rejects_candidate_not_run(self, monkeypatch):
        """When the serial retry also dies, the candidate is rejected
        and the run still completes."""
        import repro.dse.explorer as explorer_mod

        explorer = _make_explorer()
        pool_fakes.install(
            monkeypatch, lambda: BrokenProcessPool("worker died")
        )

        real_eval = explorer_mod._evaluate_candidate
        calls = {"n": 0}

        def flaky_eval(task, context):
            calls["n"] += 1
            raise RuntimeError("retry also dies")

        # Initial compile runs before the pool exists; only patch the
        # retry path by swapping after construction of the run via a
        # wrapper that fails only for iteration >= 2 candidates.
        def selective_eval(task, context):
            if task.iteration >= 2:
                return flaky_eval(task, context)
            return real_eval(task, context)

        monkeypatch.setattr(
            explorer_mod, "_evaluate_candidate", selective_eval
        )
        result = explorer.run(max_iters=DSE_ITERS, workers=2, batch=1)
        counters = explorer.telemetry.counters
        assert calls["n"] > 0
        assert counters["candidates_failed"] >= calls["n"]
        # Nothing improved (every candidate failed), but the run ended
        # gracefully with the initial design intact.
        assert result.best_adg is not None

    def test_eval_timeout_threads_through_constructor_and_run(self):
        explorer = _make_explorer(eval_timeout=12.5)
        assert explorer.eval_timeout == 12.5
        explorer.eval_timeout = None
        # run() override wins.
        explorer.run(max_iters=1, eval_timeout=30.0)
        assert explorer.eval_timeout == 30.0
