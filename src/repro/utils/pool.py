"""The resilient fork pool every fan-out in the project shares.

DSE, composition and fault campaigns fan a pure function
``fn(task, context)`` out over worker processes with
:class:`ForkPool`; the compile server builds its per-shard pools with
:func:`create` and tears them down with :func:`shutdown_quietly`.

Workers are forked, not spawned: ``context`` (kernel closures, fault
baselines, ...) cannot be pickled, so it is stored in this module's one
global before any worker starts and every worker inherits it. Only the
task and its result cross the process boundary.

A long run must survive a hung or killed worker at the cost of one
task, never of the run:

* a result is awaited at most ``eval_timeout`` seconds;
* a timeout or a dead worker (:data:`Broken`) retries the task once
  in-process, then rebuilds the pool (an abandoned worker may still be
  grinding on the stuck task);
* any other worker exception retries once in-process without a
  rebuild — the pool itself is fine;
* a retry that raises again becomes the caller's ``failed(task)``
  value, or propagates when the caller gives none.

Because a retry re-runs the same pure function on the same task,
results are identical to the serial path and are returned in task
order.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool

#: Raised by a future whose worker process died, or by ``submit`` on a
#: pool that already lost one.
Broken = BrokenProcessPool

#: The run-constant context forked workers read; set by
#: :class:`ForkPool` before any worker process exists.
_CONTEXT = None


def _call(fn, task):
    """Worker entry point: ``fn`` against the inherited context."""
    return fn(task, _CONTEXT)


def create(workers, incr=None):
    """A fork-context pool of ``workers`` processes, or None when fork
    is unavailable or the OS refuses (counted as ``pool_unavailable``
    through ``incr`` when given)."""
    if "fork" in multiprocessing.get_all_start_methods():
        try:
            return ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        except OSError:
            pass
    if incr is not None:
        incr("pool_unavailable")
    return None


def shutdown_quietly(pool):
    """Abandon ``pool`` without waiting for (possibly stuck) workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class ForkPool:
    """Runs ``fn(task, context)`` over tasks: in a fork pool when
    ``workers > 1`` and one can be created, in process otherwise.

    Counters go through ``incr(name)``: ``{prefix}_worker_timeouts``,
    ``{prefix}_worker_retries``, ``{prefix}_pool_rebuilds``, the
    caller's ``errors`` name for a dead or raising worker, and
    ``pool_unavailable``. Use as a context manager; leaving it shuts
    the pool down and clears the inherited context.
    """

    def __init__(self, fn, context, workers, incr, prefix,
                 errors="worker_errors", failed=None, eval_timeout=None):
        global _CONTEXT
        _CONTEXT = context
        self.fn = fn
        self.context = context
        self.workers = workers
        self.incr = incr
        self.prefix = prefix
        self.errors = errors
        self.failed = failed
        self.eval_timeout = eval_timeout
        self.pool = create(workers, incr) if workers > 1 else None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        global _CONTEXT
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None
        _CONTEXT = None

    def map(self, tasks):
        """Results of every task, in task order."""
        if self.pool is None:
            return [self.fn(task, self.context) for task in tasks]
        try:
            futures = [self.pool.submit(_call, self.fn, task)
                       for task in tasks]
        except Exception:
            # submit() itself failing means the pool is already broken.
            self.incr(self.errors)
            self._rebuild()
            return [self._retry(task) for task in tasks]
        results = []
        rebuild = False
        for task, future in zip(tasks, futures):
            try:
                results.append(future.result(timeout=self.eval_timeout))
                continue
            except _FutureTimeout:
                self.incr(f"{self.prefix}_worker_timeouts")
                future.cancel()
                rebuild = True
            except BrokenProcessPool:
                self.incr(self.errors)
                rebuild = True
            except Exception:
                self.incr(self.errors)
            results.append(self._retry(task))
        if rebuild:
            self._rebuild()
        return results

    def _retry(self, task):
        """One in-process retry of a failed or timed-out task."""
        self.incr(f"{self.prefix}_worker_retries")
        try:
            return self.fn(task, self.context)
        except Exception:
            if self.failed is None:
                raise
            return self.failed(task)

    def _rebuild(self):
        """Tear down a suspect pool and start a fresh one."""
        shutdown_quietly(self.pool)
        self.incr(f"{self.prefix}_pool_rebuilds")
        self.pool = create(self.workers, self.incr)
