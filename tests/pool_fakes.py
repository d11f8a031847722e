"""Fake fork pools whose every future fails a chosen way.

Tests patch :func:`repro.utils.pool.create` with :func:`install` to
drive the shared pool's timeout, dead-worker and worker-exception paths
without real processes. Kept out of the ``test_*`` namespace so pytest
does not collect it as a test file.
"""

from repro.utils import pool as pool_module


class FailingFuture:
    def __init__(self, exc):
        self._exc = exc

    def result(self, timeout=None):
        raise self._exc

    def cancel(self):
        return False


class FailingPool:
    """A pool whose every future fails the given way."""

    def __init__(self, exc_factory):
        self._exc_factory = exc_factory
        self.submitted = 0
        self.shut_down = False

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        return FailingFuture(self._exc_factory())

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


def install(monkeypatch, exc_factory):
    """Make every pool the shared module creates a :class:`FailingPool`;
    returns the list the created pools are appended to."""
    pools = []

    def fake_create(workers, incr=None):
        pool = FailingPool(exc_factory)
        pools.append(pool)
        return pool

    monkeypatch.setattr(pool_module, "create", fake_create)
    return pools
