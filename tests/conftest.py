"""Session-scoped Ray fixture — ONE ray.init per pytest session."""

from __future__ import annotations

import pytest


def _init_ray():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


@pytest.fixture(scope="session")
def ray_session():
    ray = _init_ray()
    yield ray
    ray.shutdown()


@pytest.fixture
def restart_ray(ray_session):
    """A function that ends the session's Ray and starts a new one with
    the same settings (what a driver does between two ``ray.init``)."""

    def restart():
        ray_session.shutdown()
        _init_ray()

    return restart


@pytest.fixture
def file_calls(monkeypatch):
    """Record what the per-file fan-out of ``pipelines.flagship`` does:
    Ray Data executions started, the ``path`` of every Ray task or actor
    call submitted, and the most calls in flight at once (submitted, not
    yet returned by ``ray.wait``)."""
    import types

    import ray
    from ray.actor import ActorMethod
    from ray.data._internal.execution.streaming_executor import StreamingExecutor
    from ray.remote_function import RemoteFunction

    rec = types.SimpleNamespace(executions=0, paths=[], in_flight=0, max_in_flight=0)
    execute, wait = StreamingExecutor.execute, ray.wait

    def counting_execute(self, *a, **kw):
        rec.executions += 1
        return execute(self, *a, **kw)

    def counting_submit(submit):
        def _remote(self, args=None, kwargs=None, **options):
            if kwargs and "path" in kwargs:
                rec.paths.append(kwargs["path"])
                rec.in_flight += 1
                rec.max_in_flight = max(rec.max_in_flight, rec.in_flight)
            return submit(self, args=args, kwargs=kwargs, **options)

        return _remote

    def counting_wait(refs, *a, **kw):
        ready, rest = wait(refs, *a, **kw)
        rec.in_flight -= len(ready)
        return ready, rest

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    for cls in (RemoteFunction, ActorMethod):  # a task's and an actor call's submit
        monkeypatch.setattr(cls, "_remote", counting_submit(cls._remote))
    monkeypatch.setattr(ray, "wait", counting_wait)
    return rec
