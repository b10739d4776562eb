import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def ray_executions(monkeypatch):
    """The list of Ray Data executions started during the test: one
    entry per ``StreamingExecutor.execute`` call."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    calls = []
    real = StreamingExecutor.execute

    def counting(self, *a, **kw):
        calls.append(self)
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return calls
