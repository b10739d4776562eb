"""Execution-context helpers: DataContext tuning + pool sizing.

No engine stage builds an actor pool: every per-batch stage runs as
stateless tasks, which hold no reserved workers.  ``default_pool_size``
(half the cluster, bounded) is the size to give a pool if one is ever
needed: a pool that reserves every cluster CPU starves the stages up-
and downstream of it, and on a 4-CPU session a ``concurrency=4`` pool
deadlocks the streaming executor outright.
"""

from __future__ import annotations


def default_pool_size(cap: int = 16, frac: float = 0.5) -> int:
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4)) if \
            ray.is_initialized() else 4
    except Exception:
        cpus = 4
    return max(1, min(cap, int(cpus * frac)))


def quiet_data_context() -> None:
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

def prime_fsspec_http_stub() -> None:
    """Make concurrent Dataset reads from driver threads safe.

    Ray's ``_is_http_filesystem`` (ray/data/datasource/path_util.py:153)
    lazily imports ``fsspec.implementations.http`` on EVERY read and
    catches only ModuleNotFoundError.  In this no-network environment
    aiohttp is absent, so that import fails every time — and two driver
    threads racing the failing import can observe a half-initialized
    module, turning the caught ModuleNotFoundError into an uncaught
    ``ImportError: cannot import name 'HTTPFileSystem'``.  Registering a
    minimal stub once makes the import deterministic; the stub class is
    only ever an ``isinstance`` target, which correctly answers False
    (no HTTP filesystem can exist without aiohttp).
    """
    try:
        import fsspec.implementations.http  # noqa: F401
        return
    except Exception:
        pass
    import sys
    import types

    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # isinstance target only; never instantiated
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod
