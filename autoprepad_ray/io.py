"""Table IO: Lance is the nominal format (the north rule's storage), but
``lance`` is not importable in this sandbox (no network), so readers
fall back to Parquet with the identical logical layout
(``partition=<pid>/...`` directories, same schema).  All engine call
sites go through these helpers, so the format swap and the read plan
are one place.

Parquet reads plan ONE READ TASK PER FILE and never split its output.
Left to itself, Ray Data sizes a read at ``max(min(200, bytes / 1 MiB),
2 x CPUs)`` blocks and splits each file's output to reach that count
(``ReadParquet->SplitBlocks(k)``).  A split read can never fuse with
the map that follows it (Ray's operator fusion refuses an upstream
whose additional split factor is > 1), so every engine pass paid for
k-times more blocks, each a separate object-store round trip.  A read
plus one map over a 16-file, 2.1M-row numeric table (4-CPU Ray session
on a 4-vCPU VM) took 0.88 s of driver CPU and 1.21 s wall with 96
blocks, against 0.18 s and 0.39 s with one task per file.
The plan depends only on the input's file count, so it is the same on
every caller and every cluster; Ray's size-based dynamic block
splitting (``DataContext.target_max_block_size``, 128 MiB) still cuts a
large file's output, so memory stays bounded.

A Dataset the caller built is not re-planned here; the passes of
``pipelines.flagship.validate_numeric_table`` are sized from its fit
pass instead (``stages.transport.sized``), which leaves a Dataset of
few blocks, such as this module's reads, as planned.
"""

from __future__ import annotations

import glob
import importlib
import os

import ray.data as rd


def lance_available() -> bool:
    try:
        importlib.import_module("lance")
        return True
    except ImportError:
        return False


def parquet_files(path: str | list[str]) -> list[str]:
    """The parquet files a read covers: a list as given, a file as
    itself, else every ``**/*.parquet`` under the directory (sorted)."""
    if not isinstance(path, str):
        return list(path)
    if os.path.isfile(path):
        return [path]
    return sorted(glob.glob(f"{path.rstrip('/')}/**/*.parquet",
                            recursive=True))


def read_table(path: str | list[str], columns: list[str] | None = None,
               **kwargs):
    """Read a dataset directory/file: Lance when the path is a ``.lance``
    dataset and the library exists, CSV for ``.csv`` (the reference's
    caller-side source, main.py:16 ``pd.read_csv``), else Parquet.

    Parquet (a file, a directory or a list of files) reads with one
    task per file and no split of the task's output (module docstring),
    so a following ``map_batches`` with the default batch size fuses
    into the read task: ``ReadParquet->MapBatches(...)``.  Raises
    ``FileNotFoundError`` when no parquet file matches."""
    if not isinstance(path, str):
        return _read_parquet(path, columns, **kwargs)
    stripped = path.rstrip("/")
    if stripped.endswith(".lance"):
        if not lance_available():
            raise ImportError(
                "lance not available in this environment; materialize the "
                "dataset as Parquet with the same partition layout")
        return rd.read_lance(path, columns=columns, **kwargs)
    if stripped.endswith(".csv"):
        ds = rd.read_csv(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    if stripped.endswith((".json", ".jsonl")):
        ds = rd.read_json(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    if stripped.endswith((".feather", ".arrow")):
        # Arrow IPC shards: no native Ray reader — fan one task out per
        # file (shard-parallel; the format is already columnar, so the
        # task is a zero-parse mmap + optional column prune)
        import pyarrow as pa

        files = sorted(glob.glob(path)) if any(
            ch in path for ch in "*?[") else [path]
        if not files:
            raise FileNotFoundError(
                f"no Arrow IPC files match {path!r}")

        def _load(t: "pa.Table") -> "pa.Table":
            import pyarrow.feather as feather
            tabs = [feather.read_table(p, columns=columns)
                    for p in t["path"].to_pylist()]
            return pa.concat_tables(tabs)

        return rd.from_items([{"path": f} for f in files]).map_batches(
            _load, batch_size=1, batch_format="pyarrow")
    if stripped.endswith(".txt"):
        # line-per-row corpus shards (the rawest LLM-corpus input);
        # one column named "text"
        return rd.read_text(path, **kwargs)
    return _read_parquet(path, columns, **kwargs)


def _read_parquet(path, columns, **kwargs):
    files = parquet_files(path)
    if not files:
        raise FileNotFoundError(f"no parquet files under {path!r}")
    return rd.read_parquet(files, columns=columns,
                           override_num_blocks=len(files), **kwargs)


def write_partitioned(ds, out_dir: str, partition_col: str = "partition_id",
                      **kwargs) -> None:
    """Resumable output layout: one directory per partition value (the
    checkpoint unit used by pipelines.runner)."""
    os.makedirs(out_dir, exist_ok=True)
    ds.write_parquet(out_dir, partition_cols=[partition_col], **kwargs)
