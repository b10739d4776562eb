"""Read planning of ``io.read_table``: one read task per parquet file,
no split of its output, so the next default-batch map fuses into the
read task (checked on the 4-CPU test session, where Ray's own planning
would ask for at least 8 blocks)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from autoprepad_ray.io import read_table


@pytest.fixture(scope="module")
def two_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("two_files")
    for i in range(2):
        sub = d / f"partition={i}"
        sub.mkdir()
        pq.write_table(pa.table({"x": np.arange(i * 100, (i + 1) * 100)}),
                       str(sub / "part.parquet"))
    return d


def _operators(ds) -> list[str]:
    return [line for line in ds.materialize().stats().splitlines()
            if line.startswith("Operator ")]


def test_directory_reads_one_block_per_file(two_files):
    ds = read_table(str(two_files))
    assert ds.materialize().num_blocks() == 2
    assert sorted(ds.to_pandas()["x"]) == list(range(200))


def test_map_fuses_into_read_without_split(two_files):
    ds = read_table(str(two_files)).map_batches(
        lambda t: t, batch_format="pyarrow", batch_size=None)
    ops = _operators(ds)
    assert len(ops) == 1, ops
    assert "ReadParquet->MapBatches(" in ops[0], ops
    assert not any("SplitBlocks" in op for op in ops), ops


def test_list_and_single_file_inputs(two_files):
    files = sorted(str(p) for p in two_files.glob("*/*.parquet"))
    ds = read_table(files, columns=["x"])
    assert ds.materialize().num_blocks() == 2
    assert sorted(ds.to_pandas()["x"]) == list(range(200))
    one = read_table(files[1])
    assert one.materialize().num_blocks() == 1
    assert sorted(one.to_pandas()["x"]) == list(range(100, 200))


def test_no_matching_files_raises(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError):
        read_table(str(tmp_path / "empty"))
    with pytest.raises(FileNotFoundError):
        read_table([])
