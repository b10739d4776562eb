"""The slice exchange (stages.transport): rows routed by ``slice_of``,
packed by ``pack_slices``, scattered by ``scatter_slices`` and read back
by ``unpack_cells`` arrive exactly once, in their slice, intact — and a
per-slice task receives ONLY its own slice's payload bytes (a flat
fan-out that ships every block to every task is O(slices x stream)
network on a multi-node cluster).  Only ``stages/transport.py`` packs
or unpacks slice cells.

The keyed fold (``keyed_fold``) built on it must reproduce an exact
pandas groupby under every merge, whatever the key type (nulls one
group), empty slices and partials that keep nothing, and run ``final``
once per slice.

Only ``stages/transport.py`` sorts a Dataset and walks its sorted
blocks (the ordered scan)."""

import pathlib
import pickle
import re
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings, strategies as st

import ray
import ray.data as rd

import autoprepad_ray
from autoprepad_ray.sketches import key_hash
from autoprepad_ray.stages.transport import (default_num_parts, keyed_fold,
                                             kind_rows, merge_groups,
                                             pack_slices, scatter_slices,
                                             slice_of, unpack_cells)


def _packed_ds(num_blocks, slices_per_block, num_slices, *, kind=None,
               seed=3):
    rng = np.random.default_rng(seed)
    tables = []
    for b in range(num_blocks):
        sl = rng.choice(num_slices, size=slices_per_block,
                        replace=False).astype(np.int32)
        cols = {
            "slice": pa.array(sl),
            # payload encodes (block, slice) so ownership is checkable
            "payload": pa.array(
                [pickle.dumps((b, int(s))) for s in sl],
                type=pa.large_binary())}
        if kind is not None:
            cols["kind"] = pa.array([kind] * len(sl))
        tables.append(pa.table(cols))
    return rd.from_arrow(tables).materialize()


def test_scatter_tasks_receive_only_their_slice():
    num_slices = 7
    packed = _packed_ds(5, 4, num_slices)
    per_slice = scatter_slices(packed, num_slices)
    assert len(per_slice) == num_slices
    seen = set()
    for s, refs in enumerate(per_slice):
        for cell in ray.get(refs):
            for blob in cell:
                b, sl = pickle.loads(blob)
                # the ownership property: nothing from another slice
                assert sl == s, (b, sl, s)
                seen.add((b, sl))
    # ...and every payload arrived exactly once somewhere
    expect = {pickle.loads(blob)
              for t in packed.to_arrow_refs()
              for blob in ray.get(t)["payload"].to_pylist()}
    assert seen == expect


def test_scatter_kind_filter_drops_other_rows():
    num_slices = 4
    band = _packed_ds(3, 3, num_slices, kind="band")
    # mix in viol-style rows that must never reach pairing tasks
    def add_viol(t: pa.Table) -> pa.Table:
        extra = pa.table({
            "slice": pa.array([-1], type=pa.int32()),
            "payload": pa.array([b"VIOLPAYLOAD"], type=pa.large_binary()),
            "kind": pa.array(["viol"])})
        return pa.concat_tables([t, extra])

    mixed = band.map_batches(add_viol, batch_format="pyarrow",
                             batch_size=None).materialize()
    per_slice = scatter_slices(mixed, num_slices, kind="band")
    blobs = [blob for refs in per_slice for cell in ray.get(refs)
             for blob in cell]
    assert blobs and all(b != b"VIOLPAYLOAD" for b in blobs)
    assert len(blobs) == 9


def test_scatter_empty_stream():
    empty = rd.from_arrow(pa.table({
        "slice": pa.array([], type=pa.int32()),
        "payload": pa.array([], type=pa.large_binary())})).materialize()
    per_slice = scatter_slices(empty, 5)
    assert all(not ray.get(refs) or all(not c for c in ray.get(refs))
               for refs in per_slice)


_TEXT = st.one_of(st.none(), st.text(alphabet="abxyz", max_size=30))


@st.composite
def _exchange_case(draw):
    n_rows = draw(st.integers(0, 48))
    keys = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n_rows,
                         max_size=n_rows))
    objs = draw(st.lists(_TEXT, min_size=n_rows, max_size=n_rows))
    strs = draw(st.lists(_TEXT, min_size=n_rows, max_size=n_rows))
    cuts = sorted(draw(st.lists(st.integers(0, n_rows), max_size=4)))
    n = draw(st.integers(1, 9))
    tagged = draw(st.booleans())
    return keys, objs, strs, [0, *cuts, n_rows], n, tagged


def _fresh(f):
    """``f``'s rows rebuilt from Python values: tight buffers."""
    if isinstance(f, pa.Table):
        return pa.Table.from_pylist(f.to_pylist(), schema=f.schema)
    return pa.array(f.to_pylist(), f.type)


@settings(max_examples=25, deadline=None)
@given(_exchange_case())
def test_exchange_delivers_every_row_once_in_its_slice(case):
    """Random row-aligned fields (int64 keys, an object array with None,
    an Arrow string array with nulls, an Arrow table) over random blocks
    and slice counts: pack, scatter and unpack.  Every row arrives
    exactly once, in the cell ``slice_of(key, n)`` names, with its
    fields intact, and no Arrow field pickles bigger than its own rows
    (a pickled ``Table.slice`` would carry its parent's buffers)."""
    keys, objs, strs, bounds, n, tagged = case
    keys = np.array(keys, dtype=np.int64)
    objs = np.array(objs, dtype=object)
    strs = pa.array(strs, pa.string())
    rows = pa.table({"row": pa.array(np.arange(len(keys))),
                     "pad": pa.array([f"{i:04d}" + "p" * 100
                                      for i in range(len(keys))])})
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cells = pack_slices(slice_of(keys[lo:hi], n), keys[lo:hi],
                            objs[lo:hi], strs.slice(lo, hi - lo),
                            rows.slice(lo, hi - lo),
                            kind="cell" if tagged else None)
        blocks.append(pa.concat_tables([kind_rows({"agg": lo}), cells])
                      if tagged else cells)
    packed = rd.from_arrow(blocks).materialize()
    per_slice = scatter_slices(packed, n, kind="cell" if tagged else None)
    assert len(per_slice) == n
    seen = []
    for s in range(n):
        for k, o, sa, t in unpack_cells(ray.get(per_slice[s])):
            assert (slice_of(k, n) == s).all()
            r = t["row"].to_numpy()
            assert (k == keys[r]).all()
            assert o.tolist() == objs[r].tolist()
            assert sa.to_pylist() == strs.take(r).to_pylist()
            assert t.to_pylist() == rows.take(r).to_pylist()
            for f in (sa, t):
                assert len(pickle.dumps(f)) <= \
                    len(pickle.dumps(_fresh(f))) + 128
            seen.extend(r.tolist())
    assert sorted(seen) == list(range(len(keys)))


def test_only_transport_packs_slice_cells():
    """One packer and one unpacker: outside ``stages/transport.py`` no
    library module builds a ``slice`` payload column or unpickles a
    per-slice task's cell lists itself."""
    root = pathlib.Path(autoprepad_ray.__file__).parent
    offenders = []
    for f in sorted(root.rglob("*.py")):
        if f == root / "stages" / "transport.py":
            continue
        src = f.read_text()
        if re.search(r"""["']slice["']""", src) or re.search(
                r"pickle\.loads\(\w+\)\s+for\s+\w+\s+in\s+\S+\s+for\b",
                src):
            offenders.append(str(f.relative_to(root)))
    assert offenders == []


def test_only_transport_scans_sorted_blocks():
    """One ordered scan: the rank stages and the queries define no task
    of their own, prefix dedup has no ``_prefix_*`` task, and only
    ``stages/transport.py`` sorts a Dataset and walks its block refs."""
    root = pathlib.Path(autoprepad_ray.__file__).parent
    for name in ("stages/rank.py", "pipelines/queries.py"):
        assert "@ray.remote" not in (root / name).read_text(), name
    assert not re.search(r"@ray\.remote[^\n]*\ndef _prefix_",
                         (root / "stages" / "dedup.py").read_text())
    offenders = []
    for f in sorted(root.rglob("*.py")):
        src = f.read_text()
        if f != root / "stages" / "transport.py" \
                and re.search(r"(?<!np)\.sort\(\s*\[?\w", src) \
                and re.search(r"to_arrow_refs|iter_internal_ref_bundles",
                              src):
            offenders.append(str(f.relative_to(root)))
    assert offenders == []


def _keyed_ds(n_rows=5000, n_keys=911, blocks=7, seed=11):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, size=n_rows).astype(np.int64)
    a = rng.integers(-50, 50, size=n_rows).astype(np.int64)
    x = np.round(rng.normal(size=n_rows), 3)
    df = pd.DataFrame({"k": keys, "a": a, "x": x})
    return _from_frame(df, blocks), df


def _from_frame(df: pd.DataFrame, blocks: int):
    return rd.from_arrow([pa.Table.from_pandas(part, preserve_index=False)
                          for part in np.array_split(df, blocks)])


def _partial(t: pa.Table) -> pa.Table:
    g = t.group_by("k").aggregate([("a", "max"), ("a", "min"),
                                   ("x", "sum"), ([], "count_all")])
    return g.rename_columns(["k", "hi", "lo", "sx", "n"])


_MERGE = merge_groups(["k"], {"hi": "max", "lo": "min", "sx": "sum",
                              "n": "sum"})


def _expected(df: pd.DataFrame) -> pd.DataFrame:
    return (df.groupby("k", as_index=False)
            .agg(hi=("a", "max"), lo=("a", "min"), sx=("x", "sum"),
                 n=("a", "size"))
            .astype({"n": np.int64})
            .sort_values("k").reset_index(drop=True))


def _folded(ds, partial=_partial, final=_MERGE) -> pd.DataFrame:
    return (keyed_fold(ds, partial, ["k"], final).to_pandas()
            .sort_values("k").reset_index(drop=True))


def test_keyed_fold_matches_pandas_groupby():
    ds, df = _keyed_ds()
    # sums fold in a different order than pandas — compare to 1e-9
    pd.testing.assert_frame_equal(_folded(ds), _expected(df),
                                  check_exact=False, atol=1e-9)


def test_keyed_fold_empty_slices_keep_schema():
    # 2 keys -> at least 14 of the (>= 16) slices are empty; their tasks
    # skip final, and the result keeps every column's type
    df = pd.DataFrame({"k": np.array([1, 1, 2], dtype=np.int64),
                       "a": np.array([5, 7, -1], dtype=np.int64),
                       "x": np.array([0.5, 0.25, 1.0])})
    n = default_num_parts()
    assert n - len(set(slice_of(key_hash([df["k"]])[0], n))) >= 14
    out = _folded(_from_frame(df, 1))
    pd.testing.assert_frame_equal(out, _expected(df))
    assert out["sx"].dtype == np.float64
    assert out["n"].dtype == np.int64


def test_keyed_fold_final_runs_once_per_slice():
    ds, df = _keyed_ds()
    n = default_num_parts()

    def final(parts: list[pa.Table]) -> pa.Table:
        t = _MERGE(parts)
        t = t.filter(pc.greater(t["n"], 8))     # a cut inside the task
        return t.append_column("call", pa.array([uuid.uuid4().hex]
                                                * t.num_rows))

    out = keyed_fold(ds, _partial, ["k"], final)
    calls = out.to_pandas().assign(
        slice=slice_of(key_hash([out["k"]])[0], n))
    # each call saw exactly one slice, each slice came from one call
    assert (calls.groupby("call")["slice"].nunique() == 1).all()
    assert (calls.groupby("slice")["call"].nunique() == 1).all()
    exp = _expected(df)
    exp = exp[exp["n"] > 8].reset_index(drop=True)
    got = calls.drop(columns=["call", "slice"]).sort_values("k") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_exact=False, atol=1e-9)
    assert len(got) > 0


def test_keyed_fold_partial_filters_whole_batch_away():
    df = pd.DataFrame({"k": np.arange(40, dtype=np.int64) % 4,
                       "a": np.arange(40, dtype=np.int64),
                       "x": np.zeros(40)})
    # block 0 holds only k in {0,1}, block 1 only k in {2,3}
    ds = rd.from_arrow([pa.Table.from_pandas(b, preserve_index=False)
                        for b in (df[df["k"] < 2], df[df["k"] >= 2])])

    def filtering_partial(t: pa.Table) -> pa.Table:
        return _partial(t.filter(pc.greater_equal(t["k"], 2)))

    pd.testing.assert_frame_equal(_folded(ds, filtering_partial),
                                  _expected(df[df["k"] >= 2]))
    assert keyed_fold(ds, lambda t: _partial(t.slice(0, 0)), ["k"],
                      _MERGE) is None


def test_keyed_fold_negative_and_extreme_keys():
    rng = np.random.default_rng(5)
    keys = np.array([-(2**62), -3, 0, 7, 2**62, 2**53 + 1, 2**53] * 40,
                    dtype=np.int64)
    a = rng.integers(0, 100, size=len(keys)).astype(np.int64)
    df = pd.DataFrame({"k": keys, "a": a, "x": np.zeros(len(keys))})
    pd.testing.assert_frame_equal(_folded(_from_frame(df, 4)),
                                  _expected(df))


def test_keyed_fold_string_keys():
    _, df = _keyed_ds(n_keys=300)
    df["k"] = "key_" + df["k"].astype(str)
    pd.testing.assert_frame_equal(_folded(_from_frame(df, 7)),
                                  _expected(df), check_exact=False,
                                  atol=1e-9)


def test_keyed_fold_nullable_keys_are_one_group():
    # null keys in different blocks, one block all null: one group, and
    # a block's nulls never change where its other keys go
    ds = rd.from_arrow([
        pa.table({"k": pa.array([1, None, 2 ** 53 + 1], pa.int64()),
                  "a": pa.array([1, 2, 3], pa.int64()),
                  "x": pa.array([0.5, 0.25, 1.0])}),
        pa.table({"k": pa.array([None, None], pa.int64()),
                  "a": pa.array([4, 5], pa.int64()),
                  "x": pa.array([2.0, 4.0])}),
        pa.table({"k": pa.array([1, 2 ** 53 + 1], pa.int64()),
                  "a": pa.array([6, 7], pa.int64()),
                  "x": pa.array([8.0, 16.0])})])
    out = keyed_fold(ds, _partial, ["k"], _MERGE)
    assert out.schema.field("k").type == pa.int64()
    assert sorted(out.to_pylist(), key=repr) == sorted([
        {"k": 1, "hi": 6, "lo": 1, "sx": 8.5, "n": 2},
        {"k": None, "hi": 5, "lo": 2, "sx": 6.25, "n": 3},
        {"k": 2 ** 53 + 1, "hi": 7, "lo": 3, "sx": 17.0, "n": 2}],
        key=repr)


def test_segment_pairs_no_verify_enumerates_all_bucket_pairs():
    """verify=False must emit exactly the brute-force intra-bucket pair
    set (the LSH candidate mode reusing the size-class kernel)."""
    from autoprepad_ray.validators.near_dup import _segment_pairs

    rng = np.random.default_rng(11)
    n = 400
    keys = rng.integers(0, 40, size=n).astype(np.int64)
    ids = np.array([f"d{i:04d}" for i in rng.permutation(n)],
                   dtype=object)
    out = _segment_pairs(keys, ids, np.zeros(n, dtype=np.int64),
                         0, 10_000, verify=False)
    got = {(a, b) for a, b in zip(out["id_a"], out["id_b"])}
    want = set()
    for k in np.unique(keys):
        members = ids[keys == k]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                want.add((a, b) if a < b else (b, a))
    assert got == want


@pytest.mark.parametrize("ids_dtype", ["str", "int"])
def test_verify_prefilter_hash_agreement(ids_dtype):
    """verify_pairs_routed's hash64 mask must match batch ids against
    candidate ids regardless of the id column type (pandas hashes
    int64-typed and object-typed arrays DIFFERENTLY — both sides go
    through object arrays)."""
    import pandas as pd

    from autoprepad_ray.stages.dedup import verify_pairs_routed

    if ids_dtype == "str":
        ids = [f"id{i}" for i in range(30)]
    else:
        ids = list(range(1000, 1030))
    tbl = pa.table({"doc_id": pa.array(ids),
                    "val": pa.array(np.arange(30, dtype=np.float64))})
    ds = rd.from_arrow(tbl).repartition(3)
    cand = pd.DataFrame({"id_a": [ids[1], ids[5]],
                         "id_b": [ids[2], ids[9]]})

    def extract(sub):
        return sub["val"].to_numpy(zero_copy_only=False).tolist()

    out = verify_pairs_routed(ds, "doc_id", cand, extract,
                              lambda a, b: a + b, "s")
    got = {(a, b): s for a, b, s in
           zip(out["id_a"], out["id_b"], out["s"])}
    assert got == {(ids[1], ids[2]): 3.0, (ids[5], ids[9]): 14.0}


def test_candidate_pairs_stay_distributed():
    """Directive: no driver-side list of ALL candidate pairs.  The
    candidate path must return a grid of per-(slice, part) cell refs —
    cells route each pair (with all its cross-slice duplicates) to one
    verify part — and its source must never collect pairs with
    pd.concat(ray.get(...)) (the round-3 pattern this replaces)."""
    import inspect

    from autoprepad_ray.stages import dedup

    src = inspect.getsource(dedup.candidate_pairs_grid)
    assert "pd.concat(ray.get" not in src
    _check_candidate_grid(num_parts=8)


def test_candidate_pairs_grid_one_part():
    """``num_parts=1``: Ray hands back one bare ref, not a 1-tuple, for
    ``num_returns=1`` (this raised TypeError: 'ray.ObjectRef' object is
    not subscriptable); the grid still has its one part."""
    _check_candidate_grid(num_parts=1)


def _check_candidate_grid(num_parts: int) -> None:
    from autoprepad_ray.stages import dedup

    # a tiny keyed stream with two hot buckets split across blocks
    keyed = rd.from_arrow([
        pa.table({"key": pa.array([1, 1, 2], type=pa.int64()),
                  "doc_id": pa.array([10, 11, 20], type=pa.int64())}),
        pa.table({"key": pa.array([1, 2, 3], type=pa.int64()),
                  "doc_id": pa.array([12, 21, 30], type=pa.int64())}),
    ])
    grid = dedup.candidate_pairs_grid(keyed, 1000, num_slices=16,
                                      num_parts=num_parts)
    assert len(grid) == num_parts
    assert all(isinstance(c, ray.ObjectRef) for refs in grid
               for c in refs)
    seen = {}
    for p, refs in enumerate(grid):
        for cell in ray.get(refs):
            a, b = pickle.loads(cell)
            for pair in zip(a.tolist(), b.tolist()):
                # every copy of a pair lands in ITS one part
                assert seen.setdefault(pair, p) == p
    want = {(10, 11), (10, 12), (11, 12), (20, 21)}
    assert set(seen) == want
    # part assignment matches the deterministic worker-side hash
    ida = np.array([a for a, _ in seen], dtype=object)
    idb = np.array([b for _, b in seen], dtype=object)
    codes = dedup._pair_part_codes(ida, idb, num_parts)
    assert {p for p in seen.values()} == set(codes.tolist()) and all(
        seen[(a, b)] == c for a, b, c in zip(ida, idb, codes))


def test_minhash_dataset_output_equals_pandas():
    """output='dataset' (the zero-driver-materialization cluster path)
    must contain exactly the pandas-mode pairs, typed."""
    import pandas as pd

    from autoprepad_ray.stages.dedup import minhash_lsh_pairs

    import pyarrow.parquet as pq
    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    for k in range(5):
        ids.append(100000 + k)
        texts.append(" ".join(texts[k].split()[:-2]))
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(texts)})
    ds = rd.from_arrow(tbl).repartition(4)
    want = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5)
    got_ds = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5,
                               output="dataset")
    assert got_ds.schema().types[0] == pa.int64()
    got = got_ds.to_pandas().sort_values(["id_a", "id_b"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, want.astype({"id_a": np.int64, "id_b": np.int64}))
