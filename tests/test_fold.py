"""The one unkeyed partial->merge fold (stages.transport.fold): its
merge contract over random block splits, its flat-task fan-in, and the
empty rule every function built on it inherits."""

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings, strategies as st

import ray.data as rd

from autoprepad_ray.sketches import KLL, HyperLogLog
from autoprepad_ray.stages.transport import (FAN_IN, _pickled, fold,
                                             fold_payloads, merge_counts,
                                             merge_fields, merge_groups)
from tests.test_sketches import _rank_error


def _blocks(values: np.ndarray, cuts: list[int], empties: list[int]):
    """``values`` split at ``cuts``, with 0-row blocks inserted at
    ``empties`` positions — one Dataset block per table."""
    tables = [pa.table({"v": pa.array(c, pa.int64())})
              for c in np.split(values, sorted(cuts))]
    for i in empties:
        tables.insert(min(i, len(tables)), tables[0].slice(0, 0))
    return rd.from_arrow(tables)


@given(st.integers(2_000, 20_000), st.integers(1, 3_000),
       st.integers(0, 2**32 - 1), st.integers(FAN_IN + 1, 3 * FAN_IN),
       st.integers(0, 5))
@settings(max_examples=5, deadline=None)
def test_fold_contract_over_random_blocks(n, span, seed, n_blocks,
                                          n_empty):
    """Counts, HLL registers, KLL ranks (error <= 1 %) and Arrow
    ``group_by`` sums/mins/maxes over a key with nulls (merged by
    ``merge_groups``), one tuple partial merged field-wise by
    ``merge_fields``, folded over a random split of an int multiset —
    more than FAN_IN blocks, some of them 0-row — match one process."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-span, span + 1, n)
    cuts = rng.integers(0, len(x) + 1, n_blocks - 1).tolist()
    empties = rng.integers(0, n_blocks, n_empty).tolist()
    ds = _blocks(x, cuts, empties)

    aggs = {"n": "sum", "s": "sum", "lo": "min", "hi": "max"}
    merge_g = merge_groups(["key"], aggs)

    def keyed(v: np.ndarray) -> pa.Table:
        """``v`` keyed by ``v % 7``, the key null where 5 divides v."""
        return pa.table({"key": pa.array(v % 7, mask=v % 5 == 0),
                         "n": np.ones(len(v), np.int64), "s": v,
                         "lo": v, "hi": v})

    def partial(t: pa.Table):
        v = t["v"].to_numpy()
        hll, kll = HyperLogLog(p=10), KLL()
        hll.update(v)
        kll.update(v.astype(np.float64))
        g = keyed(v).group_by(["key"]).aggregate(list(aggs.items())) \
            .rename_columns(["key", *aggs])
        return np.unique(v, return_counts=True), hll, kll, g

    def merge_into(empty):
        def merge(sketches):
            out = empty()
            for sk in sketches:
                out.merge(sk)
            return out
        return merge

    (vals, cnts), hll, kll, g = fold(ds, partial, merge_fields(
        merge_counts, merge_into(lambda: HyperLogLog(p=10)),
        merge_into(KLL), merge_g))
    u, c = np.unique(x, return_counts=True)
    np.testing.assert_array_equal(vals, u)
    np.testing.assert_array_equal(cnts, c)
    ref = HyperLogLog(p=10)
    ref.update(x)
    np.testing.assert_array_equal(hll.registers, ref.registers)
    assert kll.n == n
    assert _rank_error(np.sort(x).astype(np.float64), kll.quantile,
                       np.linspace(0, 1, 101)) <= 0.01
    want = keyed(x).group_by(["key"]).aggregate(list(aggs.items()))
    assert g.sort_by("key").to_pylist() == want.rename_columns(
        ["key", *aggs]).sort_by("key").to_pylist()
    assert g.filter(pc.is_null(g["key"]))["n"].to_pylist() == \
        [int((x % 5 == 0).sum())]


def test_driver_merge_receives_one_part_per_fan_in_group():
    """Flat tasks merge FAN_IN blocks each; the driver's merge sees
    ceil(blocks / FAN_IN) survivors (a closure list only records the
    calls made in this process)."""
    n_blocks = 2 * FAN_IN + 5
    packed = rd.from_arrow([_pickled(i) for i in range(n_blocks)]) \
        .materialize()
    assert packed.num_blocks() == n_blocks
    seen = []

    def merge(parts):
        seen.append(len(parts))
        return sum(parts)

    assert fold_payloads(packed, merge) == sum(range(n_blocks))
    assert seen == [math.ceil(n_blocks / FAN_IN)]


def test_driver_merge_may_update_large_parts_in_place():
    """Survivors big enough to live in the object store reach the
    driver's merge writable (merges such as the profile's update their
    first part in place)."""
    n_blocks = FAN_IN + 1
    ds = rd.from_arrow([pa.table({"v": [i]}) for i in range(n_blocks)])

    def merge(parts):
        acc = parts[0]
        for p in parts[1:]:
            acc += p
        return acc

    total = fold(ds, lambda t: np.full(200_000, t["v"][0].as_py()), merge)
    assert (total == sum(range(n_blocks))).all()


def test_empty_fold_is_merge_of_nothing():
    ds = rd.from_arrow(pa.table({"v": pa.array([], pa.int64())}))
    assert fold(ds, lambda t: t.num_rows, lambda parts: sum(parts)) == 0
    vals, cnts = fold(ds.filter(lambda r: False),
                      lambda t: np.unique(t["v"].to_numpy(),
                                          return_counts=True),
                      merge_counts)
    assert len(vals) == len(cnts) == 0


def _table():
    return pa.table({
        "k": pa.array([1, 2, 2, 3], pa.int64()),
        "node": pa.array([4, 5, 6, 7], pa.int64()),
        "id": pa.array(["a", "b", "c", "d"]),
        "text": pa.array(["x y", "y z", "x y", "z"]),
        "pid": pa.array([0, 0, 1, 1], pa.int64()),
        "x": pa.array([0.5, 1.5, 2.5, 3.5]),
        "emb": pa.array([[1.0, 0.0]] * 4, pa.list_(pa.float64()))})


def _nrows(out) -> int:
    return len(out) if not hasattr(out, "num_rows") else out.num_rows


def _raises(exc, fn, *args, **kwargs) -> bool:
    with pytest.raises(exc):
        fn(*args, **kwargs)
    return True


def _empty_frame(*cols):
    return lambda r: r.empty and list(r.columns) == list(cols)


def _migrated():
    import ray

    from autoprepad_ray.profile import profile_arrays, profile_dataset
    from autoprepad_ray.stages import bloom, cluster, cooccur, embed, \
        graph, join, text, topk
    from autoprepad_ray.validators import correlation, drift, heavy, \
        near_dup, referential, row_checks, uniqueness

    edges = np.array([0.0, 2.0, 4.0])
    src = {"id_col": "k", "source_col": "id"}
    fences = row_checks.fence_states(
        profile_arrays({"x": np.array([0.0, 1.0, 2.0, 3.0])}), ["x"])
    return {
        "eval_gram_set": (lambda ds: ray.get(text.eval_gram_set(ds)),
                          lambda r: len(r) == 0),
        "bm25_scores": (lambda ds: text.bm25_scores(
            ds, ["x"], id_col="k").count(), lambda r: r == 0),
        "source_mixture_weights": (
            lambda ds: text.source_mixture_weights(ds, source_col="id"),
            _empty_frame("source", "n_docs", "n_words", "weight")),
        "token_drift_by_source": (
            lambda ds: text.token_drift_by_source(ds, source_col="id"),
            _empty_frame("source", "tvd")),
        "vocab_jaccard_source_pairs": (
            lambda ds: text.vocab_jaccard_source_pairs(ds,
                                                       source_col="id"),
            _empty_frame("source_a", "source_b", "n_inter", "n_union",
                         "jaccard")),
        "token_budget_resample": (
            lambda ds: text.token_budget_resample(ds, **src),
            _empty_frame("source", "n_docs", "n_words", "cut", "n_kept",
                         "words_kept")),
        "corpus_assembly_funnel": (
            lambda ds: text.corpus_assembly_funnel(ds, **src),
            _empty_frame("source", "n_raw", "n_quality", "n_dedup", "cut",
                         "n_final")),
        "categorical_counts": (
            lambda ds: drift.categorical_counts(ds, "id"),
            lambda r: r == {}),
        "first_digit_counts": (
            lambda ds: drift.first_digit_counts(ds, "x"),
            lambda r: r.tolist() == [0] * 10),
        "spearman": (lambda ds: correlation.spearman(ds, "x", "k"),
                     math.isnan),
        "check_summary": (
            lambda ds: row_checks.check_summary(
                row_checks.check_rows(ds, fences), "pid"),
            lambda r: r[0][:2] == (0.0, 0.0) and math.isnan(r[0][2])
            and r[1].num_rows == 0),
        "orphans_broadcast": (
            lambda ds: referential.orphans(ds, ds, "k",
                                           strategy="broadcast"),
            lambda r: r.num_rows == 0),
        "orphans_shuffle": (
            lambda ds: referential.orphans(ds, ds, "k", strategy="shuffle"),
            lambda r: r.num_rows == 0),
        "kmedoids_fit": (
            lambda ds: _raises(ValueError, cluster.kmedoids_fit, ds,
                               ["x"], "k"), lambda r: r),
        "top_k": (lambda ds: topk.top_k(ds, ["x", "k"],
                                        descending=[True, False], k=3),
                  lambda r: r.empty),
        "skyline_2d": (lambda ds: topk.skyline_2d(
            ds, x_col="x", y_col="k", keep_cols=["x", "k"]),
            lambda r: r.num_rows == 0),
        "profile_dataset": (lambda ds: profile_dataset(ds, ["x"]).n_rows,
                            lambda r: r == 0),
        "distinct_counts": (lambda ds: uniqueness.distinct_counts(
            ds, ["k", "id"]), lambda r: r == {"k": 0, "id": 0}),
        "hll_distinct": (lambda ds: uniqueness.hll_distinct(ds, ["k"]),
                         lambda r: r == {"k": 0.0}),
        "hll_distinct_per_group": (
            lambda ds: uniqueness.hll_distinct_per_group(ds, "id", "k"),
            lambda r: r.num_rows == 0
            and r.column_names == ["id", "distinct_est"]),
        "duplicate_keys": (lambda ds: uniqueness.duplicate_keys(ds, ["k"]),
                           lambda r: r.num_rows == 0),
        "duplicate_keys_shuffle": (
            lambda ds: uniqueness._duplicate_keys_shuffle(ds, ["k"]),
            lambda r: r.num_rows == 0),
        "heavy_hitters": (lambda ds: heavy.heavy_hitters(ds, "k"),
                          lambda r: r.num_rows == 0),
        "duplicate_phash_groups": (
            lambda ds: near_dup.duplicate_phash_groups(
                ds, phash_col="k", id_col="id"),
            lambda r: r.num_rows == 0),
        "connected_components": (
            lambda ds: graph.connected_components(ds, "k", "node"),
            lambda r: r.num_rows == 0),
        "cooccur_weights": (
            lambda ds: cooccur.cooccur_weights(ds, part_col="k",
                                               node_col="node"),
            lambda r: all(len(a) == 0 for a in r)),
        "term_census": (lambda ds: text.term_census(ds),
                        lambda r: all(len(a) == 0 for a in r)),
        "build_bloom": (lambda ds: bloom.build_bloom(ds, "k", m_bits=256),
                        lambda r: not r["bits"].any()),
        "semi_join": (lambda ds: join.semi_join(ds, ds, "k").count(),
                      lambda r: r == 0),
        "histogram_counts": (
            lambda ds: drift.histogram_counts(ds, "x", edges),
            lambda r: r.tolist() == [0, 0]),
        "partition_histograms": (
            lambda ds: drift.partition_histograms(ds, {"x": edges},
                                                  ["id"], "pid"),
            lambda r: r == ({"x": {}}, {"id": {}})),
        "label_centroids": (
            lambda ds: embed.label_centroids(ds, "emb", "k"),
            lambda r: r.num_rows == 0),
    }


@pytest.mark.parametrize("empty", ["zero_rows", "filtered"])
@pytest.mark.parametrize("name", sorted(_migrated()))
def test_migrated_functions_on_empty_datasets(name, empty):
    """Every function folded through stages.transport.fold or
    keyed_fold answers an empty Dataset — zero rows, or rows filtered to
    nothing (Ray then reports no schema and runs no partial) — with its
    empty result."""
    t = _table()
    ds = rd.from_arrow(t.slice(0, 0)) if empty == "zero_rows" \
        else rd.from_arrow(t).filter(lambda r: False)
    call, ok = _migrated()[name]
    assert ok(call(ds))
