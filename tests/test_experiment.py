"""F-MIXED validation + experiment harness vs labeled injected anomalies
(FIXTURES.md §F-MIXED; reference Experiment semantics §3.4)."""

import pytest
import ray.data as rd

from autoprepad_ray.config import _declared_evidence, _thresholds
from autoprepad_ray.fixtures import generate_fmixed
from autoprepad_ray.pipelines.experiment import (FMIXED_CONFIG,
                                                 _metrics_from_counts,
                                                 run_experiment)


@pytest.fixture(scope="module")
def fmixed():
    table, exp = generate_fmixed(2000, seed=42)
    return table, exp


def test_evaluate_metrics():
    # y_true [1, 1, 0, 0] against y_pred [1, 0, 1, 0]
    m = _metrics_from_counts(tp=1, fp=1, fn=1)
    assert m["tp"] == 1 and m["fp"] == 1 and m["fn"] == 1
    assert m["precision"] == 0.5 and m["recall"] == 0.5 and m["f1"] == 0.5


def test_mixed_validation_catches_each_recipe(fmixed):
    table, exp = fmixed
    ds = rd.from_arrow(table).repartition(4)
    df = _declared_evidence(ds, FMIXED_CONFIG, _thresholds(FMIXED_CONFIG)) \
        .enriched.to_pandas().set_index("row_id")
    # each injected anomaly class is caught by its dedicated check
    for i in exp["misspelled"]:
        assert df.loc[i, "availability_DOMAIN"] == 1, i
    for i in exp["rare_platform"]:
        assert df.loc[i, "platform_DOMAIN"] == 1, i
    for i in exp["bad_uuid"]:
        assert df.loc[i, "uuid_SHAPE"] == 1, i
    for i in exp["wrong_year"]:
        assert df.loc[i, "timestamp_epoch_TUKEY"] == 1, i
    for i in exp["sentinel_loc"]:
        assert df.loc[i, "locationId_TUKEY"] == 1, i
    # canonicalized NaN tokens are nulls, not domain violations
    nan_rows = df[df["availability"].isna()]
    assert (nan_rows["availability_DOMAIN"] == 0).all()


def test_experiment_or_merge_and_sweep(fmixed):
    table, exp = fmixed
    ds = rd.from_arrow(table).repartition(4)
    out = run_experiment(ds)
    m = out["or_merge"]
    assert m["recall"] == 1.0          # every injected anomaly flagged
    assert m["precision"] >= 0.8       # false-positive rate bounded
    assert len(out["sweep"]) == 100
    # recall is monotone non-decreasing as the threshold loosens
    recalls = [s["recall"] for s in out["sweep"]]
    assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == 1.0


def test_experiment_runs_two_executions(fmixed, ray_executions):
    """The evidence step's profile pass and the (n_evidence, y_true)
    fold are the harness's only Ray Data executions."""
    table, _ = fmixed
    out = run_experiment(rd.from_arrow(table).repartition(4))
    assert out["or_merge"]["recall"] == 1.0
    assert len(ray_executions) == 2, ray_executions
