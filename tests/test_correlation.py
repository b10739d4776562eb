"""Distributed Spearman: exact path vs a numpy oracle, and the sampled
fallback past the exact-rank bound (VERDICT r2 item 10 — the reference's
SpearmanCheck.py:23-41 heuristic is itself memory-bounded)."""

import numpy as np
import pyarrow as pa

import ray.data as rd

from autoprepad_ray.validators.correlation import (_rank_average,
                                                   spearman,
                                                   spearman_sampled)


def _oracle_spearman(x, y):
    rx, ry = _rank_average(x), _rank_average(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def _ds(x, y, parts=4):
    return rd.from_arrow(pa.table({"x": pa.array(x),
                                   "y": pa.array(y)})).repartition(parts)


def test_rank_average_matches_scipy_semantics():
    a = np.array([3.0, 1.0, 3.0, 2.0, 3.0])
    # ranks: 1->1, 2->2, the three 3s share (3+4+5)/3 = 4
    assert _rank_average(a).tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]


def test_exact_spearman_matches_oracle_with_ties():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 50, 3000).astype(np.float64)
    y = x * 2 + rng.integers(0, 10, 3000)
    got = spearman(_ds(x, y), "x", "y")
    assert np.isclose(got, _oracle_spearman(x, y), atol=1e-12)


def test_spearman_falls_back_to_sample_past_exact_bound():
    """A stream whose distinct count exceeds max_exact must not raise;
    the sampled estimate lands within sampling error of the truth."""
    rng = np.random.default_rng(7)
    n = 20_000
    x = rng.standard_normal(n)            # ~all-distinct floats
    y = x + 0.5 * rng.standard_normal(n)
    truth = _oracle_spearman(x, y)
    got = spearman(_ds(x, y), "x", "y", max_exact=1000,
                   sample_rows=8000)
    assert abs(got - truth) < 0.03
    # a perfect monotone relation stays exactly 1 under any sample
    assert spearman(_ds(x, np.exp(x)), "x", "y", max_exact=1000,
                    sample_rows=5000) == 1.0


def test_spearman_sampled_full_fraction_is_exact():
    rng = np.random.default_rng(11)
    x = rng.integers(0, 30, 2000).astype(np.float64)
    y = -x + rng.integers(0, 5, 2000)
    got = spearman_sampled(_ds(x, y), "x", "y", sample_rows=10_000)
    assert np.isclose(got, _oracle_spearman(x, y), atol=1e-12)


def test_spearman_on_empty_input_is_nan():
    """No rows (and one row) give NaN, as spearman_sampled does below
    two rows: the empty profile has no column to rank."""
    assert np.isnan(spearman(_ds(np.empty(0), np.empty(0), parts=1),
                             "x", "y"))
    assert np.isnan(spearman(_ds([1.0, 2.0], [3.0, 4.0])
                             .filter(lambda r: False), "x", "y"))
    assert np.isnan(spearman(_ds([1.0], [2.0], parts=1), "x", "y"))
