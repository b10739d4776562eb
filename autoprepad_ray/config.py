"""Declarative per-column validation config — the one-call entry that
mirrors the reference's constructor surface
(``AutoPrepAD(datetime_columns=…, nominal_columns=…, ordinal_columns=…,
exclude_columns=…, mark_anomalies_pct_data=…)``, control.py:89-107)
re-expressed over the validator registry (SURVEY §2.10).

``run_config(ds, config)`` takes a plain dict (YAML-shaped: every value
a scalar, list or dict) and assembles the full profile -> validate
lifecycle from it:

.. code-block:: python

    {
      "exclude_columns": ["internal_note"],          # M5 drop
      "numeric_columns": ["value"],                  # F1-F8 evidence
      "nominal_columns": ["event_type"],             # F11: domain flags
      "ordinal_columns": ["priority"],               # F12: domain + codes
      "datetime_columns": ["ts"],                    # M7/M8: parse + fences
      "pattern_columns": ["uuid"],                   # M9 as format profile
      "unique_keys": ["event_id"],                   # §2.7 uniqueness
      "partition_column": "pid",                     # per-partition verdicts
      "thresholds": {"tukey_factor": 1.5, "mad_threshold": 3.5,
                     "mark_anomalies_pct_data": 0.10,
                     "domain_min_frac": 0.02, "budget": 0.05},
      "validators": [                                # raw registry passthrough
        {"name": "constant_columns", "kwargs": {"columns": ["value"]}},
      ],
    }

Execution shape: two Ray Data executions, the fit fold and the summary
pass.  ``run_config`` drops the excluded columns once; the evidence step
(:func:`_declared_evidence`) canonicalizes NaN tokens on every declared
string column (string datetimes included, the reference's M1), parses
datetimes and runs ONE fit fold over the prepared rows: the profile of
every declared column and every ``constant_columns`` spec's ``columns``,
plus the ``unique_keys`` key-hash census.  The profile feeds all fitted
state (fences, domains, shape profiles, ordinal maps — the reference's
per-transformer fit attributes, TukeyTransformer.py:37-42) and answers
those ``constant_columns`` specs; the duplicate listing reads the rows
again only when the census finds a repeated key.  One stateless
``map_batches`` chain appends the evidence columns plus ``n_evidence``
(the OR-merge total, experiment.py:441-445).  The tail adds
``AnomalyScore``/``AnomalyLabel`` (runs.py:199-222): a
single-numeric-column config without partitions takes the score stats
off the profile, otherwise ONE summary pass (``row_checks.check_summary``
over ``n_evidence``) yields the score stats and the per-partition
verdicts together, so a partition's violation count is the OR-merge of
every declared check.  Other validators keep a pass of their own:
``constant_columns`` without ``columns`` (the fold cannot know the
input's columns before it runs), ``distinct_counts`` (``ValueCounts``
drops float NaN where ``pc.unique`` counts it, and an overflowed column
has only HLL) and every validator that needs rows.

One rule for inputs: every check reads the columns as the evidence step
prepared them, so a NaN token in a declared string column is a null (a
unique key's tokens join its one null group).  A domain column whose
exact value counts overflowed raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .functions.encoders import ordinal_encode_array, ordinal_map
from .functions.strings import canonicalize_nan_tokens
from .profile import TableProfile, bundle_partial, merge_bundles
from .stages.transport import fold_with_layout, merge_counts, merge_fields
from .validators import registry, row_checks as rc
from .validators.domain import (constant_listing, domain_flags,
                                learned_domain, learned_shape_domain,
                                shape_domain_flags)
from .validators.uniqueness import duplicate_listing, key_census

_DEFAULT_THRESHOLDS = {
    "tukey_factor": 1.5,          # TukeyTransformer.py:33
    "mad_threshold": 3.5,         # MedianAbsolutDeviation.py:36
    "mark_anomalies_pct_data": 0.10,   # control.py:98
    "domain_min_frac": 0.02,
    "budget": 0.05,
}
_DT_FORMAT = "%Y-%m-%d %H:%M:%S"      # how string datetime columns parse


@dataclass
class ConfigResult:
    enriched: Any                      # Dataset: evidence (+ score/label)
    profile: TableProfile
    states: dict                       # fitted fence states (numeric)
    domains: dict                      # fitted category domains
    shape_domains: dict                # fitted format profiles
    ordinal_maps: dict                 # fitted category -> code maps
    duplicates: Any | None = None      # uniqueness listing (arrow table)
    verdicts: Any | None = None        # per-partition verdict pa.Table
    extras: dict = field(default_factory=dict)   # named validator outputs


def _canon_and_parse(ds, str_cols: list[str], dt_cols: list[str]):
    """NaN-token canonicalization (M1) on declared string columns +
    datetime normalization: string datetimes are canonicalized too and
    parse with ``_DT_FORMAT`` (unparseable -> flag column, a NaN token is
    a null), native timestamps cast — either way a ``{col}_epoch`` int64
    column feeds the numeric fence checks."""

    def fn(t: pa.Table) -> pa.Table:
        for c in str_cols:
            t = t.set_column(t.column_names.index(c), c,
                             canonicalize_nan_tokens(t[c]))
        for c in dt_cols:
            col = t[c]
            if pa.types.is_timestamp(col.type):
                epoch = pc.cast(pc.cast(col, pa.timestamp("us")),
                                pa.int64())
                unparse = pa.array(np.zeros(t.num_rows, dtype=np.int8))
            else:
                col = canonicalize_nan_tokens(col)
                t = t.set_column(t.column_names.index(c), c, col)
                parsed = pc.strptime(col, format=_DT_FORMAT, unit="s",
                                     error_is_null=True)
                epoch = pc.cast(parsed, pa.int64())
                unparse = pc.cast(
                    pc.and_(pc.is_null(parsed), pc.is_valid(col)),
                    pa.int8())
            t = t.append_column(f"{c}_epoch", epoch)
            t = t.append_column(f"{c}_UNPARSEABLE", unparse)
        return t

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _thresholds(config: dict) -> dict:
    """The config's thresholds over the defaults.  Unknown keys raise
    (a misspelled declaration silently validating nothing is the worst
    failure mode a config surface can have)."""
    known = {"exclude_columns", "numeric_columns", "nominal_columns",
             "ordinal_columns", "datetime_columns", "pattern_columns",
             "unique_keys", "partition_column", "thresholds",
             "validators"}
    unknown = set(config) - known
    if unknown:
        raise KeyError(f"unknown config keys {sorted(unknown)}; "
                       f"known: {sorted(known)}")
    thr = {**_DEFAULT_THRESHOLDS, **config.get("thresholds", {})}
    unknown_thr = set(thr) - set(_DEFAULT_THRESHOLDS)
    if unknown_thr:
        raise KeyError(f"unknown thresholds {sorted(unknown_thr)}; "
                       f"known: {sorted(_DEFAULT_THRESHOLDS)}")
    return thr


def _declared_evidence(ds, config: dict, thr: dict) -> ConfigResult:
    """The evidence step of :func:`run_config` over ``ds`` (excluded
    columns already dropped) with the parsed thresholds ``thr``: fit the
    declared state in ONE fold, run the declared key and passthrough
    checks, and return it all with ``enriched`` as the lazy Dataset of
    evidence columns and ``n_evidence`` (no score or label yet).
    Raises ``ValueError`` when the reference has no rows (no fences to
    learn)."""
    numeric = list(config.get("numeric_columns", ()))
    nominal = list(config.get("nominal_columns", ()))
    ordinal = list(config.get("ordinal_columns", ()))
    dt_cols = list(config.get("datetime_columns", ()))
    pattern = list(config.get("pattern_columns", ()))
    keys = list(config.get("unique_keys", ()))
    specs = list(config.get("validators", ()))
    # constant_columns specs naming their columns read the fit profile
    answered = [sp for sp in specs if sp["name"] == "constant_columns"
                and sp.get("kwargs", {}).get("columns") is not None]
    prepped = _canon_and_parse(ds, nominal + ordinal + pattern, dt_cols)

    # ---- fit phase: ONE fold feeds every fitted state + key census ----
    num_cols = numeric + [f"{c}_epoch" for c in dt_cols]
    prof_cols = list(dict.fromkeys(
        num_cols + nominal + ordinal + pattern
        + [c for sp in answered for c in sp["kwargs"]["columns"]]))
    partials, merges = [bundle_partial(prof_cols)], [merge_bundles]
    if keys:
        partials.append(key_census(keys))
        merges.append(merge_counts)
    (bundle, *census), layout = fold_with_layout(
        prepped, lambda t: tuple(p(t) for p in partials),
        merge_fields(*merges))
    prof = TableProfile(columns=bundle[1], n_rows=bundle[0], layout=layout)
    if prof.n_rows == 0:
        raise ValueError("run_config: the reference (ds) has no "
                         "rows, so no fences can be learned")
    prof.require_exact(nominal + ordinal + pattern, "run_config")
    states = rc.fence_states(prof, num_cols,
                             tukey_factor=thr["tukey_factor"])
    domains = {c: learned_domain(prof[c].values,
                                 min_frac=thr["domain_min_frac"],
                                 total=prof[c].count)
               for c in nominal + ordinal}
    ordinal_maps = {}
    for c in ordinal:
        vals, _ = prof[c].values.sorted_arrays()
        ordinal_maps[c] = ordinal_map(np.asarray(vals, dtype=object))
    shape_domains = {c: learned_shape_domain(
        prof[c].values, min_frac=thr["domain_min_frac"]) for c in pattern}

    # ---- declared checks over the prepared rows ----
    duplicates = duplicate_listing(prepped, keys, census[0], layout) \
        if keys else None
    rows = prepped.drop_columns(
        [f"{c}_{x}" for c in dt_cols for x in ("epoch", "UNPARSEABLE")])
    extras = {}
    for sp in specs:
        kw = sp.get("kwargs", {})
        extras[sp["name"]] = constant_listing(prof, **kw) \
            if sp in answered else registry.run(sp["name"], rows, **kw)

    # ---- validate phase: evidence columns + OR-merge total ----
    checked = rc.check_rows(prepped, states,
                            mad_threshold=thr["mad_threshold"])

    def check_declared(df: pd.DataFrame) -> pd.DataFrame:
        ev = np.zeros(len(df), dtype=np.int64)
        for c in nominal + ordinal:
            f = domain_flags(df[c], domains[c])
            df[f"{c}_DOMAIN"] = f
            ev += f
        for c in ordinal:
            df[f"{c}_CODE"] = ordinal_encode_array(
                df[c].to_numpy(), ordinal_maps[c])
        for c in pattern:
            f = shape_domain_flags(df[c], shape_domains[c])
            df[f"{c}_SHAPE"] = f
            ev += f
        for c in dt_cols:
            ev += df[f"{c}_UNPARSEABLE"].to_numpy(np.int64)
        ev += df[rc.TUKEY_TOTAL].to_numpy(np.int64)
        ev += df[rc.MAD_TOTAL].to_numpy(np.int64)
        df["n_evidence"] = ev
        return df

    return ConfigResult(
        enriched=checked.map_batches(check_declared, batch_format="pandas"),
        profile=prof, states=states, domains=domains,
        shape_domains=shape_domains, ordinal_maps=ordinal_maps,
        duplicates=duplicates, extras=extras)


def run_config(ds, config: dict) -> ConfigResult:
    """Assemble and run the declared validation over ``ds``: the
    evidence step (:func:`_declared_evidence`), then the score/label and
    verdict tail.  See the module docstring for the config shape."""
    thr = _thresholds(config)
    pct = thr["mark_anomalies_pct_data"]
    if config.get("exclude_columns"):           # M5, runs.py:287-308
        ds = ds.drop_columns(list(config["exclude_columns"]))
    res = _declared_evidence(ds, config, thr)
    flagged = res.enriched
    pcol = config.get("partition_column")
    # a single-numeric-column config without partitions folds the
    # raw-score distribution off the profile's exact value counts
    # (CLAUDE.md r3 lesson); otherwise ONE summary pass gives the score
    # stats and the verdicts over every declared check
    stats = None if pcol else rc.score_stats_from_profile(
        res.profile, res.states, pct=pct, mad_threshold=thr["mad_threshold"])
    if stats is None:
        stats, res.verdicts = rc.check_summary(
            flagged, pcol, evidence_cols=("n_evidence",), pct=pct,
            budget=thr["budget"])
    res.enriched = rc.attach_scores(flagged, pct=pct, stats=stats)
    return res
