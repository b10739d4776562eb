"""Domain / format-pattern validators (the engine's analogue of the
reference's encoder-driven category handling F11/F12 — an unseen or
rare category is a domain violation — and of the pattern-extraction
branch M9 applied as a FORMAT check: values whose char-class shape is
rare violate the learned format profile).

Fit phase: category/shape frequency profile (ValueCounts from the
profile job).  Check phase: stateless vectorized membership tests with
the small learned domain broadcast.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.strings import shape_pattern


def learned_domain(vc, *, min_frac: float = 0.005,
                   total: int | None = None) -> frozenset:
    """Values considered in-domain: frequency share >= min_frac."""
    vals, cnts = vc.sorted_arrays()
    n = total if total is not None else int(cnts.sum())
    keep = cnts / max(1, n) >= min_frac
    return frozenset(np.asarray(vals)[keep].tolist())


def learned_shape_domain(vc, *, min_frac: float = 0.005) -> frozenset:
    """Format signatures considered in-domain: the :func:`format_signature`
    of every profiled value, weighted by its count, whose share of the
    column's values is >= min_frac."""
    vals, cnts = vc.sorted_arrays()
    sc = pd.DataFrame({"s": format_signature(pd.Series(list(vals))),
                       "n": cnts}).groupby("s")["n"].sum()
    return frozenset(sc[sc / max(1, int(cnts.sum())) >= min_frac].index)


def domain_flags(series: pd.Series, domain: frozenset) -> np.ndarray:
    """1 where the value is outside the learned/declared domain."""
    return (~series.isin(domain) & series.notna()).to_numpy(np.int8)


def format_signature(series: pd.Series) -> pd.Series:
    """Run-collapsed format signature: every alphanumeric run becomes
    ``x<len>``, separators stay literal — a uuid is always
    ``x8-x4-x12`` regardless of its hex digits, while per-char shapes
    (``shape_pattern``) would be unique per value.  This is the format
    profile used for id-like columns."""
    return series.astype("string").str.replace(
        r"[A-Za-z0-9]+", lambda m: f"x{len(m.group())}", regex=True)


def shape_domain_flags(series: pd.Series, shape_domain: frozenset,
                       signature=format_signature) -> np.ndarray:
    """1 where the format signature of the value is outside the learned
    format profile (rare signature => malformed id/uuid/code)."""
    shapes = signature(series)
    return (~shapes.isin(shape_domain) & series.notna()).to_numpy(np.int8)


def sketch_is_constant(sk) -> bool:
    """Constancy decision for ONE ColumnSketch (:func:`constant_listing`).
    All-null is constant; numeric/timestamp decide by exact sketch
    min == max; strings by exact value-count distinct <= 1 (an
    overflowed counter implies far more than one value);
    'other'-kind columns (binary / list / struct) carry no value
    sketch — constancy is UNDECIDABLE from the profile, so report
    not-constant rather than false-flagging every blob/embedding
    column (their distinct stays 0)."""
    if sk.count == 0:
        return True
    if sk.kind in ("numeric", "timestamp"):
        return bool(sk.moments.vmin == sk.moments.vmax)
    if sk.kind == "string" and not sk.values.overflow:
        return sk.values.distinct <= 1
    return False


def constant_columns(ds, columns: list[str] | None = None, *,
                     include_all: bool = False) -> pa.Table:
    """Constant / zero-variance column finding (SURVEY A6).

    The reference silently DROPS zero-variance columns before fitting
    (/root/reference/pipelines/runs.py:333-335,
    /root/reference/pipelines/experiment/experiment.py:545-559); the
    engine surfaces them as an explicit violation listing instead —
    a constant column in fresh data is usually an upstream bug (dead
    sensor, join fan-out, wrong filter), not something to hide.

    One streaming profile pass; no extra execution.  A column is
    constant when it has no two distinct non-null values: numeric /
    timestamp via exact sketch ``min == max``; string via the exact
    value-count distinct (an overflowed counter implies far more than
    one distinct value, hence not constant).  All-null columns count
    as constant (the degenerate case the reference also drops).  NaN
    parity note: the moment sketch excludes float NaNs from min/max
    and ``n``, while SQL COUNT/DISTINCT treat NaN as a value — run the
    check on NaN-free columns (or canonicalize first) when comparing
    against a SQL oracle.

    Returns (col_name, n, is_constant); only the constant rows unless
    ``include_all`` — :func:`constant_listing` over the profile.
    """
    from ..profile import profile_dataset

    return constant_listing(profile_dataset(ds, columns), columns,
                            include_all=include_all)


def constant_listing(prof, columns: list[str] | None = None, *,
                     include_all: bool = False) -> pa.Table:
    """:func:`constant_columns`' listing read off the ``TableProfile``
    ``prof`` (every profiled column, sorted, when ``columns`` is None)."""
    order = columns if columns is not None else sorted(prof.columns)
    names, ns, flags = [], [], []
    for name in order:
        sk = prof[name]
        const = sketch_is_constant(sk)
        if const or include_all:
            names.append(name)
            ns.append(int(sk.count))
            flags.append(int(const))
    return pa.table({"col_name": pa.array(names, type=pa.string()),
                     "n": pa.array(ns, type=pa.int64()),
                     "is_constant": pa.array(flags, type=pa.int64())})
