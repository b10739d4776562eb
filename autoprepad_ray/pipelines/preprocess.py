"""Preprocess one-shot (SURVEY §3.3, reference ``AutoPrepAD.preprocess``
control.py:206-230): fit the profile and emit the wide numeric feature
matrix in a single lineage — every column imputed, scaled/encoded, and
annotated with anomaly-evidence columns, the Titanic-notebook usage.

Matrix recipe per column class (mirroring configuration.py):
- numeric: median-impute (F1) -> robust-scale (F3) -> Tukey/MAD flags
  (F5-F8) + missing indicator (M11);
- categorical: mode-impute (F2) -> ordinal code + binary bits (F11/F12);
- datetime: YEAR/MONTH/WKDAY/HOUR/MINUTE/SECOND expansion (M8).

All fitted state (medians, IQRs, fences, modes, category maps) comes
from ONE profile pass and is broadcast; the transform is a single
stateless vectorized ``map_batches``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.dates import date_encode
from ..functions.encoders import binary_bits, ordinal_encode_array, ordinal_map
from ..profile import profile_dataset
from ..validators import row_checks as rc


def preprocess_table(ds, *, numeric_cols: tuple[str, ...] = (),
                     categorical_cols: tuple[str, ...] = (),
                     datetime_cols: tuple[str, ...] = (),
                     passthrough_cols: tuple[str, ...] = (),
                     pattern_cols: tuple[str, ...] = (),
                     round_scaled: int | None = 6):
    """Returns (transformed Dataset, fitted state dict).

    ``pattern_cols`` enables the reference's OPT-IN pattern-recognition
    branch (``deactivate_pattern_recognition=False``,
    configuration.py:378-462) as one composed path per column:
    schema-copy (M4, a rename of M1) -> mode-impute (F2,
    configuration.py:399) -> CategoricalPatterns 2-bit char-class
    encoding + length (M9, CategoricalPatterns.py:46-83) -> BinaryEncoder
    over the pattern strings (F11, configuration.py:449).  Emits
    ``{c}_PATTERN`` (the '0b0…' bit string), ``{c}_len``,
    ``{c}_pattern_code`` and ``ceil(log2 k)`` pattern bit columns; the
    fitted state is the mode + the sorted pattern->code map learned from
    the profile's distinct values (imputation precedes the pattern step,
    and the mode is itself a profile value, so the fit domain is exactly
    the profile's value set).  A categorical or pattern column past the
    profile's exact value counts raises ``ValueError``."""
    from ..functions.strings import reference_bit_pattern
    from ..sketches import np_object

    prof = profile_dataset(ds, columns=list(numeric_cols)
                           + list(categorical_cols) + list(pattern_cols))
    prof.require_exact([*categorical_cols, *pattern_cols], "preprocess_table")
    state: dict = {"medians": {}, "iqr": {}, "fences": {}, "modes": {},
                   "maps": {}, "k": {}, "pattern_maps": {},
                   "pattern_k": {}}
    for c in numeric_cols:
        p = prof[c]
        state["medians"][c] = p.quantile(0.5)
        state["iqr"][c] = p.quantile(0.75) - p.quantile(0.25)
    fences = rc.fence_states(prof, list(numeric_cols))
    state["fences"] = fences
    for c in categorical_cols:
        p = prof[c]
        state["modes"][c] = p.mode()[0] if p.mode() else None
        vals, _ = p.values.sorted_arrays()
        state["maps"][c] = ordinal_map(vals)
        state["k"][c] = len(state["maps"][c])
    for c in pattern_cols:
        p = prof[c]
        state["modes"][c] = p.mode()[0] if p.mode() else None
        vals, _ = p.values.sorted_arrays()
        pats = reference_bit_pattern(
            pd.Series(np.asarray(vals, dtype=object)))
        state["pattern_maps"][c] = ordinal_map(
            np.unique(pats.to_numpy(dtype=object)))
        state["pattern_k"][c] = len(state["pattern_maps"][c])

    def transform(t: pa.Table) -> pa.Table:
        cols: dict = {c: t[c] for c in passthrough_cols}
        for c in numeric_cols:
            raw = t[c].cast(pa.float64()).combine_chunks().to_numpy(
                zero_copy_only=False)
            missing = np.isnan(raw)
            cols[f"{c}_missing"] = pa.array(missing.astype(np.int64))
            med, iqr = state["medians"][c], state["iqr"][c]
            imputed = np.where(missing, med, raw)
            scaled = (imputed - med) / iqr if iqr > 0 \
                else np.zeros_like(imputed)
            if round_scaled is not None:
                scaled = np.round(scaled, round_scaled)
            cols[f"{c}_scaled"] = pa.array(scaled)
            tk, md = fences[c].flags(imputed)
            cols[f"{c}_TUKEY"] = pa.array(tk.astype(np.int64))
            cols[f"{c}_Z_MOD"] = pa.array(md.astype(np.int64))
        for c in categorical_cols:
            filled = pc.fill_null(t[c], state["modes"][c])
            codes = ordinal_encode_array(filled, state["maps"][c])
            cols[f"{c}_code"] = pa.array(codes)
            for name, bits in binary_bits(codes, state["k"][c]).items():
                cols[f"{c}_{name}"] = pa.array(bits)
        for c in pattern_cols:
            filled = pc.fill_null(t[c], state["modes"][c])    # F2
            pats = reference_bit_pattern(
                pd.Series(np_object(filled)))                 # M9
            cols[f"{c}_PATTERN"] = pa.array(
                pats.to_numpy(dtype=object), type=pa.string())
            cols[f"{c}_len"] = pc.cast(pc.utf8_length(filled),
                                       pa.int64())
            codes = ordinal_encode_array(                     # F11
                pats.to_numpy(dtype=object), state["pattern_maps"][c])
            cols[f"{c}_pattern_code"] = pa.array(codes)
            for name, bits in binary_bits(
                    codes, state["pattern_k"][c]).items():
                cols[f"{c}_pattern_{name}"] = pa.array(bits)
        out = pa.table(cols)
        for c in datetime_cols:
            out = out.append_column(c, t[c])
            out = date_encode(out, c)
            out = out.drop([c])
        return out

    return (ds.map_batches(transform, batch_format="pyarrow",
                           zero_copy_batch=True), state)
