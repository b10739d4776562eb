"""Seeded benchmark inputs, cached inside the checkout.

Two inputs, each a pure function of the seed:

- the F-IMG image+caption table (``autoprepad_ray.fixtures.ensure_fimg``,
  8 partitions, every R1-R7 injection).  ``ensure_fimg`` returns the
  expected outcomes only when it generates, so they are persisted beside
  the cached table as ``expectations.json``;
- a numeric table for ``validate_numeric_table``: three low-cardinality
  columns that stay on the exact value-count path and one column with
  more distinct values than the profile's ``max_exact`` (2,000,000), so
  the profile spills it to t-digest/HLL.  One partition has planted
  outliers.  The numpy oracle for its verdicts is computed from the
  generated arrays and persisted as ``oracle.json``.

Each input also has a small sibling with the same shape for the untimed
warm-up job.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from autoprepad_ray.fixtures import ensure_fimg, fimg_cache_dir

FIMG_PARTITIONS = 8
FIMG_ROWS = 250              # per partition: 2,000 images
WARM_FIMG_ROWS = 40

TAB_PARTITIONS = 16
TAB_ROWS = 2_100_000         # > max_exact distinct values in column u
WARM_TAB_ROWS = 32_000
TAB_EXACT_COLS = ["a", "b", "c"]
TAB_SKETCH_COL = "u"
TAB_COLS = TAB_EXACT_COLS + [TAB_SKETCH_COL]
TAB_PART_COL = "part"
TAB_PLANTED_SHARE = 0.10     # planted-partition rows pushed far out

# engine defaults the oracles must mirror
TUKEY_FACTOR = 1.5
MAD_THRESHOLD = 3.5
LABEL_PCT = 0.10
VERDICT_BUDGET = 0.05        # validate_numeric_table
FIMG_REF_PARTITIONS = (0, 1, 2)
FIMG_STAT_BUDGET = 0.005     # validate_images / run_validation

KEEP_SEEDS = 2               # cached inputs kept per kind


def _atomic_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _evict(pattern: str, keep: str) -> None:
    """Drop all but the newest cached inputs matching ``pattern``."""
    dirs = sorted((d for d in glob.glob(pattern) if d != keep),
                  key=os.path.getmtime, reverse=True)
    for d in dirs[KEEP_SEEDS - 1:]:
        shutil.rmtree(d, ignore_errors=True)


def dir_bytes(d: str, pattern: str = "*.parquet") -> int:
    return sum(os.path.getsize(p) for p in
               glob.glob(os.path.join(d, "**", pattern), recursive=True)
               if os.path.isfile(p))


# ---------------------------------------------------------------------------
# F-IMG


def fimg(cache: str, seed: int, rows: int = FIMG_ROWS) -> dict:
    """Ensure the F-IMG table for ``seed``; returns its paths, sizes and
    the generator's expected outcomes."""
    base = os.path.join(cache, "fimg")
    d = fimg_cache_dir(base, FIMG_PARTITIONS, rows, seed, True)
    exp_path = os.path.join(d, "expectations.json")
    if os.path.exists(os.path.join(d, "_DONE")) \
            and not os.path.exists(exp_path):
        shutil.rmtree(d)         # cached table without its expectations
    d, exp = ensure_fimg(base, partitions=FIMG_PARTITIONS, rows=rows,
                         seed=seed)
    if exp is not None:
        _atomic_json(exp_path, {**dataclasses.asdict(exp),
                                "stat_fail": fimg_stat_verdicts(d)})
        _evict(os.path.join(base, f"fimg_*_r{rows}_*"), d)
    return load_fimg(d)


def load_fimg(d: str) -> dict:
    """The fixture-cache check: the table is complete and its
    expectations load."""
    if not os.path.exists(os.path.join(d, "_DONE")):
        raise FileNotFoundError(f"incomplete fixture {d}")
    with open(os.path.join(d, "expectations.json")) as f:
        exp = json.load(f)
    return {"dir": d, "images": os.path.join(d, "images"),
            "captions": os.path.join(d, "captions.parquet"),
            "rows": FIMG_PARTITIONS * int(
                os.path.basename(d).split("_r")[1].split("_")[0]),
            "bytes": dir_bytes(d), "exp": exp}


def _flags(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Tukey-fence or MAD modified-z flags of ``v`` against the exact
    quantiles of ``ref`` (numpy linear interpolation)."""
    q1, med, q3 = np.quantile(ref, [0.25, 0.5, 0.75])
    iqr = q3 - q1
    out = (v < q1 - TUKEY_FACTOR * iqr) | (v > q3 + TUKEY_FACTOR * iqr)
    mad = np.median(np.abs(ref - med))
    if mad > 0:
        out |= np.abs(0.6745 * (v - med) / mad) > MAD_THRESHOLD
    return out


def fimg_stat_verdicts(d: str) -> list[int]:
    """Numpy oracle for the F-IMG ``stat`` verdicts.  R1 plants outliers
    in partition 3 only, but at this scale a seed can put a reference
    quartile of ``w`` or ``h`` on a size boundary and flag a whole size
    class everywhere; the expectation follows the data, not the recipe."""
    t = pq.read_table(os.path.join(d, "images"),
                      columns=["w", "h", "partition_id"])
    pid = t["partition_id"].to_numpy().astype(np.int64)
    ref = np.isin(pid, FIMG_REF_PARTITIONS)
    viol = np.zeros(len(pid), dtype=bool)
    for c in ("w", "h"):
        v = t[c].to_numpy().astype(np.float64)
        viol |= _flags(v, v[ref])
    share = np.bincount(pid, weights=viol) / np.bincount(pid)
    return np.flatnonzero(share > FIMG_STAT_BUDGET).tolist()


# ---------------------------------------------------------------------------
# numeric table


def _rng(seed: int, *keys: int) -> np.random.Generator:
    # SeedSequence entropy must be non-negative: fold any int into 64 bits
    return np.random.default_rng([seed & (2**64 - 1), *keys])


def _tab_partition(seed: int, pid: int, n: int, planted: bool
                   ) -> dict[str, np.ndarray]:
    rng = _rng(seed, pid)
    a = np.round(rng.normal(100.0, 15.0, n)).astype(np.int64)
    if planted:
        a[rng.random(n) < TAB_PLANTED_SHARE] += 1000
    return {
        TAB_PART_COL: np.full(n, pid, dtype=np.int64),
        "a": a,
        "b": rng.integers(0, 1000, n).astype(np.int64),
        "c": np.round(rng.gamma(9.0, 3.0, n)),
        "u": rng.random(n),
    }


def numpy_verdicts(cols: dict[str, np.ndarray]) -> dict:
    """Independent numpy oracle for ``validate_numeric_table``'s
    per-partition verdicts and label count: exact quantiles with numpy's
    linear interpolation, Tukey fences, MAD modified-z, OR-merged
    violations, budgeted partition verdicts."""
    n = len(cols[TAB_PART_COL])
    tukey = np.zeros(n, dtype=np.int64)
    mad_tot = np.zeros(n, dtype=np.int64)
    for c in TAB_COLS:
        v = cols[c].astype(np.float64)
        q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75])
        iqr = q3 - q1
        tukey += (v < q1 - TUKEY_FACTOR * iqr) | (v > q3 + TUKEY_FACTOR * iqr)
        if c in TAB_EXACT_COLS:      # the sketch path has no MAD state
            mad = np.median(np.abs(v - med))
            if mad > 0:
                mad_tot += np.abs(0.6745 * (v - med) / mad) > MAD_THRESHOLD
    raw = tukey + mad_tot
    viol = raw > 0
    pid = cols[TAB_PART_COL]
    n_rows = np.bincount(pid)
    n_viol = np.bincount(pid, weights=viol).astype(np.int64)
    thr = np.quantile(raw, 1.0 - LABEL_PCT)
    return {
        "n_rows": n_rows.tolist(), "n_viol": n_viol.tolist(),
        "fail": (n_viol / n_rows > VERDICT_BUDGET).astype(int).tolist(),
        "labels": int((raw > thr).sum()),
    }


def tabular(cache: str, seed: int, rows: int = TAB_ROWS) -> dict:
    """Ensure the numeric table for ``seed`` (one parquet file per
    partition) and its oracle."""
    base = os.path.join(cache, "tab")
    d = os.path.join(base, f"tab_p{TAB_PARTITIONS}_r{rows}_s{seed}")
    if not os.path.exists(os.path.join(d, "oracle.json")):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        planted = int(_rng(seed, 99).integers(TAB_PARTITIONS))
        per = rows // TAB_PARTITIONS
        parts = [_tab_partition(seed, p, per, p == planted)
                 for p in range(TAB_PARTITIONS)]
        for p, cols in enumerate(parts):
            pq.write_table(pa.table(cols),
                           os.path.join(d, f"part-{p:03d}.parquet"))
        allc = {c: np.concatenate([p[c] for p in parts])
                for c in parts[0]}
        oracle = numpy_verdicts(allc)
        oracle["planted"] = planted
        _atomic_json(os.path.join(d, "oracle.json"), oracle)
        _evict(os.path.join(base, f"tab_*_r{rows}_*"), d)
    return load_tabular(d)


def load_tabular(d: str) -> dict:
    with open(os.path.join(d, "oracle.json")) as f:
        oracle = json.load(f)
    files = sorted(glob.glob(os.path.join(d, "part-*.parquet")))
    if len(files) != TAB_PARTITIONS:
        raise FileNotFoundError(f"incomplete fixture {d}")
    return {"dir": d, "files": files, "rows": sum(oracle["n_rows"]),
            "bytes": dir_bytes(d), "oracle": oracle}
