"""Driver-gate replica: run EVERY queries() entry at a given sf dir and
compare SQL-checked ones against the DuckDB oracle with STRICT value
AND dtype equality (the real gate hashes values and checks schema, so
int64-vs-float64 drift fails it even when values match).

Usage (own Ray session — never inside pytest):

    python tools/sweep_sf01.py [/root/testdata/sf0.01] [name1,name2,...]

Optional second arg restricts the sweep to a comma-separated subset of
query names.  Prints one line per query; exits non-zero on any
MISMATCH/ERROR.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))          # repo root, for __ray_entry__

import ray


def main() -> int:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    # one Ray CPU per host CPU: a fixed count would start that many
    # worker processes on any host
    ray.init(address="local", num_cpus=os.cpu_count() or 1,
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import duckdb
    import numpy as np
    import pandas as pd

    import __ray_entry__ as em

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        df = df[sorted(df.columns)].copy()
        for c in df.columns:
            if pd.api.types.is_float_dtype(df[c]):
                df[c] = df[c].astype(np.float64)
            elif pd.api.types.is_integer_dtype(df[c]):
                df[c] = df[c].astype(np.int64)
        return df.sort_values(by=list(df.columns)).reset_index(drop=True)

    def topd(res):
        import pyarrow as pa

        import ray.data
        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
        if isinstance(res, pa.Table):
            return res.to_pandas()
        return res

    queries, oracles = em.queries(), em.oracle_sql()
    if len(sys.argv) > 2:
        only = set(sys.argv[2].split(","))
        unknown = only - set(queries)
        if unknown:
            print("unknown query names:", sorted(unknown))
            return 1
        queries = {n: q for n, q in queries.items() if n in only}
    fails: list[str] = []
    for name in sorted(queries):
        try:
            got = canon(topd(queries[name](sf)))
            if name in oracles:
                exp = canon(con.execute(oracles[name]).df())
                ok = got.equals(exp) and \
                    [d.kind for d in got.dtypes] == \
                    [d.kind for d in exp.dtypes]
                print(name, "OK" if ok else "MISMATCH",
                      len(got), len(exp), flush=True)
                if not ok:
                    fails.append(name)
            else:
                print(name, "rows-only", len(got), flush=True)
        except Exception as e:  # noqa: BLE001 - report and continue
            print(name, "ERROR", repr(e), flush=True)
            fails.append(name)
    print("FAILS:", fails)
    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
