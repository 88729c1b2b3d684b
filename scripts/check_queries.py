"""Driver emulator: run every queries() entry against its oracle_sql()
via DuckDB at a given sf_dir, compare row-count + schema + sorted
values. Usage: python scripts/check_queries.py [sf_dir] [name ...]"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import duckdb
import pandas as pd
import ray

TABLES = ["documents"]


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        df = result.to_pandas()
        if len(df.columns) == 0:
            df = pd.DataFrame({n: [] for n in result.schema().names})
        return df
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return pd.DataFrame(result)


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            failures.append(name)
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            continue
        wall = time.time() - t0
        if name not in oracles:
            print(f"ROWS  {name}: {len(mine)} rows ({wall:.1f}s, no oracle)")
            continue
        ref = con.execute(oracles[name]).fetchdf()
        a, b = normalize(mine), normalize(ref)
        ok_rows = len(a) == len(b)
        ok_schema = list(a.columns) == list(b.columns)
        ok_vals = False
        if ok_rows and ok_schema:
            try:
                pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
                ok_vals = True
            except AssertionError as e:
                print(f"      value diff: {str(e).splitlines()[-1][:200]}")
        status = "OK  " if (ok_rows and ok_schema and ok_vals) else "FAIL"
        if status == "FAIL":
            failures.append(name)
            print(f"{status}  {name}: rows {len(a)}/{len(b)} schema {list(a.columns)} vs {list(b.columns)}")
        else:
            print(f"{status}  {name}: {len(a)} rows ({wall:.1f}s)")
    ray.shutdown()
    if failures:
        print("FAILURES:", failures)
        return 1
    print("all queries match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
