"""Emulate the driver's correctness gate locally.

Runs every ``queries()`` entry at sf0.01; where ``oracle_sql()`` has a
matching SQL string, runs it in DuckDB over the same parquet tables and
compares row-count, schema (column names), and an order-insensitive
value hash (columns sorted by name, rows sorted, values stringified).

Usage: python scripts/check_contract.py [sf_dir]
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import duckdb
import pandas as pd

TABLES = ["documents", "embeddings"]


def to_df(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return pd.DataFrame(result)


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        col = df[c]
        if pd.api.types.is_datetime64_any_dtype(col):
            df[c] = col.astype("datetime64[us]").astype(str)
        elif pd.api.types.is_float_dtype(col):
            df[c] = col.round(6).astype(str)
        else:
            df[c] = col.astype(str)
    if len(df) == 0:
        return hashlib.sha256(b"").hexdigest()[:16]
    rows = sorted("\x1f".join(vals) for vals in df.itertuples(index=False, name=None))
    return hashlib.sha256("\x1e".join(rows).encode()).hexdigest()[:16]


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs, oracles = e.queries(), e.oracle_sql()
    fails = []
    for name, fn in qs.items():
        t0 = time.time()
        try:
            mine = to_df(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            fails.append(name)
            continue
        wall = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(mine)} rows, {wall:.1f}s)")
            if len(mine) == 0 and name != "embedding_near_dups":
                print(f"WARN {name}: zero rows")
            continue
        theirs = con.execute(oracles[name]).fetchdf()
        problems = []
        if len(mine) != len(theirs):
            problems.append(f"rows {len(mine)} vs {len(theirs)}")
        if sorted(mine.columns) != sorted(theirs.columns):
            problems.append(f"cols {sorted(mine.columns)} vs {sorted(theirs.columns)}")
        elif value_hash(mine) != value_hash(theirs):
            problems.append("value-hash mismatch")
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)}")
            fails.append(name)
        else:
            print(f"ok   {name}: {len(mine)} rows match oracle ({wall:.1f}s)")
    print(f"\n{len(qs) - len(fails)}/{len(qs)} pass")
    ray.shutdown()
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
