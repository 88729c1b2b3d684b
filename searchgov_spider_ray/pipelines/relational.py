"""Large-large relational primitives Ray Data 2.49 lacks natively.

``hash_join``: a hash-partitioned equi-join where BOTH sides are big —
the case broadcast joins (``anti_join_keys``' narrow path,
``stages/fetch.py``'s corpus index) don't cover. Each side is tagged and
padded to one unified schema, unioned, coarse-partitioned by a pure
function of the join key (so every key's rows from both sides co-locate,
same discipline as training.py's pair kernels), and merged with ONE
vectorized kernel per partition — no per-key Python, no driver
materialization. An optional ``post`` kernel runs inside each partition
right after the merge so partial aggregates can collapse before leaving
the exchange (combiner pushdown).

``how`` semantics:
- ``inner``: pandas merge per partition.
- ``anti``: Arrow-native key-membership filter per partition
  (``pc.is_in`` against the partition's right-key set) — exact for
  int64 of any magnitude and for string keys, no pandas conversion at
  all unless a ``post`` kernel is supplied. NULL left keys follow SQL
  NOT EXISTS semantics: they never match, so anti keeps them.

Keys may be integer (cast to int64) or string (partitioned by the
lockstep-vectorized ``xxhash64_array``, the repo-standard string hash).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.hashing import xxhash64_array
from ..functions.simdedup import hash_part as _key_part  # shared partitioner


def _part_of(keys: np.ndarray, n_parts: int) -> np.ndarray:
    """Partition id for int64 or string key arrays (shared partitioner;
    strings go through the vectorized xxhash64 kernel first)."""
    if keys.dtype.kind in ("i", "u"):
        return _key_part(keys, n_parts)
    return _key_part(xxhash64_array(keys), n_parts)


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    n_parts: int = 64,
    how: str = "inner",
    post: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
) -> rd.Dataset:
    """Hash-partitioned equi-join on key ``on`` (int or string);
    non-key column names must be disjoint. ``post`` (optional) is
    applied to each partition's merged frame before it leaves the
    exchange. ``how`` ∈ {inner, anti}; anti returns left columns only
    (``right`` may be a bare key dataset)."""
    if how not in ("inner", "anti"):
        raise ValueError(f"hash_join: unsupported how={how!r}")

    def _arrow_type(t) -> pa.DataType:
        # Ray's Schema.types carries Arrow types for Arrow-backed blocks
        # but numpy dtypes / Python classes for pandas-backed ones
        if isinstance(t, pa.DataType):
            return t
        if t is object or t is str:
            return pa.string()
        return pa.from_numpy_dtype(np.dtype(t))

    lcols = [c for c in left.schema().names if c != on]
    rcols = [c for c in right.schema().names if c != on]
    clash = set(lcols) & set(rcols)
    if clash:
        raise ValueError(f"hash_join column name clash: {sorted(clash)}")
    l_schema = {
        c: _arrow_type(left.schema().types[left.schema().names.index(c)]) for c in lcols
    }
    r_schema = {
        c: _arrow_type(right.schema().types[right.schema().names.index(c)]) for c in rcols
    }
    key_type = _arrow_type(left.schema().types[left.schema().names.index(on)])
    string_key = pa.types.is_string(key_type) or pa.types.is_large_string(key_type)

    def _keys_np(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
        # PARTITIONING view of the key column: nulls are filled with a
        # fixed sentinel so a nullable batch never changes dtype — an
        # int64 column with one NULL otherwise to_numpy()s to float64
        # and would route through a DIFFERENT partition function than
        # null-free batches, splitting equal keys across partitions.
        # Null keys all land in the sentinel's partition; the merge
        # handles their (non-)matching semantics exactly.
        if string_key:
            return np.asarray(pc.fill_null(arr, "").to_pylist(), dtype=object)
        return pc.fill_null(arr, 0).to_numpy(zero_copy_only=False).astype(np.int64)

    def prep(side: int, own: list[str], other_schema: dict):
        # side 0 = left, side 1 = right
        def kernel(t: pa.Table) -> pa.Table:
            keys = t[on] if string_key else pc.cast(t[on], pa.int64())
            part = _part_of(_keys_np(keys), n_parts)
            n = len(t)
            cols = {
                on: keys,
                "__side": pa.array(np.full(n, side, dtype=np.int8)),
                "__part": pa.array(part),
            }
            for c in own:
                cols[c] = t[c]
            for c, typ in other_schema.items():
                cols[c] = pa.nulls(n, type=typ)
            return pa.table(cols)

        return kernel

    tagged = left.map_batches(prep(0, lcols, r_schema), batch_format="pyarrow").union(
        right.map_batches(prep(1, rcols, l_schema), batch_format="pyarrow")
    )

    def merge(group: pa.Table) -> pa.Table:
        # split sides in ARROW, then convert each side separately: the
        # union's null pad columns are dropped before pandas ever sees
        # them, so integer payloads never round-trip through float64 —
        # int64 values >= 2^53 (hash ids, packed keys) stay exact.
        # (Columns that are null in the ORIGINAL data still go float in
        # pandas, same as a plain to_pandas would.)
        side = group["__side"].to_numpy(zero_copy_only=False)
        l_tab = group.filter(pa.array(side == 0)).select([on, *lcols])
        r_tab = group.filter(pa.array(side == 1)).select([on, *rcols])
        if how == "anti":
            # Arrow-native membership: no pandas, exact at any int64
            # magnitude. NULL keys never match (SQL): nulls are dropped
            # from the value set and fill_null(False) handles left nulls.
            rset = pc.unique(r_tab[on].combine_chunks().drop_null())
            mask = pc.fill_null(pc.is_in(l_tab[on], value_set=rset), False)
            out_tab = l_tab.filter(pc.invert(mask))
            if post is None:
                return out_tab
            out = out_tab.to_pandas()
        else:
            # SQL join semantics: a NULL key matches nothing. pandas
            # merge would match NaN==NaN, so drop null-key right rows
            # first; a null-key left row then finds no partner.
            r_tab = r_tab.filter(pc.is_valid(r_tab[on]))
            out = l_tab.to_pandas().merge(r_tab.to_pandas(), on=on, how="inner")
        if post is not None:
            out = post(out)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return tagged.groupby("__part").map_groups(merge, batch_format="pyarrow")


def anti_join_keys(
    left: rd.Dataset,
    right_keys: rd.Dataset,
    on: str,
    broadcast_below: int = 2_000_000,
    n_parts: int = 64,
) -> rd.Dataset:
    """The A5 anti-join shape (new = current ∖ previous) at any scale:
    below ``broadcast_below`` right rows, broadcast the distinct key
    set once via ``ray.put`` and filter each left batch with a
    vectorized membership test (no shuffle at all); above it, the
    hash-partitioned ``how="anti"`` join (two exchanges, nothing on the
    driver). Same narrow/wide dispatch discipline as training.py's
    ``WIDE_DOC_ROWS``."""
    # materialize the (narrow, key-only) right side once: count() and
    # the following unique()/join would otherwise each re-execute its
    # upstream pipeline; blocks spill if large, never the driver heap
    right_keys = right_keys.materialize()
    if right_keys.count() < broadcast_below:
        keys = right_keys.unique(on)
        key_type = left.schema().types[left.schema().names.index(on)]
        is_str = (
            isinstance(key_type, pa.DataType)
            and (pa.types.is_string(key_type) or pa.types.is_large_string(key_type))
        ) or key_type in (object, str)
        # SQL NOT EXISTS: a NULL right key matches nothing — drop nulls
        # (and NaN floats from pandas-backed blocks) instead of crashing
        # the int cast or stringifying None into a real "None" key
        vals = [
            k for k in keys
            if k is not None and not (isinstance(k, float) and np.isnan(k))
        ]
        if is_str:
            vset = pa.array(sorted(vals), type=pa.string())
        else:
            vset = pa.array(np.sort(np.asarray(vals, dtype=np.int64)))
        ref = ray.put(vset)

        class _Anti:
            def __init__(self):
                self._s = None

            def __call__(self, t: pa.Table) -> pa.Table:
                if self._s is None:
                    self._s = ray.get(ref)
                mask = pc.fill_null(pc.is_in(t[on], value_set=self._s), False)
                return t.filter(pc.invert(mask))

        return left.map_batches(_Anti(), batch_format="pyarrow")
    return hash_join(left, right_keys.select_columns([on]), on=on, n_parts=n_parts, how="anti")


