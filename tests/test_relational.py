"""hash_join inner/anti joins and the anti_join_keys narrow/wide
dispatch (SURVEY.md §2.4 A5 at engine scale)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from searchgov_spider_ray.pipelines import relational


BIG = 2**53  # beyond float64-exact integers: the corruption trap


def _sorted_rows(df: pd.DataFrame) -> list[tuple]:
    df = df[sorted(df.columns)]
    return sorted(df.itertuples(index=False, name=None))


@pytest.fixture
def int_sides(ray_session):
    left = pd.DataFrame(
        {
            "k": [1, 2, 3, BIG + 7, BIG + 8, 5, 2],
            "lv": [10, 20, 30, 40, 50, 60, 70],
        }
    )
    right = pd.DataFrame({"k": [2, 3, BIG + 7, 9], "rv": [200, 300, 700, 900]})
    return left, right


class TestHowVariants:
    def test_inner_matches_pandas(self, int_sides):
        left, right = int_sides
        out = relational.hash_join(
            rd.from_pandas(left), rd.from_pandas(right), on="k", n_parts=5
        ).to_pandas()
        exp = left.merge(right, on="k", how="inner")
        assert _sorted_rows(out) == _sorted_rows(exp)

    def test_anti_and_semi(self, int_sides):
        left, right = int_sides
        anti = relational.hash_join(
            rd.from_pandas(left), rd.from_pandas(right[["k"]]), on="k", n_parts=5, how="anti"
        ).to_pandas()
        assert sorted(anti["lv"]) == [10, 50, 60]  # keys 1, BIG+8, 5
        assert (BIG + 8) in set(anti["k"])  # exact at >= 2^53

    def test_anti_keeps_null_left_keys(self, ray_session):
        # SQL NOT EXISTS: a NULL key never matches, so anti KEEPS it
        left = pa.table({"k": pa.array([1, None, 2], type=pa.int64()),
                         "lv": pa.array([10, 11, 12])})
        right = pa.table({"k": pa.array([2], type=pa.int64())})
        out = relational.hash_join(
            rd.from_arrow(left), rd.from_arrow(right), on="k", n_parts=3, how="anti"
        ).to_pandas()
        assert sorted(out["lv"]) == [10, 11]

    def test_string_keys(self, ray_session):
        left = pd.DataFrame({"k": ["a", "b", "c", "b"], "lv": [1, 2, 3, 4]})
        right = pd.DataFrame({"k": ["b", "z"], "rv": [20, 26]})
        inner = relational.hash_join(
            rd.from_pandas(left), rd.from_pandas(right), on="k", n_parts=4
        ).to_pandas()
        assert _sorted_rows(inner) == _sorted_rows(left.merge(right, on="k"))
        anti = relational.hash_join(
            rd.from_pandas(left), rd.from_pandas(right[["k"]]), on="k", n_parts=4, how="anti"
        ).to_pandas()
        assert sorted(anti["lv"]) == [1, 3]

    def test_unsupported_how_raises(self, int_sides):
        left, right = int_sides
        with pytest.raises(ValueError):
            relational.hash_join(
                rd.from_pandas(left), rd.from_pandas(right), on="k", how="cross"
            )


class TestAntiJoinKeysDispatch:
    def test_narrow_wide_parity_int(self, ray_session):
        left = pd.DataFrame({"k": np.arange(100, dtype=np.int64), "v": np.arange(100)})
        right = pd.DataFrame({"k": np.arange(0, 100, 3, dtype=np.int64)})
        narrow = relational.anti_join_keys(
            rd.from_pandas(left), rd.from_pandas(right), "k", broadcast_below=10**9
        ).to_pandas()
        wide = relational.anti_join_keys(
            rd.from_pandas(left), rd.from_pandas(right), "k",
            broadcast_below=0, n_parts=7,
        ).to_pandas()
        exp = left[left["k"] % 3 != 0]
        assert _sorted_rows(narrow) == _sorted_rows(exp)
        assert _sorted_rows(wide) == _sorted_rows(exp)

    def test_narrow_wide_parity_string(self, ray_session):
        left = pd.DataFrame({"k": [f"u{i}" for i in range(50)], "v": range(50)})
        right = pd.DataFrame({"k": [f"u{i}" for i in range(0, 50, 2)]})
        narrow = relational.anti_join_keys(
            rd.from_pandas(left), rd.from_pandas(right), "k", broadcast_below=10**9
        ).to_pandas()
        wide = relational.anti_join_keys(
            rd.from_pandas(left), rd.from_pandas(right), "k",
            broadcast_below=0, n_parts=7,
        ).to_pandas()
        exp = left[left["v"] % 2 == 1]
        assert _sorted_rows(narrow) == _sorted_rows(exp)
        assert _sorted_rows(wide) == _sorted_rows(exp)


class TestNullKeyHandling:
    """Review-found regressions: a NULL key in any batch must not flip
    the partition function's dtype, and NULL right keys follow SQL
    (match nothing) on every path."""

    def test_nullable_int_batch_keeps_partitioning(self, ray_session):
        left = pa.table({"k": pa.array([1, None, 2, 5], type=pa.int64()),
                         "lv": pa.array([10, 11, 12, 15])})
        right = pa.table({"k": pa.array([2, 5], type=pa.int64()),
                          "rv": pa.array([20, 50])})
        inner = relational.hash_join(
            rd.from_arrow(left), rd.from_arrow(right), on="k", n_parts=5
        ).to_pandas()
        assert sorted(zip(inner["lv"], inner["rv"])) == [(12, 20), (15, 50)]
        anti = relational.hash_join(
            rd.from_arrow(left), rd.from_arrow(right.select(["k"])), on="k",
            n_parts=5, how="anti",
        ).to_pandas()
        assert sorted(anti["lv"]) == [10, 11]  # null-key row kept

    def test_null_right_keys_match_nothing(self, ray_session):
        left = pa.table({"k": pa.array([1, None, 2], type=pa.int64()), "lv": pa.array([10, 11, 12])})
        right = pa.table({"k": pa.array([2, None], type=pa.int64()), "rv": pa.array([20, 99])})
        inner = relational.hash_join(
            rd.from_arrow(left), rd.from_arrow(right), on="k", n_parts=3
        ).to_pandas()
        assert sorted(zip(inner["lv"], inner["rv"])) == [(12, 20)]
        anti = relational.hash_join(
            rd.from_arrow(left), rd.from_arrow(right.select(["k"])), on="k",
            n_parts=3, how="anti",
        ).to_pandas()
        assert sorted(anti["lv"]) == [10, 11]  # the null right key removes nothing

    def test_anti_join_keys_broadcast_null_right(self, ray_session):
        left_i = pa.table({"k": pa.array([1, 2], type=pa.int64()), "v": pa.array([1, 2])})
        right_i = pa.table({"k": pa.array([2, None], type=pa.int64())})
        out = relational.anti_join_keys(
            rd.from_arrow(left_i), rd.from_arrow(right_i), "k", broadcast_below=10**9
        ).to_pandas()
        assert sorted(out["v"]) == [1]
        # a string NULL must not become the literal key "None"
        left_s = pd.DataFrame({"k": ["a", "None"], "v": [1, 2]})
        right_s = pa.table({"k": pa.array(["b", None], type=pa.string())})
        out_s = relational.anti_join_keys(
            rd.from_pandas(left_s), rd.from_arrow(right_s), "k", broadcast_below=10**9
        ).to_pandas()
        assert sorted(out_s["v"]) == [1, 2]

