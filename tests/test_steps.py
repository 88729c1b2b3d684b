"""stages/steps.py — the ITEM_PIPELINES-shaped user-extension surface:
priority order (lower first, name tie-break), None-disables, row-drop
semantics, and class steps as actor pools (reference
search_gov_spiders/settings.py:105-108, pipelines.py:173-188)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from searchgov_spider_ray.stages.steps import Step, compose, steps_from_settings


def _ds():
    return rd.from_pandas(pd.DataFrame({"x": np.arange(10, dtype=np.int64)}))


# closures (not module-level defs) so cloudpickle ships them by value
def _make_steps():
    def add_one(t: pa.Table) -> pa.Table:
        return t.set_column(0, "x", pc.add(t["x"], 1))

    def double(t: pa.Table) -> pa.Table:
        return t.set_column(0, "x", pc.multiply(t["x"], 2))

    def drop_odd(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(pc.bit_wise_and(t["x"], 1), 0))

    return add_one, double, drop_odd


class TestStepRegistry:
    def test_priority_governs_not_registration_order(self, ray_session):
        add_one, double, _ = _make_steps()
        # (x+1)*2 for priorities 100,200 vs registered reversed
        steps = steps_from_settings({double: 200, add_one: 100})
        out = sorted(compose(_ds(), steps).to_pandas()["x"])
        assert out == [(i + 1) * 2 for i in range(10)]

    def test_none_priority_disables(self, ray_session):
        add_one, _, drop_odd = _make_steps()
        steps = steps_from_settings({add_one: 100, drop_odd: None})
        out = compose(_ds(), steps).to_pandas()
        assert len(out) == 10  # drop_odd never ran

    def test_rows_can_be_dropped(self, ray_session):
        _, _, drop_odd = _make_steps()
        steps = steps_from_settings({drop_odd: 100})
        out = compose(_ds(), steps).to_pandas()
        assert sorted(out["x"]) == [0, 2, 4, 6, 8]

    def test_class_step_runs_as_actor_pool(self, ray_session):
        class StatefulSquare:
            def __init__(self):
                self.power = 2  # built once per actor

            def __call__(self, t: pa.Table) -> pa.Table:
                x = t["x"].to_numpy(zero_copy_only=False)
                return pa.table({"x": pa.array(x**self.power)})

        steps = [Step(fn=StatefulSquare, priority=50, concurrency=2, batch_size=4)]
        # two input blocks, one per actor of the concurrency=2 pool
        df = pd.DataFrame({"x": np.arange(10, dtype=np.int64)})
        two_blocks = rd.from_pandas([df.iloc[:5], df.iloc[5:]])
        out = sorted(compose(two_blocks, steps).to_pandas()["x"])
        assert out == [i**2 for i in range(10)]

    def test_name_breaks_priority_ties(self, ray_session):
        add_one, double, _ = _make_steps()
        # same priority: add_one ('add_one') sorts before double ('double')
        steps = steps_from_settings({double: 100, add_one: 100})
        out = sorted(compose(_ds(), steps).to_pandas()["x"])
        assert out == [(i + 1) * 2 for i in range(10)]
