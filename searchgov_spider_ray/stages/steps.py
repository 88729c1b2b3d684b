"""Declarative, priority-ordered pipeline-step registry — the engine's
user-extension surface, mirroring the reference's ``ITEM_PIPELINES``
contract (reference ``search_gov_spiders/settings.py:105-108``: a dict
of step → integer priority, lower runs first; a ``None`` value disables
a step, Scrapy's component-disable convention) and the item-pipeline
semantics of ``search_gov_spiders/pipelines.py:173-188`` (a step may
DROP items — here: return fewer rows — and may transform them).

A step is either
  * a plain function ``pyarrow.Table -> pyarrow.Table`` (stateless;
    runs as Ray tasks), or
  * a callable CLASS (stateful; runs as a ``map_batches`` actor pool —
    construction happens once per actor, the Ray analog of Scrapy
    instantiating one pipeline object per crawler process).

``compose`` applies the enabled steps to a Dataset in (priority, name)
order — name breaks priority ties deterministically, where Scrapy
leaves equal-priority order undefined. Each step stays an independent
``map_batches`` stage so the streaming executor can pipeline and scale
them separately (actor steps carry their own ``concurrency`` /
``batch_size`` / ``num_cpus``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import ray.data as rd


@dataclass(frozen=True)
class Step:
    """One pipeline step: ``fn`` is a Table->Table function or a
    callable class; ``priority`` orders steps (lower first, like
    ITEM_PIPELINES); ``enabled=False`` (or a ``None`` priority via
    ``steps_from_settings``) skips it without unregistering."""

    fn: Callable[..., Any] | type
    priority: int
    name: str = ""
    enabled: bool = True
    # actor-pool sizing (used only when fn is a class)
    concurrency: int | tuple[int, int] | None = None
    batch_size: int | None = None
    ray_remote_args: dict = field(default_factory=dict)

    def label(self) -> str:
        return self.name or getattr(self.fn, "__name__", repr(self.fn))


def steps_from_settings(mapping: dict[Callable | type, int | None]) -> list[Step]:
    """ITEM_PIPELINES-shaped input: {step: priority}; ``None`` priority
    = disabled (Scrapy convention for turning a component off in a
    settings overlay)."""
    return [
        Step(fn=fn, priority=p if p is not None else 0, enabled=p is not None)
        for fn, p in mapping.items()
    ]


def ordered_steps(steps: list[Step]) -> list[Step]:
    """Enabled steps in (priority, name) order — the single ordering
    rule shared by the Dataset composition and the per-table
    application the crawl's emit stage uses.

    STATEFULNESS CONTRACT: a class step's state must be read-only after
    construction (compiled patterns, lookup tables, clients). Batches
    run in parallel on every path (actor pools have N instances; task
    mode deserializes per task; the crawl's table executor reuses one
    instance per job), so cross-batch mutable accumulation was never
    well-defined — a step that mutates state per batch produces
    path-dependent output and is unsupported."""
    return sorted((s for s in steps if s.enabled), key=lambda s: (s.priority, s.label()))


def apply_steps_table(table, steps: list[Step], instances: dict | None = None):
    """Apply steps to ONE Arrow table — the per-table analog of
    :func:`compose`, run by the crawl's emit stage on both executors.
    Class steps are instantiated once and cached in ``instances``
    (keyed by step label), mirroring the once-per-actor construction
    of compose; plain functions are called directly. Same (priority,
    name) order as compose."""
    for s in ordered_steps(steps):
        if isinstance(s.fn, type):
            if instances is None:
                fn = s.fn()
            else:
                # explicit check — setdefault would eagerly construct
                # (and discard) a fresh instance every call, re-paying
                # __init__ (open files, model loads) once per round
                if s.label() not in instances:
                    instances[s.label()] = s.fn()
                fn = instances[s.label()]
        else:
            fn = s.fn
        table = fn(table)
    return table


def compose(ds: rd.Dataset, steps: list[Step], actor_pools: bool = True) -> rd.Dataset:
    """Apply enabled steps in (priority, name) order. Stateless steps
    become task-based ``map_batches``; class steps become actor pools
    (state built once per actor, reference pipelines hold open files /
    ES clients the same way — ``pipelines.py:37-44``).

    ``actor_pools=False`` runs class steps TASK-based instead: the
    instance is constructed ONCE on the driver and captured in a task
    closure (cloudpickle ships it by value, so user-defined step
    classes from any module work without import on the workers). Use
    this when the composition runs INSIDE another streaming executor's
    round (the crawl emit path): a pinned actor pool there contends
    with the round's own shard/decode stages and can starve a
    small-CPU session, while tasks share the pool freely. Step state
    must then be picklable and small (compiled patterns, lookup
    tables); heavy state (models) belongs on the actor-pool path."""
    for s in ordered_steps(steps):
        kwargs: dict[str, Any] = {"batch_format": "pyarrow"}
        if s.batch_size is not None:
            kwargs["batch_size"] = s.batch_size
        if isinstance(s.fn, type):
            if actor_pools:
                kwargs["concurrency"] = s.concurrency or 2
                kwargs.update(s.ray_remote_args)
                ds = ds.map_batches(s.fn, **kwargs)
            else:
                inst = s.fn()

                def _run_step(t, _inst=inst):
                    return _inst(t)

                ds = ds.map_batches(_run_step, **kwargs)
        else:
            ds = ds.map_batches(s.fn, **kwargs)
    return ds
