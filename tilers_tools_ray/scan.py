"""Plain Ray tasks over a driver-side plan of input units, and the lazy
:class:`Scan` both layers build on them.

``_run_units`` runs ``fn`` once per unit as one plain task each. The
pyramid runs every stage through it; the query layer's scans do too.

A :class:`Scan` records its input units, how a task reads one unit,
and the narrow steps after the read (``map_batches`` with a function
and ``select_columns``). ``to_pandas()``, ``count()`` and
``materialize()`` run the whole chain as one plain task per unit, with
no Ray Data job. Every other ``Dataset`` method replays the scan as the
lazy Ray Data plan it stands for (the recorded read, then the same
``map_batches`` calls) and calls the method on that plan, so wide steps
(groupby, sort, join, union, limit, writes) and actor pools run exactly
as Ray Data runs them.

Inside a task a step keeps the contract of Ray Data's fused
``map_batches``: its input is re-sliced to ``batch_size`` rows
(``None``: the whole unit is one batch) in the step's batch format; an
all-empty input is passed on without calling the function; the
function's outputs become one block for the next step.
"""

from __future__ import annotations

import inspect
import itertools
from types import GeneratorType


def _run_units(units, fn):
    """``fn`` (unit → result) once per unit, one plain Ray task each,
    not a Ray Data job: on a 4-CPU session a Ray Data task per unit cost
    ~25 ms of scheduling each, more than most units' work, and its
    executor ran only two such tasks at a time under a 768 MB object
    store. Returns the object refs of the results once every task has
    finished (a task's error raises here)."""
    import ray

    run = ray.remote(fn)
    refs = [run.remote(u) for u in units]
    ray.get(refs)
    return refs


class _MapStep:
    """One recorded ``map_batches(fn, batch_format=, batch_size=)``."""

    def __init__(self, fn, batch_format, batch_size, zero_copy_batch):
        self.fn = fn
        self.batch_format = batch_format
        self.batch_size = batch_size
        self.zero_copy_batch = zero_copy_batch

    def replay(self, ds):
        return ds.map_batches(
            self.fn,
            batch_size=self.batch_size,
            batch_format=self.batch_format,
            zero_copy_batch=self.zero_copy_batch,
        )

    def __call__(self, blocks):
        from ray.data._internal.block_batching.block_batching import batch_blocks
        from ray.data._internal.delegating_block_builder import (
            DelegatingBlockBuilder,
        )
        from ray.data.block import BlockAccessor, _apply_batch_format

        blocks = iter(blocks)
        first = next(blocks, None)
        if first is None:
            return []
        empty = BlockAccessor.for_block(first).builder().build()
        blocks = itertools.chain([first], blocks)
        first = None
        if self.batch_size is None:  # the whole unit is one batch
            blocks = [_merge(blocks)]
        out, called = DelegatingBlockBuilder(), False
        for batch in batch_blocks(
            blocks,
            batch_size=self.batch_size,
            batch_format=_apply_batch_format(self.batch_format),
            ensure_copy=not self.zero_copy_batch and self.batch_size is not None,
        ):
            res = self.fn(batch)
            for b in res if isinstance(res, GeneratorType) else [res]:
                out.add_batch(b)
            called = True
        # all-empty input: passed on, the function is not called
        return [out.build()] if called else [empty]


class _SelectStep:
    """One recorded ``select_columns(cols)``; empty blocks pass as is."""

    def __init__(self, cols):
        self.cols = cols

    def replay(self, ds):
        return ds.select_columns(self.cols)

    def __call__(self, blocks):
        from ray.data.block import BlockAccessor

        for b in blocks:
            acc = BlockAccessor.for_block(b)
            yield acc.select(self.cols) if acc.num_rows() else b


def _merge(blocks):
    from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder

    out = DelegatingBlockBuilder()
    for b in blocks:
        out.add_block(b)
    return out.build()


def _unit_block(read, steps, unit):
    """A unit's rows after every step, as one block."""
    blocks = read(unit)
    for step in steps:
        blocks = step(blocks)
    return _merge(blocks)


def _unit_count(read, steps, unit):
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(_unit_block(read, steps, unit)).num_rows()


def _as_dataset(x):
    return x.dataset() if isinstance(x, Scan) else x


#: the attributes a Scan keeps; __getattr__ never replays for them
_STATE = frozenset({"_units", "_read", "_replay", "_steps", "_rows", "_ds"})


class Scan:
    """A lazy plain-task scan (see the module docstring).

    ``units`` is the driver-side plan, ``read(unit)`` yields a unit's
    rows as Arrow tables inside a task, ``replay()`` builds the Ray Data
    plan of the same read, and ``rows`` is the input's row total from
    the footers (``count()`` with no steps starts no task)."""

    def __init__(self, units, read, replay, rows, steps=()):
        self._units = list(units)
        self._read = read
        self._replay = replay
        self._rows = rows
        self._steps = tuple(steps)
        self._ds = None

    def _with(self, step):
        return Scan(self._units, self._read, self._replay, self._rows, self._steps + (step,))

    # -- narrow steps ------------------------------------------------------
    def map_batches(
        self,
        fn,
        *,
        batch_size=None,
        batch_format="default",
        zero_copy_batch=False,
        **kwargs,
    ):
        """Records a function step. A class ``fn`` (an actor pool) or
        any other argument (``concurrency=``, ``fn_kwargs=``, resources)
        replays the scan on Ray Data and calls its ``map_batches``."""
        if kwargs or inspect.isclass(fn):
            return self.dataset().map_batches(
                fn,
                batch_size=batch_size,
                batch_format=batch_format,
                zero_copy_batch=zero_copy_batch,
                **kwargs,
            )
        return self._with(_MapStep(fn, batch_format, batch_size, zero_copy_batch))

    def select_columns(self, cols):
        return self._with(_SelectStep([cols] if isinstance(cols, str) else list(cols)))

    # -- terminal calls (plain tasks) ----------------------------------------
    def _tasks(self, fn):
        """``fn(read, steps, unit)`` in one plain task per unit."""
        read, steps = self._read, self._steps
        return _run_units(self._units, lambda u: fn(read, steps, u))

    def to_pandas(self):
        """The rows of every unit, in plan order, as one DataFrame
        (blocks converted and concatenated as ``Dataset.to_pandas``
        does; an all-empty result has no columns, as there)."""
        import ray
        from ray.data._internal.pandas_block import PandasBlockBuilder
        from ray.data.block import BlockAccessor

        frames = PandasBlockBuilder()
        for ref in self._tasks(_unit_block):
            acc = BlockAccessor.for_block(ray.get(ref))
            if acc.num_rows():
                frames.add_block(acc.to_pandas())
        return BlockAccessor.for_block(frames.build()).to_pandas()

    def count(self):
        import ray

        if not self._steps:
            return self._rows
        return int(sum(ray.get(self._tasks(_unit_count))))

    def materialize(self):
        """Runs the chain (one plain task per unit) and returns a
        ``MaterializedDataset`` over the unit blocks."""
        import ray.data as rd

        return rd.from_arrow_refs(self._tasks(_unit_block))

    # -- everything else: replay on Ray Data -----------------------------------
    def dataset(self):
        """The lazy Ray Data plan this scan stands for."""
        if self._ds is None:
            ds = self._replay()
            for step in self._steps:
                ds = step.replay(ds)
            self._ds = ds
        return self._ds

    def __getattr__(self, name):
        if name in _STATE or name.startswith("__"):
            raise AttributeError(name)
        attr = getattr(self.dataset(), name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            return attr(
                *map(_as_dataset, args),
                **{k: _as_dataset(v) for k, v in kwargs.items()},
            )

        return call
