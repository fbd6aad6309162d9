"""Plain Ray tasks over a driver-side plan of input units, and the lazy
:class:`Scan` both layers build on them.

``_run_units`` runs ``fn`` once per unit as one plain task each. The
pyramid runs every stage through it; the query layer's scans and
exchanges do too.

A :class:`Scan` records its input units, how a task reads one unit,
and the narrow steps after the read (``map_batches`` with a function
and ``select_columns``). ``to_pandas()``, ``count()`` and
``materialize()`` run the whole chain as one plain task per unit, with
no Ray Data job; ``materialize()`` returns a Scan over the computed
blocks. Two wide steps are plain-task exchanges too, each giving a new
lazy Scan whose units are its reducers (their tasks run when a
terminal call needs them, and later steps fuse into them):

* ``groupby(key).map_groups(fn, batch_format=)``: one task per unit
  runs the chain and cuts its block by a hash of the key into R pieces;
  a reducer joins its pieces and calls ``fn`` once per distinct key, in
  key order, as Ray Data does within a block.
* ``sort(key, descending=)``: one task per unit runs the chain, sorts
  its block and samples the leading key; the driver picks R−1
  splitters, a task per block cuts it into the R ranges, and a reducer
  merge-sorts one range, so the units are the ranges in order.

R is ``_num_blocks`` of the unit count. Every other ``Dataset`` method
(other ``groupby`` methods, joins, unions, limits, writes), a class
``fn`` and any other argument (``concurrency=``, ``fn_kwargs=``,
resources) replay the scan as the lazy Ray Data plan it stands for (the
recorded read, then the same calls) and call the method on that plan.

Inside a task a step keeps the contract of Ray Data's fused
``map_batches``: its input is re-sliced to ``batch_size`` rows
(``None``: the whole unit is one batch) in the step's batch format; an
all-empty input is passed on without calling the function; the
function's outputs become one block for the next step.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from types import GeneratorType

import numpy as np

#: leading-key values a sort samples from each sorted unit block
_SORT_SAMPLES = 64

#: ``pandas.api.types.infer_dtype`` kinds of an object key column that
#: hash as numbers (a bool or int column that held nulls)
_NUMBER_KINDS = frozenset({"boolean", "integer", "floating", "mixed-integer-float"})


def _cluster_cpus():
    """The Ray cluster's CPU count, or 8 when Ray is not initialized."""
    import ray

    if not ray.is_initialized():
        return 8
    return int(ray.cluster_resources().get("CPU", 8))


def _num_blocks(n_units):
    """Blocks (or reducers) for an input of ``n_units``: at least the
    CPU count, at most 200 unless the input has more units."""
    return min(max(n_units, _cluster_cpus(), 1), max(200, n_units))


def _run_units(units, fn, n=None):
    """``fn`` (unit → result) once per unit, one plain Ray task each,
    not a Ray Data job: on a 4-CPU session a Ray Data task per unit cost
    ~25 ms of scheduling each, more than most units' work, and its
    executor ran only two such tasks at a time under a 768 MB object
    store. With ``n``, ``fn`` returns a list of ``n`` results, each its
    own object (``num_returns``).

    Returns, once every task has finished, the ref of each unit's result
    (with ``n``: the list of its ``n`` refs). A task's error raises here.
    The results stay in the object store: each task also returns a
    ``None`` token, and the driver fetches only the tokens."""
    import ray

    def task(u):
        return (*(fn(u) if n else [fn(u)]), None)

    run = ray.remote(num_returns=(n or 1) + 1)(task)
    refs = [run.remote(u) for u in units]
    ray.get([r[-1] for r in refs])
    return [list(r[:-1]) if n else r[0] for r in refs]


def _by_reducer(refs):
    """Per-unit lists of ``n`` piece refs → per-reducer lists."""
    return [list(pieces) for pieces in zip(*refs)]


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


def _block_and_rows(read, steps, unit):
    from ray.data.block import BlockAccessor

    block = _unit_block(read, steps, unit)
    return [block, BlockAccessor.for_block(block).num_rows()]


def _block_read(block):
    """The read of a materialized unit: its block (a task gets the
    block, not its ref, as its argument)."""
    return [block]


# -- exchanges -------------------------------------------------------------
def _concat(blocks):
    """One block of ``blocks`` (Arrow tables or pandas frames), joined by
    pyarrow or pandas, not by Ray's block builders: their
    ``unify_schemas`` hashes a set of schemas, and a schema that carries
    pandas metadata cannot be hashed. Empty blocks are left out unless
    all are, so an all-empty result keeps its columns and types."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    accs = [BlockAccessor.for_block(b) for b in blocks]
    full = [b for b, acc in zip(blocks, accs) if acc.num_rows()]
    # all empty: a block that has columns, if any does
    full = full or [b for b, acc in zip(blocks, accs) if acc.column_names()][:1]
    full = full or list(blocks[:1]) or [pa.table({})]
    if len(full) == 1:
        return full[0]
    if all(isinstance(b, pa.Table) for b in full):
        return pa.concat_tables(full, promote_options="default")
    return pd.concat(
        [BlockAccessor.for_block(b).to_pandas() for b in full], ignore_index=True
    )


def _key_frame(block, keys):
    from ray.data.block import BlockAccessor

    acc = BlockAccessor.for_block(block)
    return BlockAccessor.for_block(acc.select(keys)).to_pandas()


def _key_hash(block, keys):
    """A uint64 per row, equal for equal keys whatever the block type:
    nulls hash alike, and numeric and bool keys hash by their float64
    value, so an int or bool column and the float64, nullable or object
    column pandas makes of it when it holds nulls hash alike (unequal
    keys may share a hash)."""
    import pandas as pd

    frame = _key_frame(block, keys)
    h = np.zeros(len(frame), np.uint64)
    for k in keys:
        col = frame[k]
        null = col.isna().to_numpy()
        if pd.api.types.is_numeric_dtype(col.dtype) or (
            col.dtype == object and pd.api.types.infer_dtype(col, skipna=True) in _NUMBER_KINDS
        ):
            v = col.to_numpy(dtype=np.float64, na_value=0.0) + 0.0  # -0.0 → 0.0
        else:
            v = col.to_numpy()
        hk = pd.util.hash_array(v)
        hk[null] = 0
        with np.errstate(over="ignore"):
            h = (h * np.uint64(0x100000001B3)) ^ hk
    return h


def _slices(block, bounds):
    from ray.data.block import BlockAccessor

    acc = BlockAccessor.for_block(block)
    return [acc.slice(lo, hi, copy=False) for lo, hi in zip(bounds, bounds[1:])]


def _hash_split(block, keys, n):
    """``block`` cut into ``n`` pieces by a hash of its keys (a typed
    empty block gives ``n`` copies of itself)."""
    from ray.data.block import BlockAccessor

    acc = BlockAccessor.for_block(block)
    if not acc.num_rows():
        return [block] * n
    part = (_key_hash(block, keys) % np.uint64(n)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(n + 1))
    return _slices(acc.take(order), bounds)


def _sort_block(block, keys, descending):
    """``block`` sorted on ``keys``, nulls last in every column (Ray
    Data's order for Arrow and pandas blocks alike)."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.block import BlockAccessor

    if not BlockAccessor.for_block(block).num_rows():
        return block
    if isinstance(block, pd.DataFrame):
        return block.sort_values(
            keys,
            ascending=[not d for d in descending],
            na_position="last",
            kind="stable",
        ).reset_index(drop=True)
    order = pc.sort_indices(
        block,
        sort_keys=[(k, "descending" if d else "ascending") for k, d in zip(keys, descending)],
        null_placement="at_end",
    )
    return block.take(order)


def _group_read(pieces, keys, fn, batch_format):
    """A groupby reducer: its pieces joined and sorted on the keys, then
    ``fn`` called once per distinct key in key order, in
    ``batch_format``; the outputs become one block. An all-empty input
    is passed on (typed) without calling ``fn``."""
    import ray
    from ray.data.block import BlockAccessor
    from ray.data.grouped_data import _apply_udf_to_groups

    block = _concat(ray.get(list(pieces)))
    if not BlockAccessor.for_block(block).num_rows():
        return [block]
    block = _sort_block(block, keys, [False] * len(keys))
    out = []
    for res in _apply_udf_to_groups(fn, block, keys, batch_format):
        for b in res if isinstance(res, GeneratorType) else [res]:
            out.append(BlockAccessor.batch_to_block(b))
    return [_concat(out)]


def _sort_sample(block, keys, descending):
    """The sort's first round on one unit: the block sorted, and up to
    ``_SORT_SAMPLES`` evenly spaced non-null values of its leading key
    (none from an empty block, which may have no columns)."""
    from ray.data.block import BlockAccessor

    if not BlockAccessor.for_block(block).num_rows():
        return [block, np.array([])]
    block = _sort_block(block, keys, descending)
    lead = _key_frame(block, keys[:1])[keys[0]]
    lead = lead[lead.notna()].to_numpy()
    pick = np.linspace(0, len(lead) - 1, min(len(lead), _SORT_SAMPLES)).astype(np.int64)
    return [block, lead[pick]]


def _splitters(samples, n):
    """``n - 1`` ascending leading-key values at even quantiles of the
    pooled samples (none when every block was empty or null)."""
    samples = [s for s in samples if len(s)]
    if not samples:
        return np.array([])
    pooled = np.sort(np.concatenate(samples))
    at = [int(q * (len(pooled) - 1)) for q in np.linspace(0, 1, n + 1)[1:-1]]
    return pooled[at]


def _range_split(block, keys, descending, splitters, n):
    """A sorted block cut into the ``n`` leading-key ranges (in output
    order; nulls go to the last range). Rows that tie on the leading key
    share a range."""
    from ray.data.block import BlockAccessor

    if not BlockAccessor.for_block(block).num_rows():
        return [block] * n
    lead = _key_frame(block, keys[:1])[keys[0]]
    null = lead.isna().to_numpy()
    rng = np.full(len(lead), n - 1, np.int64)
    below = np.searchsorted(splitters, lead.to_numpy()[~null], side="left")
    rng[~null] = n - 1 - below if descending[0] else below
    return _slices(block, np.searchsorted(rng, np.arange(n + 1)))


def _sorted_read(pieces, keys, descending):
    """A sort reducer: its range's pieces joined and sorted."""
    import ray

    return [_sort_block(_concat(ray.get(list(pieces))), keys, descending)]


def _as_dataset(x):
    return x.dataset() if isinstance(x, Scan) else x


#: the attributes a Scan keeps; __getattr__ never replays for them
_STATE = frozenset({"_units", "_unit_plan", "_read", "_replay", "_steps", "_rows", "_ds"})


class Scan:
    """A lazy plain-task scan (see the module docstring).

    ``units`` is the driver-side plan (or a function that makes it on
    first use, once), ``read(unit)`` yields a unit's rows as blocks
    inside a task, ``replay()`` builds the Ray Data plan of the same
    read, and ``rows`` is the input's row total when known without a
    task (``count()`` with no steps then starts none), else ``None``."""

    def __init__(self, units, read, replay, rows, steps=()):
        self._unit_plan = units if callable(units) else list(units)
        self._read = read
        self._replay = replay
        self._rows = rows
        self._steps = tuple(steps)
        self._ds = None

    def _plan_units(self):
        """The unit plan, made on first use (an exchange's plan runs its
        map tasks here, so a step's error raises from this call)."""
        if callable(self._unit_plan):
            self._unit_plan = list(self._unit_plan())
        return self._unit_plan

    @property
    def _units(self):
        # an AttributeError raised in a property falls back to
        # __getattr__, which would drop it: raise it as another type
        try:
            return self._plan_units()
        except AttributeError as e:
            raise RuntimeError(f"making the unit plan raised {e!r}") from e

    def _with(self, step):
        return Scan(self._unit_plan, self._read, self._replay, self._rows, self._steps + (step,))

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
        return _run_units(self._plan_units(), lambda u: fn(read, steps, u))

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

        if not self._steps and self._rows is not None:
            return self._rows
        return int(sum(ray.get(self._tasks(_unit_count))))

    def materialize(self):
        """Runs the chain (one plain task per unit) and returns a Scan
        over the unit blocks: its ``count()`` is the sum of the row
        counts the tasks returned, and its Ray Data plan is
        ``from_arrow_refs`` of the blocks (built only on a replay)."""
        import ray
        import ray.data as rd

        read, steps = self._read, self._steps
        refs = _run_units(self._plan_units(), lambda u: _block_and_rows(read, steps, u), 2)
        blocks = [b for b, _ in refs]
        rows = int(sum(ray.get([n for _, n in refs])))
        return Scan(blocks, _block_read, functools.partial(rd.from_arrow_refs, blocks), rows)

    # -- wide steps (plain-task exchanges) ---------------------------------------
    def groupby(self, key, **kwargs):
        """A grouped scan: its ``map_groups(fn, batch_format=)`` is a
        plain-task exchange. Any other argument, or a ``None`` key,
        replays the scan on Ray Data and calls its ``groupby``."""
        if kwargs or key is None:
            return self.dataset().groupby(key, **kwargs)
        return _GroupedScan(self, key)

    def _map_groups(self, key, fn, batch_format):
        keys = [key] if isinstance(key, str) else list(key)
        read, steps = self._read, self._steps

        def plan():
            units = self._plan_units()
            n = _num_blocks(len(units))
            return _by_reducer(
                _run_units(units, lambda u: _hash_split(_unit_block(read, steps, u), keys, n), n)
            )

        return Scan(
            functools.cache(plan),
            functools.partial(_group_read, keys=keys, fn=fn, batch_format=batch_format),
            lambda: self.dataset().groupby(key).map_groups(fn, batch_format=batch_format),
            rows=None,
        )

    def sort(self, key, descending=False, **kwargs):
        """The rows in ``key`` order as a plain-task exchange (a Scan
        whose units are the ranges in order). Any other argument replays
        the scan on Ray Data and calls its ``sort``."""
        import ray

        keys = [key] if isinstance(key, str) else key
        desc = [descending] * len(keys or ()) if isinstance(descending, bool) else descending
        if kwargs or not keys or not isinstance(keys, list) or len(desc) != len(keys):
            return self.dataset().sort(key, descending=descending, **kwargs)
        read, steps = self._read, self._steps

        def plan():
            units = self._plan_units()
            n = _num_blocks(len(units))
            first = _run_units(units, lambda u: _sort_sample(_unit_block(read, steps, u), keys, desc), 2)
            cut = _splitters(ray.get([s for _, s in first]), n)
            return _by_reducer(
                _run_units([b for b, _ in first], lambda b: _range_split(b, keys, desc, cut, n), n)
            )

        return Scan(
            functools.cache(plan),
            functools.partial(_sorted_read, keys=keys, descending=desc),
            lambda: self.dataset().sort(key, descending=descending),
            rows=self._rows if not self._steps else None,
        )

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


class _GroupedScan:
    """``Scan.groupby(key)``: ``map_groups`` with a function and only
    ``batch_format`` is a plain-task exchange; any other method or
    argument replays the scan's ``groupby`` on Ray Data."""

    def __init__(self, scan, key):
        self._scan = scan
        self._key = key

    def map_groups(self, fn, *, batch_format="default", **kwargs):
        if kwargs or inspect.isclass(fn):
            return self._grouped().map_groups(fn, batch_format=batch_format, **kwargs)
        return self._scan._map_groups(self._key, fn, batch_format)

    def _grouped(self):
        return self._scan.dataset().groupby(self._key)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._grouped(), name)
