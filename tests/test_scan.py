"""The plain-task scan (``tilers_tools_ray.scan.Scan``, built by
``ops.read``): its unit plan, its per-task step chain against Ray Data's
fused ``map_batches``, and the Ray Data plan it replays for every other
``Dataset`` method."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tilers_tools_ray import scan
from tilers_tools_ray.relational import ops


def _table(n, start=0):
    k = np.arange(start, start + n, dtype=np.int64)
    return pa.table({"k": k, "g": k % 7, "s": pa.array([f"r{i}" for i in k])})


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """``one``: one row group of 1000 rows; ``multi``: a directory of
    two files, 5 row groups of uneven sizes; ``files``: a directory of 5
    one-row-group files; ``empty``: no rows."""
    root = tmp_path_factory.mktemp("scan")
    pq.write_table(_table(1000), root / "one.parquet")
    (root / "multi.parquet").mkdir()
    pq.write_table(_table(700), root / "multi.parquet" / "a.parquet", row_group_size=300)
    pq.write_table(_table(150, 700), root / "multi.parquet" / "b.parquet", row_group_size=100)
    (root / "files.parquet").mkdir()
    for i, (n, start) in enumerate([(300, 0), (300, 300), (100, 600), (100, 700), (50, 800)]):
        pq.write_table(_table(n, start), root / "files.parquet" / f"{i}.parquet")
    pq.write_table(_table(0), root / "empty.parquet")
    return str(root)


def _sorted(df):
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("name", ["one", "multi", "empty"])
def test_plan_covers_every_row_once_in_order(ray_session, tables, monkeypatch, name, cpus):
    """Every row is in exactly one unit, units follow the input order,
    and there are as many units as ``_aligned_num_blocks`` blocks: a
    row group cut into row slices when row groups are fewer than CPUs.
    With ``columns=None`` every column is read."""
    monkeypatch.setattr(ray_session, "cluster_resources", lambda: {"CPU": cpus})
    path = f"{tables}/{name}.parquet"
    want = pq.read_table(path).to_pandas()
    s = ops.read(tables, name)
    if len(want):
        assert len(s._units) == ops._aligned_num_blocks(path)
    got = s.to_pandas()
    assert s.count() == len(want)
    if not len(want):
        assert got.empty
        return
    pd.testing.assert_frame_equal(got, want)
    if name == "one":  # contiguous slices of the one row group
        bounds = [(lo, hi) for _, _, lo, hi in s._units]
        assert bounds[0][0] == 0 and bounds[-1][1] == 1000
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    cols = ops.read(tables, name, columns=["s", "k"]).to_pandas()
    pd.testing.assert_frame_equal(cols, want[["s", "k"]])


def _chain(ds):
    """Row-local steps in every batch format, each re-sliced to its own
    batch size, with a filter between them."""
    def double(b: pd.DataFrame) -> pd.DataFrame:
        b["d"] = b["k"] * 2
        return b

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pa.compute.not_equal(pa.compute.bit_wise_and(t["k"], 3), 0))

    def inc(b):  # "default": a dict of numpy arrays
        return {"k": b["k"], "d1": b["d"] + 1, "g": b["g"]}

    return (
        ds.map_batches(double, batch_format="pandas", batch_size=64)
        .map_batches(keep, batch_format="pyarrow")
        .map_batches(inc, batch_size=37)
        .select_columns(["g", "d1"])
    )


def _batch_sizes(ds, batch_size):
    """One row per batch the last step sees: its length."""
    return ds.map_batches(
        lambda b: pd.DataFrame({"n": [len(b)]}),
        batch_format="pandas",
        batch_size=batch_size,
    )


@pytest.mark.parametrize("name", ["one", "multi"])
def test_steps_match_ray_data_map_batches(ray_session, tables, name):
    s = ops.read(tables, name)
    assert isinstance(s, scan.Scan)
    got = _chain(s).to_pandas()
    want = _chain(s.dataset()).to_pandas()
    assert len(got) and list(got.columns) == ["g", "d1"]
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))
    assert _chain(s).count() == len(want)


def test_batch_sizes_match_ray_data(ray_session, tables):
    """Each step re-slices its input to ``batch_size`` rows within the
    unit (``None``: the whole unit), across the previous step's output
    batches. With one-row-group files, at least one per CPU, the blocks
    of both plans are the files, so the batch lengths are Ray Data's."""
    s = ops.read(tables, "files").map_batches(
        lambda t: t.filter(pa.compute.not_equal(pa.compute.bit_wise_and(t["k"], 3), 0)),
        batch_format="pyarrow",
        batch_size=64,
    )
    for bs in (None, 50):
        got = sorted(_batch_sizes(s, bs).to_pandas()["n"])
        want = sorted(_batch_sizes(s.dataset(), bs).to_pandas()["n"])
        assert got == want, bs
    # files of 300, 300, 100, 100, 50 rows, a quarter filtered out; a
    # batch never spans units (Ray Data, which does not fuse a step with
    # a larger batch size, bundles several tasks' outputs into one)
    for bs in (None, 1000):
        assert sorted(_batch_sizes(s, bs).to_pandas()["n"]) == [37, 75, 75, 225, 225]


def test_empty_input_skips_the_function(ray_session, tables):
    """As in Ray Data, a step whose input is all empty passes it on
    without calling its function."""
    def boom(b):
        raise AssertionError("called on an empty input")

    s = ops.read(tables, "one").map_batches(
        lambda b: b.iloc[:0], batch_format="pandas"
    ).map_batches(boom, batch_format="pandas")
    assert s.count() == 0
    assert s.to_pandas().empty


def test_count_without_steps_starts_no_task(ray_session, tables, monkeypatch):
    def no_task(units, fn):
        raise AssertionError("a task was started")

    monkeypatch.setattr(scan, "_run_units", no_task)
    assert ops.read(tables, "multi").count() == 850
    assert ops.read(tables, "empty").count() == 0
    with pytest.raises(AssertionError, match="a task was started"):
        ops.read(tables, "one").select_columns(["k"]).count()


def test_run_units_raises_task_errors_and_returns_refs(ray_session):
    """One runner for single and ``n``-result tasks: a task's error
    raises from the call, and the results come back as refs."""
    import ray

    def pair(u):
        if u == 2:
            raise RuntimeError("unit 2 failed")
        return [u, 10 * u]

    with pytest.raises(RuntimeError, match="unit 2 failed"):
        scan._run_units([1, 2, 3], lambda u: pair(u)[0])
    with pytest.raises(RuntimeError, match="unit 2 failed"):
        scan._run_units([1, 2, 3], pair, 2)
    refs = scan._run_units([1, 3], pair, 2)
    assert all(isinstance(r, ray.ObjectRef) for rs in refs for r in rs)
    assert [ray.get(rs) for rs in refs] == [[1, 10], [3, 30]]
    assert [ray.get(rs) for rs in scan._run_units([4, 5], lambda u: [u], 1)] == [[4], [5]]
    assert ray.get(scan._run_units([4, 5], lambda u: u + 1)) == [5, 6]
    assert scan._run_units([], pair, 2) == []


def _today(tables, name, columns=None):
    """The Dataset ``ops.read`` returned before it returned a Scan."""
    import ray.data as rd

    path = f"{tables}/{name}.parquet"
    return rd.read_parquet(
        path, columns=columns, override_num_blocks=ops._aligned_num_blocks(path)
    )


def test_replayed_methods_match_ray_data(ray_session, tables):
    """Joins, unions, actor pools, other ``groupby`` methods and any
    extra ``map_groups`` argument run on the replayed Ray Data plan:
    the same rows as the Dataset plan, with a Scan as receiver or as
    argument."""
    def tag(b):
        b["h"] = b["k"] % 3
        return b

    class AddOne:  # local: pickled by value for the actor workers
        def __call__(self, b):
            b["k1"] = b["k"] + 1
            return b

    def per_group(g):
        return pd.DataFrame({"g": [g["g"].iloc[0]], "n": [len(g)], "sk": [g["k"].sum()]})

    s = ops.read(tables, "multi").map_batches(tag, batch_format="pandas")
    d = _today(tables, "multi").map_batches(tag, batch_format="pandas")
    other = ops.read(tables, "one", columns=["k"])
    other_d = _today(tables, "one", columns=["k"])
    pairs = [
        (s.groupby("g").count(), d.groupby("g").count()),
        (s.groupby("g").map_groups(per_group, batch_format="pandas", concurrency=2),
         d.groupby("g").map_groups(per_group, batch_format="pandas", concurrency=2)),
        (s.join(other, "inner", 2, on=("k",)), d.join(other_d, "inner", 2, on=("k",))),
        (d.join(other, "inner", 2, on=("k",)), d.join(other_d, "inner", 2, on=("k",))),
        (s.union(s), d.union(d)),
        (d.union(s), d.union(d)),
        (s.map_batches(AddOne, batch_format="pandas", concurrency=1),
         d.map_batches(AddOne, batch_format="pandas", concurrency=1)),
        (s.map_batches(tag, batch_format="pandas", concurrency=2),
         d.map_batches(tag, batch_format="pandas", concurrency=2)),
    ]
    for got, want in pairs:
        assert not isinstance(got, scan.Scan)
        pd.testing.assert_frame_equal(_sorted(got.to_pandas()), _sorted(want.to_pandas()))


def _keyed_scan(tables, name="multi", keep=None):
    """A scan with key columns of every kind: ``h`` (int, 3 values),
    ``n`` (int with nulls), ``sk`` (string, 5 values), ``sn`` (string
    with nulls) and ``lead`` (most rows tie on 0); ``keep``: only those
    ``k``. The functions are local, so tasks get them by value."""
    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        k = b["k"].to_numpy()
        b["h"] = k % 3
        b["n"] = pd.array(k % 4, dtype="Int64")
        b.loc[k % 9 == 0, "n"] = pd.NA
        b["sk"] = [f"v{i % 5}" for i in k]
        b["sn"] = [None if i % 6 == 0 else f"w{i % 4}" for i in k]
        b["lead"] = np.where(k % 10 == 0, k % 3 + 1, 0)
        return b

    s = ops.read(tables, name).map_batches(keyed, batch_format="pandas")
    if keep is not None:
        s = s.map_batches(lambda b: b[b["k"].isin(keep)], batch_format="pandas")
    return s


def _no_ray_data_job(monkeypatch):
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    def no_job(self, *args, **kwargs):
        raise AssertionError("a Ray Data job was started")

    return monkeypatch.setattr(StreamingExecutor, "execute", no_job)


def _summary(keys):
    """A group function: one row per call, with the group's ``keys``,
    size and key sum."""
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({c: g[c].iloc[:1] for c in keys}).reset_index(drop=True)
        return out.assign(rows=len(g), ksum=int(g["k"].sum()))

    return fn


@pytest.mark.parametrize("key", ["h", ["h", "sk"], "sk", "n"])
def test_groupby_map_groups_matches_ray_data(ray_session, tables, monkeypatch, key):
    """The plain-task exchange gives Ray Data's rows (as a multiset):
    ``fn`` is called once per distinct key although every group's rows
    come from several units, for int, string, multi-column and
    null-holding keys; later steps fuse into the reduce tasks."""
    s = _keyed_scan(tables)
    assert len(s._units) > 1
    keys = [key] if isinstance(key, str) else key
    fn = _summary(keys)
    with monkeypatch.context() as m:
        _no_ray_data_job(m)
        grouped = s.groupby(key).map_groups(fn, batch_format="pandas")
        assert isinstance(grouped, scan.Scan)
        got = grouped.map_batches(lambda b: b.assign(one=1), batch_format="pandas").to_pandas()
    want = s.dataset().groupby(key).map_groups(fn, batch_format="pandas").to_pandas()
    want = want.assign(one=1)
    assert not got.duplicated(keys).any()  # one call per key
    assert got["rows"].sum() == 850
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


def test_groupby_null_string_keys(ray_session, tables, monkeypatch):
    """String keys with nulls (which Ray Data's sort-based groupby
    cannot order): the null rows are one group, as pandas groups them
    with ``dropna=False``, and ``fn`` sees each group once in the
    given batch format."""
    s = _keyed_scan(tables)

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({"sn": t["sn"].slice(0, 1), "rows": [t.num_rows]})

    with monkeypatch.context() as m:
        _no_ray_data_job(m)
        got = s.groupby("sn").map_groups(fn, batch_format="pyarrow").to_pandas()
    full = s.to_pandas()
    want = full.groupby("sn", dropna=False).size().reset_index(name="rows")
    pd.testing.assert_frame_equal(
        _sorted(got.fillna("<null>")), _sorted(want.fillna("<null>")), check_dtype=False
    )


def test_groupby_empty_and_tiny_inputs(ray_session, tables, monkeypatch):
    """An all-empty input passes through typed without calling ``fn``
    (``to_pandas`` then has no columns, as Ray Data's); an input with
    fewer rows than reducers leaves most reducers empty."""
    def boom(g):
        raise AssertionError("called on an empty input")

    with monkeypatch.context() as m:
        _no_ray_data_job(m)
        empty = _keyed_scan(tables, keep=[]).groupby("h").map_groups(boom, batch_format="pandas")
        assert empty.count() == 0
        got_empty = empty.to_pandas()
        mat = empty.materialize()
        assert mat.count() == 0
        for ref in mat._units:  # every reducer's block keeps the input's columns
            assert {"k", "g", "s", "h", "sk"} <= set(ray_session.get(ref).columns)
        tiny = _keyed_scan(tables, keep=[3, 5]).groupby("sk").map_groups(
            _summary(["sk"]), batch_format="pandas"
        )
        got = tiny.to_pandas()
    assert len(tiny._units) > 2
    assert sorted(zip(got["sk"], got["ksum"])) == [("v0", 5), ("v3", 3)]
    want_empty = _keyed_scan(tables, keep=[]).dataset().groupby("h").map_groups(
        boom, batch_format="pandas"
    )
    pd.testing.assert_frame_equal(got_empty, want_empty.to_pandas())


@pytest.mark.parametrize(
    "key,descending",
    [("k", True), (["h", "k"], [True, False]), (["sk", "k"], False), (["lead", "k"], False)],
)
def test_sort_matches_ray_data(ray_session, tables, monkeypatch, key, descending):
    """The plain-task sort returns Ray Data's rows in the same order on
    keys that make a total order, for int, string and multi-column keys
    with mixed directions; its units are the leading-key ranges in
    order, so rows that tie on the leading key (``lead``: most rows are
    0) share one unit."""
    s = _keyed_scan(tables)
    with monkeypatch.context() as m:
        _no_ray_data_job(m)
        out = s.sort(key, descending=descending)
        assert isinstance(out, scan.Scan)
        got = out.to_pandas()
        blocks = [ray_session.get(r) for r in out.materialize()._units]
    want = s.dataset().sort(key, descending=descending).to_pandas()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    lead = key if isinstance(key, str) else key[0]
    seen = [set(b[lead]) for b in blocks if len(b)]
    assert len(seen) > 1
    assert all(not (a & b) for i, a in enumerate(seen) for b in seen[i + 1:])


def test_sort_null_keys(ray_session, tables, monkeypatch):
    """Nulls sort last in either direction, in the leading key (string)
    and in a later key (int), as pandas orders them with
    ``na_position="last"``."""
    s = _keyed_scan(tables)
    full = s.to_pandas()
    with monkeypatch.context() as m:
        _no_ray_data_job(m)
        for key, desc in [(["sn", "k"], [True, False]), (["h", "n", "k"], [False, True, False])]:
            got = s.sort(key, descending=desc).to_pandas()
            want = full.sort_values(
                key, ascending=[not d for d in desc], na_position="last"
            ).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sort_empty_and_tiny_inputs(ray_session, tables, monkeypatch):
    with monkeypatch.context() as m:
        _no_ray_data_job(m)
        empty = _keyed_scan(tables, keep=[]).sort("k")
        assert empty.count() == 0
        got_empty = empty.to_pandas()
        assert {"k", "h"} <= set(ray_session.get(empty.materialize()._units[0]).columns)
        tiny = _keyed_scan(tables, keep=[3, 5, 4]).sort("k", descending=True)
        got = tiny.to_pandas()
    assert len(tiny._units) > 3
    assert got["k"].tolist() == [5, 4, 3]
    pd.testing.assert_frame_equal(got_empty, _keyed_scan(tables, keep=[]).dataset().sort("k").to_pandas())


def test_sort_after_column_less_empty_blocks(ray_session, tables, monkeypatch):
    """A map step on an empty block passes on a block with no columns;
    a sort over such blocks (an all-empty input, or the empty reducers
    of a groupby with fewer keys than reducers) still runs, and returns
    Ray Data's rows."""
    keep = lambda b: b  # noqa: E731
    with monkeypatch.context() as m:
        _no_ray_data_job(m)
        empty = _keyed_scan(tables, keep=[]).map_batches(keep, batch_format="pandas")
        got_empty = empty.sort("k").to_pandas()
        grouped = _keyed_scan(tables).groupby("h").map_groups(_summary(["h"]), batch_format="pandas")
        assert len(grouped._units) > 3  # 3 keys: some reducers are empty
        got = grouped.map_batches(keep, batch_format="pandas").sort("h").to_pandas()
    pd.testing.assert_frame_equal(got_empty, empty.dataset().sort("k").to_pandas())
    assert got["h"].tolist() == [0, 1, 2] and got["rows"].sum() == 850


def test_groupby_bool_key_with_nulls_in_some_units(ray_session, tables, monkeypatch):
    """A bool key column is ``bool`` in units without nulls and
    ``object`` in a unit that holds one; a key still reaches one
    reducer, so ``fn`` sees each group once."""
    def flag(b: pd.DataFrame) -> pd.DataFrame:
        k = b["k"].to_numpy()
        b["f"] = k % 2 == 0
        if (k >= 800).all():  # the last unit only
            b["f"] = b["f"].astype(object).where(k % 5 != 0, None)
        return b

    s = ops.read(tables, "multi").map_batches(flag, batch_format="pandas")
    dtypes = {str(ray_session.get(r)["f"].dtype) for r in s.materialize()._units}
    assert dtypes == {"bool", "object"}
    with monkeypatch.context() as m:
        _no_ray_data_job(m)
        got = s.groupby("f").map_groups(_summary(["f"]), batch_format="pandas").to_pandas()
    full = s.to_pandas()
    assert len(got) == 3  # True, False and the null key, once each
    assert got["rows"].sum() == 850
    assert sorted(got["rows"]) == sorted(full.groupby("f", dropna=False).size())


def test_exchange_step_error_keeps_its_type(ray_session, tables):
    """An AttributeError raised by a step while an exchange plans its
    units reaches the caller with its own message, not as a missing
    ``Scan`` attribute."""
    def broken(b: pd.DataFrame) -> pd.DataFrame:
        return b.no_such_column

    s = ops.read(tables, "multi").map_batches(broken, batch_format="pandas")
    with pytest.raises(AttributeError, match="no_such_column"):
        s.sort("k").to_pandas()
    with pytest.raises(RuntimeError, match="no_such_column"):
        s.sort("k")._units


def test_exchanges_with_one_reducer(ray_session, tables, monkeypatch):
    """On one CPU a one-unit scan has one reducer (R = 1): the map
    tasks return their single piece as is."""
    monkeypatch.setattr(ray_session, "cluster_resources", lambda: {"CPU": 1})
    s = _keyed_scan(tables, "one")
    assert len(s._units) == 1
    with monkeypatch.context() as m:
        _no_ray_data_job(m)
        grouped = s.groupby("h").map_groups(_summary(["h"]), batch_format="pandas")
        got = grouped.to_pandas()
        ordered = s.sort(["h", "k"], descending=[True, False])
        got_sorted = ordered.to_pandas()
    assert len(grouped._units) == len(ordered._units) == 1
    assert sorted(got["h"]) == [0, 1, 2] and got["rows"].sum() == 1000
    want = s.to_pandas().sort_values(["h", "k"], ascending=[False, True]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_sorted, want)


def test_materialize_runs_plain_tasks(ray_session, tables, monkeypatch):
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    s = ops.read(tables, "multi").map_batches(
        lambda b: b[b["g"] == 2], batch_format="pandas"
    )
    with monkeypatch.context() as m:
        m.setattr(StreamingExecutor, "execute", lambda *a, **k: 1 / 0)
        mat = s.materialize()
        assert mat.count() == (_table(850)["g"].to_numpy() == 2).sum()
    assert isinstance(mat, scan.Scan)
    pd.testing.assert_frame_equal(_sorted(mat.to_pandas()), _sorted(s.to_pandas()))
    # a Ray Data method replays it as from_arrow_refs of the blocks
    pd.testing.assert_frame_equal(_sorted(mat.limit(1000).to_pandas()), _sorted(s.to_pandas()))


def test_materialize_empty_object_block_runs_no_metadata_task(ray_session, tables, monkeypatch):
    """Unit blocks that are empty pandas frames with an object column
    materialize and count without Ray's block-metadata task (it logged
    "cannot call `vectorize` on size 0 inputs" on such blocks): the
    count is the tasks' own row counts, and ``from_arrow_refs`` runs
    only when the scan is replayed."""
    import ray.data.read_api as read_api

    def no_metadata(*args, **kwargs):
        raise AssertionError("block metadata task ran")

    s = ops.read(tables, "multi").map_batches(
        lambda b: b[b["s"] == "none"], batch_format="pandas"
    )
    with monkeypatch.context() as m:
        m.setattr(read_api, "get_table_block_metadata_schema", no_metadata)
        mat = s.materialize()
        assert mat.count() == 0
        assert mat.to_pandas().empty
        blocks = [ray_session.get(r) for r in mat._units]
        assert all(isinstance(b, pd.DataFrame) and b["s"].dtype == object for b in blocks)
        with pytest.raises(Exception, match="block metadata task ran"):
            mat.dataset()  # the replay does run it


def test_slice_holds_its_rows_plus_one_batch(tables, monkeypatch):
    """A slice task streams its row group: it stops at the batch holding
    its last row, and what it returns holds only its own rows (a
    partial batch is copied, not viewed)."""
    real = pq.ParquetFile.iter_batches
    pulled = []

    def small_batches(self, *args, **kwargs):
        for b in real(self, *args, batch_size=64, **kwargs):
            pulled.append(b.num_rows)
            yield b

    monkeypatch.setattr(pq.ParquetFile, "iter_batches", small_batches)
    path = f"{tables}/one.parquet"
    whole = pq.read_table(path)
    for lo, hi in [(0, 250), (250, 500), (500, 1000), (130, 131)]:
        pulled.clear()
        (got,) = ops._read_slice((path, 0, lo, hi), None)
        assert got.equals(whole.slice(lo, hi - lo))
        assert len(pulled) == -(-hi // 64)  # stopped at the last row
        assert got.get_total_buffer_size() <= whole.slice(lo, hi - lo).nbytes + 64
