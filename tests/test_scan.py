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


def _today(tables, name, columns=None):
    """The Dataset ``ops.read`` returned before it returned a Scan."""
    import ray.data as rd

    path = f"{tables}/{name}.parquet"
    return rd.read_parquet(
        path, columns=columns, override_num_blocks=ops._aligned_num_blocks(path)
    )


def test_replayed_methods_match_ray_data(ray_session, tables):
    """Wide steps and actor pools run on the replayed Ray Data plan:
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
        (s.groupby("g").map_groups(per_group, batch_format="pandas"),
         d.groupby("g").map_groups(per_group, batch_format="pandas")),
        (s.sort("k", descending=True), d.sort("k", descending=True)),
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
    got = s.sort("k", descending=True).to_pandas()
    assert got["k"].tolist() == sorted(got["k"], reverse=True)


def test_materialize_runs_plain_tasks(ray_session, tables, monkeypatch):
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    s = ops.read(tables, "multi").map_batches(
        lambda b: b[b["g"] == 2], batch_format="pandas"
    )
    with monkeypatch.context() as m:
        m.setattr(StreamingExecutor, "execute", lambda *a, **k: 1 / 0)
        mat = s.materialize()
        assert mat.count() == (_table(850)["g"].to_numpy() == 2).sum()
    pd.testing.assert_frame_equal(_sorted(mat.to_pandas()), _sorted(s.to_pandas()))


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
