"""The synthetic corpus writer (``corpus.generate``)."""

import hashlib
import os

import pyarrow.parquet as pq
import pytest

from tilers_tools_ray import corpus

#: per part of ``generate(n_rows=40, seed=99, use_ray=True)`` as the
#: Ray Data writer made it (range → map_batches → write_parquet, read
#: back, sorted by image_id and cut into 32 parts): rows, then a digest
#: of every column's values
_PARTS_40_99_ROWS = [1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2]
_PARTS_40_99_DIGESTS = [
    "1295b94ac931c1e7",
    "74b7bbfa28937a1c",
    "3b03db1401f12056",
    "114b7c09344b1a08",
    "7a467f2c81556e3a",
    "3dfbd74380891484",
    "4f18ce845039f95a",
    "7fcc481ea561cb28",
    "a5fc9952d069d4aa",
    "c973f87dc822fd66",
    "f665c22580ea4e0c",
    "b2376c9ffc41a1e1",
    "230b842811b442d1",
    "c460317d2c42e1a3",
    "aed02696a0edcfaf",
    "e3dfb3b8b41edbe6",
    "7a2109e8673eecd0",
    "478a11a0b27c196c",
    "73958118ac6f9381",
    "628637271a127a2a",
    "54ca80d669b7e3d6",
    "c122d2a2f80f5bb0",
    "c412943decd98b95",
    "a298511358344513",
    "eadf78e0130e1540",
    "627d873a55a8a373",
    "368648925a0d3a9e",
    "74d80b8025cc39d9",
    "ccc2cc8d5c42de07",
    "cef798f7ab6e270d",
    "7584a67c2830b176",
    "4926fe5636e2e261",
]
_SCHEMA_DIGEST = "d008a1697fc9c739"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_ray_parts_match_the_ray_data_writer(ray_session, tmp_path, monkeypatch):
    """With ``use_ray=True`` each of the 32 parts is one plain task, no
    Ray Data job: the parts keep the rows, schema, per-part row counts
    and row groups the Ray Data writer gave them."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    def no_job(self, *args, **kwargs):
        raise AssertionError("a Ray Data job was started")

    monkeypatch.setattr(StreamingExecutor, "execute", no_job)
    paths = corpus.generate(str(tmp_path / "c"), n_rows=40, seed=99, use_ray=True)
    names = sorted(os.listdir(paths["images"]))
    assert names == [f"part-{i:04d}.parquet" for i in range(32)]
    rows, digests, ids = [], [], []
    for name in names:
        pf = pq.ParquetFile(os.path.join(paths["images"], name))
        t = pf.read()
        assert [pf.metadata.row_group(i).num_rows for i in range(pf.num_row_groups)] == [t.num_rows]
        assert _digest(str(pf.schema_arrow)) == _SCHEMA_DIGEST and pf.schema_arrow.metadata is None
        rows.append(t.num_rows)
        digests.append(_digest("".join(repr(t.column(c).to_pylist()) for c in t.column_names)))
        ids += t.column("image_id").to_pylist()
    assert rows == _PARTS_40_99_ROWS
    assert digests == _PARTS_40_99_DIGESTS
    assert ids == sorted(ids) and len(set(ids)) == 40


def test_a_failed_part_write_raises(ray_session, tmp_path, monkeypatch):
    """A part task's error raises from ``generate`` and leaves no
    ``_DONE`` marker, so a rerun writes the corpus again."""

    def fail(part, seed, hot):
        raise RuntimeError(f"part write failed: {os.path.basename(part[0])}")

    monkeypatch.setattr(corpus, "_write_part", fail)
    with pytest.raises(RuntimeError, match="part write failed"):
        corpus.generate(str(tmp_path / "c"), n_rows=40, seed=99, use_ray=True)
    assert not os.path.exists(tmp_path / "c" / "_DONE")
