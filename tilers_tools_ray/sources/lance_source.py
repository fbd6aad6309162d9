"""Lance image+caption scan (SURVEY.md §2 S9).

The task's input_hint names a Lance table of (image_id, bytes, w, h,
fmt, caption, phash) rows. ``ray.data.read_lance`` is the native scan
(column projection + fragment-parallel reads); the ``lance`` package
is NOT installed in this sandbox, so the engine's corpora are parquet
with the identical schema and every pipeline accepts either — a
``.lance`` URI routes here and raises a clear error when the library
is absent instead of silently misreading.
"""

from __future__ import annotations


def is_lance_uri(path) -> bool:
    return str(path).rstrip("/").endswith(".lance")


def _require_lance():
    try:
        import lance
    except ImportError as e:
        raise ImportError(
            "the 'lance' package is not available in this environment; "
            "the images table is served from parquet with the identical "
            "input_hint schema (S9 stand-in, SURVEY.md §2.1). Install "
            "pylance to scan .lance datasets directly."
        ) from e
    return lance


def read_lance_table(uri, columns):
    """Driver-side column-pruned scan of a Lance dataset into one
    pyarrow Table (for small georef columns, not pixels)."""
    return _require_lance().dataset(uri).to_table(columns=columns)


def fragment_rows(uri):
    """``[(fragment_id, n_rows)]`` of a Lance dataset, in dataset order
    (the pieces ``pyramid._image_units`` deals into units)."""
    ds = _require_lance().dataset(uri)
    return [(f.fragment_id, f.count_rows()) for f in ds.get_fragments()]


def read_fragment(uri, fragment_id, columns):
    """One fragment of a Lance dataset, column-pruned, as a Table."""
    ds = _require_lance().dataset(uri)
    return ds.get_fragment(fragment_id).to_table(columns=columns)


def read_lance(uri, columns=None):
    """Open a Lance dataset as a Ray Dataset (column-pruned scan)."""
    _require_lance()
    import ray.data as rd

    kwargs = {}
    if columns is not None:
        kwargs["columns"] = columns
    return rd.read_lance(uri, **kwargs)
