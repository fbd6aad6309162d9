"""Multimodal column stages (graft scope — opaque binary payloads with
typed metadata, processed by ``map_batches``).

The image ops decode and encode with this repo's pure-numpy codecs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import codecs


class ResizeImages:
    """Decode → box-downsample to (out_h, out_w) → re-encode.

    Real implementation (M1/M2 composition). Output columns:
    image_id, bytes (re-encoded), w, h, fmt."""

    def __init__(self, out_w=64, out_h=64, fmt="png"):
        self.out_w = int(out_w)
        self.out_h = int(out_h)
        self.fmt = fmt

    def _resize(self, px):
        h, w = px.shape[:2]
        ch, cw = h - h % self.out_h, w - w % self.out_w
        if ch == 0 or cw == 0:  # upscale path: nearest
            yi = (np.arange(self.out_h) * h // self.out_h).astype(np.int64)
            xi = (np.arange(self.out_w) * w // self.out_w).astype(np.int64)
            return px[yi][:, xi]
        px = px[:ch, :cw].astype(np.uint32)
        bh, bw = ch // self.out_h, cw // self.out_w
        small = px.reshape(self.out_h, bh, self.out_w, bw, 4).mean(axis=(1, 3))
        return np.clip(np.round(small), 0, 255).astype(np.uint8)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for blob, fmt in zip(
            batch.column("bytes").to_pylist(), batch.column("fmt").to_pylist()
        ):
            px = codecs.decode_image(blob, fmt)
            out.append(codecs.encode_image(self._resize(px), self.fmt))
        n = batch.num_rows
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "bytes": pa.array(out, pa.binary()),
                "w": pa.array([self.out_w] * n, pa.int32()),
                "h": pa.array([self.out_h] * n, pa.int32()),
                "fmt": pa.array([self.fmt] * n, pa.string()),
            }
        )


class ImageFeatures:
    """Real feature extraction: mean/std per channel + phash — the
    shape of an embedding stage (decode once, vectorized features)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        feats, phashes = [], []
        for blob, fmt in zip(
            batch.column("bytes").to_pylist(), batch.column("fmt").to_pylist()
        ):
            px = codecs.decode_image(blob, fmt).astype(np.float64)
            f = np.concatenate(
                [px[:, :, :3].mean(axis=(0, 1)), px[:, :, :3].std(axis=(0, 1))]
            )
            feats.append((f / 255.0).tolist())
            phashes.append(codecs.phash64(px.astype(np.uint8)))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "features": pa.array(feats, pa.list_(pa.float64())),
                "phash": pa.array(phashes, pa.int64()),
            }
        )


class ImageQuality:
    """Image QUALITY scoring for corpus curation — the image analogue
    of text.QualityScorer (blur / information-content / clipping
    signals a training-data pipeline filters on):

      lap_var   — variance of the 4-neighbour Laplacian of the
                  luminance plane (the classic blur detector: low ⇒
                  defocused/flat);
      entropy   — Shannon entropy (bits) of the 256-bin luminance
                  histogram (low ⇒ near-constant image);
      clip_frac — fraction of luminance pixels at 0 or 255 (high ⇒
                  over/under-exposed).

    Stateless per batch, decode once per image, all metrics are
    vectorized numpy over the pixel plane; one small row per image
    leaves the actor."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        ent, lap, clip = [], [], []
        for blob, fmt in zip(
            batch.column("bytes").to_pylist(), batch.column("fmt").to_pylist()
        ):
            px = codecs.decode_image(blob, fmt)
            gray = (
                0.299 * px[:, :, 0] + 0.587 * px[:, :, 1] + 0.114 * px[:, :, 2]
            )
            g = gray.astype(np.float64)
            l4 = (
                -4.0 * g[1:-1, 1:-1]
                + g[:-2, 1:-1]
                + g[2:, 1:-1]
                + g[1:-1, :-2]
                + g[1:-1, 2:]
            )
            lap.append(float(l4.var()) if l4.size else 0.0)
            hist = np.bincount(
                np.clip(np.round(gray), 0, 255).astype(np.int64).ravel(),
                minlength=256,
            )
            p = hist[hist > 0] / gray.size
            ent.append(float(-(p * np.log2(p)).sum()))
            gi = np.round(gray)
            clip.append(float(((gi <= 0) | (gi >= 255)).mean()))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "entropy": pa.array(np.round(ent, 6), pa.float64()),
                "lap_var": pa.array(np.round(lap, 4), pa.float64()),
                "clip_frac": pa.array(np.round(clip, 6), pa.float64()),
            }
        )

