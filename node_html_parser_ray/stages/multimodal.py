"""Multimodal column stages: decode / feature-extract over opaque binary.

Image/audio/video payloads are opaque ``binary`` columns with typed metadata
(media_ref, kind).  The Ray-side plumbing — schema, small batch sizes for
large payloads, actor signature, output layout — is real and tested; the
codecs are deterministic fakes (content-hash-derived dimensions, durations
and features), so pipelines exercise the full dataflow deterministically
and the av_features / frame_pipeline oracles reproduce them in SQL.  No
image, audio or video codec wheel is installed; a real codec comes back
together with its wheel and a test that runs it.

Scale note: payload batches must stay small (batch_size 8-64) so
``batch_size × payload × concurrency`` fits worker heaps; callers pass
``batch_size`` accordingly — the stage itself is payload-size-agnostic.
"""
from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from .dedup import _mix64

FEATURE_DIM = 16  # width of the image and audio feature vectors
RESIZE_WIDTH = RESIZE_HEIGHT = 64  # ImageResizeStage's target size
N_FRAMES = 4  # frames FrameSampleStage samples per video
VIDEO_DURATION_MS = 10_000  # the fake video length the frame timestamps span
AUDIO_WINDOW_MS = 250  # AudioFeatureStage's analysis window
# payload_batch_size: heap budget per batch and the batch-size clamp
PAYLOAD_BUDGET_BYTES = 8 << 20
PAYLOAD_BATCH_MIN, PAYLOAD_BATCH_MAX = 8, 1024


def _fake_bytes(seed: int, n: int) -> bytes:
    """Deterministic pseudo-random bytes via a vectorized splitmix64 stream.

    Replaces per-row ``np.random.RandomState(seed)`` — whose Mersenne
    initialization (~0.2 ms/row) was the dominant CPU cost of every fake
    codec path — with one numpy pass (~30x cheaper)."""
    words = (n + 7) >> 3
    idx = np.arange(words, dtype=np.uint64) + np.uint64(seed & 0xFFFFFFFF)
    return _mix64(idx).tobytes()[:n]


def _fake_features(seed: int) -> np.ndarray:
    """Deterministic FEATURE_DIM float32 features in [-1, 1) from the same
    stream."""
    idx = np.arange(FEATURE_DIM, dtype=np.uint64) + np.uint64(seed & 0xFFFFFFFF)
    u = (_mix64(idx) >> np.uint64(40)).astype(np.float32)
    return (u / np.float32(1 << 24) * 2 - 1).astype(np.float32)


def _features_column(feats: np.ndarray) -> pa.FixedSizeListArray:
    return pa.FixedSizeListArray.from_arrays(
        pa.array(feats.reshape(-1), pa.float32()), FEATURE_DIM
    )


__all__ = [
    "MediaDecodeStage",
    "AudioFeatureStage",
    "AUDIO_FEATURES_SCHEMA",
    "ImageResizeStage",
    "FrameSampleStage",
    "MEDIA_FEATURES_SCHEMA",
    "RESIZE_SCHEMA",
    "FRAME_SCHEMA",
    "fake_payload_batch",
]

MEDIA_FEATURES_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("kind", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("n_bytes", pa.int64()),
        ("features", pa.list_(pa.float32(), FEATURE_DIM)),
    ]
)


def payload_batch_size(avg_payload_bytes: int) -> int:
    """Batch size for payload-bearing actor stages from a HEAP BUDGET,
    not a constant: ``batch_size x payload x concurrency`` is what must
    fit a worker heap (module scale note above), so the right batch size
    is budget/payload — 8-64 for real multi-MB media, ~1024 (capped) for
    the <1 KB deterministic fakes here.  A constant 32 was sized for the
    real-payload case and cost ~10x the necessary actor-task overhead on
    small payloads (round-5 bench)."""
    return max(PAYLOAD_BATCH_MIN,
               min(PAYLOAD_BATCH_MAX,
                   PAYLOAD_BUDGET_BYTES // max(1, avg_payload_bytes)))


# max bytes a fake_payload_batch payload can reach (64 + seed % 512);
# payload_batch_size callers size their heap budget against this — keep
# it in lockstep with the sizing expression below
FAKE_PAYLOAD_MAX_BYTES = 64 + 512


def fake_payload_batch(batch: pa.Table) -> pa.Table:
    """Derive a deterministic fake binary payload from media_ref (testing).

    Stands in for fetching the real bytes from blob storage keyed by
    media_ref; byte length varies with the ref hash.
    """
    refs = batch.column("media_ref").to_pylist()
    payloads = []
    for ref in refs:
        seed = zlib.crc32(ref.encode())
        n = 64 + seed % (FAKE_PAYLOAD_MAX_BYTES - 64)
        payloads.append(_fake_bytes(seed, n))
    return batch.append_column("payload", pa.array(payloads, pa.binary()))


RESIZE_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("payload", pa.binary()),
        ("n_bytes", pa.int64()),
    ]
)

FRAME_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("frame_idx", pa.int32()),
        ("ts_ms", pa.int64()),
        ("frame", pa.binary()),
    ]
)


class ImageResizeStage:
    """Actor-pool stage: the ``frame`` column of FrameSampleStage's output
    -> resized payload at RESIZE_WIDTH x RESIZE_HEIGHT.

    The codec is a deterministic fake: output bytes are a
    content-hash-seeded stream sized proportionally to the target area, so
    downstream size accounting is realistic.
    """

    def _resize(self, payload: bytes) -> bytes:
        seed = zlib.crc32(payload)
        n = max(16, (RESIZE_WIDTH * RESIZE_HEIGHT) // 512)
        return _fake_bytes(seed, n)

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("frame").to_pylist()
        out = [self._resize(p or b"") for p in payloads]
        n = len(refs)
        return pa.Table.from_arrays(
            [
                pa.array(refs, pa.string()),
                pa.array([RESIZE_WIDTH] * n, pa.int32()),
                pa.array([RESIZE_HEIGHT] * n, pa.int32()),
                pa.array(out, pa.binary()),
                pa.array([len(b) for b in out], pa.int64()),
            ],
            schema=RESIZE_SCHEMA,
        )


class FrameSampleStage:
    """Actor-pool stage: video payload -> one output ROW PER SAMPLED FRAME
    (flat-map shape: a batch of n videos emits n × N_FRAMES rows).

    Frame timestamps are evenly spaced over VIDEO_DURATION_MS; the codec is
    a deterministic fake that slices the payload into N_FRAMES chunks.
    """

    def _frames(self, payload: bytes) -> list[bytes]:
        if not payload:
            return [b""] * N_FRAMES
        step = max(1, len(payload) // N_FRAMES)
        return [payload[i * step:(i + 1) * step] for i in range(N_FRAMES)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        o_ref: list[str] = []
        o_idx: list[int] = []
        o_ts: list[int] = []
        o_frame: list[bytes] = []
        for ref, payload in zip(refs, payloads):
            frames = self._frames(payload or b"")
            for i, fr in enumerate(frames):
                o_ref.append(ref)
                o_idx.append(i)
                o_ts.append(i * VIDEO_DURATION_MS // N_FRAMES)
                o_frame.append(fr)
        return pa.Table.from_arrays(
            [
                pa.array(o_ref, pa.string()),
                pa.array(o_idx, pa.int32()),
                pa.array(o_ts, pa.int64()),
                pa.array(o_frame, pa.binary()),
            ],
            schema=FRAME_SCHEMA,
        )


AUDIO_FEATURES_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("duration_ms", pa.int64()),
        ("sample_rate", pa.int32()),
        ("n_windows", pa.int32()),
        ("features", pa.list_(pa.float32(), FEATURE_DIM)),
    ]
)


class AudioFeatureStage:
    """Actor-pool stage: audio payload -> (duration, windowed features).

    Same contract as the image/video stages: per-batch work in
    ``__call__``, small-batch sizing left to the caller because payloads
    are large.  The fake decoder is deterministic: duration derives from
    byte length at a nominal bitrate and features are a content-hash-seeded
    spectrogram-mean stand-in, so downstream pipelines exercise realistic
    shapes.
    """

    NOMINAL_BYTES_PER_SEC = 16_000  # fake bitrate: 128 kbit/s

    def _decode(self, payload: bytes) -> tuple[int, int, int, np.ndarray]:
        h = zlib.crc32(payload)
        duration_ms = max(1, len(payload) * 1000 // self.NOMINAL_BYTES_PER_SEC)
        sample_rate = 16_000
        n_windows = max(1, duration_ms // AUDIO_WINDOW_MS)
        return duration_ms, sample_rate, n_windows, _fake_features(h)

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        dur: list[int] = []
        rate: list[int] = []
        wins: list[int] = []
        feats = np.empty((len(refs), FEATURE_DIM), dtype=np.float32)
        for i, payload in enumerate(payloads):
            d, r, w, f = self._decode(payload or b"")
            dur.append(d)
            rate.append(r)
            wins.append(w)
            feats[i] = f
        return pa.Table.from_arrays(
            [
                pa.array(refs, pa.string()),
                pa.array(dur, pa.int64()),
                pa.array(rate, pa.int32()),
                pa.array(wins, pa.int32()),
                _features_column(feats),
            ],
            schema=AUDIO_FEATURES_SCHEMA,
        )


class MediaDecodeStage:
    """Actor-pool stage: (media_ref, kind, payload) -> (dims, feature
    vector), one row per payload; ``__call__`` processes one batch with the
    deterministic fake decoder.
    """

    def _decode(self, payload: bytes) -> tuple[int, int, np.ndarray]:
        h = zlib.crc32(payload)
        width = 64 + (h & 0x3FF)
        height = 64 + ((h >> 10) & 0x3FF)
        return width, height, _fake_features(h)

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        widths: list[int] = []
        heights: list[int] = []
        n_bytes: list[int] = []
        feats = np.empty((len(refs), FEATURE_DIM), dtype=np.float32)
        for i, payload in enumerate(payloads):
            payload = payload or b""
            w, h, f = self._decode(payload)
            widths.append(w)
            heights.append(h)
            n_bytes.append(len(payload))
            feats[i] = f
        return pa.Table.from_arrays(
            [
                pa.array(refs, pa.string()),
                pa.array(batch.column("kind").to_pylist(), pa.string()),
                pa.array(widths, pa.int32()),
                pa.array(heights, pa.int32()),
                pa.array(n_bytes, pa.int64()),
                _features_column(feats),
            ],
            schema=MEDIA_FEATURES_SCHEMA,
        )
