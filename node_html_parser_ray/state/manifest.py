"""Partition manifest: checkpointed, resumable pipeline runs with lineage.

north_rule: "resumable from checkpoint with per-partition lineage + metrics".

Checkpoint unit = *shard* — a group of input files (at 100 TB: Lance
fragments / parquet row-group ranges).  Each shard streams through the full
pipeline independently and commits an atomic manifest entry
(``shard-<id>.json``, written via rename) recording input files, row counts
and aggregated metrics.  On resume, committed shards are skipped at the
*source scan* — their input files never leave storage.

Why shards and not Ray-internal checkpoints: Ray Data has task retries but no
cross-run persistence; shard-granular commit is the standard idempotent
pattern (each shard's output directory is replaced wholesale on re-run, so a
half-written shard from a crashed run is overwritten, never double-counted).
"""
from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Optional

__all__ = ["ShardManifest"]


class ShardManifest:
    """Directory of per-shard commit records + lineage metrics."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.dir = os.path.join(root, "_manifest")
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, shard_id: int) -> str:
        return os.path.join(self.dir, f"shard-{shard_id:06d}.json")

    def completed_shards(self) -> set[int]:
        out = set()
        for name in os.listdir(self.dir):
            if name.startswith("shard-") and name.endswith(".json"):
                # tolerate foreign files (backups, editor copies): a stray
                # 'shard-backup.json' must not abort every resume path
                # (round-4 review)
                try:
                    out.add(int(name[6:-5]))
                except ValueError:
                    continue
        return out

    def _read_valid(self, shard_id: int) -> Optional[dict]:
        """Parse a shard record; ``None`` if absent, truncated or not
        marked complete — a torn commit (crash between rename metadata and
        data reaching disk) must read as NOT committed so the shard simply
        re-runs, instead of crashing every subsequent resume (round-4
        review)."""
        try:
            with open(self._path(shard_id)) as f:
                record = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        if record.get("status") == "complete":
            return record
        # Legacy records (written before the status field existed) carry
        # input_files + row_count but no status; they were committed via
        # the same atomic rename, so treat them as complete rather than
        # silently re-running every previously committed shard on upgrade
        # (round-4 ADVICE).  A torn/partial record parses as JSON only if
        # the whole object made it to disk, so this cannot resurrect one.
        if "status" not in record and "input_files" in record \
                and "row_count" in record:
            return record
        return None

    def is_complete(self, shard_id: int) -> bool:
        return self._read_valid(shard_id) is not None

    def commit(
        self,
        shard_id: int,
        input_files: list[str],
        row_count: int,
        metrics: Optional[dict] = None,
        fragments: Optional[list[str]] = None,
        backend: str = "parquet",
    ) -> None:
        """Atomically record shard completion (write temp + rename).

        ``fragments`` is the output fragment lineage (Lance fragment ids in
        prod, written file names on the parquet fallback) so a reader can
        map any output fragment back to the exact input files that produced
        it (north_rule per-partition lineage clause).

        Shards commit from several threads at once (``run_checkpointed``):
        each commit writes its own ``mkstemp`` file and renames it onto its
        own shard's record, so concurrent commits need no lock.
        """
        record = {
            "shard_id": shard_id,
            "input_files": input_files,
            "row_count": row_count,
            "metrics": metrics or {},
            "fragments": fragments or [],
            "backend": backend,
            "committed_at": time.time(),
            "status": "complete",
        }
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(record, f)
            # fsync BEFORE the rename: os.replace orders metadata, not
            # data — without it a machine crash can leave a truncated
            # record that looks committed (round-4 review).  _read_valid
            # is the second line of defense.
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._path(shard_id))
        dfd = os.open(self.dir, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)

    def read(self, shard_id: int) -> dict:
        with open(self._path(shard_id)) as f:
            return json.load(f)

    def lineage(self) -> list[dict]:
        """All committed records (the lineage/metrics table); torn or
        foreign records are excluded (they read as not-committed)."""
        out = []
        for s in sorted(self.completed_shards()):
            record = self._read_valid(s)
            if record is not None:
                out.append(record)
        return out
