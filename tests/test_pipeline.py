"""End-to-end Ray Data pipeline tests: span-sequence equality between the
distributed pipeline and a direct single-process kernel run, checkpoint
resume, and the stateful stages."""
from __future__ import annotations

import os

import pyarrow as pa
import pytest

from node_html_parser_ray.kernel.extract import parse_and_extract
from node_html_parser_ray.sources.corpus import (
    INPUT_SCHEMA,
    generate_documents,
    write_corpus,
)
from node_html_parser_ray.stages.extract_stage import add_partition_column, extract_batch


def golden_spans(table: pa.Table) -> dict:
    """Single-process reference-semantics run (FIXTURES.md §2 golden)."""
    out = {}
    for row in table.to_pylist():
        spans, valid, _ = parse_and_extract(
            [s["kind"] for s in row["spans"]],
            [s["text"] for s in row["spans"]],
            [s["media_ref"] for s in row["spans"]],
            [s["offset"] for s in row["spans"]],
        )
        out[row["doc_id"]] = (spans, valid)
    return out


def metrics_of(table: pa.Table) -> dict:
    """A shard's lineage metrics, summed row by row from extracted output."""
    rows = table.select(["valid", "metrics"]).to_pylist()
    out = {"n_docs": len(rows), "n_valid": sum(r["valid"] for r in rows)}
    for f in ("n_nodes", "n_fixups", "n_bytes", "n_spans"):
        out[f] = sum(r["metrics"][f] for r in rows)
    out["n_invalid"] = out["n_docs"] - out["n_valid"]
    return out


def use_fake_lance(monkeypatch) -> None:
    """Run the Lance backend's code paths without the wheel: parquet files
    on disk behind the same ``MetricsSink`` the Lance path uses, a
    ``_versions/`` dir where Lance would commit (a write with rows), and a
    mocked ``lance.dataset`` listing two fragments."""
    from ray.data._internal.datasource.parquet_datasink import ParquetDatasink

    from node_html_parser_ray.sources import lance_io

    class _FakeFragment:
        def __init__(self, i):
            self.fragment_id = i

    class _FakeLanceDataset:
        def __init__(self, path):
            self.path = path

        def get_fragments(self):
            return [_FakeFragment(0), _FakeFragment(1)]

    class _FakeLance:
        dataset = staticmethod(_FakeLanceDataset)

    def fake_write(ds, out_dir, *, partition_cols=None):
        with lance_io._PATH_LOCK:  # shards write from several threads
            inner = ParquetDatasink(out_dir)
        sink = lance_io.MetricsSink(inner)
        ds.write_datasink(sink)
        if sink.totals["n_docs"]:
            os.makedirs(os.path.join(out_dir, "_versions"))
        return "lance", sink.totals

    monkeypatch.setattr(lance_io, "HAS_LANCE", True)
    monkeypatch.setattr(lance_io, "lance", _FakeLance, raising=False)
    monkeypatch.setattr(lance_io, "write_output", fake_write)


class TestSpanEquality:
    def test_pipeline_matches_single_process(self, ray_session, tmp_path):
        """Span-sequence equality (kind, text, media_ref, order) per doc."""
        import ray

        n = 300
        corpus = generate_documents(n, seed=7)
        golden = golden_spans(corpus)

        path = str(tmp_path / "corpus.parquet")
        import pyarrow.parquet as pq

        pq.write_table(corpus, path)
        ds = ray.data.read_parquet(path).map_batches(
            extract_batch, batch_format="pyarrow", batch_size=32
        )
        result = {}
        for row in ds.take_all():
            spans = [
                (s["kind"], s["text"], s["media_ref"], s["order"])
                for s in row["spans"]
            ]
            result[row["doc_id"]] = (spans, row["valid"])

        assert set(result) == set(golden)
        mismatches = [d for d in golden if result[d] != golden[d]]
        assert mismatches == [], f"span mismatch for {mismatches[:3]}"

    def test_count_golden_matches_vectorized_comparator(self):
        """The validation_pass_rate comparator (round-4 verdict #4: no
        to_pylist span tuples) counts exact matches and catches every
        mismatch class: wrong text, wrong kind, wrong media_ref, wrong
        order, wrong span count, wrong valid flag, missing golden entry,
        and null-vs-value media_ref."""
        from node_html_parser_ray.pipelines.queries import (
            count_golden_matches,
            golden_flat_entry,
        )

        def out_table(rows):
            span_t = pa.struct(
                [("kind", pa.string()), ("text", pa.large_string()),
                 ("media_ref", pa.string()), ("order", pa.int32())]
            )
            return pa.Table.from_arrays(
                [
                    pa.array([r[0] for r in rows], pa.string()),
                    pa.array([[{"kind": k, "text": t, "media_ref": m,
                                "order": o} for k, t, m, o in r[1]]
                              for r in rows], pa.list_(span_t)),
                    pa.array([r[2] for r in rows], pa.bool_()),
                ],
                names=["doc_id", "spans", "valid"],
            )

        base = [("text", "hello", None, 0), ("image", "", "ref-1", 1)]
        golden = {
            "ok": golden_flat_entry(base, True),
            "badtext": golden_flat_entry(base, True),
            "badkind": golden_flat_entry(base, True),
            "badref": golden_flat_entry(base, True),
            "badorder": golden_flat_entry(base, True),
            "badcount": golden_flat_entry(base, True),
            "badvalid": golden_flat_entry(base, True),
            "nullref": golden_flat_entry(base, True),
            "empty": golden_flat_entry([], False),
        }
        rows = [
            ("ok", base, True),
            ("badtext", [("text", "HELLO", None, 0), base[1]], True),
            ("badkind", [("embed", "hello", None, 0), base[1]], True),
            ("badref", [base[0], ("image", "", "ref-2", 1)], True),
            ("badorder", [base[0], ("image", "", "ref-1", 2)], True),
            ("badcount", [base[0]], True),
            ("badvalid", base, False),
            ("nullref", [base[0], ("image", "", None, 1)], True),
            ("unknown", base, True),
            ("empty", [], False),
        ]
        out = out_table(rows)
        # only 'ok' and 'empty' match
        assert count_golden_matches(out, golden) == 2
        # all-match batch
        assert count_golden_matches(
            out_table([("ok", base, True), ("empty", [], False)]), golden
        ) == 2
        # empty batch
        assert count_golden_matches(out_table([]), golden) == 0

    @pytest.mark.parametrize("build", ["from_pylist", "struct_mask"])
    def test_null_span_element_is_no_span(self, build):
        """A null element in a document's span list is dropped: the row
        extracts, and counts ``img``, exactly like the list without it,
        also where the null struct's fields hold values (``StructArray``
        children ignore the parent's validity)."""
        from node_html_parser_ray.sources.corpus import SPAN_STRUCT
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        spans = [
            {"kind": "html", "text": "<p>a</p>", "media_ref": "", "offset": 0},
            {"kind": "image", "text": "cap", "media_ref": "m://x/0", "offset": 1},
            {"kind": "html", "text": "<p>b</p>", "media_ref": "", "offset": 2},
        ]
        ghost = {"kind": "image", "text": "ghost", "media_ref": "m://ghost",
                 "offset": 1}
        lists = {
            "plain": spans,
            "null-first": [None, *spans],
            "null-mid": [spans[0], None, *spans[1:]],
            "null-last": [*spans, None],
        }
        if build == "from_pylist":
            batch = pa.Table.from_pylist(
                [{"doc_id": d, "spans": ls} for d, ls in lists.items()],
                schema=INPUT_SCHEMA)
        else:
            flat = [ghost if sp is None else sp for ls in lists.values() for sp in ls]
            values = pa.StructArray.from_arrays(
                [pa.array([sp[f.name] for sp in flat], f.type) for f in SPAN_STRUCT],
                fields=list(SPAN_STRUCT),
                mask=pa.array([sp is None for ls in lists.values() for sp in ls]),
            )
            ends = [0]
            for ls in lists.values():
                ends.append(ends[-1] + len(ls))
            batch = pa.Table.from_arrays(
                [pa.array(list(lists)),
                 pa.ListArray.from_arrays(pa.array(ends, pa.int32()), values)],
                schema=INPUT_SCHEMA)
            assert batch.column("spans").chunk(0).flatten().null_count == 3

        rows = {r.pop("doc_id"): r for r in extract_batch(batch).to_pylist()}
        assert [s["kind"] for s in rows["plain"]["spans"]] == ["text", "image", "text"]
        counts: dict = {}
        for r in SelectorStage(["img", "p"], emit_text=False)(batch).to_pylist():
            counts.setdefault(r["doc_id"], []).append(r["n_matches"])
        assert counts["plain"] == [1, 2]
        for doc_id in lists:
            assert rows[doc_id] == rows["plain"], doc_id
            assert counts[doc_id] == counts["plain"], doc_id

    def test_all_parser_branches_covered(self):
        """The pathology grammar exercises repair (some docs invalid)."""
        corpus = generate_documents(300, seed=7)
        golden = golden_spans(corpus)
        valids = [v for _, v in golden.values()]
        assert any(valids) and not all(valids)
        kinds = {s[0] for spans, _ in golden.values() for s in spans}
        assert kinds == {"text", "image", "video", "embed"}


class TestCheckpointResume:
    @pytest.mark.parametrize("shard_count", [0, -2])
    def test_shard_count_below_one_refused(self, tmp_path, shard_count):
        """A shard count below 1 is refused, naming it, before the manifest
        directory is created."""
        from node_html_parser_ray.pipelines.extraction import run_checkpointed

        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match=f"shard_count.*{shard_count}"):
            run_checkpointed(["a.parquet"], str(out), shard_count=shard_count)
        assert list(out.iterdir()) == []

    def test_resume_skips_completed_shards(self, ray_session, tmp_path):
        from node_html_parser_ray.pipelines.extraction import run_checkpointed

        src = str(tmp_path / "in")
        files = write_corpus(src, n_docs=120, seed=3, rows_per_file=30)
        out = str(tmp_path / "out")

        first = run_checkpointed(files, out, shard_count=4)
        assert sorted(first["ran"]) == [0, 1, 2, 3]
        assert first["totals"]["n_docs"] == 120

        second = run_checkpointed(files, out, shard_count=4)
        assert second["ran"] == []
        assert sorted(second["skipped"]) == [0, 1, 2, 3]
        assert second["totals"]["n_docs"] == 120

        # lineage records input files + output fragments per shard
        assert all(r["input_files"] for r in second["lineage"])
        assert all(r["fragments"] for r in second["lineage"])
        assert all(r["backend"] in ("parquet", "lance") for r in second["lineage"])

    def test_partial_resume(self, ray_session, tmp_path):
        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.state.manifest import ShardManifest

        src = str(tmp_path / "in")
        files = sorted(write_corpus(src, n_docs=60, seed=4, rows_per_file=15))
        out = str(tmp_path / "out")
        # pre-commit shard 0 as if a previous run with the SAME sharding
        # completed it (shard 0 of shard_count=4 over sorted files = 0::4)
        ShardManifest(out).commit(0, files[0::4], 15, {"n_docs": 15})
        assert ShardManifest(out).completed_shards() == {0}

        result = run_checkpointed(files, out, shard_count=4)
        assert 0 in result["skipped"]
        assert sorted(result["ran"]) == [1, 2, 3]

    def test_resume_refuses_changed_sharding(self, ray_session, tmp_path):
        """A committed shard whose input files differ from the current
        shard assignment (input set or shard_count changed) must refuse to
        resume rather than silently drop/double-process files."""
        import pytest

        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.state.manifest import ShardManifest

        src = str(tmp_path / "in")
        files = sorted(write_corpus(src, n_docs=60, seed=4, rows_per_file=15))
        out = str(tmp_path / "out")
        # commit shard 0 under a DIFFERENT assignment (files[1::4])
        ShardManifest(out).commit(0, files[1::4], 15, {"n_docs": 15})
        with pytest.raises(ValueError, match="resume mismatch"):
            run_checkpointed(files, out, shard_count=4)

    def test_resume_mismatch_refused_before_any_shard_runs(self, ray_session, tmp_path):
        """Every committed record is checked before any shard is
        dispatched: a mismatch on shard 2 leaves shards 0 and 1 unrun, with
        no output and no new manifest record."""
        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.state.manifest import ShardManifest

        src = str(tmp_path / "in")
        files = sorted(write_corpus(src, n_docs=60, seed=4, rows_per_file=15))
        out = str(tmp_path / "out")
        # shard 2 of shard_count=4 is files[2::4]; commit it with files[3::4]
        ShardManifest(out).commit(2, files[3::4], 15, {"n_docs": 15})
        with pytest.raises(ValueError, match="resume mismatch"):
            run_checkpointed(files, out, shard_count=4)
        assert not os.path.exists(os.path.join(out, "shard=000000"))
        assert not os.path.exists(os.path.join(out, "shard=000001"))
        assert ShardManifest(out).completed_shards() == {2}

    def test_resume_refuses_removed_input_file(self, ray_session, tmp_path):
        """Round-4 review: a committed shard whose files were REMOVED from
        the input set maps to an empty current shard — the empty-shard
        skip must not bypass the resume-mismatch refusal, or the removed
        files' metrics silently stay in totals/lineage."""
        import pytest

        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.state.manifest import ShardManifest

        src = str(tmp_path / "in")
        files = sorted(write_corpus(src, n_docs=60, seed=4, rows_per_file=15))
        out = str(tmp_path / "out")
        # committed under shard_count=2; resuming with only files[0::2]
        # makes shard 1's current assignment EMPTY
        ShardManifest(out).commit(1, files[1::2], 30, {"n_docs": 30})
        with pytest.raises(ValueError, match="resume mismatch"):
            run_checkpointed(files[0::2], out, shard_count=2)

    def test_torn_commit_reads_as_uncommitted(self, ray_session, tmp_path):
        """Round-4 review: a truncated shard record (crash between rename
        metadata and data hitting disk) must read as NOT committed so the
        shard re-runs — not crash every resume with JSONDecodeError."""
        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.state.manifest import ShardManifest

        src = str(tmp_path / "in")
        files = write_corpus(src, n_docs=40, seed=5, rows_per_file=20)
        out = str(tmp_path / "out")
        first = run_checkpointed(files, out, shard_count=2)
        assert sorted(first["ran"]) == [0, 1]
        # simulate the torn commit: truncate shard 0's record
        m = ShardManifest(out)
        with open(m._path(0), "w") as f:
            f.write('{"shard_id": 0, "input')
        assert not m.is_complete(0)
        assert len(m.lineage()) == 1  # torn record excluded, not fatal
        second = run_checkpointed(files, out, shard_count=2)
        assert second["ran"] == [0]  # re-ran the torn shard
        assert second["skipped"] == [1]
        assert second["totals"]["n_docs"] == 40

    def test_legacy_record_without_status_reads_as_complete(self, tmp_path):
        """Round-5 ADVICE fix: records committed before the status field
        existed (atomic rename, full JSON, input_files + row_count present)
        must still read as complete on upgrade — not silently re-run every
        previously committed shard."""
        import json

        from node_html_parser_ray.state.manifest import ShardManifest

        m = ShardManifest(str(tmp_path / "out"))
        legacy = {
            "shard_id": 0,
            "input_files": ["a.parquet"],
            "row_count": 10,
            "metrics": {"n_docs": 10},
            "fragments": [],
            "backend": "parquet",
            "committed_at": 1.0,
        }
        with open(m._path(0), "w") as f:
            json.dump(legacy, f)
        assert m.is_complete(0)
        assert len(m.lineage()) == 1
        # but an explicit non-complete status is still rejected
        legacy["status"] = "in_progress"
        with open(m._path(1), "w") as f:
            json.dump({**legacy, "shard_id": 1}, f)
        assert not m.is_complete(1)

    def test_foreign_manifest_file_tolerated(self, ray_session, tmp_path):
        """A stray non-numeric shard-*.json (backup, editor copy) must not
        abort completed_shards()/lineage()."""
        from node_html_parser_ray.state.manifest import ShardManifest

        out = str(tmp_path / "out")
        m = ShardManifest(out)
        m.commit(0, ["a.parquet"], 10, {"n_docs": 10})
        with open(f"{m.dir}/shard-backup.json", "w") as f:
            f.write("{}")
        assert m.completed_shards() == {0}
        assert len(m.lineage()) == 1

    def test_concurrent_commits_all_land(self, tmp_path):
        """Shards commit from several threads at once: every record lands
        complete and no temp file is left behind."""
        import sys
        import threading

        from node_html_parser_ray.state.manifest import ShardManifest

        m = ShardManifest(str(tmp_path / "out"))
        n = 32
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=m.commit, args=(s, [f"f{s}.parquet"], s, {"n_docs": s}))
                for s in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert m.completed_shards() == set(range(n))
        assert [r["metrics"]["n_docs"] for r in m.lineage()] == list(range(n))
        assert not [f for f in os.listdir(m.dir) if f.endswith(".tmp")]

    def test_cross_backend_resume(self, ray_session, tmp_path, monkeypatch):
        """A manifest committed on the parquet fallback resumes correctly
        after Lance becomes available (mocked lance API): committed parquet
        shards are skipped untouched, new shards commit with backend=lance
        and fragment-id lineage, and mixed-backend totals aggregate."""
        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.state.manifest import ShardManifest

        src = str(tmp_path / "in")
        files = write_corpus(src, n_docs=60, seed=7, rows_per_file=15)
        out = str(tmp_path / "out")
        # shard 0 committed by a parquet-era run
        run_checkpointed(files[0::4], out, shard_count=1)
        assert ShardManifest(out).read(0)["backend"] == "parquet"

        use_fake_lance(monkeypatch)

        result = run_checkpointed(files, out, shard_count=4)
        assert 0 in result["skipped"]
        assert sorted(result["ran"]) == [1, 2, 3]
        assert result["totals"]["n_docs"] == 60
        backends = {r["shard_id"]: r["backend"] for r in ShardManifest(out).lineage()}
        assert backends[0] == "parquet"
        assert all(backends[s] == "lance" for s in (1, 2, 3))
        for r in ShardManifest(out).lineage():
            if r["backend"] == "lance":
                assert all(f.startswith("fragment:") for f in r["fragments"])

    @pytest.mark.parametrize("backend", ["parquet", "lance"])
    def test_zero_row_shard_commits(self, ray_session, tmp_path, monkeypatch, backend):
        """A shard whose input files hold no rows commits an empty record
        (Ray removes its empty parquet dir; Lance commits nothing) instead
        of crashing the run, and a second run skips it like any committed
        shard."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.state.manifest import ShardManifest

        if backend == "lance":
            use_fake_lance(monkeypatch)
        corpus = generate_documents(10, seed=12)
        os.makedirs(tmp_path / "in")
        files = [str(tmp_path / "in" / "a.parquet"), str(tmp_path / "in" / "b.parquet")]
        pq.write_table(corpus, files[0])
        pq.write_table(corpus.slice(0, 0), files[1])
        out = str(tmp_path / "out")

        first = run_checkpointed(files, out, shard_count=2)
        assert sorted(first["ran"]) == [0, 1]
        assert first["totals"]["n_docs"] == 10
        empty = ShardManifest(out).read(1)
        assert empty["input_files"] == [files[1]]
        assert empty["row_count"] == 0
        assert empty["metrics"] == dict.fromkeys(
            ("n_docs", "n_valid", "n_nodes", "n_fixups", "n_bytes", "n_spans",
             "n_invalid"), 0)
        assert empty["fragments"] == []
        assert empty["backend"] == backend
        assert ShardManifest(out).read(0)["row_count"] == 10
        if backend == "lance":
            assert ShardManifest(out).read(0)["fragments"] == ["fragment:0", "fragment:1"]

        second = run_checkpointed(files, out, shard_count=2)
        assert second["ran"] == [] and sorted(second["skipped"]) == [0, 1]

    @pytest.mark.parametrize(
        ("partition_output", "shard_count"), [(False, 3), (True, 3), (False, 6)],
        ids=["False", "True", "False-6-shards"])
    def test_one_execution_per_shard_exact_metrics(
        self, ray_session, tmp_path, monkeypatch, partition_output, shard_count
    ):
        """Each shard is one dataset execution (one source read, none to
        read the output back), and its committed metrics equal sums taken
        from the rows it wrote.  Six shards are more than the session's
        CPUs, so they run through a window smaller than the pending set."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.sources import lance_io

        files = write_corpus(str(tmp_path / "in"), n_docs=90, seed=13, rows_per_file=15)
        out = str(tmp_path / "out")
        reads = []
        real_read = lance_io.read_documents

        def counting_read(*args, **kwargs):
            reads.append(args)
            return real_read(*args, **kwargs)

        monkeypatch.setattr(lance_io, "read_documents", counting_read)
        result = run_checkpointed(files, out, shard_count=shard_count,
                                  partition_output=partition_output)
        assert sorted(result["ran"]) == list(range(shard_count))
        assert len(reads) == shard_count
        assert result["totals"]["n_docs"] == 90
        for rec in result["lineage"]:
            shard_out = os.path.join(out, f"shard={rec['shard_id']:06d}")
            want = metrics_of(pq.read_table(shard_out))
            assert rec["metrics"] == want
            assert rec["row_count"] == want["n_docs"] == 90 // shard_count

    def test_shards_run_concurrently_ran_in_shard_order(
        self, ray_session, tmp_path, monkeypatch
    ):
        """Two shards on the 4-CPU session write at the same time and each
        commits when its write returns; ``ran`` stays in shard order even
        when shard 1 finishes first."""
        import time

        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.sources import lance_io

        files = write_corpus(str(tmp_path / "in"), n_docs=60, seed=17, rows_per_file=30)
        out = str(tmp_path / "out")
        calls = {}
        real_write = lance_io.write_output

        def recording_write(ds, out_dir, **kwargs):
            start = time.monotonic()
            backend_metrics = real_write(ds, out_dir, **kwargs)
            calls[os.path.basename(out_dir)] = (start, time.monotonic())
            if out_dir.endswith("shard=000000"):
                time.sleep(1.0)  # shard 0 finishes last
            return backend_metrics

        monkeypatch.setattr(lance_io, "write_output", recording_write)
        result = run_checkpointed(files, out, shard_count=2)
        (start0, end0), (start1, end1) = calls["shard=000000"], calls["shard=000001"]
        assert start0 < end1 and start1 < end0  # the two writes overlap
        assert result["ran"] == [0, 1]
        committed = {r["shard_id"]: r["committed_at"] for r in result["lineage"]}
        assert committed[1] < committed[0]  # commits in completion order

    @pytest.mark.parametrize("resources", [{}, {"CPU": 0.5}],
                             ids=["no-cpu", "fractional-cpu"])
    def test_cluster_without_whole_cpu_runs_shards_in_sequence(
        self, ray_session, tmp_path, monkeypatch, resources
    ):
        """A cluster that reports no CPU yet (an autoscaling head with
        num-cpus=0) or less than one gets a window of 1: every shard still
        runs and commits, one write at a time."""
        import threading
        import types

        from node_html_parser_ray.pipelines import extraction
        from node_html_parser_ray.sources import lance_io

        files = write_corpus(str(tmp_path / "in"), n_docs=40, seed=19, rows_per_file=20)
        out = str(tmp_path / "out")
        lock, in_flight, peak = threading.Lock(), [0], [0]
        real_write = lance_io.write_output

        def counting_write(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                return real_write(*args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        # only the window reads these; Ray Data keeps the session's real ones
        monkeypatch.setattr(extraction, "ray",
                            types.SimpleNamespace(cluster_resources=lambda: resources))
        monkeypatch.setattr(lance_io, "write_output", counting_write)
        result = extraction.run_checkpointed(files, out, shard_count=2)
        assert result["ran"] == [0, 1]
        assert sorted(r["shard_id"] for r in result["lineage"]) == [0, 1]
        assert result["totals"]["n_docs"] == 40
        assert peak[0] == 1

    def test_metrics_sink_forwards_inner_sink_contract(self, ray_session):
        """``MetricsSink`` around a sink standing in for Ray's Lance sink:
        the inner ``on_write_complete`` receives exactly the inner write
        returns, in task order, and the totals are the tasks' partial sums
        (an empty input-schema block, as a 0-row file yields, counts 0)."""
        import ray
        from ray.data import Datasink
        from ray.data.datasource import WriteResult

        from node_html_parser_ray.sources import lance_io

        class FakeInner(Datasink):
            def __init__(self):
                self.started, self.result = False, None

            def on_write_start(self):
                self.started = True

            def write(self, blocks, ctx):
                first = next(blocks)  # as Ray's Lance sink reads its input
                return [("sentinel", len(first) + sum(len(b) for b in blocks))]

            def on_write_complete(self, result):
                self.result = result

            def get_name(self):
                return "Fake"

            @property
            def supports_distributed_writes(self):
                return False

            @property
            def min_rows_per_write(self):
                return 7

        docs = generate_documents(30, seed=14)
        table = extract_batch(docs)
        tasks = [[table.slice(0, 10), table.slice(10, 5)],
                 [docs.slice(0, 0)], [table.slice(15)]]
        inner = FakeInner()
        sink = lance_io.MetricsSink(inner)
        assert sink.min_rows_per_write == 7
        assert sink.get_name() == "Fake" and not sink.supports_distributed_writes
        sink.on_write_start()
        returns = [sink.write(iter(blocks), None) for blocks in tasks]
        sink.on_write_complete(WriteResult(30, 1234, returns))
        assert inner.started
        assert inner.result.write_returns == [
            [("sentinel", 15)], [("sentinel", 0)], [("sentinel", 15)]]
        assert (inner.result.num_rows, inner.result.size_bytes) == (30, 1234)
        want = metrics_of(table)
        del want["n_invalid"]
        assert sink.totals == want

        # through Ray: the returns survive the write tasks' result blocks
        inner = FakeInner()
        sink = lance_io.MetricsSink(inner)
        ray.data.from_arrow([table.slice(0, 12), table.slice(12)]).write_datasink(sink)
        assert sorted(inner.result.write_returns) == [
            [("sentinel", 12)], [("sentinel", 18)]]
        assert sink.totals == want


class TestPartitioning:
    def test_partition_ids_stable_and_salted(self, monkeypatch):
        from node_html_parser_ray.stages import extract_stage

        monkeypatch.setattr(extract_stage, "GIANT_BYTES", 100_000)
        corpus = generate_documents(50, seed=5, giant_fraction=0.2)
        out = add_partition_column(corpus, num_partitions=8)
        pids = out.column("partition_id").to_pylist()
        sizes = [
            sum(len(s["text"]) for s in row if s["kind"] == "html")
            for row in corpus.column("spans").to_pylist()
        ]
        for pid, size in zip(pids, sizes):
            if size > 100_000:
                assert 8 <= pid < 16  # salted giant range
            else:
                assert 0 <= pid < 8
        # determinism
        again = add_partition_column(corpus, num_partitions=8)
        assert again.column("partition_id").to_pylist() == pids

    def test_null_doc_id_routes_like_empty(self):
        """A null doc_id (extract_batch passes it through) hashes like ""
        on input and output batches instead of crashing the router."""
        rows = [{"doc_id": d, "spans": [{"kind": "html", "text": "<p>x</p>",
                                         "media_ref": "", "offset": 0}]}
                for d in (None, "")]
        batch = pa.Table.from_pylist(rows, schema=INPUT_SCHEMA)
        for table in (batch, extract_batch(batch)):
            pids = add_partition_column(table, num_partitions=8)
            assert pids.column("doc_id").to_pylist() == [None, ""]
            null_pid, empty_pid = pids.column("partition_id").to_pylist()
            assert null_pid == empty_pid < 8


class TestStatefulStages:
    def test_actor_pool_refuses_one_cpu_cluster(self, monkeypatch):
        """An actor pool on a 1-CPU cluster hangs: its one actor holds the
        only CPU and the read task feeding it never schedules.  ``_pool``
        (every actor-pool query's sizing) refuses such a cluster by name
        instead; 2 CPUs keep the (1, 2) pool."""
        import ray

        from node_html_parser_ray.pipelines import queries

        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
        with pytest.raises(RuntimeError, match=r"at least 2 CPUs, got 1\b.*"
                           r"holds the only CPU"):
            queries._pool()
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 2.0})
        assert queries._pool() == (1, 2)

    def test_selector_stage_matches_kernel(self, ray_session):
        import ray

        from node_html_parser_ray.kernel import parse
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        htmls = [
            '<div class="c"><a href="https://x.com">l</a><span id="s1">t</span></div>',
            '<ul><li class="c">1<li>2</ul><img src="/i.png">',
        ]
        selectors = [".c", "[href^=\"https://\"]", "ul li", "img, span"]
        table = pa.Table.from_arrays(
            [
                pa.array(["a", "b"], pa.string()),
                pa.array(htmls, pa.large_string()),
            ],
            names=["doc_id", "html"],
        )
        ds = ray.data.from_arrow(table).map_batches(
            SelectorStage,
            fn_constructor_kwargs={"selectors": selectors},
            batch_format="pyarrow",
            concurrency=1,
        )
        got = {
            (r["doc_id"], r["selector"]): r["n_matches"] for r in ds.take_all()
        }
        for doc_id, html in zip(["a", "b"], htmls):
            root = parse(html)
            for sel in selectors:
                assert got[(doc_id, sel)] == len(root.query_selector_all(sel)), (doc_id, sel)

    def test_boilerplate_classifier(self, ray_session):
        import ray

        from node_html_parser_ray.stages.classify import BoilerplateClassifier

        html = (
            '<nav><a href="/">home</a><a href="/a">a</a></nav>'
            "<article><p>" + ("real content words here " * 10) + "</p></article>"
            '<footer><a href="/c">contact</a></footer>'
        )
        table = pa.Table.from_arrays(
            [pa.array(["d1"], pa.string()), pa.array([html], pa.large_string())],
            names=["doc_id", "html"],
        )
        ds = ray.data.from_arrow(table).map_batches(
            BoilerplateClassifier, batch_format="pyarrow", concurrency=1
        )
        row = ds.take_all()[0]
        assert "real content words" in row["main_text"]
        assert "home" not in row["main_text"]
        assert row["n_content_blocks"] >= 1
        assert row["n_boilerplate_blocks"] >= 2

    def test_boilerplate_wrapped_document(self, ray_session):
        """html/body wrappers are structural: stripping must still separate
        nav/footer from the article on a realistically wrapped page, and
        content nested inside a footer must NOT leak into main_text."""
        import ray

        from node_html_parser_ray.stages.classify import BoilerplateClassifier

        html = (
            "<html><body>"
            '<nav><a href="/">home</a><a href="/a">about</a></nav>'
            "<article><p>" + ("real article words here " * 10) + "</p></article>"
            "<footer><div>"
            + ("long legal disclaimer text inside the footer " * 5)
            + "</div></footer>"
            "</body></html>"
        )
        table = pa.Table.from_arrays(
            [pa.array(["d1"], pa.string()), pa.array([html], pa.large_string())],
            names=["doc_id", "html"],
        )
        row = ray.data.from_arrow(table).map_batches(
            BoilerplateClassifier, batch_format="pyarrow", concurrency=1
        ).take_all()[0]
        assert "real article words" in row["main_text"]
        assert "home" not in row["main_text"]
        assert "disclaimer" not in row["main_text"]  # footer never descends
        assert row["n_content_blocks"] == 1
        assert row["n_boilerplate_blocks"] == 2  # nav + footer, counted once


class TestDedupStages:
    def test_exact_dedup_groups(self, ray_session):
        import ray
        from ray.data.aggregate import Count, Min

        from node_html_parser_ray.stages.dedup import add_text_hash

        table = pa.Table.from_arrays(
            [
                pa.array([1, 2, 3, 4], pa.int64()),
                pa.array(["same", "same", "other", "same"], pa.string()),
            ],
            names=["doc_id", "text"],
        )
        ds = ray.data.from_arrow(table).map_batches(add_text_hash, batch_format="pyarrow")
        g = (
            ds.groupby(["text_hash", "text_hash_lo"])
            .aggregate(Min("doc_id"), Count())
            .take_all()
        )
        by_keeper = {r["min(doc_id)"]: r["count()"] for r in g}
        assert by_keeper == {1: 3, 3: 1}

    def test_text_hash_128bit_no_adversarial_collisions(self):
        """128-bit hash: distinct adversarial inputs -> distinct (hi, lo) keys.

        Guards the round-1 regression class (64-bit crc32-pair key collides
        with ~certainty at the 10^12-doc target scale).
        """
        from node_html_parser_ray.stages.dedup import add_text_hash

        texts = []
        base = "the quick brown fox jumps over the lazy dog " * 8
        for i in range(500):
            texts.append(base + str(i))
            texts.append(str(i) + base)
            texts.append(base[:i % len(base)] + "\x00" + base[i % len(base):])
        texts += ["", " ", "\x00", "a", "A", base, base[::-1],
                  base.upper(), base + "￿"]
        table = pa.Table.from_arrays(
            [pa.array(list(range(len(texts))), pa.int64()),
             pa.array(texts, pa.string())],
            names=["doc_id", "text"],
        )
        out = add_text_hash(table)
        keys = set(zip(out.column("text_hash").to_pylist(),
                       out.column("text_hash_lo").to_pylist()))
        assert len(keys) == len(set(texts))
        # determinism across calls
        out2 = add_text_hash(table)
        assert out.column("text_hash").equals(out2.column("text_hash"))
        assert out.column("text_hash_lo").equals(out2.column("text_hash_lo"))

    def test_minhash_batch_split_invariance(self):
        """Signatures are identical whether a corpus arrives as one Arrow
        batch or as zero-copy slices (regression: the reduceat sentinel once
        zeroed the LAST doc of every batch; slices share the parent buffer so
        offset handling must be exact)."""
        import numpy as np

        from node_html_parser_ray.stages.dedup import minhash_signatures_batch

        rng = np.random.RandomState(7)
        words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "x", "yy"]
        texts = [
            " ".join(words[j] for j in rng.randint(0, len(words), 30))
            for _ in range(50)
        ] + ["", "ab", "abcd"]
        table = pa.Table.from_arrays(
            [pa.array([str(i) for i in range(len(texts))], pa.string()),
             pa.array(texts, pa.string())],
            names=["doc_id", "text"],
        )
        full = np.array(
            minhash_signatures_batch(table).column("minhash").to_pylist()
        )
        for lo, hi in [(0, 7), (7, 20), (20, 53), (52, 1)]:
            part = np.array(
                minhash_signatures_batch(table.slice(lo, hi))
                .column("minhash").to_pylist()
            )
            assert (part == full[lo:lo + hi]).all(), (lo, hi)

    def test_minhash_lsh_finds_near_dups(self, ray_session):
        import ray

        from node_html_parser_ray.stages.dedup import (
            lsh_band_rows,
            minhash_signatures_batch,
            shard_candidate_pairs,
        )

        # near-dup must sit clearly ABOVE the 16x8 LSH threshold (~0.71
        # Jaccard): a short appended tail keeps J ~ 0.9; a 16-char tail puts
        # J at ~0.73 where detection is a coin flip by design
        base = "the quick brown fox jumps over the lazy dog " * 20
        texts = [base, base + "x", "completely unrelated words " * 25]
        table = pa.Table.from_arrays(
            [pa.array(["a", "b", "c"], pa.string()), pa.array(texts, pa.string())],
            names=["doc_id", "text"],
        )
        ds = ray.data.from_arrow(table).map_batches(
            minhash_signatures_batch, batch_format="pyarrow"
        )
        pairs = (
            ds.map_batches(lsh_band_rows, batch_format="pyarrow")
            .groupby("band_key")
            .map_groups(shard_candidate_pairs, batch_format="pandas")
            .take_all()
        )
        found = {(r["doc_a"], r["doc_b"]) for r in pairs}
        assert found == {("a", "b")}


class TestMultimodal:
    def test_pdf_stage_null_and_garbage_payloads(self):
        """Round-4 review: a null or undecodable pdf cell must yield the
        degenerate row, not kill the Ray task."""
        from node_html_parser_ray.stages.layout import (
            PdfExtractStage,
            synthesize_fake_pdf,
        )

        pdfs = pa.Table.from_pylist([
            {"doc_id": "ok", "pdf": synthesize_fake_pdf("hello world text")},
            {"doc_id": "null", "pdf": None},
            {"doc_id": "garbage", "pdf": b"not a container"},
        ])
        rows = {r["doc_id"]: r for r in PdfExtractStage()(pdfs).to_pylist()}
        assert rows["ok"]["order_ok"] and rows["ok"]["n_blocks"] > 0
        assert rows["null"]["n_blocks"] == 0 and not rows["null"]["order_ok"]
        assert rows["garbage"]["n_blocks"] == 0
        assert rows["null"]["spans"] == []

    def test_decode_stage_plumbing(self, ray_session):
        import ray

        from node_html_parser_ray.stages.multimodal import (
            MediaDecodeStage,
            fake_payload_batch,
        )

        table = pa.Table.from_arrays(
            [
                pa.array([f"media://d/{i}" for i in range(5)], pa.string()),
                pa.array(["image"] * 5, pa.string()),
            ],
            names=["media_ref", "kind"],
        )
        ds = (
            ray.data.from_arrow(table)
            .map_batches(fake_payload_batch, batch_format="pyarrow", batch_size=2)
            .map_batches(MediaDecodeStage, batch_format="pyarrow", batch_size=2, concurrency=1)
        )
        rows = ds.take_all()
        assert len(rows) == 5
        for r in rows:
            assert r["width"] >= 64 and r["height"] >= 64
            assert len(r["features"]) == 16
        # determinism
        rows2 = (
            ray.data.from_arrow(table)
            .map_batches(fake_payload_batch, batch_format="pyarrow", batch_size=5)
            .map_batches(MediaDecodeStage, batch_format="pyarrow", batch_size=5, concurrency=1)
            .take_all()
        )
        assert {r["media_ref"]: r["width"] for r in rows} == {
            r["media_ref"]: r["width"] for r in rows2
        }


    def test_frame_sample_and_resize(self, ray_session):
        import ray

        from node_html_parser_ray.stages.multimodal import (
            FrameSampleStage,
            ImageResizeStage,
            fake_payload_batch,
        )

        table = pa.Table.from_arrays(
            [pa.array([f"media://v/{i}" for i in range(3)], pa.string())],
            names=["media_ref"],
        )
        frames = (
            ray.data.from_arrow(table)
            .map_batches(fake_payload_batch, batch_format="pyarrow", batch_size=2)
            .map_batches(
                FrameSampleStage, batch_format="pyarrow", batch_size=2,
                concurrency=1,
            )
        )
        rows = frames.take_all()
        # flat-map shape: 3 videos x 4 frames
        assert len(rows) == 12
        by_ref = {}
        for r in rows:
            by_ref.setdefault(r["media_ref"], []).append(r)
        for ref, rs in by_ref.items():
            assert sorted(x["frame_idx"] for x in rs) == [0, 1, 2, 3]
            assert all(x["ts_ms"] == x["frame_idx"] * 2500 for x in rs)
            assert all(len(x["frame"]) > 0 for x in rs)

        resized = frames.map_batches(
            ImageResizeStage, batch_format="pyarrow", concurrency=1,
        )
        out = resized.take_all()
        assert len(out) == 12
        assert all(r["width"] == 64 and r["height"] == 64 for r in out)
        assert all(r["n_bytes"] == len(r["payload"]) > 0 for r in out)


class TestCosineTopK:
    def test_null_embedding_ranks_last(self):
        """A null embedding is a zero row: the other rows of its batch keep
        the cosines they get without it, and the null row ranks after them
        (the SQL oracle's NULL cosine sorts last).  The flattened list
        column holds no values for a null list, so a plain reshape shifted
        or failed every batch holding one."""
        import numpy as np

        from node_html_parser_ray.stages.similarity import topk_cosine_batch

        q = np.array([[1.0, 0.5]], np.float32)
        vecs = {1: [1.0, 0.0], 2: [0.0, 1.0], 4: [-1.0, 0.2], 5: [0.3, 0.3]}

        def run(rows):
            t = pa.table({
                "vec_id": pa.array([i for i, _ in rows], pa.int64()),
                "embedding": pa.array([v for _, v in rows],
                                      pa.list_(pa.float32())),
            })
            out = topk_cosine_batch(t, query_ref=q).to_pylist()
            return [r["vec_id"] for r in out], [r["cosine"] for r in out]

        for ids in ([1, 2, 4, 5], [1, 2], [1]):
            rows = [(i, vecs[i]) for i in ids]
            base_ids, base_cos = run(rows)
            for at in range(len(rows) + 1):
                got_ids, got_cos = run(rows[:at] + [(3, None)] + rows[at:])
                assert got_ids == base_ids + [3], at
                assert got_cos[:-1] == pytest.approx(base_cos, rel=1e-6)
                assert got_cos[-1] == float("-inf")
        assert run([(3, None)]) == ([3], [float("-inf")])

    def test_null_embedding_batch_takes_broadcast_width(self):
        """A batch whose every embedding is null gives no width of its own:
        the IVF and k-means partials take the broadcast centroids' width,
        so a one-row null batch lands in cell 0 (a zero row's argmax) with
        a zero partial sum, as a null row in a mixed batch does.  Both
        raised a matmul shape error on an (n, 0) matrix before."""
        import numpy as np

        from node_html_parser_ray.stages.similarity import (
            ivf_assign_batch,
            kmeans_partial_batch,
        )

        cents = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], np.float32)

        def batch(vecs):
            return pa.table({
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
            })

        null_only = batch([None])
        assert ivf_assign_batch(null_only, cents).column("ivf_cell").to_pylist() == [0]
        part = kmeans_partial_batch(null_only, cents).to_pylist()
        assert part == [{"cell": 0, "part_n": 1, "part_sum": [0.0, 0.0, 0.0]}]

        mixed = batch([[2.0, 0.1, 0.0], None, [0.0, 3.0, 0.0]])
        assert ivf_assign_batch(mixed, cents).column("ivf_cell").to_pylist() == [1, 0, 0]
        part = {r["cell"]: r["part_n"] for r in kmeans_partial_batch(mixed, cents).to_pylist()}
        assert part == {0: 2, 1: 1}


class TestIVF:
    def test_ivf_recall_vs_bruteforce(self, ray_session):
        """IVF (k=16, nprobe=4) recall@10 vs exact brute force on a
        clustered synthetic corpus — the approximation must stay useful."""
        import numpy as np
        import ray

        from node_html_parser_ray.stages.similarity import (
            ivf_assign_batch,
            probe_cells,
            spherical_kmeans,
            topk_cosine_batch,
        )

        rng = np.random.RandomState(7)
        # 8 well-separated cluster centers, 64 points each, dim 32
        centers = rng.standard_normal((8, 32)).astype(np.float32) * 4
        pts = np.concatenate(
            [c + rng.standard_normal((64, 32)).astype(np.float32) for c in centers]
        )
        ids = np.arange(len(pts), dtype=np.int64)
        table = pa.Table.from_arrays(
            [pa.array(ids, pa.int64()),
             pa.array(list(map(list, pts.astype(float))), pa.list_(pa.float32()))],
            names=["vec_id", "embedding"],
        )
        query = pts[0:1]
        normed = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        qn = query / np.linalg.norm(query)
        exact = set(
            ids[np.argsort(-(normed @ qn.T).ravel(), kind="stable")[1:11]].tolist()
        )

        centroids = spherical_kmeans(pts)
        cells = probe_cells(query, centroids, nprobe=4)
        c_ref, q_ref = ray.put(centroids), ray.put(query)
        ds = ray.data.from_arrow(table).map_batches(
            ivf_assign_batch, fn_kwargs={"centroids_ref": c_ref},
            batch_format="pyarrow",
        )
        probe_set = pa.array(cells, pa.int32())
        import pyarrow.compute as pc_

        got_rows = (
            ds.map_batches(
                lambda b: b.filter(pc_.is_in(b.column("ivf_cell"), value_set=probe_set)),
                batch_format="pyarrow",
            )
            .map_batches(
                topk_cosine_batch, fn_kwargs={"query_ref": q_ref},
                batch_format="pyarrow",
            )
            .take_all()
        )
        got_rows.sort(key=lambda r: (-r["cosine"], r["vec_id"]))
        approx = {r["vec_id"] for r in got_rows[:10]}
        recall = len(approx & exact) / 10
        assert recall >= 0.9, (recall, sorted(approx), sorted(exact))

    def test_ivf_exhaustive_below_threshold_equals_bruteforce(self, ray_session):
        """Below _IVF_EXHAUSTIVE_ROWS the adaptive nprobe probes every cell,
        so q_ann_topk_ivf must return EXACTLY q_ann_topk's (rank, vec_id)
        rows — this is what licenses the shared DuckDB oracle."""
        from node_html_parser_ray.pipelines.queries import (
            _IVF_EXHAUSTIVE_ROWS,
            q_ann_topk,
            q_ann_topk_ivf,
        )

        sf = "/root/testdata/sf0.001"
        import pyarrow.parquet as pq_

        n = pq_.ParquetFile(f"{sf}/embeddings.parquet").metadata.num_rows
        assert n <= _IVF_EXHAUSTIVE_ROWS  # precondition for the exactness claim
        brute = q_ann_topk(sf).to_pydict()
        ivf = q_ann_topk_ivf(sf).to_pydict()
        assert ivf == brute

    def test_ivf_query_pruned_branch_above_threshold(self, ray_session, tmp_path):
        """Above _IVF_EXHAUSTIVE_ROWS the QUERY takes the nprobe=4 pruned
        branch (the 100 TB path) — exercise it end-to-end on a synthetic
        clustered corpus and hold recall@10 vs brute force >= 0.8."""
        import numpy as np
        import pyarrow.parquet as pq_

        from node_html_parser_ray.pipelines.queries import (
            _IVF_EXHAUSTIVE_ROWS,
            q_ann_topk,
            q_ann_topk_ivf,
        )

        rng = np.random.RandomState(11)
        n = _IVF_EXHAUSTIVE_ROWS + 904  # 5000: forces the pruned branch
        # 8 well-separated clusters so nprobe=4 of 16 cells keeps the
        # true neighbourhood probeable (the regime IVF is built for)
        centers = rng.standard_normal((8, 16)).astype(np.float32) * 4
        pts = centers[np.arange(n) % 8] + rng.standard_normal((n, 16)).astype(
            np.float32
        )
        t = pa.Table.from_arrays(
            [pa.array(np.arange(n, dtype=np.int64)),
             pa.array([list(map(float, p)) for p in pts], pa.list_(pa.float32()))],
            names=["vec_id", "embedding"],
        )
        pq_.write_table(t, str(tmp_path / "embeddings.parquet"))
        sf = str(tmp_path)
        brute = set(q_ann_topk(sf).column("vec_id").to_pylist())
        ivf = set(q_ann_topk_ivf(sf).column("vec_id").to_pylist())
        assert len(ivf) == 10
        assert len(ivf & brute) >= 8, (sorted(ivf), sorted(brute))


class TestAnnDegenerateCorpora:
    """Review findings: latent IndexError / ArrowInvalid crashes on
    corpora without the query vector or without any candidate."""

    @staticmethod
    def _write(tmp_path, ids, dim=8):
        import numpy as np
        import pyarrow.parquet as pq

        rng = np.random.RandomState(3)
        t = pa.Table.from_arrays(
            [pa.array(ids, pa.int64()),
             pa.array([list(map(float, rng.standard_normal(dim)))
                       for _ in ids], pa.list_(pa.float32())),
             pa.array([0] * len(ids), pa.int32())],
            names=["vec_id", "embedding", "label"],
        )
        pq.write_table(t, str(tmp_path / "embeddings.parquet"))
        return str(tmp_path)

    def test_ann_topk_query_vector_only(self, ray_session, tmp_path):
        """Corpus = only the (excluded) query vector: every candidate
        block is empty — must return the empty result, not raise on
        pa.concat_tables([])."""
        from node_html_parser_ray.pipelines.queries import q_ann_topk

        sf = self._write(tmp_path, [0])
        out = q_ann_topk(sf)
        assert out.num_rows == 0
        assert out.column_names == ["rank", "vec_id"]

    def test_ann_topk_ivf_missing_query_vector(self, ray_session, tmp_path):
        """Non-empty corpus WITHOUT vec_id=0: the IVF variant must take
        the same empty-result guard as q_ann_topk, not IndexError."""
        from node_html_parser_ray.pipelines.queries import q_ann_topk_ivf

        sf = self._write(tmp_path, [1, 2, 3, 4])
        out = q_ann_topk_ivf(sf)
        assert out.num_rows == 0
        assert out.column_names == ["rank", "vec_id"]

    def test_ann_topk_ivf_query_vector_only(self, ray_session, tmp_path):
        from node_html_parser_ray.pipelines.queries import q_ann_topk_ivf

        sf = self._write(tmp_path, [0])
        out = q_ann_topk_ivf(sf)
        assert out.num_rows == 0


class TestGiantDocs:
    def test_gmail_through_pipeline(self, ray_session, fixture_html):
        """The 2.1 MB gmail.html fixture streams through the real pipeline
        (large_string column, small batch) and matches the single-process
        kernel span-for-span."""
        import ray

        from node_html_parser_ray.kernel import extract_spans, parse
        from node_html_parser_ray.stages.extract_stage import extract_batch

        html = fixture_html.get("gmail.html")
        if html is None:
            import pytest

            pytest.skip("gmail fixture unavailable")
        # pad with small docs so the batch has mixed sizes
        table = pa.Table.from_arrays(
            [
                pa.array(["g", "s1", "s2"], pa.string()),
                pa.array([html, "<p>a</p>", "<div>b</div>"], pa.large_string()),
            ],
            names=["doc_id", "html"],
        )
        out = {
            r["doc_id"]: r
            for r in ray.data.from_arrow(table)
            .map_batches(extract_batch, batch_format="pyarrow", batch_size=2)
            .take_all()
        }
        root = parse(html)
        expected = extract_spans(root)
        got = [
            (s["kind"], s["text"], s["media_ref"], s["order"])
            for s in out["g"]["spans"]
        ]
        assert got == expected
        assert out["g"]["valid"] == root.valid
        assert out["g"]["metrics"]["n_bytes"] == len(html)
        assert len(got) > 50  # a real page yields many spans


class TestSelectorStageColumnarRouting:
    def test_count_mode_routes_and_matches_kernel(self, ray_session):
        import ray

        from node_html_parser_ray.kernel import parse
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        htmls = [
            '<div class="c"><ul><li>1</li><li class="c">2</li></ul></div>',
            '<section><div><img src="/a"><span data-x="1">t</span></div></section>',
            "plain",
        ]
        # count-only mode counts every selector with the columnar masks,
        # including the forms whose text the part grammar skips (">") and
        # the ~= whitespace edges
        selectors = ["div li", ".c", "div span, li", "[src]", '[data-x="1"]',
                     "section > span", '[class~=""]']
        stage = SelectorStage(selectors, emit_text=False)
        assert set(stage.columnar) == set(selectors)

        table = pa.Table.from_arrays(
            [pa.array(["a", "b", "c"], pa.string()),
             pa.array(htmls, pa.large_string())],
            names=["doc_id", "html"],
        )
        got = {
            (r["doc_id"], r["selector"]): r["n_matches"]
            for r in ray.data.from_arrow(table)
            .map_batches(
                SelectorStage,
                fn_constructor_kwargs={"selectors": selectors, "emit_text": False},
                batch_format="pyarrow", concurrency=1,
            )
            .take_all()
        }
        for doc_id, html in zip(["a", "b", "c"], htmls):
            root = parse(html)
            for sel in selectors:
                assert got[(doc_id, sel)] == len(root.query_selector_all(sel)), (
                    doc_id, sel)


class TestSimhashNearDup:
    def test_window_verify_matches_brute_force(self):
        """Sorted sliding-window verification == all-pairs triu whenever the
        bucket fits inside the window (exhaustiveness contract)."""
        import numpy as np
        import pandas as pd

        from node_html_parser_ray.stages.dedup import (
            popcount64,
            simhash_window_pairs,
        )

        rng = np.random.RandomState(3)
        base = rng.randint(-(2 ** 62), 2 ** 62, size=8, dtype=np.int64)
        codes = []
        for c in base:
            codes.append(c)
            for _ in range(5):  # plant Hamming<=3 neighbours
                flip = np.int64(0)
                for b in rng.randint(0, 64, size=rng.randint(0, 4)):
                    flip ^= np.int64(1) << np.int64(int(b))
                codes.append(c ^ flip)
        group = pd.DataFrame(
            {"doc_id": np.arange(len(codes), dtype=np.int64),
             "band_key": np.zeros(len(codes), dtype=np.int64),
             "simhash": np.array(codes, dtype=np.int64)}
        )
        got = simhash_window_pairs(group)
        got_set = set(zip(got["doc_a"], got["doc_b"], got["hamming"]))
        u = np.array(codes, dtype=np.int64).astype(np.uint64)
        ai, bi = np.triu_indices(len(u), k=1)
        ham = popcount64(u[ai] ^ u[bi])
        mask = ham <= 3
        want = set(zip(ai[mask].astype(np.int64), bi[mask].astype(np.int64),
                       ham[mask]))
        assert got_set == want

    def test_oversize_bucket_exact_up_to_cap(self, monkeypatch):
        """Regression (found by the sf0.1 oracle sweep, 776/791 pairs): a
        pair differing in a HIGH non-band bit sorts farther apart than the
        window whenever >window codes fall between them — the widened
        effective window (exact up to SIMHASH_EXACT_CAP) must still find it, and
        the windowed fallback must kick in only above the cap."""
        import numpy as np
        import pandas as pd

        from node_html_parser_ray.stages import dedup
        from node_html_parser_ray.stages.dedup import simhash_window_pairs

        # two codes at Hamming 1 (bit 62 flipped) with 100 codes sorting
        # strictly between them, each far (Hamming >> 3) from everything
        lo = np.int64(1) << np.int64(10)
        hi = lo | (np.int64(1) << np.int64(62))
        rng = np.random.RandomState(11)
        fillers = []
        while len(fillers) < 100:
            c = np.int64(rng.randint(0, 2 ** 61)) | (np.int64(1) << np.int64(61))
            if bin(int(c) ^ int(lo)).count("1") > 6 and \
               bin(int(c) ^ int(hi)).count("1") > 6:
                fillers.append(c)
        codes = np.array([lo] + fillers + [hi], dtype=np.int64)
        group = pd.DataFrame(
            {"doc_id": np.arange(len(codes), dtype=np.int64),
             "band_key": np.zeros(len(codes), dtype=np.int64),
             "simhash": codes}
        )
        got = simhash_window_pairs(group)
        pairs = set(zip(got["doc_a"], got["doc_b"]))
        assert (0, len(codes) - 1) in pairs  # the far-apart Hamming-1 pair
        # above the cap the window truncates again (documented fallback),
        # and the no-silent-caps warning fires AT the first truncating
        # size (bucket of SIMHASH_EXACT_CAP+1 rows truncates its farthest pair)
        import logging

        monkeypatch.setattr(dedup, "SIMHASH_EXACT_CAP", len(codes) - 1)
        with self._caplog_warnings() as records:
            capped = simhash_window_pairs(group)
        assert (0, len(codes) - 1) not in set(
            zip(capped["doc_a"], capped["doc_b"])
        )
        assert any("not compared" in r.getMessage() for r in records)
        monkeypatch.setattr(dedup, "SIMHASH_EXACT_CAP", len(codes))
        with self._caplog_warnings() as records:
            exact = simhash_window_pairs(group)
        assert (0, len(codes) - 1) in set(zip(exact["doc_a"], exact["doc_b"]))
        assert not records  # exact => silent

    @staticmethod
    def _caplog_warnings():
        """Context manager capturing dedup-module warning records."""
        import contextlib
        import logging

        @contextlib.contextmanager
        def cm():
            logger = logging.getLogger("node_html_parser_ray.stages.dedup")
            records = []

            class H(logging.Handler):
                def emit(self, record):
                    records.append(record)

            h = H(level=logging.WARNING)
            logger.addHandler(h)
            try:
                yield records
            finally:
                logger.removeHandler(h)

        return cm()

    def test_simhash_batch_matches_reference(self):
        """Vectorized simhash_batch is bit-exact with the per-doc zlib.crc32
        reference formulation — on real corpus text and on pathological
        inputs (empties, nulls, long tokens, unicode, whitespace runs)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from node_html_parser_ray.stages.dedup import (
            simhash_batch,
            simhash_code_single,
        )

        t = pq.read_table(
            "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
        )
        got = simhash_batch(t).column("simhash").to_pylist()
        want = [simhash_code_single(x) for x in t.column("text").to_pylist()]
        assert got == want

        path = ["", "   ", "a", " a  b ", "x" * 5000, "tab\tsep\nnl",
                "unicode é中文 tok", " em space ", None,
                "mixed " + "y z " * 300]
        tb = pa.table({
            "doc_id": pa.array(range(len(path)), pa.int64()),
            "text": pa.array(path, pa.large_string()),
        })
        got = simhash_batch(tb).column("simhash").to_pylist()
        want = [simhash_code_single(x or "") for x in path]
        assert got == want

    def test_crc32_many_matches_zlib(self):
        import zlib

        import numpy as np

        from node_html_parser_ray.stages.dedup import _crc32_many

        rng = np.random.RandomState(0)
        toks = [bytes(rng.randint(0, 256, rng.randint(0, 60)).astype(np.uint8))
                for _ in range(300)]
        data = np.frombuffer(b"".join(toks), np.uint8)
        starts = np.cumsum([0] + [len(t) for t in toks])[:-1].astype(np.int64)
        lens = np.array([len(t) for t in toks], np.int64)
        fwd = _crc32_many(data, starts, lens, reverse=False)
        rev = _crc32_many(data, starts, lens, reverse=True)
        assert [int(x) for x in fwd] == [zlib.crc32(t) for t in toks]
        assert [int(x) for x in rev] == [zlib.crc32(t[::-1]) for t in toks]

    def test_popcount64(self):
        import numpy as np

        from node_html_parser_ray.stages.dedup import popcount64

        vals = np.array([0, 1, 3, -1, 2 ** 62, -(2 ** 63)], dtype=np.int64)
        got = popcount64(vals)
        want = [bin(int(v) & 0xFFFFFFFFFFFFFFFF).count("1") for v in vals]
        assert got.tolist() == want

    def test_planted_neardup_found(self, ray_session):
        """A doc with one changed word pairs with its original (Hamming<=3
        on 4x16 bands); an unrelated doc does not pair with either."""
        import numpy as np
        import pandas as pd
        import ray

        from node_html_parser_ray.stages.dedup import (
            simhash_band_rows,
            simhash_batch,
        )

        base = "the quick brown fox jumps over the lazy dog " * 8
        near = base.replace("lazy", "sleepy", 1)
        other = "completely different content about database engines " * 8
        table = pa.table({"doc_id": [1, 2, 3], "text": [base, near, other]})

        sim = ray.data.from_arrow(table).map_batches(
            simhash_batch, batch_format="pyarrow"
        )

        def band_with_code(batch: pa.Table) -> pa.Table:
            bands = simhash_band_rows(batch)
            codes = batch.column("simhash").combine_chunks()
            return bands.append_column("simhash", pa.concat_arrays([codes] * 4))

        def verify(group: pd.DataFrame) -> pd.DataFrame:
            rows = group.drop_duplicates("doc_id").sort_values("doc_id")
            ids = rows["doc_id"].to_numpy()
            if len(ids) < 2:
                return pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []})
            codes = rows["simhash"].to_numpy().astype(np.uint64)
            ai, bi = np.triu_indices(len(ids), k=1)
            x = codes[ai] ^ codes[bi]
            ham = np.zeros(len(x), dtype=np.int64)
            for s in range(64):
                ham += ((x >> np.uint64(s)) & np.uint64(1)).astype(np.int64)
            m = ham <= 3
            return pd.DataFrame({"doc_a": ids[ai[m]], "doc_b": ids[bi[m]],
                                 "hamming": ham[m]})

        pairs = {
            (int(r["doc_a"]), int(r["doc_b"]))
            for r in sim.map_batches(band_with_code, batch_format="pyarrow")
            .groupby("band_key")
            .map_groups(verify, batch_format="pandas")
            .take_all()
        }
        assert (1, 2) in pairs
        assert not any(3 in p for p in pairs)


class TestShardCountInvariance:
    """Coarse-shard counts are a pure parallelism knob: results must be
    identical at any shard count (round-1 verdict #6 — constants replaced by
    cluster-scaled counts, so invariance is the correctness contract)."""

    @staticmethod
    def _run(monkeypatch, name, shards, sf="/root/testdata/sf0.001"):
        from node_html_parser_ray.pipelines import queries as q

        monkeypatch.setattr(q, "_coarse_shards", lambda floor=1: shards)
        df = q.QUERIES[name](sf)
        df = df.to_pandas() if hasattr(df, "to_pandas") else df
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    def test_sessions_shard_invariant(self, ray_session, monkeypatch):
        a = self._run(monkeypatch, "sessions", 4)
        b = self._run(monkeypatch, "sessions", 64)
        assert a.equals(b)

    def test_asof_shard_invariant(self, ray_session, monkeypatch):
        a = self._run(monkeypatch, "asof_last_order", 4)
        b = self._run(monkeypatch, "asof_last_order", 64)
        assert a.equals(b)

    def test_sliding_window_shard_invariant(self, ray_session, monkeypatch):
        a = self._run(monkeypatch, "sliding_window", 4)
        b = self._run(monkeypatch, "sliding_window", 64)
        assert a.equals(b)

    @pytest.mark.parametrize("name", [
        "segment_order_revenue", "corpus_clean", "simhash_neardup",
        "minhash_neardup_verified",
    ])
    def test_shard_col_queries_shard_invariant(self, ray_session, monkeypatch, name):
        """The queries whose shard column ``_shard_col`` appends to an
        Arrow block built elsewhere (a pandas partial, a band-row stage)."""
        a = self._run(monkeypatch, name, 4)
        b = self._run(monkeypatch, name, 64)
        assert len(a) and a.equals(b)


class TestEmbeddingNearDupScaling:
    def test_embedding_neardup_equals_brute_force(self, ray_session, tmp_path):
        """Planted-near-dup pin for ORACLE_SQL['embedding_neardup'] (round-4
        verdict #3): the banded 16-table LSH pipeline's per-vector counts
        equal exact brute-force all-pairs cosine >= 0.9 on a corpus WITH
        planted duplicates — i.e. candidate recall is 1.0 here AND the
        emit-once rule leaves no duplicate pairs to inflate counts.  (The
        driver's sf0.01 corpus has no pair above cosine 0.52, so its green
        row only pins the no-false-positive/zero side; this test carries
        the recall evidence.)  Deterministic: fixed seed, planted pairs at
        cosine ~0.98 where per-pair miss probability is ~6e-7."""
        import numpy as np
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.queries import q_embedding_neardup

        rng = np.random.RandomState(42)
        d = 32
        base = rng.standard_normal((240, d)).astype(np.float32)
        planted = base[:15] + 0.1 * rng.standard_normal((15, d)).astype(np.float32)
        emb = np.vstack([base, planted.astype(np.float32)])
        n = len(emb)
        pq.write_table(
            pa.Table.from_arrays(
                [pa.array(np.arange(n), pa.int64()),
                 pa.array(list(emb), pa.list_(pa.float32())),
                 pa.array(np.zeros(n, np.int32), pa.int32())],
                names=["vec_id", "embedding", "label"],
            ),
            str(tmp_path / "embeddings.parquet"),
        )
        # exact brute force in float64, with a margin guard: no pair may
        # sit near the 0.9 boundary where float32-vs-float64 noise could
        # flip membership between the two sides
        u = emb.astype(np.float64)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        cos = u @ u.T
        ai, bi = np.triu_indices(n, k=1)
        vals = cos[ai, bi]
        assert not ((vals > 0.85) & (vals < 0.95)).any()
        mask = vals >= 0.9
        assert int(mask.sum()) >= 15
        want = np.zeros(n, np.int64)
        np.add.at(want, ai[mask], 1)
        np.add.at(want, bi[mask], 1)

        df = q_embedding_neardup(str(tmp_path)).to_pandas()
        got = df.set_index("vec_id").sort_index()
        assert list(got.index) == list(range(n))
        assert got["n_dups"].to_numpy().tolist() == want.tolist()
        assert got["is_dup"].to_numpy().tolist() == (want > 0).tolist()

    def test_emit_once_threshold_is_table_independent(self, monkeypatch):
        """Regression: a pair whose float32 in-bucket cosine reads BELOW
        threshold while the float64 value reads at/above it must still be
        emitted from its first colliding table (the float32 matmul's
        reduction order varies with bucket shape, so pre-fix the first
        table could mask the pair out while later tables' keep-rule
        blocked it — emitted nowhere)."""
        import numpy as np
        import pandas as pd

        from node_html_parser_ray.stages import similarity
        from node_html_parser_ray.stages.similarity import (
            shard_embedding_neardup_pairs,
        )

        n_planes = 4
        b0 = (0 << n_planes) | 3   # table-0 bucket shared by a, b
        b1 = (1 << n_planes) | 5   # table-1 bucket shared by a, b, c
        found = None
        for seed in range(200):
            rng = np.random.RandomState(seed)
            a = rng.standard_normal(32)
            # near-duplicate of a: cosine ~0.999
            bvec = a + 0.02 * rng.standard_normal(32)
            # replicate the function's float32 bucket matmul for the
            # 2-member table-0 bucket and its float64 refinement
            m64 = np.stack([a, bvec]).astype(np.float64)
            m64 = m64 / np.linalg.norm(m64, axis=1, keepdims=True)
            m32 = m64.astype(np.float32)
            v32 = (m32 @ m32.T)[0, 1]
            v64 = float(np.einsum("ij,ij->i", m64[:1], m64[1:2])[0])
            if np.float64(v32) < v64:
                found = (a, bvec, v64)
                break
        assert found is not None, "no float32-below-float64 seed in range"
        a, bvec, v64 = found
        c = -a  # far from both (cosine ~ -1): never a pair
        g = pd.DataFrame({
            "bucket": np.array([b0, b0, b1, b1, b1], dtype=np.int64),
            "vec_id": np.array([1, 2, 1, 2, 3], dtype=np.int64),
            "embedding": [a, bvec, a, bvec, c],
            "all_buckets": [np.array([b0, b1]), np.array([b0, b1]),
                            np.array([b0, b1]), np.array([b0, b1]),
                            np.array([(0 << n_planes) | 7, b1])],
        })
        # threshold sits in the straddle window: float32 fails, float64
        # passes — the pair must be emitted exactly once, from table 0
        monkeypatch.setattr(similarity, "NEARDUP_COSINE", v64)
        out = shard_embedding_neardup_pairs(g, n_planes=n_planes)
        assert len(out) == 1
        assert (int(out["vec_a"].iloc[0]), int(out["vec_b"].iloc[0])) == (1, 2)
        assert out["cosine"].iloc[0] >= v64

    def test_null_embeddings_share_a_group(self):
        """Null embeddings are zero rows, so their signs put every one of
        them in the same bucket of every table: the verifier builds the
        group's rows as ``embedding_matrix`` does and pairs no null.  Two
        nulls in one group made its ``np.stack`` raise before."""
        from node_html_parser_ray.stages.similarity import (
            multitable_bucket_rows,
            shard_embedding_neardup_pairs,
        )

        v = [1.0, 0.2, -0.5, 0.3]
        w = [2.0, 0.4, -1.0, 0.6]  # 2 v: cosine 1, same bucket everywhere
        t = pa.table({
            "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
            "embedding": pa.array([v, None, w, None], pa.list_(pa.float32())),
        })
        g = multitable_bucket_rows(t, n_planes=8).to_pandas()
        out = shard_embedding_neardup_pairs(g, 8)
        assert out[["vec_a", "vec_b"]].values.tolist() == [[0, 2]]
        assert out["cosine"].iloc[0] == pytest.approx(1.0)
        # a group of nulls only pairs nothing either
        nulls = g[g["vec_id"].isin([1, 3])].reset_index(drop=True)
        assert len(shard_embedding_neardup_pairs(nulls, 8)) == 0

    def test_scaled_n_planes_bounds_buckets(self, monkeypatch):
        """Plane count grows with N so E[bucket] ~ target (scale contract)."""
        import numpy as np

        from node_html_parser_ray.stages import similarity
        from node_html_parser_ray.stages.similarity import (
            multitable_bucket_rows,
            scaled_n_planes,
        )

        assert scaled_n_planes(500) == 8
        assert scaled_n_planes(10 ** 6) == 14
        assert scaled_n_planes(10 ** 12) == 34
        # monotone non-decreasing
        vals = [scaled_n_planes(n) for n in (10 ** 2, 10 ** 4, 10 ** 6, 10 ** 9)]
        assert vals == sorted(vals)

        # empirical: gaussian vectors bucket near the expected size
        rng = np.random.RandomState(0)
        n, d = 20000, 16
        emb = rng.standard_normal((n, d)).astype(np.float32)
        p = scaled_n_planes(n)
        t = pa.Table.from_arrays(
            [pa.array(np.arange(n), pa.int64()),
             pa.array(list(emb), pa.list_(pa.float32()))],
            names=["vec_id", "embedding"],
        )
        monkeypatch.setattr(similarity, "LSH_TABLES", 1)
        out = multitable_bucket_rows(t, n_planes=p)
        import collections

        sizes = collections.Counter(out.column("bucket").to_pylist()).values()
        assert max(sizes) < 64 * 16  # no runaway bucket
        assert sum(sizes) / len(sizes) < 64 * 4


class TestNearDupEndToEndExactness:
    """The distributed near-dup queries must equal driver-side ground truth
    on the real sf0.001 tables (verifies the full shuffle/shard path, not
    just the kernels)."""

    def test_simhash_query_equals_bruteforce(self, ray_session):
        import numpy as np
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.queries import QUERIES
        from node_html_parser_ray.stages.dedup import popcount64, simhash_batch

        sf = "/root/testdata/sf0.001"
        got = {
            (r["doc_a"], r["doc_b"], r["hamming"])
            for r in QUERIES["simhash_neardup"](sf).take_all()
        }
        t = pq.read_table(sf + "/documents.parquet", columns=["doc_id", "text"])
        sim = simhash_batch(t)
        ids = np.array(sim.column("doc_id").to_pylist())
        codes = np.array(sim.column("simhash").to_pylist(), dtype=np.int64).astype(
            np.uint64
        )
        ai, bi = np.triu_indices(len(ids), k=1)
        ham = popcount64(codes[ai] ^ codes[bi])
        mask = ham <= 3
        # Hamming<=3 pairs ALWAYS share an untouched 16-bit band, so the
        # banded query must find exactly the brute-force set
        want = {
            (int(min(a, b)), int(max(a, b)), int(h))
            for a, b, h in zip(ids[ai[mask]], ids[bi[mask]], ham[mask])
        }
        assert got == want

    def test_minhash_query_equals_band_ground_truth(self, ray_session):
        import collections

        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.queries import q_minhash_neardup
        from node_html_parser_ray.stages.dedup import (
            lsh_band_rows,
            minhash_signatures_batch,
        )

        sf = "/root/testdata/sf0.001"
        got = {
            (r["doc_a"], r["doc_b"]): r["n_bands"]
            for r in q_minhash_neardup(sf).take_all()
        }
        t = pq.read_table(sf + "/documents.parquet", columns=["doc_id", "text"])
        bands = lsh_band_rows(minhash_signatures_batch(t))
        buckets = collections.defaultdict(list)
        for r in bands.to_pylist():
            buckets[r["band_key"]].append(r["doc_id"])
        want: collections.Counter = collections.Counter()
        for docs in buckets.values():
            docs = sorted(set(docs))
            for i in range(len(docs)):
                for j in range(i + 1, len(docs)):
                    want[(docs[i], docs[j])] += 1
        assert got == dict(want)

    def test_minhash_verified_equals_brute_force(self, ray_session):
        """The two-stage LSH pipeline equals brute-force all-pairs exact
        5-shingle Jaccard >= 0.7 — i.e. LSH recall is 1.0 on the testdata
        (min true Jaccard here is ~0.93, band-miss probability ~2e-6).
        This is the premise that makes ORACLE_SQL['minhash_neardup_verified']
        (an all-pairs DuckDB query) a sound oracle for the LSH pipeline."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.queries import (
            q_minhash_neardup_verified,
        )
        from node_html_parser_ray.stages.dedup import pairwise_jaccard

        sf = "/root/testdata/sf0.001"
        got = {
            (r["doc_a"], r["doc_b"]): r["jaccard"]
            for r in q_minhash_neardup_verified(sf).take_all()
        }
        t = pq.read_table(sf + "/documents.parquet", columns=["doc_id", "text"])
        ids = [int(d) for d in t.column("doc_id").to_pylist()]
        texts = [x or "" for x in t.column("text").to_pylist()]
        import numpy as np
        import pandas as pd

        ai, bi = np.triu_indices(len(ids), k=1)
        jac = pairwise_jaccard(
            pd.Series([texts[i] for i in ai]), pd.Series([texts[i] for i in bi])
        )
        want = {}
        for a, b, j in zip(ai, bi, jac):
            if j >= 0.7:
                lo, hi = sorted((ids[a], ids[b]))
                want[(lo, hi)] = j
        assert set(got) == set(want)
        for k in want:
            # bit-exact: both sides divide the same int64 counts
            assert got[k] == want[k]

    def test_simhash_neardup_equals_brute_force(self, ray_session):
        """The banded simhash pipeline equals brute-force all-pairs
        Hamming <= 3 over the same codes — the premise that makes
        ORACLE_SQL['simhash_neardup'] (all-pairs DuckDB over SQL-recomputed
        codes) a sound oracle.  Exact, not probabilistic: the 4x16-bit
        band scheme cannot miss a pair within Hamming 3 (pigeonhole) and
        the sliding-window verify is exhaustive below window=64.  Also
        pins the oracle's tokenizer premise: the corpus is ASCII with ' '
        as its only whitespace, so SQL string_split(text, ' ') is
        identical to Python str.split()."""
        import numpy as np
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.queries import q_simhash_neardup
        from node_html_parser_ray.stages.dedup import popcount64, simhash_batch

        sf = "/root/testdata/sf0.001"
        t = pq.read_table(sf + "/documents.parquet", columns=["doc_id", "text"])
        for x in t.column("text").to_pylist():
            assert x is None or (
                x.isascii() and not any(c.isspace() and c != " " for c in x)
            )
        ct = simhash_batch(t)
        ids = ct.column("doc_id").to_numpy()
        codes = (
            ct.column("simhash").to_numpy().astype(np.int64).astype(np.uint64)
        )
        ham = popcount64(codes[:, None] ^ codes[None, :])
        ai, bi = np.nonzero(np.triu(ham <= 3, k=1))
        want = sorted(
            (min(ids[a], ids[b]), max(ids[a], ids[b]), int(ham[a, b]))
            for a, b in zip(ai, bi)
        )
        got = sorted(
            (r["doc_a"], r["doc_b"], r["hamming"])
            for r in q_simhash_neardup(sf).take_all()
        )
        assert got == want


class TestDistributedKMeans:
    def test_block_split_invariance_and_coverage(self, ray_session):
        """Lloyd's over Ray batches is exact: identical centroids/counts at
        any block split, and every vector lands in exactly one cluster."""
        import numpy as np
        import pyarrow.parquet as pq
        import ray

        from node_html_parser_ray.stages import similarity

        path = "/root/testdata/sf0.001/embeddings.parquet"
        sample = pq.ParquetFile(path).read_row_group(0, columns=["embedding"])
        mat = np.asarray(sample.column("embedding").to_pylist()[:256],
                         dtype=np.float32)
        init = mat[np.linspace(0, len(mat) - 1, 4).astype(np.int64)]
        a_c, a_n = similarity.kmeans_fit(
            ray.data.read_parquet(path, override_num_blocks=1), init)
        b_c, b_n = similarity.kmeans_fit(
            ray.data.read_parquet(path, override_num_blocks=7), init)
        assert np.allclose(a_c, b_c, atol=1e-5)
        assert (a_n == b_n).all()
        n_vecs = pq.ParquetFile(path).metadata.num_rows
        assert a_n.sum() == n_vecs
        assert (np.abs(np.linalg.norm(a_c, axis=1) - 1.0) < 1e-5).all()

    def test_kmeans_oracle_sql_matches_pipeline(self, ray_session):
        """ORACLE_SQL['kmeans_clusters'] (round-5 unrolled-Lloyd CTEs)
        reproduces the float32 pipeline's integer member counts exactly —
        the float64-vs-float32 gap is safe because the testdata's minimum
        top-2 assignment margin (>= 3.6e-5 at every sf) dwarfs float32
        rounding."""
        import duckdb

        from node_html_parser_ray.pipelines.queries import ORACLE_SQL, QUERIES

        sf = "/root/testdata/sf0.001"
        got = sorted(
            (r["cluster"], r["n_members"])
            for r in QUERIES["kmeans_clusters"](sf).to_pylist()
        )
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf}/embeddings.parquet')"
        )
        want = sorted(map(tuple, con.execute(
            ORACLE_SQL["kmeans_clusters"]).fetchall()))
        assert got == want
        assert len(got) == 8 and sum(n for _, n in got) == 500

    @pytest.mark.parametrize("seed,n_vecs,dim", [
        (7, 40, 8), (19, 300, 16), (101, 700, 12),
    ])
    def test_kmeans_oracle_sql_matches_fit_on_synthetic(
            self, ray_session, tmp_path, seed, n_vecs, dim):
        """Property pin beyond the fixed testdata: on synthetic corpora
        (single row group, positional vec_id — the layout the oracle
        documents as its premise) the unrolled SQL reproduces
        kmeans_fit's counts, including the n<512 and n>512 init-index
        regimes.  A margin guard skips draws whose top-2 assignment
        margin is inside float32 noise, so the test pins the formula,
        not FP luck."""
        import duckdb
        import numpy as np
        import pyarrow.parquet as pq2
        import ray

        from node_html_parser_ray.pipelines.queries import _kmeans_oracle_sql
        from node_html_parser_ray.stages import similarity

        rng = np.random.RandomState(seed)
        mat = rng.standard_normal((n_vecs, dim)).astype(np.float32)
        path = str(tmp_path / "emb.parquet")
        pq2.write_table(pa.table({
            "vec_id": pa.array(range(n_vecs), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in mat],
                                  pa.list_(pa.float32())),
        }), path)

        n = min(512, n_vecs)
        idx = np.linspace(0, n - 1, 8).astype(np.int64)
        init = mat[idx]
        _, counts = similarity.kmeans_fit(ray.data.read_parquet(path), init)

        # margin guard: replicate assignments in float64 and skip draws
        # where any top-2 margin is below float32-noise scale
        def norm(m):
            nv = np.linalg.norm(m, axis=1, keepdims=True)
            nv[nv == 0] = 1
            return m / nv

        e = norm(mat.astype(np.float64))
        c = norm(mat[idx].astype(np.float64).copy())
        for _ in range(5):
            d = e @ c.T
            s = np.sort(d, axis=1)
            if np.min(s[:, -1] - s[:, -2]) < 1e-5:
                pytest.skip("borderline top-2 margin draw")
            a = np.argmax(d, axis=1)
            new = c.copy()
            for cell in range(8):
                m = e[a == cell]
                if len(m):
                    sv = m.sum(axis=0)
                    nv = np.linalg.norm(sv)
                    if nv > 0:
                        new[cell] = sv / nv
            c = new

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{path}')")
        want = dict(con.execute(_kmeans_oracle_sql()).fetchall())
        assert {cl: int(cn) for cl, cn in enumerate(counts)} == want

    def test_kmeans_oracle_sql_empty_corpus(self):
        """The oracle's empty-table guard matches the pipeline's 0-row
        output (the WHERE params.n > 0 clause)."""
        import duckdb

        from node_html_parser_ray.pipelines.queries import ORACLE_SQL

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT CAST(NULL AS BIGINT) AS vec_id,"
            " CAST(NULL AS FLOAT[]) AS embedding WHERE FALSE"
        )
        assert con.execute(ORACLE_SQL["kmeans_clusters"]).fetchall() == []


class TestSequencePacking:
    def test_pack_invariants(self, ray_session):
        """Token totals are preserved, pack ids are contiguous per shard,
        and every pack except a shard's last starts before the budget
        boundary (continuous packing semantics)."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.queries import (
            _PACK_BUDGET,
            _PACK_SHARDS,
            QUERIES,
        )

        sf = "/root/testdata/sf0.001"
        df = QUERIES["sequence_packing"](sf).to_pandas()
        t = pq.read_table(sf + "/documents.parquet", columns=["text"])
        import pyarrow.compute as pc2

        total_tokens = pc2.sum(
            pc2.count_substring_regex(t.column("text"), r"\S+")
        ).as_py()
        assert int(df["n_tokens"].sum()) == total_tokens
        for shard, sub in df.groupby("shard"):
            ids = sorted(sub["pack_id"])
            assert ids == list(range(len(ids)))  # contiguous from 0
        assert df["shard"].nunique() <= _PACK_SHARDS
        # a non-final pack's cumulative start is below the boundary by
        # construction; its token count can exceed the budget only via a
        # straddling doc (>= budget - max doc is not asserted; just sanity)
        assert (df["n_docs"] >= 1).all()

    def test_range_width_invariance(self, ray_session, monkeypatch):
        """The doc_id-range width is a parallelism knob only: outputs are
        identical under a tiny width (forcing many range-straddling packs
        through the partial-sum + prefix-scan + merge path), and the fused
        small-corpus driver path equals the bounded decomposition."""
        from node_html_parser_ray.pipelines import queries

        def run():
            res = queries.QUERIES["sequence_packing"]("/root/testdata/sf0.001")
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            return df.sort_values(["shard", "pack_id"]).reset_index(drop=True)

        small = run()  # sf0.001 is under the cap: fused driver path
        monkeypatch.setattr(queries, "_PACK_SMALL_ROWS", 0)
        base = run()  # bounded 4-pass path, default range width
        monkeypatch.setattr(queries, "_PACK_RANGE_WIDTH", 16)
        narrow = run()  # bounded path, many range-straddling packs
        assert small.equals(base)
        assert base.equals(narrow)


class TestMinhashVerified:
    def test_verified_pairs_have_high_jaccard(self, ray_session):
        """Stage-2 verification: every emitted pair's exact Jaccard >= 0.7
        and recomputing it driver-side agrees."""
        from node_html_parser_ray.pipelines.queries import (
            QUERIES,
            q_minhash_neardup,
        )
        from node_html_parser_ray.stages.dedup import pairwise_jaccard

        import pandas as pd
        import pyarrow.parquet as pq

        sf = "/root/testdata/sf0.001"
        df = QUERIES["minhash_neardup_verified"](sf).to_pandas()
        cand = q_minhash_neardup(sf).to_pandas()
        assert len(df) <= len(cand)
        if len(df):
            t = pq.read_table(sf + "/documents.parquet",
                              columns=["doc_id", "text"])
            texts = dict(zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()))
            want = pairwise_jaccard(
                pd.Series([texts[a] for a in df["doc_a"]]),
                pd.Series([texts[b] for b in df["doc_b"]]),
            )
            assert (abs(df["jaccard"].to_numpy() - want) < 1e-12).all()
            assert (df["jaccard"] >= 0.7).all()

    def test_sparse_bloom_equals_dense(self):
        """The position-sharded bloom build produces the exact same filter
        as folding every id into one dense array."""
        import numpy as np

        from node_html_parser_ray.stages import dedup

        ids = np.array([3, 17, 99, 12345, 2**40 + 7, 0], dtype=np.int64)
        m_bits = 1 << 16
        dense = dedup.bloom_bits_for_ids(ids, m_bits)
        for n_shards in (1, 4, 64):
            pos = dedup.bloom_position_rows(ids, m_bits, n_shards).to_pandas()
            rows = [
                dedup.bloom_shard_dense(g, m_bits, n_shards).iloc[0].to_dict()
                for _, g in pos.groupby("bit_shard")
            ]
            sparse = dedup.bloom_assemble_shards(rows, m_bits, n_shards)
            assert (sparse == dense).all(), n_shards
        # membership behaves identically
        probe = np.array([3, 4, 99, 100, 2**40 + 7], dtype=np.int64)
        assert (
            dedup.bloom_test_ids(dense, probe, m_bits)
            == dedup.bloom_test_ids(sparse, probe, m_bits)
        ).all()

    def test_pairwise_jaccard_basics(self):
        import pandas as pd

        from node_html_parser_ray.stages.dedup import pairwise_jaccard

        a = pd.Series(["abcdefgh", "xxxxx", ""])
        b = pd.Series(["abcdefgh", "yyyyy", ""])
        j = pairwise_jaccard(a, b)
        assert j[0] == 1.0 and j[1] == 0.0 and j[2] == 1.0


class TestAudioStage:
    def test_audio_plumbing_deterministic(self, ray_session):
        import ray

        from node_html_parser_ray.stages.multimodal import (
            AudioFeatureStage,
            fake_payload_batch,
        )

        table = pa.Table.from_arrays(
            [pa.array([f"media://a/{i}" for i in range(6)], pa.string())],
            names=["media_ref"],
        )
        ds = (
            ray.data.from_arrow(table)
            .map_batches(fake_payload_batch, batch_format="pyarrow", batch_size=2)
            .map_batches(AudioFeatureStage, batch_format="pyarrow",
                         batch_size=2, concurrency=1)
        )
        rows = {r["media_ref"]: r for r in ds.take_all()}
        assert len(rows) == 6
        for r in rows.values():
            assert r["duration_ms"] >= 1
            assert r["sample_rate"] == 16000
            assert len(r["features"]) == 16
        # determinism across runs
        again = {
            r["media_ref"]: r["duration_ms"]
            for r in ray.data.from_arrow(table)
            .map_batches(fake_payload_batch, batch_format="pyarrow", batch_size=3)
            .map_batches(AudioFeatureStage, batch_format="pyarrow",
                         batch_size=3, concurrency=1)
            .take_all()
        }
        assert again == {k: v["duration_ms"] for k, v in rows.items()}


class TestCrashRecovery:
    def test_partial_shard_output_overwritten(self, ray_session, tmp_path):
        """A shard directory left by a crashed run (files on disk, NO
        manifest commit) is replaced wholesale on re-run — never
        double-counted (idempotent commit contract)."""
        import os

        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.sources.corpus import write_corpus

        src = str(tmp_path / "in")
        files = write_corpus(src, n_docs=60, seed=6, rows_per_file=15)
        out = str(tmp_path / "out")
        # simulate a crash: shard 0's dir exists with garbage, no commit
        shard0 = os.path.join(out, "shard=000000")
        os.makedirs(shard0)
        with open(os.path.join(shard0, "garbage.parquet"), "wb") as f:
            f.write(b"not parquet")

        result = run_checkpointed(files, out, shard_count=4)
        assert sorted(result["ran"]) == [0, 1, 2, 3]
        assert result["totals"]["n_docs"] == 60
        # the garbage file is gone and the shard output is readable
        assert not os.path.exists(os.path.join(shard0, "garbage.parquet"))
        t = pq.read_table(shard0, columns=["doc_id"])
        assert t.num_rows == 15

    def test_worker_death_mid_task_retried_exactly_once(
        self, ray_session, tmp_path
    ):
        """A worker process dying MID-BATCH (the single-node analogue of a
        node preemption / OOM-kill on a 256-node run) is retried by Ray's
        task-lineage machinery and the job still produces output identical
        to the no-crash golden — no lost rows, no duplicated rows (blocks
        from the dead attempt are discarded, never partially consumed)."""
        import pyarrow.parquet as pq
        import ray

        corpus = generate_documents(200, seed=11)
        golden = golden_spans(corpus)
        path = str(tmp_path / "corpus.parquet")
        pq.write_table(corpus, path)

        flag = str(tmp_path / "crashed_once")

        def crash_once_then_extract(batch: pa.Table) -> pa.Table:
            try:
                fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return extract_batch(batch)
            os.close(fd)
            os._exit(1)  # hard process death, not a catchable exception

        ds = ray.data.read_parquet(path, override_num_blocks=4).map_batches(
            crash_once_then_extract, batch_format="pyarrow", batch_size=64
        )
        rows = ds.take_all()
        assert os.path.exists(flag), "the planted worker death never fired"
        # a duplicated row would collapse in the dict below: check the
        # row multiset first
        assert len(rows) == 200
        assert sorted(row["doc_id"] for row in rows) == sorted(golden)

        result = {}
        for row in rows:
            spans = [
                (s["kind"], s["text"], s["media_ref"], s["order"])
                for s in row["spans"]
            ]
            result[row["doc_id"]] = (spans, row["valid"])
        assert result == golden

    def test_write_path_worker_death_counted_once(
        self, ray_session, tmp_path, monkeypatch
    ):
        """A worker dying inside a checkpointed shard's write task: the
        retried task's metrics come back once, so the committed metrics
        equal a run without the crash."""
        from node_html_parser_ray.pipelines import extraction

        files = write_corpus(str(tmp_path / "in"), n_docs=120, seed=15, rows_per_file=30)
        clean = extraction.run_checkpointed(files, str(tmp_path / "clean"), shard_count=2)

        flag = str(tmp_path / "crashed_once")

        def crash_once_then_extract(batch: pa.Table) -> pa.Table:
            try:
                fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return extract_batch(batch)
            os.close(fd)
            os._exit(1)  # hard process death, not a catchable exception

        monkeypatch.setattr(extraction, "make_extract_batch",
                            lambda options=None: crash_once_then_extract)
        crashed = extraction.run_checkpointed(files, str(tmp_path / "out"), shard_count=2)
        assert os.path.exists(flag), "the planted worker death never fired"
        assert crashed["totals"]["n_docs"] == 120
        assert crashed["totals"] == clean["totals"]
        assert [r["metrics"] for r in crashed["lineage"]] == [
            r["metrics"] for r in clean["lineage"]]
        assert [r["row_count"] for r in crashed["lineage"]] == [60, 60]

    def test_failing_shard_keeps_running_shards(
        self, ray_session, tmp_path, monkeypatch
    ):
        """A shard that fails does not discard the shards running beside
        it: they finish and commit with a clean run's metrics, the failure
        is raised after them, and a rerun runs only the failed shard."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines import extraction
        from node_html_parser_ray.state.manifest import ShardManifest

        files = sorted(write_corpus(str(tmp_path / "in"), n_docs=120, seed=16,
                                    rows_per_file=30))
        clean = extraction.run_checkpointed(files, str(tmp_path / "clean"), shard_count=4)
        # shard 0 of shard_count=4 over sorted files is files[0]
        shard0_docs = set(pq.read_table(files[0], columns=["doc_id"])
                          .column("doc_id").to_pylist())

        def fail_on_shard0(batch: pa.Table) -> pa.Table:
            if shard0_docs.intersection(batch.column("doc_id").to_pylist()):
                raise RuntimeError("planted failure in shard 0")
            return extract_batch(batch)

        monkeypatch.setattr(extraction, "make_extract_batch",
                            lambda options=None: fail_on_shard0)
        out = str(tmp_path / "out")
        with pytest.raises(Exception, match="planted failure in shard 0"):
            extraction.run_checkpointed(files, out, shard_count=4)
        assert ShardManifest(out).completed_shards() == {1, 2, 3}
        want = {r["shard_id"]: r["metrics"] for r in clean["lineage"]}
        for r in ShardManifest(out).lineage():
            assert r["metrics"] == want[r["shard_id"]]

        monkeypatch.undo()
        rerun = extraction.run_checkpointed(files, out, shard_count=4)
        assert rerun["ran"] == [0]
        assert rerun["skipped"] == [1, 2, 3]
        assert rerun["totals"] == clean["totals"]

    def test_actor_pool_death_restarted_exactly_once(
        self, ray_session, tmp_path
    ):
        """An actor-pool stage losing an actor MID-BATCH is restored by the
        operator's actor restart (Ray Data creates map actors with
        max_restarts > 0) and the in-flight batch is resubmitted: output is
        exactly the input id set, no loss and no duplication.  This is the
        stateful-stage counterpart of the task-retry test above — at
        cluster scale it is what keeps a selector/decoder pool alive
        through node preemption."""
        import ray

        flag = str(tmp_path / "actor_crashed_once")

        class CrashOnceIdentity:
            def __init__(self) -> None:
                self.calls = 0  # per-actor state, rebuilt on restart

            def __call__(self, batch: pa.Table) -> pa.Table:
                self.calls += 1
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return batch
                os.close(fd)
                os._exit(1)

        ds = ray.data.range(600, override_num_blocks=6).map_batches(
            CrashOnceIdentity,
            batch_format="pyarrow",
            batch_size=50,
            concurrency=2,
        )
        ids = sorted(r["id"] for r in ds.take_all())
        assert os.path.exists(flag), "the planted actor death never fired"
        assert ids == list(range(600))


# A driver that runs run_checkpointed over argv's input files into argv's
# last path: 6 shards on 2 CPUs, so at most 2 shards are in flight.
_KILLED_DRIVER = """
import sys

import ray

ray.init(address="local", num_cpus=2, include_dashboard=False,
         log_to_driver=False, object_store_memory=150 * 1024 * 1024)
from node_html_parser_ray.pipelines.extraction import run_checkpointed

run_checkpointed(sys.argv[1:-1], sys.argv[-1], shard_count=6)
"""


def _parquet_files(out: str) -> list[str]:
    import glob

    return glob.glob(os.path.join(out, "shard=*", "**", "*.parquet"), recursive=True)


def _records(out: str) -> list[str]:
    import glob

    return glob.glob(os.path.join(out, "_manifest", "shard-*.json"))


# kill point -> the filesystem state at which the driver's group is killed
_KILL_POINTS = {
    "before_shard_dirs": lambda out: os.path.isdir(os.path.join(out, "_manifest"))
    and not any(d.startswith("shard=") for d in os.listdir(out)),
    "parquet_before_record": lambda out: bool(_parquet_files(out)) and not _records(out),
    "after_first_record": lambda out: bool(_records(out)),
}


def _live_group(pgid: int) -> list[int]:
    """Pids of the processes in group ``pgid`` that have not exited
    (zombies are dead: they wait only for a parent to reap them)."""
    pids = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    state, _, pgrp = f.read().rsplit(")", 1)[1].split()[:3]
            except (OSError, ValueError):
                continue
            if int(pgrp) == pgid and state != "Z":
                pids.append(int(d))
    return pids


class TestDriverKill:
    @pytest.mark.parametrize("kill_point", list(_KILL_POINTS))
    def test_resume_after_driver_kill_with_shards_in_flight(
        self, ray_session, tmp_path, kill_point
    ):
        """A driver SIGKILLed, with its whole process group, while shards
        run concurrently: resuming with the same inputs gives a clean run's
        output rows and lineage, and every parquet file in a shard's
        directory is listed in that shard's lineage."""
        import collections
        import json
        import re
        import signal
        import subprocess
        import sys
        import time

        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.state.manifest import ShardManifest

        files = sorted(write_corpus(str(tmp_path / "in"), n_docs=120, seed=21,
                                    rows_per_file=20))
        assert len(files) == 6
        out = str(tmp_path / "out")
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        driver = subprocess.Popen(
            [sys.executable, "-c", _KILLED_DRIVER, *files, out],
            env={**os.environ, "PYTHONPATH": repo},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        reached = _KILL_POINTS[kill_point]
        try:
            deadline = time.monotonic() + 300
            while not (os.path.isdir(out) and reached(out)):
                assert driver.poll() is None, f"the run ended before {kill_point}"
                assert time.monotonic() < deadline, f"{kill_point} never reached"
                time.sleep(0.001)
        finally:
            os.killpg(driver.pid, signal.SIGKILL)
            driver.wait(timeout=30)
        deadline = time.monotonic() + 30
        while _live_group(driver.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _live_group(driver.pid) == []

        resumed = run_checkpointed(files, out, shard_count=6)
        assert resumed["ran"], "the killed run had committed every shard"
        if kill_point == "after_first_record":
            assert resumed["skipped"]
        clean_out = str(tmp_path / "clean")
        clean = run_checkpointed(files, clean_out, shard_count=6)

        def rows(root):
            return collections.Counter(
                json.dumps(r, sort_keys=True)
                for d in sorted(os.listdir(root)) if d.startswith("shard=")
                for r in pq.read_table(os.path.join(root, d)).to_pylist())

        def lineage(records):
            by_shard = {}
            for r in records:
                r = {k: v for k, v in r.items() if k != "committed_at"}
                # <dataset#>_<write-uuid>_ name a run, not its content
                r["fragments"] = sorted(
                    re.sub(r"^\d+_[0-9a-f]{32}_", "", f) for f in r["fragments"])
                by_shard[r["shard_id"]] = r
            return by_shard

        assert rows(out) == rows(clean_out)
        assert sum(rows(out).values()) == 120
        assert lineage(resumed["lineage"]) == lineage(clean["lineage"])
        assert resumed["totals"] == clean["totals"]
        listed = {os.path.join(out, f"shard={r['shard_id']:06d}", f)
                  for r in ShardManifest(out).lineage() for f in r["fragments"]}
        assert set(_parquet_files(out)) == listed


class TestDriverContract:
    def test_oracle_queries_within_driver_row_cap(self):
        """The driver records ~50 CORRECTNESS rows in QUERIES dict order
        (round 2 truncated the tail): every oracle-backed query must sit
        within the first 50 entries, and every oracle key must exist."""
        from node_html_parser_ray.pipelines.queries import ORACLE_SQL, QUERIES

        keys = list(QUERIES)
        top50 = set(keys[:50])
        assert set(ORACLE_SQL) <= set(QUERIES)
        missing = sorted(k for k in ORACLE_SQL if k not in top50)
        assert not missing, f"oracle-backed queries past the cap: {missing}"


class TestPartitionedOutput:
    def test_partitioned_shard_output(self, ray_session, tmp_path):
        """partition_output=True writes hive partition_id=N/ dirs inside
        each shard, fragments record the nested files, metrics still
        aggregate, and resume still skips the committed shard."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.extraction import run_checkpointed
        from node_html_parser_ray.state.manifest import ShardManifest

        src = str(tmp_path / "in")
        files = write_corpus(src, n_docs=60, seed=9, rows_per_file=30)
        out = str(tmp_path / "out")
        first = run_checkpointed(files, out, shard_count=2,
                                 partition_output=True)
        assert sorted(first["ran"]) == [0, 1]
        assert first["totals"]["n_docs"] == 60
        shard0 = os.path.join(out, "shard=000000")
        parts = [d for d in os.listdir(shard0) if d.startswith("partition_id=")]
        assert parts, os.listdir(shard0)
        # lineage fragments include the nested partition files
        rec = ShardManifest(out).read(0)
        assert any(f.startswith("partition_id=") for f in rec["fragments"])
        # read back through the hive layout: all rows, partition col present
        t = pq.read_table(shard0)
        assert t.num_rows == 30
        assert "partition_id" in t.schema.names
        second = run_checkpointed(files, out, shard_count=2,
                                  partition_output=True)
        assert second["ran"] == [] and sorted(second["skipped"]) == [0, 1]

    def test_null_doc_id_partitioned_output(self, ray_session, tmp_path):
        """A null doc_id no longer kills its shard under
        partition_output=True: the row lands in the output."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.extraction import run_checkpointed

        table = generate_documents(4, seed=9)
        table = table.set_column(
            0, "doc_id", pa.array([None, "a", None, "b"], pa.string()))
        src = str(tmp_path / "in.parquet")
        pq.write_table(table, src)
        out = str(tmp_path / "out")
        summary = run_checkpointed([src], out, shard_count=1,
                                   partition_output=True)
        assert summary["totals"]["n_docs"] == 4
        got = pq.read_table(os.path.join(out, "shard=000000"))
        assert sorted(got.column("doc_id").to_pylist(),
                      key=lambda d: d or "") == [None, None, "a", "b"]
