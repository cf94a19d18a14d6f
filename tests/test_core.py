import gc
import json
import random
import re
import threading
import time
import tracemalloc

import pytest

from rankfit.core import (
    KIND_JOB,
    KIND_RESUME,
    Document,
    Label,
    load_corpus,
    load_labels,
    load_pools,
    named_ids,
    open_atomic,
    parallel_map,
    render_document,
    write_corpus,
    write_jsonl,
    write_labels,
    write_pools,
    RankedPool,
)
from rankfit.engine import WindowCall
from rankfit.errors import DuplicateId, EmptyPool, MalformedRecord, UnknownDocument
from rankfit.ranker import RankRequest, RankResponse
from rankfit.synthetic import SyntheticConfig

from conftest import corpus_for_windows, generate_corpus, make_resume, make_window


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadCorpus:
    def test_two_wellformed_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_lines(
            path,
            [
                json.dumps({"id": "r1", "kind": "resume", "fields": [["title", "Dev"]]}),
                json.dumps({"id": "r2", "kind": "resume", "fields": [["title", "SRE"]]}),
            ],
        )
        docs = load_corpus(path)
        assert set(docs) == {"r1", "r2"}
        assert docs["r1"].fields == (("title", "Dev"),)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rec = json.dumps({"id": "r1", "kind": "resume", "fields": []})
        _write_lines(path, [rec, rec])
        with pytest.raises(DuplicateId):
            load_corpus(path)

    def test_missing_fields_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_lines(
            path,
            [
                json.dumps({"id": "r1", "kind": "resume", "fields": []}),
                json.dumps({"id": "r2", "kind": "resume", "fields": []}),
                json.dumps({"id": "r3", "kind": "resume"}),
            ],
        )
        with pytest.raises(MalformedRecord) as exc_info:
            load_corpus(path)
        assert exc_info.value.line == 3
        assert "line 3" in str(exc_info.value)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_lines(path, ["{not json"])
        with pytest.raises(MalformedRecord) as exc_info:
            load_corpus(path)
        assert exc_info.value.line == 1

    def test_bytes_that_are_not_utf8_report_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(json.dumps({"id": "r1", "kind": "resume", "fields": []}).encode() + b'\n\n{"id": "\xe9"}\n')
        with pytest.raises(MalformedRecord, match=r"^line 3: not valid UTF-8$"):
            load_corpus(path)

    def test_roundtrip(self, tmp_path):
        docs = [
            Document(id="r1", kind="resume", fields=(("a", "x"), ("b", "y"))),
            Document(id="j1", kind="job", fields=(("title", "ML 工程师"),)),
        ]
        path = tmp_path / "corpus.jsonl"
        write_corpus(docs, path)
        loaded = load_corpus(path)
        assert loaded == {d.id: d for d in docs}


class TestLoadCorpusKeep:
    @pytest.fixture
    def corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        documents, _, _ = generate_corpus(SyntheticConfig(n_jobs=6, n_background=40, seed=4))
        write_corpus(documents.values(), path)
        return path, documents

    @pytest.mark.parametrize("picks", [0, 1, 7, 1000])
    def test_is_the_full_load_restricted_to_keep(self, corpus, picks):
        path, documents = corpus
        keep = set(random.Random(picks).sample(sorted(documents), min(picks, len(documents)))) | {"not-in-corpus"}
        full = load_corpus(path)
        kept = load_corpus(path, keep)
        assert list(kept.items()) == [(doc_id, doc) for doc_id, doc in full.items() if doc_id in keep]

    def test_a_bad_record_outside_keep_raises_naming_its_line(self, corpus, tmp_path):
        path, documents = corpus
        lines = path.read_text().splitlines()
        _write_lines(path, [*lines[:5], json.dumps({"id": "x", "kind": "resume"}), *lines[5:]])
        with pytest.raises(MalformedRecord, match=r"^line 6: missing 'fields' list$"):
            load_corpus(path, {json.loads(lines[0])["id"]})

    def test_a_repeated_id_outside_keep_raises_naming_its_line(self, corpus):
        path, documents = corpus
        lines = path.read_text().splitlines()
        _write_lines(path, [*lines, lines[3]])
        with pytest.raises(DuplicateId, match=rf"^line {len(lines) + 1}: duplicate document id"):
            load_corpus(path, {json.loads(lines[0])["id"]})


class TestNamedIds:
    def test_reads_the_ids_a_windows_or_a_pools_file_names(self, tmp_path):
        windows = [make_window("j1/w0"), make_window("j2/w0", job_id="j2")]
        write_jsonl((w.to_record() for w in windows), tmp_path / "windows.jsonl")
        write_pools([RankedPool("j9", ("r1", "r2"))], tmp_path / "pools.jsonl")
        assert named_ids(tmp_path / "windows.jsonl") == {"j1", "j2", *windows[0].candidate_ids, *windows[1].candidate_ids}
        assert named_ids(tmp_path / "pools.jsonl") == {"j9", "r1", "r2"}

    def test_a_line_or_file_it_cannot_read_names_nothing(self, tmp_path):
        # the read stops at the first line iter_jsonl rejects: the strict parse raises there
        path = tmp_path / "named.jsonl"
        for bad in (b"{not json", b"[1, 2]", b'{"job_id": "\xff"}', b"[" * 100_000):
            lines = [b"", b'{"job_id": 5, "candidates": "r1"}', b'{"candidates": [1, ["r2"], "r3"]}',
                     b'{"job_id": "j1", "candidates": null}', bad, b'{"job_id": "j2", "candidates": ["r4"]}']
            path.write_bytes(b"\n".join(lines) + b"\n")
            assert named_ids(path) == {"r3", "j1"}, bad[:20]
        assert named_ids(tmp_path / "nowhere.jsonl") == set() == named_ids(tmp_path)


class TestCompactRecords:
    """Loaded records hold no per-instance dict, and shared strings are stored once."""

    @pytest.mark.parametrize(
        "record",
        [
            Document("j1", KIND_JOB, (("title", "Dev"),)),
            Label("j1", "r1", 1),
            RankedPool("j1", ("r1", "r2")),
            make_window(),
            WindowCall(1, 1, ["a"], ["a"], "", False, False),
            RankRequest.for_ids(corpus_for_windows([make_window()]), "j1", make_window().presented_ids(), "j1/w0:t"),
            RankResponse("", [1, 2]),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_record_types_have_no_instance_dict(self, record):
        assert "__slots__" in vars(type(record))
        assert not hasattr(record, "__dict__")

    def test_field_names_are_one_object_and_kind_is_the_constant(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_lines(
            path,
            [
                json.dumps({"id": "j1", "kind": "job", "fields": [["title", "Dev"], ["skills", "go"]]}),
                json.dumps({"id": "r1", "kind": "resume", "fields": [["title", "SRE"], ["skills", "sql"]]}),
            ],
        )
        docs = load_corpus(path)
        assert docs["j1"].kind is KIND_JOB and docs["r1"].kind is KIND_RESUME
        for (name_a, _), (name_b, _) in zip(docs["j1"].fields, docs["r1"].fields):
            assert name_a == name_b and name_a is name_b

    def test_a_loaded_document_retains_at_most_1000_bytes(self, tmp_path):
        # The 50/400 seed-77 corpus retained 1,284 bytes per document with a
        # per-instance dict and a string per field name, about 900 without.
        documents, _, _ = generate_corpus(SyntheticConfig(n_jobs=50, n_background=400, seed=77))
        path = tmp_path / "corpus.jsonl"
        write_corpus(documents.values(), path)
        del documents
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            docs = load_corpus(path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(docs) == 658
        assert retained / len(docs) <= 1000

class TestRenderDocument:
    def test_single_field(self):
        doc = Document(id="r", kind="resume", fields=(("title", "Engineer"),))
        assert render_document(doc) == "## title\nEngineer"

    def test_zero_fields_empty_string(self):
        doc = Document(id="r", kind="resume", fields=())
        assert render_document(doc) == ""

    def test_two_fields_order_and_separator(self):
        doc = Document(id="r", kind="resume", fields=(("a", "first"), ("b", "second")))
        assert render_document(doc) == "## a\nfirst\n\n## b\nsecond"

    def test_deterministic(self):
        doc = make_resume("r1")
        assert render_document(doc) == render_document(doc)

    def test_injective_on_distinct_fixtures(self):
        docs = [
            make_resume(f"r{i}", skills=f"skill_{i}, sql") for i in range(50)
        ]
        rendered = {render_document(d) for d in docs}
        assert len(rendered) == len(docs)


class TestLabels:
    def test_load_and_roundtrip(self, tmp_path):
        labels = [Label("j1", "r1", 1), Label("j1", "r2", 0)]
        path = tmp_path / "labels.jsonl"
        write_labels(labels, path)
        assert load_labels(path) == labels

    def test_bad_y(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        _write_lines(path, [json.dumps({"job_id": "j", "resume_id": "r", "y": 2})])
        with pytest.raises(MalformedRecord):
            load_labels(path)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        rec = json.dumps({"job_id": "j", "resume_id": "r", "y": 1})
        _write_lines(path, [rec, rec])
        with pytest.raises(DuplicateId):
            load_labels(path)


class TestLoadPools:
    def _pool_file(self, tmp_path, candidates, job_id="j1"):
        path = tmp_path / "pools.jsonl"
        _write_lines(path, [json.dumps({"job_id": job_id, "candidates": candidates})])
        return path

    def test_join_one_accepted(self, tmp_path):
        ids = [f"r{i}" for i in range(20)]
        path = self._pool_file(tmp_path, ids)
        pools = load_pools(path, [Label("j1", "r3", 1)])
        (pool,) = pools
        assert pool.accepted_ids == {"r3"}

    def test_join_mixed_labels(self, tmp_path):
        ids = [f"r{i}" for i in range(20)]
        path = self._pool_file(tmp_path, ids)
        labels = [Label("j1", f"r{i}", 1) for i in range(3)] + [
            Label("j1", f"r{i}", 0) for i in range(3, 5)
        ]
        (pool,) = load_pools(path, labels)
        assert pool.accepted_ids == {"r0", "r1", "r2"}

    def test_unknown_document(self, tmp_path):
        path = self._pool_file(tmp_path, ["r1", "r999"])
        with pytest.raises(UnknownDocument):
            load_pools(path, [], corpus={"j1": Document("j1", "job", ()), "r1": Document("r1", "resume", ())})

    def test_empty_pool(self, tmp_path):
        path = self._pool_file(tmp_path, [])
        with pytest.raises(EmptyPool):
            load_pools(path, [])

    def test_repeated_job_names_both_lines(self, tmp_path):
        path = tmp_path / "pools.jsonl"
        records = [{"job_id": j, "candidates": [f"{j}-r1", f"{j}-r2"]} for j in ("j1", "j2", "j1")]
        _write_lines(path, [json.dumps(rec) for rec in records])
        with pytest.raises(MalformedRecord, match=r"^line 3: pool for job 'j1' repeats line 1$"):
            load_pools(path, [])

    @pytest.mark.parametrize("candidates", [["r1", 2], ["r1", None], "r1"])
    def test_candidates_must_be_a_list_of_string_ids(self, tmp_path, candidates):
        path = self._pool_file(tmp_path, candidates)
        with pytest.raises(MalformedRecord, match="^line 1: pool needs a string 'job_id' and a list of string 'candidates'$"):
            load_pools(path, [])

    def test_duplicate_candidates(self, tmp_path):
        path = self._pool_file(tmp_path, ["r1", "r1"])
        with pytest.raises(MalformedRecord):
            load_pools(path, [])

    def test_invariants_on_randomized_fixtures(self, tmp_path):
        rng = random.Random(1234)
        for trial in range(30):
            n_jobs = rng.randint(1, 5)
            records = []
            labels = []
            for j in range(n_jobs):
                ids = [f"t{trial}r{j}x{i}" for i in range(rng.randint(1, 25))]
                records.append({"job_id": f"t{trial}j{j}", "candidates": ids})
                for cid in ids:
                    if rng.random() < 0.2:
                        labels.append(Label(f"t{trial}j{j}", cid, rng.randint(0, 1)))
            path = tmp_path / f"pools{trial}.jsonl"
            write_jsonl(records, path)
            pools = load_pools(path, labels)
            for pool in pools:
                assert len(set(pool.candidates)) == len(pool.candidates)
                accepted = {l.resume_id for l in labels if l.job_id == pool.job_id and l.y == 1}
                assert pool.accepted_ids == accepted.intersection(pool.candidates)

    def test_pools_roundtrip(self, tmp_path):
        pool = RankedPool(job_id="j1", candidates=("r1", "r2"))
        path = tmp_path / "pools.jsonl"
        write_pools([pool], path)
        (loaded,) = load_pools(path, [])
        assert loaded.job_id == "j1"
        assert loaded.candidates == ("r1", "r2")


_JOB, _RESUME = Document("j1", "job", ()), Document("r1", "resume", ())


@pytest.mark.parametrize(
    "error,load,lines,expected",
    [
        (DuplicateId, load_corpus, [{"id": "r1", "kind": "resume", "fields": []}] * 2,
         "line 2: duplicate document id 'r1'"),
        (DuplicateId, load_labels, [{"job_id": "j", "resume_id": "r", "y": 1}] * 2,
         "line 2: duplicate label for pair ('j', 'r')"),
        (EmptyPool, lambda path: load_pools(path, []), [{"job_id": "j0", "candidates": ["r1"]}, {"job_id": "j1", "candidates": []}],
         "line 2: pool for job 'j1' has no candidates"),
        (UnknownDocument, lambda path: load_pools(path, [], {"j1": _JOB, "r1": _RESUME}),
         [{"job_id": "j1", "candidates": ["r1", "r2"]}], "line 1: document 'r2' missing from corpus"),
        (UnknownDocument, lambda path: load_pools(path, [], {"j1": _JOB, "r1": _RESUME}),
         [{"job_id": "r1", "candidates": ["r1"]}], "line 1: document 'r1' is a resume, not a job"),
        (UnknownDocument, lambda path: load_pools(path, [], {"j1": _JOB, "r1": _RESUME}),
         [{"job_id": "j1", "candidates": ["r1", "j1"]}], "line 1: document 'j1' is a job, not a resume"),
    ],
)
def test_loader_errors_are_malformed_records_that_lead_with_the_line(error, load, lines, expected, tmp_path):
    path = tmp_path / "input.jsonl"
    _write_lines(path, [json.dumps(rec) for rec in lines])
    with pytest.raises(error, match=f"^{re.escape(expected)}$") as caught:
        load(path)
    assert isinstance(caught.value, MalformedRecord)
    assert caught.value.line == int(expected.split(":")[0].split()[1])


class TestParallelMap:
    @pytest.mark.parametrize("workers", [0, 1, 4, 16])
    def test_keeps_input_order(self, workers):
        items = list(range(5))
        assert list(parallel_map(lambda x: x * x, items, workers)) == [0, 1, 4, 9, 16]

    def test_more_workers_than_items(self):
        release = threading.Event()

        def slow_first(x):
            if x == 0:  # finishes last, yet its result stays first
                release.wait(timeout=5)
            else:
                release.set()
            return f"item{x}"

        assert list(parallel_map(slow_first, [0, 1, 2], 8)) == ["item0", "item1", "item2"]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_raises_first_failure_in_input_order(self, workers):
        later_failed = threading.Event()

        def fn(x):
            if x == 1:  # in parallel, fails only after item 3 has failed
                later_failed.wait(timeout=5 if workers > 1 else 0)
                raise ValueError("item 1")
            if x == 3:
                later_failed.set()
                raise ValueError("item 3")
            return x

        with pytest.raises(ValueError, match="item 1"):
            list(parallel_map(fn, [0, 1, 2, 3], workers))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_yields_the_first_result_before_the_last_item_runs(self, workers):
        first_taken, finished = threading.Event(), []

        def fn(x):
            if x == 7:  # finishes only once the consumer holds item 0's result
                assert first_taken.wait(timeout=2)
            finished.append(x)
            return x

        results = parallel_map(fn, range(8), workers)
        assert next(results) == 0
        assert 7 not in finished
        first_taken.set()
        assert list(results) == list(range(1, 8))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_consumer_that_stops_early_leaves_later_items_unstarted(self, workers):
        started = []

        def fn(x):
            started.append(x)
            time.sleep(0.01 if x else 0)
            return x

        results = parallel_map(fn, range(100), workers)
        assert next(results) == 0
        results.close()
        seen = len(started)
        time.sleep(0.05)
        assert len(started) == seen <= 1 + 2 * workers



def _failing_writes():
    """(name, a write of ``path`` that fails part-way, its error) for every artifact writer."""
    from types import SimpleNamespace

    from rankfit.cli import _write_json
    from rankfit.grpo import CurvePoint, save_policy, write_curve

    def records():
        yield from ({"i": i} for i in range(50))
        raise RuntimeError("cut short")

    curve = [CurvePoint(1, 0.5, 0.0, 0.1, 0.6), SimpleNamespace(step=2)]
    return [
        ("write_jsonl", lambda path: write_jsonl(records(), path), RuntimeError),
        ("cli._write_json", lambda path: _write_json(path, {"a": 1, "b": object()}), TypeError),
        ("grpo.save_policy", lambda path: save_policy(SimpleNamespace(theta=[1.0, "x"], feature_names=["f0", "f1"]), path), ValueError),
        ("grpo.write_curve", lambda path: write_curve(curve, path), AttributeError),
    ]


class TestAtomicWrites:
    @pytest.mark.parametrize("name", [name for name, _, _ in _failing_writes()])
    def test_failed_write_leaves_old_artifact_and_no_temporary_file(self, name, tmp_path):
        write, error = next((w, e) for n, w, e in _failing_writes() if n == name)
        target = tmp_path / "artifact"
        target.write_bytes(b"old artifact\n")
        with pytest.raises(error):
            write(target)
        assert target.read_bytes() == b"old artifact\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_creates_missing_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "artifact"
        with open_atomic(target) as fh:
            fh.write("new\n")
        assert target.read_text() == "new\n"
        assert [p.name for p in target.parent.iterdir()] == ["artifact"]

    def test_replaces_the_target_with_the_mode_a_plain_open_gives(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("x")
        target = tmp_path / "artifact"
        target.write_text("old")
        target.chmod(0o600)
        with open_atomic(target) as fh:
            fh.write("new\n")
        assert target.read_text() == "new\n"
        assert target.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "plain"]
