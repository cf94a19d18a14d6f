"""Domain types and line-delimited JSON persistence.

Documents (resumes and job posts), binary interaction labels, and retrieval
pools are all stored as one JSON record per line:

    corpus.jsonl  {"id": str, "kind": "resume"|"job", "fields": [[name, text], ...]}
    labels.jsonl  {"job_id": str, "resume_id": str, "y": 0|1}
    pools.jsonl   {"job_id": str, "candidates": [str, ...]}

Corpora and pools are immutable after load and safe to share across threads.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

from .errors import (
    DuplicateId,
    EmptyPool,
    MalformedRecord,
    UnknownDocument,
)

KIND_RESUME = "resume"
KIND_JOB = "job"
_KINDS = (KIND_RESUME, KIND_JOB)


@dataclass(frozen=True, slots=True)
class Document:
    """A resume or job post: an opaque id plus an ordered list of named text fields.

    Field order is preserved because prompt rendering is order-sensitive.
    """

    id: str
    kind: str
    fields: tuple[tuple[str, str], ...]


@dataclass(frozen=True, slots=True)
class Label:
    job_id: str
    resume_id: str
    y: int


@dataclass(frozen=True, slots=True)
class RankedPool:
    """One job's retrieved top-N candidate ids in rank order, with its accepted ones.

    ``accepted_ids`` holds the candidates with a y=1 label; every other
    candidate, rejected or unlabeled, is a negative.
    """

    job_id: str
    candidates: tuple[str, ...]
    accepted_ids: frozenset[str] = frozenset()

    def relevance(self, ids: Sequence[str] | None = None) -> list[int]:
        """Binary relevance vector for ``ids`` (default: retrieval order)."""
        if ids is None:
            ids = self.candidates
        return [1 if cid in self.accepted_ids else 0 for cid in ids]


def render_document(doc: Document) -> str:
    """Render a document as "## field\\nvalue" blocks separated by one blank line.

    Deterministic and order-preserving; a document with zero fields renders
    to the empty string.
    """
    return "\n\n".join(f"## {name}\n{text}" for name, text in doc.fields)


def accepted_by_job(labels: Iterable[Label]) -> dict[str, frozenset[str]]:
    """Index labels into {job_id: ids with a y=1 label}: the one rule for which labels accept."""
    acc: dict[str, set[str]] = {}
    for lab in labels:
        if lab.y == 1:
            acc.setdefault(lab.job_id, set()).add(lab.resume_id)
    return {job: frozenset(ids) for job, ids in acc.items()}


# ---------------------------------------------------------------------------
# jsonl plumbing
# ---------------------------------------------------------------------------


def parse_json(text: str | bytes):
    """``json.loads(text)``, but text nested too deeply for it raises json.JSONDecodeError, not RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", "", 0) from None


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) pairs; blank lines are skipped."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise MalformedRecord("not valid UTF-8", line=lineno) from None
            if not line.strip():
                continue
            try:
                rec = parse_json(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(rec, dict):
                raise MalformedRecord("record is not an object", line=lineno)
            yield lineno, rec


@contextmanager
def open_atomic(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A text file to write ``path`` through: it replaces ``path`` only once the block ends.

    A missing parent directory is created first. The text goes to a
    temporary file beside ``path``, which ``os.replace`` moves onto it. So a
    write that fails or is cut short leaves the old ``path`` whole, and a
    failed write removes its temporary file. The file gets the mode a plain
    ``open`` would give it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def iter_job_rows(path: str | Path, row: str) -> Iterator[tuple[int, str, dict]]:
    """Yield (line_number, job_id, record) from a file of one ``row`` per job; a non-string or repeated job_id raises."""
    first_line: dict[str, int] = {}
    for lineno, rec in iter_jsonl(path):
        job_id = rec.get("job_id")
        if not isinstance(job_id, str):
            raise MalformedRecord(f"{row} needs a string 'job_id', got {job_id!r}", line=lineno)
        if job_id in first_line:
            raise MalformedRecord(f"{row} for job {job_id!r} repeats line {first_line[job_id]}", line=lineno)
        first_line[job_id] = lineno
        yield lineno, job_id, rec


def jsonl_line(rec: Mapping) -> str:
    """``rec`` as one line of a jsonl file, newline included."""
    return json.dumps(rec, ensure_ascii=False) + "\n"


def write_jsonl(records: Iterable[Mapping], path: str | Path) -> None:
    with open_atomic(path) as fh:
        fh.writelines(map(jsonl_line, records))


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _parse_document(rec: dict, lineno: int) -> Document:
    """The document a corpus record holds; its kind is a KIND_* constant and its field names are interned."""
    doc_id = rec.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise MalformedRecord("missing or empty 'id'", line=lineno)
    kind = rec.get("kind")
    if kind not in _KINDS:
        raise MalformedRecord(f"'kind' must be one of {_KINDS}, got {kind!r}", line=lineno)
    kind = KIND_JOB if kind == KIND_JOB else KIND_RESUME
    raw_fields = rec.get("fields")
    if not isinstance(raw_fields, list):
        raise MalformedRecord("missing 'fields' list", line=lineno)
    fields = []
    for item in raw_fields:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(part, str) for part in item)
        ):
            raise MalformedRecord(
                "each field must be a [name, text] pair of strings", line=lineno
            )
        fields.append((sys.intern(item[0]), item[1]))
    return Document(id=doc_id, kind=kind, fields=tuple(fields))


def load_corpus(path: str | Path, keep: Container[str] | None = None) -> dict[str, Document]:
    """Load documents keyed by id, only those whose id is in ``keep`` when it is given.

    Every line is parsed and checked, kept or not: a bad record or a
    repeated id (DuplicateId) raises MalformedRecord naming its line.
    """
    docs: dict[str, Document] = {}
    ids: set[str] = set()
    for lineno, rec in iter_jsonl(path):
        doc = _parse_document(rec, lineno)
        if doc.id in ids:
            raise DuplicateId(f"duplicate document id {doc.id!r}", line=lineno)
        ids.add(doc.id)
        if keep is None or doc.id in keep:
            docs[doc.id] = doc
    return docs


def named_ids(path: str | Path) -> set[str]:
    """Every string ``job_id`` and ``candidates`` entry of a windows or pools file, up to its first bad line.

    The read stops at a line ``iter_jsonl`` rejects, and a file that cannot
    be read names nothing: the strict parse of that file, which follows,
    reports them before it checks any record after them.
    """
    ids: set[str] = set()
    try:
        for _, rec in iter_jsonl(path):
            candidates = rec.get("candidates")
            named = (rec.get("job_id"), *(candidates if isinstance(candidates, list) else ()))
            ids.update(doc_id for doc_id in named if isinstance(doc_id, str))
    except (MalformedRecord, OSError):
        pass
    return ids


def corpus_line(doc: Document) -> str:
    """The corpus file line, newline included, that holds ``doc``."""
    return jsonl_line({"id": doc.id, "kind": doc.kind, "fields": [[n, t] for n, t in doc.fields]})


def write_corpus(docs: Iterable[Document], path: str | Path) -> None:
    with open_atomic(path) as fh:
        fh.writelines(map(corpus_line, docs))


def check_in_corpus(
    corpus: Mapping[str, Document] | None, job_id: str, candidates: Iterable[str], line: int, prefix: str = ""
) -> None:
    """Raise UnknownDocument unless ``job_id`` names a job of ``corpus`` and each candidate a resume (None checks nothing)."""
    if corpus is None:
        return
    wanted = KIND_JOB
    for doc_id in (job_id, *candidates):
        doc = corpus.get(doc_id)
        if doc is None or doc.kind != wanted:
            problem = "missing from corpus" if doc is None else f"is a {doc.kind}, not a {wanted}"
            raise UnknownDocument(f"{prefix}document {doc_id!r} {problem}", line=line)
        wanted = KIND_RESUME


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def load_labels(path: str | Path) -> list[Label]:
    labels: list[Label] = []
    seen: set[tuple[str, str]] = set()
    for lineno, rec in iter_jsonl(path):
        job_id, resume_id, y = rec.get("job_id"), rec.get("resume_id"), rec.get("y")
        if not isinstance(job_id, str) or not isinstance(resume_id, str):
            raise MalformedRecord("label needs string 'job_id' and 'resume_id'", line=lineno)
        if type(y) is not int or y not in (0, 1):
            raise MalformedRecord(f"'y' must be 0 or 1, got {y!r}", line=lineno)
        key = (job_id, resume_id)
        if key in seen:
            raise DuplicateId(f"duplicate label for pair {key}", line=lineno)
        seen.add(key)
        labels.append(Label(job_id=job_id, resume_id=resume_id, y=y))
    return labels


def write_labels(labels: Iterable[Label], path: str | Path) -> None:
    write_jsonl(
        ({"job_id": l.job_id, "resume_id": l.resume_id, "y": l.y} for l in labels),
        path,
    )


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------


def load_pools(
    path: str | Path,
    labels: Iterable[Label],
    corpus: Mapping[str, Document] | None = None,
) -> list[RankedPool]:
    """Load retrieval pools and join interaction labels onto them.

    Each pool keeps the candidates ``accepted_by_job`` accepts. With a
    ``corpus``, each pool must pass ``check_in_corpus``. A pool with no
    candidates raises EmptyPool, and a job with two pools raises
    MalformedRecord.
    """
    pools: list[tuple[str, list[str]]] = []
    for lineno, job_id, rec in iter_job_rows(path, "pool"):
        candidates = rec.get("candidates")
        if not isinstance(candidates, list) or not all(isinstance(c, str) for c in candidates):
            raise MalformedRecord("pool needs a string 'job_id' and a list of string 'candidates'", line=lineno)
        if not candidates:
            raise EmptyPool(f"pool for job {job_id!r} has no candidates", line=lineno)
        if len(set(candidates)) != len(candidates):
            raise MalformedRecord(
                f"pool for job {job_id!r} contains duplicate candidates", line=lineno
            )
        check_in_corpus(corpus, job_id, candidates, lineno)
        pools.append((job_id, candidates))
    return join_labels(pools, labels)


def join_labels(
    pools: Iterable[tuple[str, Sequence[str]]], labels: Iterable[Label]
) -> list[RankedPool]:
    """RankedPools from (job_id, candidates) pairs, each with its accepted candidates."""
    accepted = accepted_by_job(labels)
    return [
        RankedPool(job_id, tuple(candidates), accepted.get(job_id, frozenset()).intersection(candidates))
        for job_id, candidates in pools
    ]


def write_pools(pools: Iterable[RankedPool], path: str | Path) -> None:
    write_jsonl(
        ({"job_id": p.job_id, "candidates": list(p.candidates)} for p in pools),
        path,
    )


# ---------------------------------------------------------------------------
# fan-out
# ---------------------------------------------------------------------------

_T = TypeVar("_T")
_R = TypeVar("_R")


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T], workers: int) -> Iterator[_R]:
    """``fn(item)`` for each item, yielded in input order as soon as it is ready; on up to ``workers`` threads when workers > 1.

    The error of the first failing item in input order is the one raised. A
    result is let go once yielded; when the consumer stops early, unstarted
    items are cancelled.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as executor:
        yield from executor.map(fn, items)
