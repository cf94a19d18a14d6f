"""Ranker surface: listwise prompts, answer parsing and repair, rankers.

A ranker is any callable taking a RankRequest and returning a RankResponse
whose ordering is a full permutation of the request's slot indices. Four
implementations ship here:

* LlmRanker        -- chat-completions HTTP client with retries; degrades to
                      the identity ordering rather than losing candidates.
* OracleRanker     -- accepted candidates first, stable otherwise.
* NoisyOracleRanker-- oracle, but demotes the top positive with probability
                      p_flip; seeded per request id so concurrency does not
                      perturb determinism.
* IdentityRanker   -- returns slots unchanged (the no-op baseline).

The answer protocol is a bracketed chain inside answer tags, e.g.
``<answer> [2] > [3] > [1] > [4] </answer>``. Parsing takes the LAST answer
block (reasoning may quote the format), then repairs imperfect chains instead
of rejecting them: out-of-range slots are dropped, duplicates keep their first
occurrence, and missing slots are appended in ascending order.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import random
import re
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar

from .core import Document, render_document
from .errors import ConfigError, MalformedAnswer, check_fields
from .seeding import child_rng

log = logging.getLogger(__name__)

_T = TypeVar("_T")

SYSTEM_TEMPLATE = (
    "You are an expert technical recruiter that can rank resumes based on their "
    "matching degree to the job description. You first analyze each resume "
    "individually, then compare them systematically, and finally provide the "
    "ranking. The most relevant resumes should be listed first. The output format "
    "should be <answer> {slots} </answer>, e.g., <answer> [X] > [Y] > [Z] > [T] </answer>."
)

DEFAULT_INSTRUCTIONS = """\
Carefully verify that each candidate meets ALL of the following mandatory criteria when explicitly stated in the job description:
- Education: Required degree level and relevant major.
- Certifications & Licenses: Mandatory professional qualifications (e.g., physician's license, CPA).
- Technical Skills: Required tools, technologies, and hands-on expertise.
- Age Restrictions: Explicit age limits where legally applicable.
- Legal & Identity Requirements: Work authorization, residency, or practice-license constraints.
- Physical Fitness: Explicit physical or medical requirements.
- Work Conditions: Shift patterns, on-site presence, travel, or relocation requirements.
Critical Rule: The more explicitly stated mandatory criteria a candidate fails to meet, the less matching they are to the job."""

USER_TEMPLATE = """\
{instructions}

Resumes:
{resumes_section}

Please rank these resumes according to their matching degree to the JOB DESCRIPTION: [{job_description}].

Follow these steps exactly:
1. First, think to summarize the job description and analyze EACH resume briefly: Evaluate how well it matches the job description and mandatory criteria.
2. Then, think to COMPARE the resumes and determine which candidates are better fits and why.
3. Finally, within <answer> tags, provide ONLY the final ranking of the resumes from best to worst fit using their numerical identifiers in the format: [X] > [Y] > [Z] > [T]."""

JUDGE_QUESTION = (
    "Is this window's accepted candidate clearly the best fit? "
    "Answer with <answer> yes </answer> or <answer> no </answer>."
)


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.0
    top_p: float = 1.0
    top_k: int | None = None
    max_tokens: int = 4096


# Sampling used when probing window difficulty (multiple stochastic trials).
ANNOTATION_SAMPLING = SamplingParams(temperature=0.6, top_p=0.95, top_k=20)


@dataclass(frozen=True)
class RankRequest:
    """One listwise ranking call: a job plus slot-numbered candidate documents."""

    job: Document
    candidates: tuple[tuple[int, Document], ...]
    request_id: str = ""
    hint: str | None = None
    sampling: SamplingParams = field(default_factory=SamplingParams)

    def __post_init__(self):
        slots = [slot for slot, _ in self.candidates]
        if len(slots) < 2 or slots != list(range(1, len(slots) + 1)):
            raise ConfigError(f"candidate slots must be 1..k with k >= 2, got {slots}")

    @classmethod
    def for_ids(
        cls, corpus: Mapping[str, Document], job_id: str, ids: Sequence[str], request_id: str,
        hint: str | None = None, sampling: SamplingParams = SamplingParams(),
    ) -> RankRequest:
        """The request for job ``job_id`` that shows the documents ``ids`` in slots 1..k, in order."""
        return cls(corpus[job_id], tuple(enumerate((corpus[c] for c in ids), start=1)), request_id, hint, sampling)

    @property
    def k(self) -> int:
        return len(self.candidates)


@dataclass
class RankResponse:
    raw_text: str
    ordering: list[int]
    repaired: bool = False
    latency_ms: float = 0.0
    retry_count: int = 0
    degraded: bool = False


Ranker = Callable[[RankRequest], RankResponse]


def build_prompt(req: RankRequest) -> tuple[str, str]:
    """Render the (system, user) prompt pair for a ranking request.

    Deterministic: the same request always yields identical strings. The
    request's hint, when present, is appended to the instructions block.
    """
    slots_format = " > ".join("[]" for _ in range(req.k))
    system = SYSTEM_TEMPLATE.format(slots=slots_format)
    instructions = f"{DEFAULT_INSTRUCTIONS}\nHint: {req.hint}" if req.hint else DEFAULT_INSTRUCTIONS
    user = USER_TEMPLATE.format(
        instructions=instructions,
        resumes_section=_resumes_section(req),
        job_description=render_document(req.job),
    )
    return system, user


def _resumes_section(req: RankRequest) -> str:
    """The request's candidates as slot-numbered resume blocks, for both prompts."""
    return "\n\n".join(f"Resume [{slot}]: {render_document(doc)}" for slot, doc in req.candidates)


_ANSWER_BLOCK = re.compile(r"<answer>(.*?)</answer>", re.IGNORECASE | re.DOTALL)
_SLOT = re.compile(r"\[\s*(\d+)\s*\]")


def format_answer(ordering: list[int]) -> str:
    """The canonical answer string for an ordering, round-trippable by parse_answer."""
    chain = " > ".join(f"[{slot}]" for slot in ordering)
    return f"<answer> {chain} </answer>"


def parse_answer(raw: str, k: int) -> tuple[list[int], bool]:
    """Extract an ordering over 1..k from the LAST answer block of ``raw``.

    Returns (ordering, repaired). ``repaired`` is True when any repair rule
    fired: out-of-range slot dropped, duplicate dropped, or missing slots
    appended in ascending order. Raises MalformedAnswer when there is no
    answer block or the block contains no in-range slot at all.
    """
    blocks = _ANSWER_BLOCK.findall(raw or "")
    if not blocks:
        raise MalformedAnswer("no <answer> block found")
    found = [int(m) for m in _SLOT.findall(blocks[-1])]
    if not found:
        raise MalformedAnswer("answer block contains no slot identifiers")
    repaired = False
    seen: set[int] = set()
    ordering: list[int] = []
    for slot in found:
        if not 1 <= slot <= k or slot in seen:
            repaired = True
            continue
        seen.add(slot)
        ordering.append(slot)
    if not ordering:
        raise MalformedAnswer("answer block contains no in-range slot identifiers")
    if len(ordering) < k:
        repaired = True
        ordering.extend(slot for slot in range(1, k + 1) if slot not in seen)
    return ordering, repaired


def parse_judge_answer(raw: str) -> bool:
    """Parse a yes/no verdict from the last answer block."""
    blocks = _ANSWER_BLOCK.findall(raw or "")
    if not blocks:
        raise MalformedAnswer("no <answer> block found")
    verdict = blocks[-1].strip().lower()
    if verdict not in ("yes", "no"):
        raise MalformedAnswer(f"judge answer must be yes or no, got {verdict!r}")
    return verdict == "yes"


def build_judge_prompt(req: RankRequest, gold_slot: int) -> tuple[str, str]:
    """Prompt asking whether the request's candidate in ``gold_slot`` is clearly the best fit.

    The request's hint is not shown to the judge.
    """
    system = (
        "You are an expert technical recruiter assessing the quality of a labeled "
        "training example. Answer strictly with <answer> yes </answer> or <answer> no </answer>."
    )
    user = (
        f"JOB DESCRIPTION: [{render_document(req.job)}]\n\n"
        f"Resumes:\n{_resumes_section(req)}\n\n"
        f"The accepted candidate is Resume [{gold_slot}]. {JUDGE_QUESTION}"
    )
    return system, user


# ---------------------------------------------------------------------------
# Reference rankers
# ---------------------------------------------------------------------------


class IdentityRanker:
    """Returns candidates in their presented order."""

    def __call__(self, req: RankRequest) -> RankResponse:
        ordering = list(range(1, req.k + 1))
        return RankResponse(raw_text=format_answer(ordering), ordering=ordering)


class OracleRanker:
    """Accepted candidates first, stable within each class by slot order."""

    def __init__(self, accepted: Mapping[str, frozenset[str]]):
        self._accepted = accepted

    def _oracle_ordering(self, req: RankRequest) -> tuple[list[int], bool]:
        acc = self._accepted.get(req.job.id, frozenset())
        positives = [slot for slot, doc in req.candidates if doc.id in acc]
        negatives = [slot for slot, doc in req.candidates if doc.id not in acc]
        return positives + negatives, bool(positives)

    def __call__(self, req: RankRequest) -> RankResponse:
        ordering, _ = self._oracle_ordering(req)
        return RankResponse(raw_text=format_answer(ordering), ordering=ordering)


class NoisyOracleRanker(OracleRanker):
    """Oracle whose top positive is demoted with probability ``p_flip``.

    When the flip fires, the leading positive swaps places with a uniformly
    chosen other position, so at p_flip=1 the gold is never ranked first.
    Each request draws from a child generator seeded by (seed, request_id).
    """

    def __init__(self, accepted: Mapping[str, frozenset[str]], p_flip: float, seed: int = 0):
        super().__init__(accepted)
        self.p_flip = p_flip
        check_fields(self, ("p_flip",), float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
        self._seed = seed

    def __call__(self, req: RankRequest) -> RankResponse:
        ordering, has_positive = self._oracle_ordering(req)
        rng = child_rng(self._seed, req.request_id)
        if has_positive and self.p_flip > 0 and rng.random() < self.p_flip:
            j = rng.randrange(1, len(ordering))
            ordering[0], ordering[j] = ordering[j], ordering[0]
        return RankResponse(raw_text=format_answer(ordering), ordering=ordering)


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndpointConfig:
    """Chat-completions endpoint settings; the API key is read from the environment."""

    base_url: str
    model: str
    api_key_env: str | None = None
    max_retries: int = 3
    timeout_s: float = 60.0
    max_concurrency: int = 4
    retry_backoff_s: float = 0.5

    def __post_init__(self):
        from urllib.parse import urlsplit

        try:  # reading .port raises ValueError unless it is a number in 0-65535
            parts = urlsplit(self.base_url)
            usable = (
                parts.scheme in ("http", "https") and parts.hostname and parts.port != 0
                # it goes on the request line and in Host as written; urlsplit drops tabs and newlines
                and re.fullmatch(r"[!-~]+", self.base_url) and not re.search("[?#]", self.base_url)
                and "@" not in parts.netloc
            )
        except (AttributeError, ValueError):
            usable = False
        if not usable:
            raise ConfigError(
                "endpoint base_url must be an http:// or https:// URL with a host, in printable ASCII with no "
                f"space, user info, query or fragment, got {self.base_url!r}"
            )
        check_fields(self, ("model",), str, bool, "a non-empty string", "endpoint ")
        check_fields(self, ("api_key_env",), (str, type(None)), lambda v: True, "null or a string", "endpoint ")
        check_fields(self, ("max_retries",), int, lambda v: v >= 1, "an integer >= 1", "endpoint ")
        # a pool slot each, made up front, may hold a socket; 1024 is Linux's default open-file limit
        check_fields(self, ("max_concurrency",), int, lambda v: 1 <= v <= 1024, "an integer in [1, 1024]", "endpoint ")
        # socket.settimeout and time.sleep overflow far above a day
        check_fields(self, ("timeout_s",), float, lambda v: 0 < v <= 86400, "a finite number in (0, 86400]", "endpoint ")
        check_fields(self, ("retry_backoff_s",), float, lambda v: 0 <= v <= 86400, "a finite number in [0, 86400]", "endpoint ")


class TransportFailure(Exception):
    """Internal: an attempt failed in a retryable way; ``retry_after`` is a 429/503 reply's wait in s."""

    def __init__(self, message: str, retry_after: int | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class BadReply(OSError):
    """A reply that breaks HTTP/1.1 framing, runs past http.client's size limits, or ends short of its body."""


_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)[ \r\n]")
_FIELD = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*(.*?)[ \t]*\r?\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")  # chunk extensions are ignored
_MAX_LINE, _MAX_HEADERS = 65536, 100  # http.client's limits


def _readline(rfile) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise BadReply(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_exactly(rfile, n: int) -> bytes:
    """``n`` body bytes, read a MiB at most at a time: ``read(n)`` allocates all ``n`` before any arrive."""
    parts, missing = [], n
    while missing:
        part = rfile.read(min(missing, 1 << 20))
        if not part:
            raise BadReply(f"reply cut short: {n - missing} of {n} body bytes")
        parts.append(part)
        missing -= len(part)
    return b"".join(parts)


def _read_fields(rfile) -> dict[str, str]:
    """Header (or trailer) lines up to the blank line, keyed by ``name.title()``."""
    fields = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _readline(rfile)
        if line in (b"\r\n", b"\n"):
            return fields
        field = _FIELD.fullmatch(line)
        if not field:
            raise BadReply(f"bad header line {line[:80]!r}")
        fields[field[1].decode().title()] = field[2].decode("latin-1")
    raise BadReply(f"more than {_MAX_HEADERS} header lines")


def _read_chunk(rfile) -> bytes:
    """The next chunk's data, without the line end after it; b"" for the last chunk."""
    size = _CHUNK_SIZE.fullmatch(_readline(rfile))
    if not size:
        raise BadReply("bad chunk size line")
    n = int(size[1], 16)
    return _read_exactly(rfile, n + 2)[:n] if n else b""


def _read_reply(rfile) -> tuple[int, dict[str, str], bytes, bool]:
    """One reply as (status, headers, body, whether the connection closes after it); RFC 9112 section 6."""
    status = 100
    while status < 200:  # an interim 1xx reply is a status line and headers
        line = _readline(rfile)
        if not line:
            raise ConnectionResetError("connection closed before the reply")
        status_line = _STATUS_LINE.match(line)
        if not status_line:
            raise BadReply(f"bad status line {line[:80]!r}")
        status, fields = int(status_line[2]), _read_fields(rfile)
    tokens = {token.strip() for token in fields.get("Connection", "").lower().split(",")}
    close = "close" in tokens or (status_line[1] == b"0" and "keep-alive" not in tokens)
    coding, length = fields.get("Transfer-Encoding", "").lower(), fields.get("Content-Length")
    if coding.rpartition(",")[2].strip() == "chunked":
        body = b"".join(iter(lambda: _read_chunk(rfile), b""))
        _read_fields(rfile)  # trailers
    elif length is not None and not coding:
        if not length.isdecimal():
            raise BadReply(f"bad Content-Length {length[:80]!r}")
        body = _read_exactly(rfile, int(length))
    else:
        body, close = rfile.read(), True
    return status, fields, body, close


class _Connection:
    """One socket to ``url``'s host, opened by ``open``; ``sock`` is None while it is closed."""

    def __init__(self, url, timeout_s: float, ssl_context=None):
        self.url, self.timeout_s, self.ssl_context = url, timeout_s, ssl_context
        self.sock = self.rfile = None

    def open(self):
        import socket

        host = self.url.hostname
        sock = socket.create_connection((host, self.url.port or (443 if self.ssl_context else 80)), self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.ssl_context is not None:
            sock = self.ssl_context.wrap_socket(sock, server_hostname=host)
        self.sock, self.rfile = sock, sock.makefile("rb")
        return sock

    def close(self):
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None


def _requests_post(conn, path: str, payload: dict, headers: dict) -> tuple[int, dict[str, str], bytes]:
    """POST ``payload`` as JSON to ``path`` on the ``_Connection`` ``conn``; returns (status, headers, body).

    The request goes out in one write and ``_read_reply`` reads the reply.
    The connection opens on first use and stays open unless the reply closes
    it. The client looks this name up per call: the benchmark's
    ``ranker.transport`` span rebinds it, and a test fakes the endpoint so.
    """
    import socket

    body = json.dumps(payload).encode()
    extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {conn.url.netloc}\r\nAccept-Encoding: identity\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n{extra}\r\n"
    )
    sock = conn.sock or conn.open()
    sock.sendall(head.encode("latin-1") + body)
    if hasattr(socket, "TCP_QUICKACK"):  # ack the reply's headers at once, so a Nagle-bound body is not held ~40 ms
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
    status, fields, reply, close = _read_reply(conn.rfile)
    if close:
        conn.close()
    return status, fields, reply


def _close_idle(pool: queue.Queue) -> None:
    """Close each connection resting in ``pool``; a closed one reconnects on its next use."""
    with pool.mutex:
        for conn in pool.queue:
            if conn is not None:
                conn.close()


class ChatCompletionsClient:
    """POST /v1/chat/completions caller over at most ``max_concurrency`` kept-alive connections.

    ``complete_once`` makes one attempt. Authentication problems and rejected
    requests (HTTP 400, 404, 422) raise ConfigError (fatal); any other
    failure, 408, 429 and 5xx included, raises TransportFailure, which
    ``complete`` retries along with answers its parser rejects.
    """

    def __init__(self, cfg: EndpointConfig):
        from urllib.parse import urlsplit

        self.cfg = cfg
        self._url = urlsplit(cfg.base_url)
        self._path = self._url.path.rstrip("/") + "/v1/chat/completions"
        # taking a slot is the concurrency gate; a slot holds a connection, or None until its first call
        self._pool = queue.LifoQueue()
        for _ in range(cfg.max_concurrency):
            self._pool.put(None)
        weakref.finalize(self, _close_idle, self._pool)  # when the client is collected, or at exit
        self._ssl_lock = threading.Lock()
        self._ssl_context = None
        self._jitter = random.Random()  # its own stream: seeded draws elsewhere never move
        self._api_key = None
        if cfg.api_key_env:
            self._api_key = os.environ.get(cfg.api_key_env)
            if not self._api_key:
                raise ConfigError(
                    f"API key environment variable {cfg.api_key_env!r} is not set"
                )
            if not (self._api_key.isascii() and self._api_key.isprintable()):  # it is written into a header as is
                raise ConfigError(
                    f"API key environment variable {cfg.api_key_env!r} holds a control or non-ASCII character"
                )

    def _connect(self) -> _Connection:
        """A connection to the endpoint's host; it opens its socket on first use."""
        if self._url.scheme == "http":
            return _Connection(self._url, self.cfg.timeout_s)
        with self._ssl_lock:  # one context per client: each one loads the CA store
            if self._ssl_context is None:
                import ssl

                self._ssl_context = ssl.create_default_context()
        return _Connection(self._url, self.cfg.timeout_s, self._ssl_context)

    def _exchange(self, payload: dict, headers: dict) -> tuple[int, dict[str, str], bytes]:
        """One POST on a pooled connection; a kept-alive one that the server dropped is reopened once."""
        conn = self._pool.get()
        try:
            conn = conn or self._connect()
            if conn.sock is not None:  # kept alive: the server may have closed it while it sat idle
                try:
                    return _requests_post(conn, self._path, payload, headers)
                except (ConnectionResetError, BrokenPipeError):  # closed before the reply: see _read_reply
                    conn.close()
            return _requests_post(conn, self._path, payload, headers)
        except BaseException:
            if conn:
                conn.close()  # the slot goes back with no socket
            raise
        finally:
            self._pool.put(conn)

    def complete_once(self, system: str, user: str, sampling: SamplingParams) -> str:
        payload = {
            "model": self.cfg.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": sampling.temperature,
            "top_p": sampling.top_p,
            "max_tokens": sampling.max_tokens,
        }
        if sampling.top_k is not None:
            payload["top_k"] = sampling.top_k
        headers = {"Authorization": f"Bearer {self._api_key}"} if self._api_key else {}
        try:
            status, fields, body = self._exchange(payload, headers)
        except OSError as exc:
            raise TransportFailure(f"{type(exc).__name__}: {exc}") from exc
        if status in (401, 403):
            raise ConfigError(f"endpoint authentication failed (HTTP {status})")
        # a retry repeats these (bad payload, unknown model or route)
        if status in (400, 404, 422):
            raise ConfigError(
                f"endpoint rejected the request (HTTP {status}); "
                f"check the model name {self.cfg.model!r} and base_url"
            )
        if status >= 400:
            wait = fields.get("Retry-After", "") if status in (429, 503) else ""
            raise TransportFailure(  # an HTTP-date or any other non-integer is not used
                f"HTTP {status}", int(wait) if wait.strip().isdecimal() else None
            )
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportFailure(f"malformed response body: {exc}") from exc
        if not isinstance(content, str):
            raise TransportFailure(f"malformed response body: content is {type(content).__name__}, not a string")
        return content

    def backoff(self, attempt: int, retry_after: int | None = None) -> None:
        """Before attempt ``attempt`` > 0: Retry-After capped at ``timeout_s``, else jittered doubling."""
        if retry_after is not None:
            time.sleep(min(retry_after, self.cfg.timeout_s))
        elif attempt and self.cfg.retry_backoff_s:
            time.sleep(self.cfg.retry_backoff_s * 2 ** (attempt - 1) * (0.5 + self._jitter.random()))

    def complete(
        self, system: str, user: str, sampling: SamplingParams, parse: Callable[[str], _T]
    ) -> tuple[str, _T, int]:
        """Ask until ``parse`` accepts an answer: (content, parsed answer, retries).

        Makes up to ``max_retries`` attempts with ``backoff`` between them.
        TransportFailure and MalformedAnswer are retried, and the last one is
        raised once the attempts run out; ConfigError is raised at once.
        """
        retry_after = None
        for attempt in range(self.cfg.max_retries):
            self.backoff(attempt, retry_after)
            try:
                content = self.complete_once(system, user, sampling)
                return content, parse(content), attempt
            except (TransportFailure, MalformedAnswer) as exc:
                if attempt == self.cfg.max_retries - 1:
                    raise
                retry_after = getattr(exc, "retry_after", None)


class LlmRanker:
    """Ranker backed by a chat-completions endpoint.

    Transport errors and malformed answers are retried up to ``max_retries``
    attempts; a request that still fails returns the identity ordering flagged
    degraded (re-ranking must never lose candidates). Only authentication
    problems and rejected requests are fatal.
    """

    def __init__(self, cfg: EndpointConfig):
        self._client = ChatCompletionsClient(cfg)
        self.cfg = cfg

    def __call__(self, req: RankRequest) -> RankResponse:
        system, user = build_prompt(req)
        started = time.perf_counter()
        try:
            content, (ordering, repaired), retries = self._client.complete(
                system, user, req.sampling, lambda raw: parse_answer(raw, req.k)
            )
            degraded = False
        except (TransportFailure, MalformedAnswer) as exc:
            log.warning(
                "ranker degraded to identity for request %r after %d attempts: %s",
                req.request_id,
                self.cfg.max_retries,
                exc,
            )
            content, ordering, repaired = "", list(range(1, req.k + 1)), True
            retries, degraded = self.cfg.max_retries - 1, True
        latency_ms = (time.perf_counter() - started) * 1000.0
        return RankResponse(content, ordering, repaired, latency_ms, retries, degraded)
