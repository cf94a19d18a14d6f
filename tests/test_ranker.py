import hashlib
import http.client
import itertools
import json
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfit.cli import _workers, main
from rankfit.core import write_corpus, write_jsonl
from rankfit.errors import ConfigError, MalformedAnswer
from rankfit.ranker import (
    ANNOTATION_SAMPLING,
    JUDGE_QUESTION,
    ChatCompletionsClient,
    EndpointConfig,
    IdentityRanker,
    LlmRanker,
    NoisyOracleRanker,
    OracleRanker,
    RankRequest,
    SamplingParams,
    TransportFailure,
    build_prompt,
    format_answer,
    parse_answer,
    parse_judge_answer,
)
from rankfit.windows import apply_strategy, distill_sft, make_llm_judge, window_request

from conftest import ChatHandler, corpus_for_windows, make_job, make_resume, make_window, run_rankfit


def make_request(k=4, job_id="j1", hint=None, request_id="req"):
    return RankRequest(
        job=make_job(job_id),
        candidates=tuple((i + 1, make_resume(f"{job_id}-r{i}")) for i in range(k)),
        request_id=request_id,
        hint=hint,
    )


class TestBuildPrompt:
    def test_contains_all_resume_blocks_and_steps(self):
        system, user = build_prompt(make_request(k=4))
        for slot in range(1, 5):
            assert f"Resume [{slot}]:" in user
        assert "Follow these steps exactly:" in user
        assert "1. First, think" in user
        assert "2. Then, think" in user
        assert "3. Finally, within <answer> tags" in user
        assert "meets ALL of the following mandatory criteria" in user

    def test_answer_format_sentence_verbatim(self):
        system, _ = build_prompt(make_request(k=4))
        assert "<answer> [X] > [Y] > [Z] > [T] </answer>" in system
        assert "<answer> [] > [] > [] > [] </answer>" in system

    def test_hint_appears_exactly_once(self):
        _, user = build_prompt(make_request(hint="The accepted candidate is [2]"))
        assert user.count("Hint: The accepted candidate is [2]") == 1

    def test_no_hint_line_without_hint(self):
        _, user = build_prompt(make_request())
        assert "Hint:" not in user

    def test_deterministic(self):
        req = make_request()
        assert build_prompt(req) == build_prompt(req)

    def test_slot_indices_validated(self):
        with pytest.raises(ConfigError):
            RankRequest(job=make_job("j"), candidates=((2, make_resume("r")),))


class TestParseAnswer:
    def test_clean_answer(self):
        ordering, repaired = parse_answer("<answer> [2] > [3] > [1] > [4] </answer>", 4)
        assert ordering == [2, 3, 1, 4]
        assert repaired is False

    def test_duplicate_repair(self):
        ordering, repaired = parse_answer("<answer> [2] > [2] > [1] > [3] </answer>", 4)
        assert ordering == [2, 1, 3, 4]
        assert repaired is True

    def test_out_of_range_dropped(self):
        ordering, repaired = parse_answer("<answer> [9] > [2] > [1] </answer>", 3)
        assert ordering == [2, 1, 3]
        assert repaired is True

    def test_no_tags(self):
        with pytest.raises(MalformedAnswer):
            parse_answer("no tags here", 4)

    def test_empty_block(self):
        with pytest.raises(MalformedAnswer):
            parse_answer("<answer>  </answer>", 4)

    def test_all_out_of_range(self):
        with pytest.raises(MalformedAnswer):
            parse_answer("<answer> [7] > [8] </answer>", 4)

    def test_takes_last_block(self):
        raw = (
            "the format is <answer> [1] > [2] > [3] > [4] </answer> as shown..."
            "<answer> [4] > [3] > [2] > [1] </answer>"
        )
        ordering, repaired = parse_answer(raw, 4)
        assert ordering == [4, 3, 2, 1]
        assert repaired is False

    def test_reasoning_prefix_ignored(self):
        raw = "<think>Resume [2] looks strongest because...</think>\n<answer> [2] > [1] > [4] > [3] </answer>"
        ordering, _ = parse_answer(raw, 4)
        assert ordering == [2, 1, 4, 3]

    def test_round_trip_exhaustive_small_k(self):
        for k in range(1, 6):
            for perm in itertools.permutations(range(1, k + 1)):
                ordering, repaired = parse_answer(format_answer(list(perm)), k)
                assert ordering == list(perm)
                assert repaired is False

    @settings(max_examples=500)
    @given(raw=st.text(alphabet="<answer]/>[0123456789 \n", max_size=80), k=st.integers(1, 6))
    def test_fuzz_never_nonpermutation(self, raw, k):
        try:
            ordering, _ = parse_answer(raw, k)
        except MalformedAnswer:
            return
        assert sorted(ordering) == list(range(1, k + 1))


class TestJudgeParse:
    def test_yes(self):
        assert parse_judge_answer("<answer> yes </answer>") is True

    def test_no(self):
        assert parse_judge_answer("thinking...<answer>no</answer>") is False

    def test_garbage(self):
        with pytest.raises(MalformedAnswer):
            parse_judge_answer("<answer> maybe </answer>")


class TestReferenceRankers:
    def test_identity(self):
        resp = IdentityRanker()(make_request(k=4))
        assert resp.ordering == [1, 2, 3, 4]
        assert resp.degraded is False

    def test_oracle_gold_at_slot_three(self):
        req = make_request(k=4)
        accepted = {"j1": frozenset({"j1-r2"})}  # slot 3 holds j1-r2
        resp = OracleRanker(accepted)(req)
        assert resp.ordering == [3, 1, 2, 4]

    def test_oracle_no_positive_is_identity(self):
        resp = OracleRanker({})(make_request(k=4))
        assert resp.ordering == [1, 2, 3, 4]

    def test_oracle_two_positives_stable(self):
        req = make_request(k=4)
        accepted = {"j1": frozenset({"j1-r1", "j1-r3"})}  # slots 2 and 4
        resp = OracleRanker(accepted)(req)
        assert resp.ordering == [2, 4, 1, 3]

    def test_oracle_raw_text_parses_back(self):
        req = make_request(k=4)
        resp = OracleRanker({"j1": frozenset({"j1-r2"})})(req)
        assert parse_answer(resp.raw_text, 4)[0] == resp.ordering

    def test_noisy_p_zero_equals_oracle(self):
        accepted = {"j1": frozenset({"j1-r2"})}
        for i in range(20):
            req = make_request(request_id=f"req{i}")
            assert (
                NoisyOracleRanker(accepted, p_flip=0.0, seed=1)(req).ordering
                == OracleRanker(accepted)(req).ordering
            )

    def test_noisy_p_one_gold_never_first(self):
        accepted = {"j1": frozenset({"j1-r2"})}
        ranker = NoisyOracleRanker(accepted, p_flip=1.0, seed=1)
        for i in range(50):
            resp = ranker(make_request(request_id=f"req{i}"))
            assert resp.ordering[0] != 3
            assert sorted(resp.ordering) == [1, 2, 3, 4]

    def test_noisy_rate_monte_carlo(self):
        accepted = {"j1": frozenset({"j1-r0"})}
        ranker = NoisyOracleRanker(accepted, p_flip=0.4, seed=7)
        hits = sum(
            1
            for i in range(10_000)
            if ranker(make_request(request_id=f"mc{i}")).ordering[0] == 1
        )
        assert hits / 10_000 == pytest.approx(0.6, abs=0.02)

    def test_noisy_deterministic_per_request_id(self):
        accepted = {"j1": frozenset({"j1-r0"})}
        a = NoisyOracleRanker(accepted, p_flip=0.5, seed=3)
        b = NoisyOracleRanker(accepted, p_flip=0.5, seed=3)
        for i in range(20):
            req = make_request(request_id=f"req{i}")
            assert a(req).ordering == b(req).ordering

    def test_noisy_bad_p_flip(self):
        for p_flip in (1.5, -0.1, float("nan"), "0.3", True, None):
            with pytest.raises(ConfigError, match="p_flip must be a number in"):
                NoisyOracleRanker({}, p_flip=p_flip)


class FakeResponse:
    def __init__(self, status_code=200, content="", body=None, headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self._body = body if body is not None else {
            "choices": [{"message": {"content": content}}]
        }

    def json(self):
        return self._body


def endpoint_cfg(**overrides):
    defaults = dict(
        base_url="http://localhost:9", model="test-model", retry_backoff_s=0.0
    )
    defaults.update(overrides)
    return EndpointConfig(**defaults)


class TestLlmRanker:
    def test_happy_path(self):
        posts = []

        def post(url, json=None, headers=None, timeout=None):
            posts.append((url, json))
            return FakeResponse(content="<answer> [2] > [3] > [1] > [4] </answer>")

        ranker = LlmRanker(endpoint_cfg(), post=post)
        resp = ranker(make_request(k=4))
        assert resp.ordering == [2, 3, 1, 4]
        assert resp.repaired is False
        assert resp.retry_count == 0
        url, payload = posts[0]
        assert url.endswith("/v1/chat/completions")
        assert payload["model"] == "test-model"
        assert [m["role"] for m in payload["messages"]] == ["system", "user"]
        assert {"temperature", "top_p", "max_tokens"} <= set(payload)

    def test_two_timeouts_then_success(self):
        calls = {"n": 0}

        def post(url, json=None, headers=None, timeout=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise TimeoutError("timed out")
            return FakeResponse(content="<answer> [1] > [2] > [3] > [4] </answer>")

        resp = LlmRanker(endpoint_cfg(), post=post)(make_request(k=4))
        assert resp.retry_count == 2
        assert resp.degraded is False
        assert resp.ordering == [1, 2, 3, 4]

    def test_persistent_500_degrades_to_identity(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeResponse(status_code=500)

        resp = LlmRanker(endpoint_cfg(), post=post)(make_request(k=4))
        assert resp.degraded is True
        assert resp.repaired is True
        assert resp.ordering == [1, 2, 3, 4]

    def test_malformed_answer_retried_then_degraded(self):
        calls = {"n": 0}

        def post(url, json=None, headers=None, timeout=None):
            calls["n"] += 1
            return FakeResponse(content="I refuse to answer in the format")

        resp = LlmRanker(endpoint_cfg(max_retries=3), post=post)(make_request(k=4))
        assert calls["n"] == 3
        assert resp.degraded is True

    def test_auth_failure_is_fatal(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeResponse(status_code=401)

        with pytest.raises(ConfigError):
            LlmRanker(endpoint_cfg(), post=post)(make_request(k=4))

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_rejected_request_is_fatal_without_retry(self, status):
        calls = {"n": 0}

        def post(url, json=None, headers=None, timeout=None):
            calls["n"] += 1
            return FakeResponse(status_code=status)

        with pytest.raises(ConfigError, match=f"HTTP {status}"):
            LlmRanker(endpoint_cfg(max_retries=3), post=post)(make_request(k=4))
        assert calls["n"] == 1

    @pytest.mark.parametrize("status", [408, 429, 502])
    def test_transient_status_is_retried(self, status):
        calls = {"n": 0}

        def post(url, json=None, headers=None, timeout=None):
            calls["n"] += 1
            if calls["n"] == 1:
                return FakeResponse(status_code=status)
            return FakeResponse(content="<answer> [1] > [2] > [3] > [4] </answer>")

        resp = LlmRanker(endpoint_cfg(max_retries=3), post=post)(make_request(k=4))
        assert calls["n"] == 2
        assert resp.retry_count == 1
        assert resp.degraded is False

    def test_missing_api_key_env(self, monkeypatch):
        monkeypatch.delenv("RANKFIT_TEST_KEY", raising=False)
        with pytest.raises(ConfigError):
            LlmRanker(endpoint_cfg(api_key_env="RANKFIT_TEST_KEY"))

    def test_api_key_header_sent(self, monkeypatch):
        monkeypatch.setenv("RANKFIT_TEST_KEY", "sk-123")
        seen = {}

        def post(url, json=None, headers=None, timeout=None):
            seen.update(headers)
            return FakeResponse(content="<answer> [1] > [2] </answer>")

        LlmRanker(endpoint_cfg(api_key_env="RANKFIT_TEST_KEY"), post=post)(make_request(k=2))
        assert seen["Authorization"] == "Bearer sk-123"

    def test_repaired_answer_flagged(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeResponse(content="<answer> [2] > [2] > [1] </answer>")

        resp = LlmRanker(endpoint_cfg(), post=post)(make_request(k=4))
        assert resp.repaired is True
        assert sorted(resp.ordering) == [1, 2, 3, 4]


class TestClientComplete:
    """The one retry loop shared by LlmRanker and the llm_filter judge."""

    def _client(self, replies, **cfg):
        calls = {"n": 0}

        def post(url, json=None, headers=None, timeout=None):
            reply = replies[min(calls["n"], len(replies) - 1)]
            calls["n"] += 1
            if isinstance(reply, int):
                return FakeResponse(status_code=reply)
            return FakeResponse(content=reply)

        return ChatCompletionsClient(endpoint_cfg(**cfg), post=post), calls

    def test_returns_content_parsed_answer_and_retries(self):
        client, calls = self._client([503, "no answer here", "<answer> yes </answer>"])
        content, verdict, retries = client.complete("s", "u", SamplingParams(), parse_judge_answer)
        assert (content, verdict, retries) == ("<answer> yes </answer>", True, 2)
        assert calls["n"] == 3

    def test_raises_last_error_after_max_retries(self):
        client, calls = self._client([503, "no answer here"], max_retries=2)
        with pytest.raises(MalformedAnswer):
            client.complete("s", "u", SamplingParams(), parse_judge_answer)
        assert calls["n"] == 2

    def test_fatal_status_is_not_retried(self):
        client, calls = self._client([404, "<answer> yes </answer>"])
        with pytest.raises(ConfigError, match="HTTP 404"):
            client.complete("s", "u", SamplingParams(), parse_judge_answer)
        assert calls["n"] == 1

    @pytest.mark.parametrize(
        "status,retry_after,waited",
        [
            (429, "2", 2),
            (503, " 4 ", 4),
            (429, "120", 5),  # capped at timeout_s
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", None),  # an HTTP-date falls back to the backoff
            (429, "soon", None),
            (429, "-1", None),
            (429, None, None),
            (500, "2", None),  # only 429 and 503 are honoured
        ],
    )
    def test_retry_after_else_backoff(self, status, retry_after, waited, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        replies = [
            FakeResponse(status_code=status, headers={} if retry_after is None else {"Retry-After": retry_after}),
            FakeResponse(content="<answer> yes </answer>"),
        ]
        client = ChatCompletionsClient(
            endpoint_cfg(timeout_s=5, retry_backoff_s=1.0), post=lambda *args, **kwargs: replies.pop(0)
        )
        assert client.complete("s", "u", SamplingParams(), parse_judge_answer)[1:] == (True, 1)
        if waited is None:
            assert len(sleeps) == 1 and 0.5 <= sleeps[0] < 1.5
        else:
            assert sleeps == [waited]

    def test_backoff_jitter_leaves_seeded_streams_alone(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        state = random.getstate()
        waits = []
        for _ in range(5):
            client, _ = self._client([503], max_retries=4, retry_backoff_s=1.0)
            with pytest.raises(TransportFailure, match="HTTP 503"):
                client.complete("s", "u", SamplingParams(), parse_judge_answer)
            waits.append([wait / 2 ** i for i, wait in enumerate(sleeps)])
            sleeps.clear()
        assert random.getstate() == state
        assert all(len(w) == 3 and all(0.5 <= f < 1.5 for f in w) for w in waits)
        assert len({f for w in waits for f in w}) > 1


class TestLlmRankerOverHttp:
    def test_real_transport_happy_path(self, http_server):
        ChatHandler.behavior = "ok"
        ranker = LlmRanker(endpoint_cfg(base_url=http_server, timeout_s=5))
        resp = ranker(make_request(k=4))
        assert resp.ordering == [2, 3, 1, 4]
        assert resp.latency_ms > 0

    def test_top_k_sent_only_when_set(self, http_server):
        ChatHandler.behavior = "ok"
        client = ChatCompletionsClient(endpoint_cfg(base_url=http_server, timeout_s=5))
        client.complete_once("system", "user", ANNOTATION_SAMPLING)
        assert ChatHandler.last_body["top_k"] == 20
        assert ChatHandler.last_body["top_p"] == 0.95
        client.complete_once("system", "user", SamplingParams())
        assert "top_k" not in ChatHandler.last_body

    def test_real_transport_500_degrades(self, http_server):
        ChatHandler.behavior = "error"
        ranker = LlmRanker(endpoint_cfg(base_url=http_server, timeout_s=5))
        resp = ranker(make_request(k=4))
        ChatHandler.behavior = "ok"
        assert resp.degraded is True
        assert resp.ordering == [1, 2, 3, 4]

    def test_cli_rerank_with_unknown_model_exits_2(self, http_server, tmp_path):
        runner = CliRunner()
        data = tmp_path / "data"
        result = runner.invoke(
            main,
            ["gen-synthetic", "--out-dir", str(data), "--n-jobs", "2", "--n-background", "30"],
        )
        assert result.exit_code == 0, result.output
        config = tmp_path / "endpoint.json"
        config.write_text(json.dumps({"ranker": {"endpoint": {
            "base_url": http_server, "model": "no-such-model", "timeout_s": 5, "retry_backoff_s": 0.0,
        }}}))
        ChatHandler.behavior = "not_found"
        result = runner.invoke(
            main,
            [
                "rerank",
                "--pools", str(data / "pools.jsonl"),
                "--corpus", str(data / "corpus.jsonl"),
                "--labels", str(data / "labels.jsonl"),
                "--out", str(tmp_path / "reranked.jsonl"),
                "--ranker", "endpoint",
                "--config", str(config),
            ],
        )
        ChatHandler.behavior = "ok"
        assert result.exit_code == 2, result.output
        assert "HTTP 404" in result.output
        assert "'no-such-model'" in result.output

    def test_cli_rerank_from_worker_threads_loads_no_http_library(self, http_server, tmp_path):
        """Four worker threads of a fresh process call the endpoint at once, on the standard library alone."""
        ChatHandler.behavior = "ok"
        data = tmp_path / "data"
        result = CliRunner().invoke(
            main, ["gen-synthetic", "--out-dir", str(data), "--n-jobs", "6", "--n-background", "60", "--seed", "5"]
        )
        assert result.exit_code == 0, result.output
        config = tmp_path / "endpoint.json"
        config.write_text(json.dumps({"ranker": {"endpoint": {
            "base_url": http_server, "model": "m", "timeout_s": 5, "retry_backoff_s": 0.0, "max_concurrency": 4,
        }}}))
        outputs = []
        for jobs in (4, 1):
            out = tmp_path / f"jobs{jobs}" / "reranked.jsonl"
            code, output, loaded = run_rankfit(
                ["rerank", "--pools", data / "pools.jsonl", "--corpus", data / "corpus.jsonl",
                 "--labels", data / "labels.jsonl", "--out", out, "--ranker", "endpoint",
                 "--config", config, "--jobs", jobs],
                timeout=60,
            )
            assert code == 0, output
            assert "degraded calls: 0" in output
            assert loaded == []
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") >= 4  # enough pools to keep four workers busy


def _hash_answer(user: str) -> str:
    """One fixed answer per user prompt, from its sha256.

    A judge prompt gets yes, no or an unusable verdict, a third of the time
    each; any other prompt gets a ranking of slots 1-4.
    """
    digest = hashlib.sha256(user.encode()).digest()
    if JUDGE_QUESTION in user:
        return ("<answer> yes </answer>", "<answer> no </answer>", "<answer> maybe </answer>")[digest[0] % 3]
    return format_answer(sorted(range(1, 5), key=lambda slot: (digest[slot], slot)))


class _FaultHandler(BaseHTTPRequestHandler):
    """Replies to the n-th request as ``server.script[n]`` says; the last entry repeats.

    "ok" answers ``server.answer(user prompt)``; "hold" answers the same
    after 50 ms; "short" sends a body 50 bytes short of its Content-Length;
    "close" and "hang" close without a reply, "hang" only once
    ``server.release`` is set; ``(status, headers)`` sends that status.
    ``server.peak`` is the most requests in progress at once.
    """

    def do_POST(self):
        server = self.server
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            fault = server.script[min(server.hits, len(server.script) - 1)]
            server.hits += 1
            server.open += 1
            server.peak = max(server.peak, server.open)
        if fault == "hang":
            server.release.wait(30)
        elif fault == "hold":
            server.release.wait(0.05)
        with server.lock:
            server.open -= 1  # before the reply, which lets the client open its next connection
        if fault in ("hang", "close"):
            return
        status, headers = fault if isinstance(fault, tuple) else (200, {})
        content = server.answer(request["messages"][1]["content"])
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode() if status == 200 else b"{}"
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body) + (50 if fault == "short" else 0)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def fault_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FaultHandler)
    server.script, server.hits, server.open, server.peak = ["ok"], 0, 0, 0
    server.answer = lambda user: "<answer> [1] > [2] > [3] > [4] </answer>"
    server.lock, server.release = threading.Lock(), threading.Event()
    server.url = f"http://127.0.0.1:{server.server_port}"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    server.server_close()


def _closed_port_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


class TestTransportFaults:
    """The standard-library transport against a server that misbehaves on purpose."""

    @pytest.mark.parametrize(
        "fault,error",
        [
            ("hang", TimeoutError),
            ("short", http.client.IncompleteRead),
            ("close", http.client.RemoteDisconnected),
            ("refused", ConnectionRefusedError),
            ("tls", OSError),  # https against a plain-HTTP server: a TLS error or a handshake timeout
        ],
    )
    def test_retryable_fault_degrades_after_retries(self, fault, error, fault_server):
        fault_server.script = [fault]
        url = fault_server.url
        if fault == "refused":
            url = _closed_port_url()
        elif fault == "tls":
            url = url.replace("http:", "https:")
        cfg = endpoint_cfg(base_url=url, timeout_s=0.2, max_retries=2)
        with pytest.raises(TransportFailure) as failure:
            ChatCompletionsClient(cfg).complete_once("s", "u", SamplingParams())
        assert isinstance(failure.value.__cause__, error)
        resp = LlmRanker(cfg)(make_request(k=4))
        assert (resp.degraded, resp.ordering, resp.retry_count) == (True, [1, 2, 3, 4], 1)
        assert fault_server.hits == (0 if fault in ("refused", "tls") else 3)

    def test_429_retry_after_zero_then_success(self, fault_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        fault_server.script = [(429, {"Retry-After": "0"}), "ok"]
        resp = LlmRanker(endpoint_cfg(base_url=fault_server.url, timeout_s=5, retry_backoff_s=30))(make_request(k=4))
        assert (resp.degraded, resp.retry_count, resp.ordering) == (False, 1, [1, 2, 3, 4])
        assert sleeps == [0]
        assert fault_server.hits == 2

    def test_400_is_fatal_without_retry(self, fault_server):
        fault_server.script = [(400, {})]
        with pytest.raises(ConfigError, match="HTTP 400"):
            LlmRanker(endpoint_cfg(base_url=fault_server.url, timeout_s=5, max_retries=3))(make_request(k=4))
        assert fault_server.hits == 1

    def test_shared_client_keeps_to_max_concurrency(self, fault_server):
        fault_server.script = ["hold"]
        client = ChatCompletionsClient(endpoint_cfg(base_url=fault_server.url, timeout_s=5, max_concurrency=2))
        with ThreadPoolExecutor(8) as pool:
            replies = list(pool.map(lambda _: client.complete_once("s", "u", SamplingParams()), range(24)))
        assert len(replies) == fault_server.hits == 24
        assert fault_server.peak == 2


class TestEndpointFanOut:
    """distill, the llm_filter judge and annotate keep max_concurrency requests in flight.

    The server holds each request 50 ms and answers from a hash of the
    prompt, so a run's results do not depend on the order calls finish in.
    """

    N_WINDOWS = 16

    @pytest.fixture
    def server(self, fault_server):
        fault_server.script, fault_server.answer = ["hold"], _hash_answer
        return fault_server

    @pytest.fixture
    def windows(self):
        return [make_window(window_id=f"j1/w{i}", gold_slot=i % 4 + 1) for i in range(self.N_WINDOWS)]

    def _cfg(self, server, max_concurrency):
        return endpoint_cfg(base_url=server.url, timeout_s=5, max_retries=2, max_concurrency=max_concurrency)

    def _judge_verdicts(self, windows, corpus):
        """Each window's judge answer from the hash rule, worked out without the judge."""
        from rankfit.ranker import build_judge_prompt

        return [
            _hash_answer(build_judge_prompt(window_request(w, corpus, "judge", SamplingParams()), w.gold_slot())[1])
            for w in windows
        ]

    def test_distill_fills_max_concurrency_with_serial_results(self, server, windows):
        corpus = corpus_for_windows(windows)
        runs = {}
        for workers in (1, 4):
            server.peak = 0
            records, stats = distill_sft(windows, LlmRanker(self._cfg(server, workers)), corpus, max_workers=workers)
            runs[workers] = (records, stats, server.peak)
        assert (runs[1][2], runs[4][2]) == (1, 4)
        assert runs[4][:2] == runs[1][:2]
        records, stats, _ = runs[4]
        assert 0 < stats.kept < len(windows) and stats.dropped_malformed == 0
        assert stats.kept + stats.dropped_wrong_top == len(windows)
        assert [r["window_id"] for r in records] == [
            w.window_id for w in windows if _hash_answer(build_prompt(window_request(
                w, corpus, "teacher", SamplingParams()))[1]).startswith(f"<answer> [{w.gold_slot()}]")
        ]

    def test_judge_fills_max_concurrency_and_lists_failures_in_input_order(self, server, windows, rng):
        corpus = corpus_for_windows(windows)
        verdicts = self._judge_verdicts(windows, corpus)
        failed = [w.window_id for w, v in zip(windows, verdicts) if "maybe" in v]
        kept = [w.window_id for w, v in zip(windows, verdicts) if "no" not in v]
        assert len(failed) >= 2 and len(kept) < len(windows)
        for workers in (1, 4):
            server.peak, server.hits = 0, 0
            judge = make_llm_judge(ChatCompletionsClient(self._cfg(server, workers)), corpus)
            result = apply_strategy(windows, "llm_filter", rng, judge=judge, max_workers=workers)
            assert server.peak == workers
            assert [w.window_id for w in result] == kept
            assert judge.failed == failed
            assert server.hits == len(windows) + len(failed)  # one retry per unusable verdict

    def _cli_inputs(self, server, windows, tmp_path, max_concurrency):
        corpus_path, windows_path = tmp_path / "corpus.jsonl", tmp_path / "windows.jsonl"
        write_corpus(corpus_for_windows(windows).values(), corpus_path)
        write_jsonl((w.to_record() for w in windows), windows_path)
        config = tmp_path / f"endpoint-{max_concurrency}.json"
        endpoint = {"base_url": server.url, "model": "m", "timeout_s": 5, "max_retries": 2,
                    "retry_backoff_s": 0.0, "max_concurrency": max_concurrency}
        config.write_text(json.dumps({"ranker": {"endpoint": endpoint}, "pipeline": {"annotate_trials": 1}}))
        return ["--windows", str(windows_path), "--corpus", str(corpus_path), "--config", str(config)]

    @pytest.mark.parametrize(
        "command",
        [["distill", "--teacher", "endpoint"], ["filter", "--strategy", "llm_filter"], ["annotate", "--ranker", "endpoint"]],
    )
    def test_cli_stage_runs_max_concurrency_calls_and_writes_the_same_bytes(self, command, server, windows, tmp_path):
        outputs = []
        # annotate keeps --jobs, which wins over max_concurrency
        runs = [(1, []), (4, [])] + ([(4, ["--jobs", "2"])] if command[0] == "annotate" else [])
        for max_concurrency, jobs in runs:
            server.peak = 0
            out = tmp_path / f"mc{max_concurrency}{''.join(jobs)}" / "out.jsonl"
            args = [*command, *self._cli_inputs(server, windows, tmp_path, max_concurrency), "--out", str(out), *jobs]
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
            assert server.peak == (int(jobs[1]) if jobs else max_concurrency)
            outputs.append((out.read_bytes(), (out.parent / "out.jsonl.meta.json").read_bytes(), result.output))
        assert all(output == outputs[0] for output in outputs)
        if command[0] == "filter":
            corpus = corpus_for_windows(windows)
            verdicts = self._judge_verdicts(windows, corpus)
            kept, failed = sum("no" not in v for v in verdicts), sum("maybe" in v for v in verdicts)
            assert f"kept {kept}/{len(windows)} windows under strategy llm_filter ({failed} kept after judge failure)" in outputs[0][2]


def test_worker_rule():
    """--jobs wins; else an endpoint ranker or client gets max_concurrency and a built-in ranker one worker."""
    cfg = endpoint_cfg(max_concurrency=3)
    assert _workers(None, LlmRanker(cfg)) == 3
    assert _workers(None, ChatCompletionsClient(cfg)) == 3
    assert _workers(2, LlmRanker(cfg)) == 2
    for ranker in (OracleRanker({}), NoisyOracleRanker({}, p_flip=0.3), IdentityRanker()):
        assert _workers(None, ranker) == 1
        assert _workers(5, ranker) == 5
