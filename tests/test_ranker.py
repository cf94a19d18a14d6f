import hashlib
import io
import itertools
import json
import random
import re
import socket
import socketserver
import threading
import time
from concurrent.futures import ThreadPoolExecutor

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
    BadReply,
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
from rankfit.windows import distill_sft, judge_windows, window_request

from conftest import chat_body, corpus_for_windows, make_job, make_resume, make_window, run_rankfit


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

    @pytest.mark.parametrize("extra", [{}, {"hint": "The accepted candidate is [2]", "sampling": ANNOTATION_SAMPLING}])
    def test_for_ids_equals_the_hand_built_request(self, extra):
        ids = ["r3", "r1", "r2"]
        corpus = {"j1": make_job("j1"), **{rid: make_resume(rid) for rid in ids}}
        by_hand = RankRequest(corpus["j1"], tuple((i, corpus[c]) for i, c in enumerate(ids, 1)), "req", **extra)
        assert RankRequest.for_ids(corpus, "j1", ids, "req", **extra) == by_hand


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


def endpoint_cfg(**overrides):
    defaults = dict(
        base_url="http://localhost:9", model="test-model", retry_backoff_s=0.0
    )
    defaults.update(overrides)
    return EndpointConfig(**defaults)


@pytest.mark.parametrize("key,rule", [("timeout_s", "(0, 86400]"), ("retry_backoff_s", "[0, 86400]")])
def test_endpoint_seconds_are_bounded_at_one_day(key, rule):
    assert getattr(endpoint_cfg(**{key: 86400}), key) == 86400
    with pytest.raises(ConfigError, match=re.escape(f"endpoint {key} must be a finite number in {rule}, got 86400.5")):
        endpoint_cfg(**{key: 86400.5})


@pytest.mark.parametrize(
    "host,usable",
    [(f"{'a' * 63}.example", True), ("example.test.", True), ("[::1]", True),  # the last label may be empty
     (f"{'a' * 64}.example", False), (f"example.{'a' * 64}", False), ("a..b", False), (".example", False), ("..", False)],
)
def test_endpoint_host_labels_follow_the_idna_ascii_rule(host, usable):
    """A host ``socket.getaddrinfo`` would reject in its idna codec exits 2 up front."""
    url = f"http://{host}:8080"
    if usable:
        assert endpoint_cfg(base_url=url).base_url == url
    else:
        with pytest.raises(ConfigError, match="host whose labels are 1-63 characters"):
            endpoint_cfg(base_url=url)


class TestLlmRanker:
    """The client's status and body rules, against ``fake_endpoint`` in place of its transport."""

    def test_happy_path(self, fake_endpoint):
        fake_endpoint.replies = ["<answer> [2] > [3] > [1] > [4] </answer>"]
        ranker = LlmRanker(endpoint_cfg())
        resp = ranker(make_request(k=4))
        assert resp.ordering == [2, 3, 1, 4]
        assert resp.repaired is False
        assert resp.retry_count == 0
        path, payload, _ = fake_endpoint.requests[0]
        assert path == "/v1/chat/completions"
        assert payload["model"] == "test-model"
        assert [m["role"] for m in payload["messages"]] == ["system", "user"]
        assert {"temperature", "top_p", "max_tokens"} <= set(payload)

    def test_two_timeouts_then_success(self, fake_endpoint):
        fake_endpoint.replies = [TimeoutError("timed out"), TimeoutError("timed out"), "<answer> [1] > [2] > [3] > [4] </answer>"]
        resp = LlmRanker(endpoint_cfg())(make_request(k=4))
        assert resp.retry_count == 2
        assert resp.degraded is False
        assert resp.ordering == [1, 2, 3, 4]

    def test_persistent_500_degrades_to_identity(self, fake_endpoint):
        fake_endpoint.replies = [500]
        cfg = endpoint_cfg()
        resp = LlmRanker(cfg)(make_request(k=4))
        assert resp.degraded is True
        assert resp.repaired is True
        assert resp.ordering == [1, 2, 3, 4]
        assert resp.raw_text == ""
        assert resp.retry_count == cfg.max_retries - 1
        assert resp.latency_ms > 0

    def test_malformed_answer_retried_then_degraded(self, fake_endpoint):
        fake_endpoint.replies = ["I refuse to answer in the format"]
        resp = LlmRanker(endpoint_cfg(max_retries=3))(make_request(k=4))
        assert len(fake_endpoint.requests) == 3
        assert resp.degraded is True

    @pytest.mark.parametrize("content", [5, ["<answer> [1] > [2] </answer>"], {"text": "<answer> [1] > [2] </answer>"}, None])
    def test_content_that_is_not_a_string_is_retried_then_degraded(self, content, fake_endpoint):
        fake_endpoint.replies = [chat_body(content)]
        resp = LlmRanker(endpoint_cfg(max_retries=3))(make_request(k=4))
        assert len(fake_endpoint.requests) == 3
        assert resp.degraded is True and resp.ordering == [1, 2, 3, 4]

    def test_a_body_nested_too_deeply_is_retried_then_degraded(self, fake_endpoint):
        fake_endpoint.replies = [b'{"choices": ' + b"[" * 5_000 + b"]" * 5_000 + b"}"]  # json.loads recurses ~1,000 deep
        resp = LlmRanker(endpoint_cfg(max_retries=3))(make_request(k=4))
        assert len(fake_endpoint.requests) == 3
        assert resp.degraded is True and resp.ordering == [1, 2, 3, 4]
        with pytest.raises(TransportFailure, match="malformed response body: nested too deeply"):
            ChatCompletionsClient(endpoint_cfg()).complete_once("s", "u", SamplingParams())

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_failure_is_fatal(self, status, fake_endpoint):
        fake_endpoint.replies = [status]
        with pytest.raises(ConfigError):
            LlmRanker(endpoint_cfg())(make_request(k=4))

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_rejected_request_is_fatal_without_retry(self, status, fake_endpoint):
        fake_endpoint.replies = [status]
        with pytest.raises(ConfigError, match=f"HTTP {status}"):
            LlmRanker(endpoint_cfg(max_retries=3))(make_request(k=4))
        assert len(fake_endpoint.requests) == 1

    @pytest.mark.parametrize("status", [408, 429, 502])
    def test_transient_status_is_retried(self, status, fake_endpoint):
        fake_endpoint.replies = [status, "<answer> [1] > [2] > [3] > [4] </answer>"]
        resp = LlmRanker(endpoint_cfg(max_retries=3))(make_request(k=4))
        assert len(fake_endpoint.requests) == 2
        assert resp.retry_count == 1
        assert resp.degraded is False

    def test_missing_api_key_env(self, monkeypatch):
        monkeypatch.delenv("RANKFIT_TEST_KEY", raising=False)
        with pytest.raises(ConfigError):
            LlmRanker(endpoint_cfg(api_key_env="RANKFIT_TEST_KEY"))

    def test_api_key_header_sent(self, fake_endpoint, monkeypatch):
        monkeypatch.setenv("RANKFIT_TEST_KEY", "sk-123")
        fake_endpoint.replies = ["<answer> [1] > [2] </answer>"]
        LlmRanker(endpoint_cfg(api_key_env="RANKFIT_TEST_KEY"))(make_request(k=2))
        assert fake_endpoint.requests[0][2]["Authorization"] == "Bearer sk-123"

    def test_repaired_answer_flagged(self, fake_endpoint):
        fake_endpoint.replies = ["<answer> [2] > [2] > [1] </answer>"]
        resp = LlmRanker(endpoint_cfg())(make_request(k=4))
        assert resp.repaired is True
        assert sorted(resp.ordering) == [1, 2, 3, 4]


class TestClientComplete:
    """The one retry loop shared by LlmRanker and the llm_filter judge."""

    def test_returns_content_parsed_answer_and_retries(self, fake_endpoint):
        fake_endpoint.replies = [503, "no answer here", "<answer> yes </answer>"]
        content, verdict, retries = ChatCompletionsClient(endpoint_cfg()).complete("s", "u", SamplingParams(), parse_judge_answer)
        assert (content, verdict, retries) == ("<answer> yes </answer>", True, 2)
        assert len(fake_endpoint.requests) == 3

    def test_raises_last_error_after_max_retries(self, fake_endpoint):
        fake_endpoint.replies = [503, "no answer here"]
        with pytest.raises(MalformedAnswer):
            ChatCompletionsClient(endpoint_cfg(max_retries=2)).complete("s", "u", SamplingParams(), parse_judge_answer)
        assert len(fake_endpoint.requests) == 2

    @pytest.mark.parametrize("content", [5, ["<answer> no </answer>"], {"text": "<answer> no </answer>"}, None])
    def test_judge_keeps_and_lists_a_window_whose_content_is_not_a_string(self, content, fake_endpoint):
        windows = [make_window()]
        fake_endpoint.replies = [chat_body(content)]
        client = ChatCompletionsClient(endpoint_cfg())
        assert judge_windows(windows, client, corpus_for_windows(windows)) == (windows, ["j1/w0"])
        with pytest.raises(TransportFailure, match=f"content is {type(content).__name__}, not a string"):
            client.complete_once("s", "u", SamplingParams())

    def test_fatal_status_is_not_retried(self, fake_endpoint):
        fake_endpoint.replies = [404, "<answer> yes </answer>"]
        with pytest.raises(ConfigError, match="HTTP 404"):
            ChatCompletionsClient(endpoint_cfg()).complete("s", "u", SamplingParams(), parse_judge_answer)
        assert len(fake_endpoint.requests) == 1

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
    def test_retry_after_else_backoff(self, status, retry_after, waited, fake_endpoint, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        fake_endpoint.replies = [(status, {} if retry_after is None else {"Retry-After": retry_after}), "<answer> yes </answer>"]
        client = ChatCompletionsClient(endpoint_cfg(timeout_s=5, retry_backoff_s=1.0))
        assert client.complete("s", "u", SamplingParams(), parse_judge_answer)[1:] == (True, 1)
        if waited is None:
            assert len(sleeps) == 1 and 0.5 <= sleeps[0] < 1.5
        else:
            assert sleeps == [waited]

    def test_backoff_jitter_leaves_seeded_streams_alone(self, fake_endpoint, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        fake_endpoint.replies = [503]
        state = random.getstate()
        waits = []
        for _ in range(5):
            client = ChatCompletionsClient(endpoint_cfg(max_retries=4, retry_backoff_s=1.0))
            with pytest.raises(TransportFailure, match="HTTP 503"):
                client.complete("s", "u", SamplingParams(), parse_judge_answer)
            waits.append([wait / 2 ** i for i, wait in enumerate(sleeps)])
            sleeps.clear()
        assert random.getstate() == state
        assert all(len(w) == 3 and all(0.5 <= f < 1.5 for f in w) for w in waits)
        assert len({f for w in waits for f in w}) > 1


class TestLlmRankerOverHttp:
    def test_real_transport_happy_path(self, http_server):
        ranker = LlmRanker(endpoint_cfg(base_url=http_server.url, timeout_s=5))
        resp = ranker(make_request(k=4))
        assert resp.ordering == [2, 3, 1, 4]
        assert resp.latency_ms > 0

    def test_top_k_sent_only_when_set(self, http_server):
        client = ChatCompletionsClient(endpoint_cfg(base_url=http_server.url, timeout_s=5))
        client.complete_once("system", "user", ANNOTATION_SAMPLING)
        assert http_server.last_body["top_k"] == 20
        assert http_server.last_body["top_p"] == 0.95
        client.complete_once("system", "user", SamplingParams())
        assert "top_k" not in http_server.last_body
        assert [m["role"] for m in http_server.last_body["messages"]] == ["system", "user"]

    def test_real_transport_500_degrades(self, http_server):
        http_server.script = [(500, {})]
        ranker = LlmRanker(endpoint_cfg(base_url=http_server.url, timeout_s=5))
        resp = ranker(make_request(k=4))
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
            "base_url": http_server.url, "model": "no-such-model", "timeout_s": 5, "retry_backoff_s": 0.0,
        }}}))
        http_server.script = [(404, {})]
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
        assert result.exit_code == 2, result.output
        assert "HTTP 404" in result.output
        assert "'no-such-model'" in result.output

    def test_cli_rerank_from_worker_threads_loads_no_http_library(self, http_server, tmp_path):
        """Four worker threads of a fresh process call the endpoint at once, on the standard library alone."""
        data = tmp_path / "data"
        result = CliRunner().invoke(
            main, ["gen-synthetic", "--out-dir", str(data), "--n-jobs", "6", "--n-background", "60", "--seed", "5"]
        )
        assert result.exit_code == 0, result.output
        config = tmp_path / "endpoint.json"
        config.write_text(json.dumps({"ranker": {"endpoint": {
            "base_url": http_server.url, "model": "m", "timeout_s": 5, "retry_backoff_s": 0.0, "max_concurrency": 4,
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


def _closed_port_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


class TestTransportFaults:
    """The client's own HTTP/1.1 exchange against a server that misbehaves on purpose.

    A body cut short is a BadReply, and a connection closed before the reply
    a ConnectionResetError; both are OSErrors, so each is a TransportFailure.
    """

    @pytest.mark.parametrize(
        "fault,error",
        [
            ("hang", TimeoutError),
            ("short", BadReply),
            ("close", ConnectionResetError),
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

    def test_shared_client_keeps_to_max_concurrency(self, keepalive_server):
        keepalive_server.script = ["hold"]
        client = ChatCompletionsClient(endpoint_cfg(base_url=keepalive_server.url, timeout_s=5, max_concurrency=2))
        with ThreadPoolExecutor(8) as pool:
            replies = list(pool.map(lambda _: client.complete_once("s", "u", SamplingParams()), range(24)))
        assert len(replies) == keepalive_server.hits == 24
        assert keepalive_server.peak == 2
        assert keepalive_server.connections <= 2


class TestConnectionPool:
    """The client keeps its connections open between calls, at most max_concurrency of them."""

    def test_sequential_calls_use_one_connection(self, keepalive_server):
        client = ChatCompletionsClient(endpoint_cfg(base_url=keepalive_server.url, timeout_s=5))
        for _ in range(20):
            client.complete_once("s", "u", SamplingParams())
        assert (keepalive_server.hits, keepalive_server.connections) == (20, 1)

    def test_connection_the_server_dropped_is_reopened_not_retried(self, keepalive_server):
        keepalive_server.close_after = 3
        ranker = LlmRanker(endpoint_cfg(base_url=keepalive_server.url, timeout_s=5, max_retries=1))
        responses = [ranker(make_request(k=4, request_id=f"req{i}")) for i in range(10)]
        assert all(r.retry_count == 0 and not r.degraded for r in responses)
        assert keepalive_server.hits == 10  # one request per call: the dropped one never reached a handler
        assert keepalive_server.connections == 4

    @pytest.mark.parametrize("fault,error", [("short", BadReply), ("hang", TimeoutError)])
    def test_failure_on_a_reused_connection_is_not_reopened(self, fault, error, keepalive_server):
        keepalive_server.script = ["ok", fault, "ok"]
        client = ChatCompletionsClient(endpoint_cfg(base_url=keepalive_server.url, timeout_s=0.2))
        client.complete_once("s", "u", SamplingParams())
        with pytest.raises(TransportFailure) as failure:
            client.complete_once("s", "u", SamplingParams())
        assert isinstance(failure.value.__cause__, error)
        client.complete_once("s", "u", SamplingParams())
        assert (keepalive_server.hits, keepalive_server.connections) == (3, 2)

    def test_a_connection_that_cannot_be_built_frees_its_slot(self):
        client = ChatCompletionsClient(endpoint_cfg(base_url=_closed_port_url(), timeout_s=5, max_concurrency=1))
        errors = []
        # with its one slot lost, the second call would wait for good
        calls = threading.Thread(target=lambda: errors.extend(
            pytest.raises(TransportFailure, client.complete_once, "s", "u", SamplingParams()) for _ in range(2)
        ), daemon=True)
        calls.start()
        calls.join(5)
        assert not calls.is_alive()
        assert len(errors) == 2 and all(isinstance(e.value.__cause__, ConnectionRefusedError) for e in errors)

    def test_a_tls_context_it_cannot_make_is_fatal_before_any_call(self, keepalive_server, monkeypatch):
        import ssl

        def no_ca_store(*args, **kwargs):
            raise ssl.SSLError("no CA store")

        monkeypatch.setattr(ssl, "create_default_context", no_ca_store)
        cfg = endpoint_cfg(base_url=keepalive_server.url.replace("http:", "https:"), timeout_s=5)
        for make in (ChatCompletionsClient, LlmRanker):
            with pytest.raises(ConfigError, match="cannot set up TLS for https://127.0.0.1:") as failure:
                make(cfg)
            assert isinstance(failure.value.__cause__, ssl.SSLError)
        assert (keepalive_server.hits, keepalive_server.connections) == (0, 0)

    def test_https_builds_one_ssl_context_across_retries(self, keepalive_server, monkeypatch):
        import ssl

        contexts = []
        create = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", lambda *a, **kw: contexts.append(create(*a, **kw)) or contexts[-1])
        url = keepalive_server.url.replace("http:", "https:")
        ranker = LlmRanker(endpoint_cfg(base_url=url, timeout_s=0.3, max_retries=2, max_concurrency=4))
        with ThreadPoolExecutor(8) as pool:  # four threads open their first connection at once
            responses = list(pool.map(lambda i: ranker(make_request(k=4, request_id=f"req{i}")), range(8)))
        assert all((r.degraded, r.retry_count) == (True, 1) for r in responses)
        assert len(contexts) == 1
        assert keepalive_server.hits == 0


_OK_BODY = json.dumps({"choices": [{"message": {"content": "<answer> yes </answer>"}}]}).encode()


def _length_reply(extra=b"", version=b"1.1"):
    """A 200 reply framed by its Content-Length, with the header lines ``extra`` before it."""
    return b"HTTP/%s 200 OK\r\n" % version + extra + b"Content-Length: %d\r\n\r\n" % len(_OK_BODY) + _OK_BODY


class _FakeSocket:
    """A socket connected to ``address`` that records each ``sendall`` and reads back ``reply``."""

    def __init__(self, address, reply):
        self.address, self.sent, self.reply, self.closed = address, [], reply, False

    def sendall(self, data):
        self.sent.append(bytes(data))

    def setsockopt(self, *args):
        pass

    def makefile(self, mode):
        return io.BytesIO(self.reply)

    def close(self):
        self.closed = True


def _fake_sockets(monkeypatch, reply):
    """Each new connection gets a _FakeSocket that reads back ``reply``; returns the list they go in."""
    sockets = []
    monkeypatch.setattr(socket, "create_connection", lambda *args: sockets.append(_FakeSocket(args, reply)) or sockets[-1])
    return sockets


class TestWireFormat:
    """Each request goes out in one write: the request line, these headers and the JSON body."""

    @pytest.mark.parametrize("key", [None, "sk-1"])
    @pytest.mark.parametrize(
        "base_url,address,host",
        [("http://example.test:8080/api", (b"example.test", 8080), "example.test:8080"), ("http://[::1]", (b"::1", 80), "[::1]")],
    )
    def test_one_write_per_request_with_the_exact_head(self, base_url, address, host, key, monkeypatch):
        sockets = _fake_sockets(monkeypatch, _length_reply() * 2)
        monkeypatch.setenv("RANKFIT_TEST_KEY", key or "")
        client = ChatCompletionsClient(endpoint_cfg(base_url=base_url, timeout_s=5, api_key_env=key and "RANKFIT_TEST_KEY"))
        for _ in range(2):
            assert client.complete_once("s", "u", SamplingParams()) == "<answer> yes </answer>"
        assert [s.address for s in sockets] == [(address, 5)]
        assert len(sockets[0].sent) == 2  # one write per request, on one kept-alive socket
        for sent in sockets[0].sent:
            head, _, body = sent.partition(b"\r\n\r\n")
            assert head.decode().split("\r\n") == [
                f"POST {base_url.partition(host)[2]}/v1/chat/completions HTTP/1.1",
                f"Host: {host}",
                "Accept-Encoding: identity",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ] + ([f"Authorization: Bearer {key}"] if key else [])
            assert [m["content"] for m in json.loads(body)["messages"]] == ["s", "u"]

    @pytest.mark.parametrize(
        "reply,writes",
        [
            (_length_reply(b"Connection: close\r\n"), [1, 1, 1]),
            (_length_reply(version=b"1.0"), [1, 1, 1]),
            (b"HTTP/1.0 200 OK\r\n\r\n" + _OK_BODY, [1, 1, 1]),  # the body runs to EOF
            (b"HTTP/1.1 200 OK\r\n\r\n" + _OK_BODY, [1, 1, 1]),
            (_length_reply() * 3, [3]),
            (_length_reply(b"Connection: keep-alive\r\n", b"1.0") * 3, [3]),
        ],
        ids=["connection-close", "http-1.0", "http-1.0-eof", "http-1.1-eof", "http-1.1", "http-1.0-keep-alive"],
    )
    def test_a_reply_that_closes_the_connection_is_its_last(self, reply, writes, monkeypatch):
        sockets = _fake_sockets(monkeypatch, reply)
        client = ChatCompletionsClient(endpoint_cfg(base_url="http://example.test", timeout_s=5))
        for _ in range(3):
            assert client.complete_once("s", "u", SamplingParams()) == "<answer> yes </answer>"
        assert [len(s.sent) for s in sockets] == writes
        assert all(s.closed for s in sockets) == (writes == [1, 1, 1])


class _ScriptedHandler(socketserver.StreamRequestHandler):
    """Reads each request and writes the next of ``server.replies`` byte for byte; the last one repeats.

    The connection closes after a reply that says ``Connection: close`` or
    an HTTP/1.0 reply. ``server.requests`` holds each request as read, and
    ``server.connections`` counts the connections accepted.
    """

    def handle(self):
        server = self.server
        with server.lock:
            server.connections += 1
        while True:
            lines = [self.rfile.readline()]
            while lines[-1] not in (b"\r\n", b""):
                lines.append(self.rfile.readline())
            if not lines[-1]:
                return  # the client closed the connection
            head = b"".join(lines)
            body = self.rfile.read(int(re.search(rb"Content-Length: (\d+)", head)[1]))
            with server.lock:
                server.requests.append(head + body)
                reply = server.replies[min(len(server.requests), len(server.replies)) - 1]
            self.wfile.write(reply)
            if b"Connection: close" in reply or reply.startswith(b"HTTP/1.0"):
                return


class _ScriptedServer(socketserver.ThreadingTCPServer):
    daemon_threads, block_on_close = True, False


@pytest.fixture
def scripted_server():
    server = _ScriptedServer(("127.0.0.1", 0), _ScriptedHandler)
    server.replies, server.requests, server.connections, server.lock = [_length_reply()], [], 0, threading.Lock()
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


_HALF = len(_OK_BODY) // 2
_HEADERS_99 = b"".join(b"X-Field-%d: %d\r\n" % (i, i) for i in range(99))


class TestReplyReader:
    """Replies framed each way RFC 9112 allows, and replies past the reader's limits."""

    @pytest.mark.parametrize(
        "reply,connections",
        [
            (_length_reply(), 1),
            (b"HTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\n%s" % (len(_OK_BODY), _OK_BODY), 1),
            (_length_reply(b"Connection: close\r\n"), 3),
            (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _OK_BODY, 3),  # the body runs to EOF
            (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a>; rel=preload\r\n\r\n" + _length_reply(), 1),
            (
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x;name=value\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n"
                % (_HALF, _OK_BODY[:_HALF], len(_OK_BODY) - _HALF, _OK_BODY[_HALF:]),
                1,
            ),
            (_length_reply(b"X-Long: " + b"a" * (65536 - 10) + b"\r\n"), 1),  # a 65,536-byte line
            (_length_reply(_HEADERS_99), 1),  # 100 header lines
        ],
        ids=["length", "lower-case", "close", "http-1.0-eof", "interim-1xx", "chunked", "longest-line", "most-headers"],
    )
    def test_reply_is_read_and_the_connection_kept_or_closed(self, reply, connections, scripted_server):
        scripted_server.replies = [reply]
        client = ChatCompletionsClient(endpoint_cfg(base_url=scripted_server.url, timeout_s=5))
        for _ in range(3):
            assert client.complete_once("s", "u", SamplingParams()) == "<answer> yes </answer>"
        assert (len(scripted_server.requests), scripted_server.connections) == (3, connections)

    @pytest.mark.parametrize(
        "reply,message",
        [
            (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (65537 - 8), "reply line longer than 65536 bytes"),
            (b"HTTP/1.1 200 OK\r\nX-A: 1\r\nX-B: 2\r\n" + _HEADERS_99, "more than 100 header lines"),  # a 101st
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "bad chunk size line"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "bad Content-Length '-1'"),
            # the server closes after 2 bytes; reading a length this size at once ends in MemoryError
            (b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 10000000000000\r\n\r\n{}",
             "reply cut short: 2 of 10000000000000 body bytes"),
            (b"HTTP/1.1 200 OK\r\nBad Name: 1\r\n\r\n", "bad header line"),
            (b"ICY 200 OK\r\n\r\n", "bad status line"),
        ],
        ids=["line-too-long", "too-many-headers", "chunk-size", "content-length", "huge-content-length", "header-name",
             "status-line"],
    )
    def test_reply_past_a_limit_or_unframed_is_a_retried_failure_not_a_hang(self, reply, message, scripted_server):
        """The server sends no more after ``reply`` and keeps the connection open: reading on would wait out the timeout."""
        scripted_server.replies = [reply]
        cfg = endpoint_cfg(base_url=scripted_server.url, timeout_s=5, max_retries=2)
        with pytest.raises(TransportFailure, match=re.escape(message)) as failure:
            ChatCompletionsClient(cfg).complete_once("s", "u", SamplingParams())
        assert isinstance(failure.value.__cause__, BadReply)
        resp = LlmRanker(cfg)(make_request(k=4))
        assert (resp.degraded, resp.retry_count) == (True, 1)
        assert (len(scripted_server.requests), scripted_server.connections) == (3, 3)

    @pytest.mark.parametrize(
        "body",
        [b"not json", b"\xff\xfe\xff", b"[1]", b"{}", b'{"choices": []}', b'{"choices": [{}]}', b'{"choices": [{"message": null}]}'],
    )
    def test_200_body_without_a_content_is_a_retried_failure(self, body, scripted_server):
        scripted_server.replies = [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)]
        cfg = endpoint_cfg(base_url=scripted_server.url, timeout_s=5, max_retries=2)
        with pytest.raises(TransportFailure, match="^malformed response body"):
            ChatCompletionsClient(cfg).complete_once("s", "u", SamplingParams())
        resp = LlmRanker(cfg)(make_request(k=4))
        assert (resp.degraded, resp.retry_count) == (True, 1)
        assert (len(scripted_server.requests), scripted_server.connections) == (3, 2)

    def test_lower_case_retry_after_is_honoured(self, scripted_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        scripted_server.replies = [b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 3\r\ncontent-length: 2\r\n\r\n{}", _length_reply()]
        client = ChatCompletionsClient(endpoint_cfg(base_url=scripted_server.url, timeout_s=5, retry_backoff_s=30))
        assert client.complete("s", "u", SamplingParams(), parse_judge_answer)[1:] == (True, 1)
        assert sleeps == [3]
        assert (len(scripted_server.requests), scripted_server.connections) == (2, 1)


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
            runs[workers] = (list(records), stats, server.peak)
        assert (runs[1][2], runs[4][2]) == (1, 4)
        assert runs[4][:2] == runs[1][:2]
        records, stats, _ = runs[4]
        assert 0 < stats.kept < len(windows) and stats.dropped_malformed == 0
        assert stats.kept + stats.dropped_wrong_top == len(windows)
        assert [r["window_id"] for r in records] == [
            w.window_id for w in windows if _hash_answer(build_prompt(window_request(
                w, corpus, "teacher", SamplingParams()))[1]).startswith(f"<answer> [{w.gold_slot()}]")
        ]

    def test_judge_fills_max_concurrency_and_lists_failures_in_input_order(self, server, windows):
        corpus = corpus_for_windows(windows)
        verdicts = self._judge_verdicts(windows, corpus)
        failed = [w.window_id for w, v in zip(windows, verdicts) if "maybe" in v]
        kept = [w.window_id for w, v in zip(windows, verdicts) if "no" not in v]
        assert len(failed) >= 2 and len(kept) < len(windows)
        for workers in (1, 4):
            server.peak, server.hits = 0, 0
            client = ChatCompletionsClient(self._cfg(server, workers))
            result, listed = judge_windows(windows, client, corpus, max_workers=workers)
            assert server.peak == workers
            assert [w.window_id for w in result] == kept
            assert listed == failed
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


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Corpus, labels, pools and windows for 3 jobs, small enough to run each endpoint stage 9 times."""
    root = tmp_path_factory.mktemp("interleave")
    for args in (["gen-synthetic", "--out-dir", root, "--n-jobs", "3", "--n-background", "30", "--seed", "3"],
                 ["build-windows", "--corpus", root / "corpus.jsonl", "--labels", root / "labels.jsonl",
                  "--pools", root / "pools.jsonl", "--out", root / "windows.jsonl"]):
        result = CliRunner().invoke(main, [str(arg) for arg in args])
        assert result.exit_code == 0, result.output
    return root


class TestInterleaving:
    """Answers that arrive out of order write the same bytes.

    Each reply comes 0-15 ms late, by a seeded draw, so concurrent calls
    finish in a shuffled order; the answer itself is a hash of the prompt.
    The parallelism is 1, 2 or 4: ``max_concurrency``, and ``--jobs`` too
    for the commands that take it.
    """

    COMMANDS = {
        "rerank": (["rerank", "--ranker", "endpoint", "--trace"], ("pools", "corpus", "labels"), True),
        "annotate": (["annotate", "--ranker", "endpoint"], ("windows", "corpus", "labels"), True),
        "distill": (["distill", "--teacher", "endpoint"], ("windows", "corpus", "labels"), False),
        "filter": (["filter", "--strategy", "llm_filter"], ("windows", "corpus"), False),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_out_of_order_answers_write_the_same_bytes(self, command, keepalive_server, small_run, tmp_path):
        args, inputs, takes_jobs = self.COMMANDS[command]
        keepalive_server.script, keepalive_server.answer = ["late"], _hash_answer
        written = {}
        for seed in (1, 2, 3):
            keepalive_server.delays = random.Random(seed)
            for workers in (1, 2, 4):
                endpoint = {"base_url": keepalive_server.url, "model": "m", "timeout_s": 5, "max_retries": 2,
                            "retry_backoff_s": 0.0, "max_concurrency": workers}
                config = tmp_path / f"config-{workers}.json"
                config.write_text(json.dumps({"ranker": {"endpoint": endpoint}, "pipeline": {"annotate_trials": 2}}))
                out = tmp_path / f"{seed}-{workers}" / "out.jsonl"
                result = CliRunner().invoke(main, [
                    *args, *(f"--{name}={small_run / name}.jsonl" for name in inputs),
                    "--config", str(config), "--out", str(out), *(["--jobs", str(workers)] if takes_jobs else []),
                ])
                assert result.exit_code == 0, result.output
                written[seed, workers] = {path.name: path.read_bytes() for path in out.parent.iterdir()}
        assert keepalive_server.peak > 1  # calls did overlap
        first = written[1, 1]
        assert len(first) == (3 if command == "rerank" else 2) and all(first.values())
        assert all(files == first for files in written.values())


def test_worker_rule():
    """--jobs wins; else an endpoint ranker or client gets max_concurrency and a built-in ranker one worker."""
    cfg = endpoint_cfg(max_concurrency=3)
    assert _workers(None, LlmRanker(cfg)) == 3
    assert _workers(None, ChatCompletionsClient(cfg)) == 3
    assert _workers(2, LlmRanker(cfg)) == 2
    for ranker in (OracleRanker({}), NoisyOracleRanker({}, p_flip=0.3), IdentityRanker()):
        assert _workers(None, ranker) == 1
        assert _workers(5, ranker) == 5
