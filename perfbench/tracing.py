"""Spans recorded from outside the toolkit, and the arithmetic over them.

A span is ``(id, parent, name, start_ns, end_ns, attrs)``, written out with
the run id appended. Times come from ``time.perf_counter_ns``, the
system-wide monotonic clock on Linux, so spans written by a stage process
line up with the stage times its parent measured.
``Tracer.wrap`` puts a span around one callable; ``install`` rebinds the
toolkit's public functions to such wrappers in every module that imported
them. Spans stay in memory until ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Iterable

# (span name, module, attribute). A function is rebound wherever the toolkit
# imported it.
TRACED_FUNCTIONS = (
    ("core.load", "rankfit.core", "load_corpus"),
    ("core.load", "rankfit.core", "load_labels"),
    ("core.load", "rankfit.core", "load_pools"),
    ("core.write", "rankfit.core", "write_jsonl"),
    ("core.write", "rankfit.core", "write_corpus"),
    ("core.write", "rankfit.core", "write_labels"),
    ("core.write", "rankfit.core", "write_pools"),
    ("synthetic.generate", "rankfit.synthetic", "generate"),
    ("windows.build", "rankfit.windows", "build_all_windows"),
    ("windows.annotate", "rankfit.windows", "annotate_difficulty"),
    ("windows.filter", "rankfit.windows", "apply_strategy"),
    ("windows.distill", "rankfit.windows", "distill_sft"),
    ("engine.rerank_pool", "rankfit.engine", "rerank_pool"),
    ("engine.ablate", "rankfit.engine", "ablate"),
    ("ranker.build_prompt", "rankfit.ranker", "build_prompt"),
    ("ranker.parse_answer", "rankfit.ranker", "parse_answer"),
    ("ranker.transport", "rankfit.ranker", "_requests_post"),
    ("grpo.train", "rankfit.grpo", "train"),
    ("grpo.step", "rankfit.grpo", "grpo_step"),
    ("grpo.greedy_eval", "rankfit.grpo", "greedy_ndcg4"),
    ("grpo.kl_exact", "rankfit.grpo", "kl_exact"),
    ("grpo.sample_group", "rankfit.grpo", "sample_group"),
    ("grpo.eval_reward", "rankfit.grpo", "evaluate_mean_reward"),
)
# The nDCG/Recall pair is rebound only in the CLI, where ``evaluate`` calls
# it, so the GRPO greedy evaluation does not pay for spans around it.
CLI_ONLY = (
    ("metrics.score", "rankfit.cli", "ndcg"),
    ("metrics.score", "rankfit.cli", "recall_at_k"),
)
# Spans that also record the length of their first argument as ``n_in``.
COUNT_INPUT = ("windows.annotate", "windows.filter", "windows.distill")
# (span name, class); the span wraps the class's own __call__.
TRACED_RANKERS = (
    ("ranker.builtin_call", "OracleRanker"),
    ("ranker.builtin_call", "NoisyOracleRanker"),
    ("ranker.builtin_call", "IdentityRanker"),
    ("ranker.call", "LlmRanker"),
)


def _count(value) -> dict:
    """Counts taken at the span boundary from a traced call's result."""
    if isinstance(value, (list, dict)):
        return {"n": len(value)}
    if isinstance(value, tuple) and len(value) == 2:
        first, second = value
        attrs = {"n": len(first)} if isinstance(first, list) else {}
        for key in ("kept", "failed_windows", "trials"):
            if hasattr(second, key):
                stat = getattr(second, key)
                attrs[key] = len(stat) if isinstance(stat, list) else stat
        if isinstance(second, list) and all(hasattr(s, "reason") for s in second):
            attrs["skips"] = {}
            for skip in second:
                attrs["skips"][skip.reason] = attrs["skips"].get(skip.reason, 0) + 1
        return attrs
    attrs = {}
    for key in ("degraded", "repaired", "retry_count"):
        if hasattr(value, key):
            attrs[key] = getattr(value, key)
    return attrs


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, in_arg: int | None = None) -> Callable:
        """A callable that records a span around ``fn``.

        A span opened on a thread with no open span (an executor worker)
        takes the run's root span as its parent. ``in_arg`` names a
        positional argument whose length is recorded as ``n_in``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            span_id = next(self._ids)
            stack.append(span_id)
            attrs: dict = {}
            if in_arg is not None and len(args) > in_arg:
                try:
                    attrs["n_in"] = len(args[in_arg])
                except TypeError:
                    pass
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                attrs.update(_count(result))
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, attrs))

        return traced

    def open_root(self, name: str) -> None:
        self.root = next(self._ids)
        self._root_name = name
        self._root_start = time.perf_counter_ns()
        self._stack().append(self.root)

    def close_root(self, attrs: dict) -> None:
        self._stack().pop()
        self.spans.append(
            (self.root, None, self._root_name, self._root_start, time.perf_counter_ns(), attrs)
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": [[*span, self.run_id] for span in self.spans]}, fh)


def _counting(records: Iterable, counter: list[int]):
    for rec in records:
        counter[0] += 1
        yield rec


def install(tracer: Tracer) -> None:
    """Rebind the toolkit's public functions and ranker calls to traced wrappers."""
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("rankfit")}

    def rebind(original, wrapper, scope) -> None:
        for mod in scope:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    for table, cli_only in ((TRACED_FUNCTIONS, False), (CLI_ONLY, True)):
        for span_name, mod_name, attr in table:
            original = getattr(modules.get(mod_name), attr, None)
            if original is None:
                continue
            fn = _write_counted(original) if attr == "write_jsonl" else original
            wrapper = tracer.wrap(span_name, fn, in_arg=0 if span_name in COUNT_INPUT else None)
            rebind(original, wrapper, [modules[mod_name]] if cli_only else modules.values())
    ranker = modules.get("rankfit.ranker")
    for span_name, cls_name in TRACED_RANKERS:
        cls = getattr(ranker, cls_name, None)
        if cls is not None and "__call__" in vars(cls):
            setattr(cls, "__call__", tracer.wrap(span_name, vars(cls)["__call__"]))


def _write_counted(write_jsonl: Callable) -> Callable:
    """write_jsonl that reports how many records it wrote as the span's ``n``."""

    def counted(records, path):
        counter = [0]
        write_jsonl(_counting(records, counter), path)
        return [None] * counter[0]

    return counted


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans
# ---------------------------------------------------------------------------


def union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list) -> dict[int, int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp[1] is not None:
            children.setdefault(sp[1], []).append((sp[3], sp[4]))
    out = {}
    for span_id, _parent, _name, start, end, *_ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end]
        out[span_id] = (end - start) - union_ns(kids)
    return out
