"""Command-line surface wiring the pipeline end to end.

Every command is deterministic given identical config and seed; artifacts are
accompanied by a ``<artifact>.meta.json`` sidecar recording the effective
config hash, seed, and tool version. Exit codes: 0 success, 1 degraded (some
ranker calls fell back to identity), 2 configuration or data error.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import click

from . import __version__
from .core import (
    KIND_RESUME,
    accepted_by_job,
    iter_jsonl,
    load_corpus,
    load_labels,
    load_pools,
    write_corpus,
    write_jsonl,
    write_labels,
    write_pools,
)
from .engine import EngineConfig, rerank_pool
from .errors import ConfigError, MalformedRecord, RankfitError
from .grpo import (
    GrpoConfig,
    evaluate_mean_reward,
    make_policy,
    match_features,
    noise_features,
    save_policy,
    train,
    write_curve,
)
from .metrics import ndcg, recall_at_k
from .ranker import (
    ChatCompletionsClient,
    EndpointConfig,
    IdentityRanker,
    LlmRanker,
    NoisyOracleRanker,
    OracleRanker,
)
from .seeding import child_rng
from .synthetic import SyntheticConfig, generate
from .windows import (
    PipelineConfig,
    Window,
    annotate_difficulty,
    apply_strategy,
    build_all_windows,
    distill_sft,
    make_llm_judge,
)

BUILTIN_RANKERS = ("oracle", "identity", "noisy", "endpoint")
DEFAULT_ABLATION_GRID = "2:1,3:1,3:2,4:1,4:2,4:3"


def _command(fn):
    """Map toolkit errors to exit code 2 and degraded runs to exit code 1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except RankfitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        sys.exit(code or 0)

    return wrapper


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(p, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _resolve(flag_value, config: dict, *keys, default=None):
    """Precedence: explicit flag > config file > default."""
    if flag_value is not None:
        return flag_value
    node = config
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def _require_path(path: str | None, what: str) -> Path:
    if not path:
        raise ConfigError(f"missing required path for {what}")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} path {path} does not exist")
    return p


def _config_hash(effective: dict) -> str:
    canonical = json.dumps(effective, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _write_meta(artifact: Path, effective: dict, seed: int) -> None:
    meta = {
        "config_hash": _config_hash(effective),
        "seed": seed,
        "version": __version__,
        "config": effective,
    }
    with open(f"{artifact}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")


def _endpoint_from_config(config: dict) -> EndpointConfig:
    endpoint = config.get("ranker", {}).get("endpoint")
    if not isinstance(endpoint, dict) or "base_url" not in endpoint or "model" not in endpoint:
        raise ConfigError(
            "ranker 'endpoint' requires a config file with ranker.endpoint.base_url and .model"
        )
    allowed = {f for f in EndpointConfig.__dataclass_fields__}
    unknown = set(endpoint) - allowed
    if unknown:
        raise ConfigError(f"unknown endpoint config keys: {sorted(unknown)}")
    return EndpointConfig(**endpoint)


def _make_ranker(name: str, accepted, p_flip: float, seed: int, config: dict):
    if name == "oracle":
        return OracleRanker(accepted)
    if name == "identity":
        return IdentityRanker()
    if name == "noisy":
        return NoisyOracleRanker(accepted, p_flip=p_flip, seed=seed)
    if name == "endpoint":
        return LlmRanker(_endpoint_from_config(config))
    raise ConfigError(f"unknown ranker {name!r}; expected one of {BUILTIN_RANKERS}")


def _load_windows(path: Path) -> list[Window]:
    windows = []
    for lineno, rec in iter_jsonl(path):
        try:
            windows.append(Window.from_record(rec))
        except (KeyError, ConfigError) as exc:
            raise MalformedRecord(f"bad window record: {exc}", line=lineno) from exc
    return windows


def _pipeline_config(config: dict, seed: int) -> PipelineConfig:
    section = config.get("pipeline", {})
    allowed = {f for f in PipelineConfig.__dataclass_fields__}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown pipeline config keys: {sorted(unknown)}")
    section = dict(section)
    section["rng_seed"] = seed
    return PipelineConfig(**section)


@click.group()
@click.version_option(version=__version__)
def main():
    """Listwise re-ranking toolkit for person-job fit."""


# ---------------------------------------------------------------------------
# gen-synthetic
# ---------------------------------------------------------------------------


@main.command("gen-synthetic")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--n-jobs", type=int, default=None, help="Number of job posts.")
@click.option("--n-background", type=int, default=None, help="Background resume count.")
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_command
def cmd_gen_synthetic(out_dir, n_jobs, n_background, seed, config_path):
    """Generate a synthetic corpus, labels, and retrieval pools."""
    config = _load_config(config_path)
    seed = _resolve(seed, config, "seed", default=0)
    section = dict(config.get("synthetic", {}))
    unknown = set(section) - set(SyntheticConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown synthetic config keys: {sorted(unknown)}")
    if n_jobs is not None:
        section["n_jobs"] = n_jobs
    if n_background is not None:
        section["n_background"] = n_background
    section["seed"] = seed
    cfg = SyntheticConfig(**section)
    documents, labels, pools = generate(cfg)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    effective = {
        "synthetic": {k: getattr(cfg, k) for k in SyntheticConfig.__dataclass_fields__}
    }
    write_corpus(documents.values(), out / "corpus.jsonl")
    write_labels(labels, out / "labels.jsonl")
    write_pools(pools, out / "pools.jsonl")
    for name in ("corpus.jsonl", "labels.jsonl", "pools.jsonl"):
        _write_meta(out / name, effective, seed)
    click.echo(
        f"wrote {len(documents)} documents, {len(labels)} labels, {len(pools)} pools to {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# build-windows
# ---------------------------------------------------------------------------


@main.command("build-windows")
@click.option("--corpus", "corpus_path", type=click.Path(), default=None)
@click.option("--labels", "labels_path", type=click.Path(), default=None)
@click.option("--pools", "pools_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_command
def cmd_build_windows(corpus_path, labels_path, pools_path, out_path, seed, config_path):
    """Build 4-candidate training windows from labeled pools."""
    config = _load_config(config_path)
    seed = _resolve(seed, config, "seed", default=0)
    corpus_path = _require_path(_resolve(corpus_path, config, "paths", "corpus"), "corpus")
    labels_path = _require_path(_resolve(labels_path, config, "paths", "labels"), "labels")
    pools_path = _require_path(_resolve(pools_path, config, "paths", "pools"), "pools")

    corpus = load_corpus(corpus_path)
    resumes = {i for i, d in corpus.items() if d.kind == KIND_RESUME}
    labels = load_labels(labels_path)
    pools = load_pools(pools_path, labels, resume_ids=resumes)
    cfg = _pipeline_config(config, seed)

    windows, skips = build_all_windows(pools, cfg)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl((w.to_record() for w in windows), out)

    skip_counts: dict[str, int] = {}
    for skip in skips:
        skip_counts[skip.reason] = skip_counts.get(skip.reason, 0) + 1
    windows_per_job: dict[str, int] = {}
    for w in windows:
        windows_per_job[w.job_id] = windows_per_job.get(w.job_id, 0) + 1
    effective = {"pipeline": {k: getattr(cfg, k) for k in PipelineConfig.__dataclass_fields__}}
    skip_report = {
        "jobs_total": len(pools),
        "jobs_kept": len(pools) - len(skips),
        "skips": dict(sorted(skip_counts.items())),
        "windows_emitted": len(windows),
        "windows_per_job": dict(sorted(windows_per_job.items())),
        "provenance": {
            "config_hash": _config_hash(effective),
            "seed": seed,
            "version": __version__,
        },
    }
    skips_path = out.parent / "skips.json"
    with open(skips_path, "w", encoding="utf-8") as fh:
        json.dump(skip_report, fh, sort_keys=True, indent=2)
        fh.write("\n")

    _write_meta(out, effective, seed)
    click.echo(
        f"jobs kept {skip_report['jobs_kept']}/{skip_report['jobs_total']} "
        f"(skipped: {skip_report['skips'] or 'none'}); windows emitted {len(windows)}"
    )
    return 0


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------


@main.command("annotate")
@click.option("--windows", "windows_path", required=True, type=click.Path())
@click.option("--corpus", "corpus_path", type=click.Path(), default=None)
@click.option("--labels", "labels_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--ranker", "ranker_name", type=click.Choice(BUILTIN_RANKERS), default=None)
@click.option("--p-flip", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=int, default=1, help="Parallel annotation workers.")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_command
def cmd_annotate(windows_path, corpus_path, labels_path, out_path, ranker_name, p_flip, seed, jobs, config_path):
    """Annotate windows with the empirical gold-at-top rate of a ranker."""
    config = _load_config(config_path)
    seed = _resolve(seed, config, "seed", default=0)
    ranker_name = _resolve(ranker_name, config, "ranker", "builtin", default="noisy")
    p_flip = _resolve(p_flip, config, "ranker", "p_flip", default=0.3)
    windows = _load_windows(_require_path(windows_path, "windows"))
    corpus = load_corpus(_require_path(_resolve(corpus_path, config, "paths", "corpus"), "corpus"))

    accepted = {}
    if ranker_name in ("oracle", "noisy"):
        labels_path = _require_path(_resolve(labels_path, config, "paths", "labels"), "labels")
        accepted = accepted_by_job(load_labels(labels_path))
    ranker = _make_ranker(ranker_name, accepted, p_flip, seed, config)
    cfg = _pipeline_config(config, seed)

    annotated, stats = annotate_difficulty(windows, ranker, corpus, cfg, max_workers=jobs)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl((w.to_record() for w in annotated), out)
    effective = {
        "ranker": {"name": ranker_name, "p_flip": p_flip},
        "annotate_trials": cfg.annotate_trials,
    }
    _write_meta(out, effective, seed)
    click.echo(
        f"annotated {len(annotated)} windows over {stats.trials} trials; "
        f"{len(stats.failed_windows)} windows had no successful trial"
    )
    return 1 if stats.failed_windows else 0


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


@main.command("filter")
@click.option("--windows", "windows_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option(
    "--strategy",
    type=click.Choice(("all", "remove_hard", "subsample_hard", "hint_augment", "llm_filter")),
    required=True,
)
@click.option("--corpus", "corpus_path", type=click.Path(), default=None, help="Needed for llm_filter.")
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_command
def cmd_filter(windows_path, out_path, strategy, corpus_path, seed, config_path):
    """Apply a data-filtering strategy to annotated windows."""
    config = _load_config(config_path)
    seed = _resolve(seed, config, "seed", default=0)
    windows = _load_windows(_require_path(windows_path, "windows"))
    cfg = _pipeline_config(config, seed)

    judge = None
    if strategy == "llm_filter":
        corpus = load_corpus(
            _require_path(_resolve(corpus_path, config, "paths", "corpus"), "corpus")
        )
        judge = make_llm_judge(ChatCompletionsClient(_endpoint_from_config(config)), corpus)

    rng = child_rng(seed, f"filter:{strategy}")
    kept = apply_strategy(windows, strategy, rng, cfg=cfg, judge=judge)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl((w.to_record() for w in kept), out)
    _write_meta(out, {"strategy": strategy, "hard_threshold": cfg.hard_threshold}, seed)
    click.echo(f"kept {len(kept)}/{len(windows)} windows under strategy {strategy}")
    return 0


# ---------------------------------------------------------------------------
# rerank / evaluate / ablate
# ---------------------------------------------------------------------------


def _engine_config(config: dict, k, s, t, n) -> EngineConfig:
    return EngineConfig(
        window_size=_resolve(k, config, "engine", "window_size", default=4),
        stride=_resolve(s, config, "engine", "stride", default=2),
        iterations=_resolve(t, config, "engine", "iterations", default=2),
        pool_size=_resolve(n, config, "engine", "pool_size", default=20),
    )


@main.command("rerank")
@click.option("--pools", "pools_path", type=click.Path(), default=None)
@click.option("--corpus", "corpus_path", type=click.Path(), default=None)
@click.option("--labels", "labels_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--ranker", "ranker_name", type=click.Choice(BUILTIN_RANKERS), default=None)
@click.option("--p-flip", type=float, default=None)
@click.option("-k", "--window-size", "k", type=int, default=None)
@click.option("-s", "--stride", "s", type=int, default=None)
@click.option("-t", "--iterations", "t", type=int, default=None)
@click.option("-N", "--pool-size", "n", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=int, default=1, help="Parallel jobs across pools.")
@click.option("--trace", is_flag=True, default=False, help="Write a per-call trace file.")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_command
def cmd_rerank(pools_path, corpus_path, labels_path, out_path, ranker_name, p_flip, k, s, t, n, seed, jobs, trace, config_path):
    """Re-rank every pool with the sliding-window engine."""
    config = _load_config(config_path)
    seed = _resolve(seed, config, "seed", default=0)
    ranker_name = _resolve(ranker_name, config, "ranker", "builtin", default="oracle")
    p_flip = _resolve(p_flip, config, "ranker", "p_flip", default=0.3)
    corpus = load_corpus(_require_path(_resolve(corpus_path, config, "paths", "corpus"), "corpus"))
    labels = load_labels(_require_path(_resolve(labels_path, config, "paths", "labels"), "labels"))
    pools = load_pools(
        _require_path(_resolve(pools_path, config, "paths", "pools"), "pools"),
        labels,
        resume_ids={i for i, d in corpus.items() if d.kind == KIND_RESUME},
    )
    cfg = _engine_config(config, k, s, t, n)
    ranker = _make_ranker(ranker_name, accepted_by_job(labels), p_flip, seed, config)

    runnable = [p for p in pools if len(p.candidates) == cfg.pool_size]
    skipped = len(pools) - len(runnable)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as executor:
            traces = list(executor.map(lambda p: rerank_pool(p, ranker, cfg, corpus), runnable))
    else:
        traces = [rerank_pool(p, ranker, cfg, corpus) for p in runnable]

    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(
        (
            {
                "job_id": tr.job_id,
                "initial": list(tr.initial),
                "final": list(tr.final),
                "degraded_calls": tr.degraded_calls,
            }
            for tr in traces
        ),
        out,
    )
    effective = {
        "engine": cfg.as_dict(),
        "ranker": {"name": ranker_name, "p_flip": p_flip},
    }
    _write_meta(out, effective, seed)

    if trace:
        trace_path = out.parent / (out.stem + ".trace.jsonl")
        write_jsonl(
            (
                {
                    "job_id": tr.job_id,
                    "iteration": call.iteration,
                    "start": call.start,
                    "before": call.before,
                    "after": call.after,
                    "raw_text": call.raw_text,
                    "repaired": call.repaired,
                    "degraded": call.degraded,
                }
                for tr in traces
                for call in tr.calls
            ),
            trace_path,
        )

    degraded = sum(tr.degraded_calls for tr in traces)
    click.echo(
        f"reranked {len(traces)} pools ({skipped} skipped for size != {cfg.pool_size}); "
        f"degraded calls: {degraded}"
    )
    return 1 if degraded else 0


@main.command("evaluate")
@click.option("--pools", "pools_path", type=click.Path(), default=None)
@click.option("--labels", "labels_path", type=click.Path(), default=None)
@click.option("--reranked", "reranked_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--metric-k", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_command
def cmd_evaluate(pools_path, labels_path, reranked_path, out_path, metric_k, seed, config_path):
    """Score re-ranked pools against labels: nDCG@k and Recall@k, before and after."""
    config = _load_config(config_path)
    seed = _resolve(seed, config, "seed", default=0)
    labels = load_labels(_require_path(_resolve(labels_path, config, "paths", "labels"), "labels"))
    pools = load_pools(
        _require_path(_resolve(pools_path, config, "paths", "pools"), "pools"),
        labels,
    )
    by_job = {p.job_id: p for p in pools}
    reranked_path = _require_path(reranked_path, "reranked")

    engine_cfg = {}
    meta_path = Path(f"{reranked_path}.meta.json")
    if meta_path.exists():
        with open(meta_path, encoding="utf-8") as fh:
            engine_cfg = json.load(fh).get("config", {}).get("engine", {})

    per_job = []
    excluded = []
    first_line: dict[str, int] = {}
    for lineno, rec in iter_jsonl(reranked_path):
        job_id = rec.get("job_id")
        if job_id not in by_job:
            raise MalformedRecord(f"reranked job {job_id!r} not found in pools", line=lineno)
        if job_id in first_line:
            raise MalformedRecord(
                f"reranked job {job_id!r} repeats line {first_line[job_id]}", line=lineno
            )
        first_line[job_id] = lineno
        pool = by_job[job_id]
        final = rec.get("final", [])
        if sorted(final) != sorted(pool.candidates):
            raise MalformedRecord(
                f"final ordering for job {job_id!r} is not a permutation of its pool",
                line=lineno,
            )
        rels_before = pool.relevance()
        rels_after = pool.relevance(final)
        if not any(rels_before):
            excluded.append(job_id)
            continue
        per_job.append(
            {
                "job_id": job_id,
                f"ndcg{metric_k}_before": ndcg(rels_before, metric_k),
                f"ndcg{metric_k}_after": ndcg(rels_after, metric_k),
                f"recall{metric_k}_before": recall_at_k(rels_before, metric_k),
                f"recall{metric_k}_after": recall_at_k(rels_after, metric_k),
                "degraded_calls": rec.get("degraded_calls", 0),
            }
        )
    per_job.sort(key=lambda row: row["job_id"])

    def macro(key):
        return sum(row[key] for row in per_job) / len(per_job) if per_job else 0.0

    nb, na = macro(f"ndcg{metric_k}_before"), macro(f"ndcg{metric_k}_after")
    rb, ra = macro(f"recall{metric_k}_before"), macro(f"recall{metric_k}_after")
    effective = {"engine": engine_cfg, "metric_k": metric_k}
    report = {
        "config": engine_cfg,
        "per_job": per_job,
        "macro": {
            f"ndcg{metric_k}_before": nb,
            f"ndcg{metric_k}_after": na,
            f"recall{metric_k}_before": rb,
            f"recall{metric_k}_after": ra,
            "average_before": (nb + rb) / 2,
            "average_after": (na + ra) / 2,
            "jobs_evaluated": len(per_job),
            "jobs_excluded": len(excluded),
            "degraded_calls": sum(row["degraded_calls"] for row in per_job),
        },
        "excluded": sorted(excluded),
        "provenance": {
            "config_hash": _config_hash(effective),
            "seed": seed,
            "version": __version__,
        },
    }
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_meta(out, effective, seed)
    click.echo(
        f"evaluated {len(per_job)} jobs (excluded {len(excluded)} with no positives; "
        f"{len(by_job) - len(first_line)} loaded pools had no reranked row): "
        f"nDCG@{metric_k} {nb:.4f} -> {na:.4f}, Recall@{metric_k} {rb:.4f} -> {ra:.4f}"
    )
    return 0


def _parse_grid(grid: str) -> list[tuple[int, int]]:
    points = []
    for part in grid.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k_str, s_str = part.split(":")
            points.append((int(k_str), int(s_str)))
        except ValueError:
            raise ConfigError(f"bad grid point {part!r}; expected k:s") from None
    if not points:
        raise ConfigError("empty ablation grid")
    return points


@main.command("ablate")
@click.option("--pools", "pools_path", type=click.Path(), default=None)
@click.option("--corpus", "corpus_path", type=click.Path(), default=None)
@click.option("--labels", "labels_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--grid", default=DEFAULT_ABLATION_GRID, show_default=True, help="Comma-separated k:s points.")
@click.option("-t", "--iterations", "t", type=int, default=None)
@click.option("--ranker", "ranker_name", type=click.Choice(BUILTIN_RANKERS), default=None)
@click.option("--p-flip", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=int, default=1)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_command
def cmd_ablate(pools_path, corpus_path, labels_path, out_path, grid, t, ranker_name, p_flip, seed, jobs, config_path):
    """Sweep (window size, stride) settings and tabulate metrics per setting."""
    from .engine import ablate as engine_ablate

    config = _load_config(config_path)
    seed = _resolve(seed, config, "seed", default=0)
    ranker_name = _resolve(ranker_name, config, "ranker", "builtin", default="noisy")
    p_flip = _resolve(p_flip, config, "ranker", "p_flip", default=0.3)
    t = _resolve(t, config, "engine", "iterations", default=2)
    pool_size = _resolve(None, config, "engine", "pool_size", default=20)
    corpus = load_corpus(_require_path(_resolve(corpus_path, config, "paths", "corpus"), "corpus"))
    labels = load_labels(_require_path(_resolve(labels_path, config, "paths", "labels"), "labels"))
    pools = load_pools(
        _require_path(_resolve(pools_path, config, "paths", "pools"), "pools"),
        labels,
        resume_ids={i for i, d in corpus.items() if d.kind == KIND_RESUME},
    )
    pools = [p for p in pools if len(p.candidates) == pool_size and p.accepted_ids]
    ranker = _make_ranker(ranker_name, accepted_by_job(labels), p_flip, seed, config)

    grid_points = [(k, s, t) for k, s in _parse_grid(grid)]
    rows, rejected = engine_ablate(pools, ranker, grid_points, corpus, pool_size=pool_size, max_workers=jobs)
    for rej in rejected:
        click.echo(f"rejected {rej['setting']}: {rej['error']}", err=True)

    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"rows": rows, "rejected": rejected}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    effective = {
        "grid": grid,
        "iterations": t,
        "pool_size": pool_size,
        "ranker": {"name": ranker_name, "p_flip": p_flip},
    }
    _write_meta(out, effective, seed)

    click.echo(f"{'setting':<14} {'nDCG@10':>8} {'Recall@10':>10} {'comp/iter':>10}")
    for row in rows:
        setting = row["setting"]
        label = f"k={setting['k']},s={setting['s']}"
        click.echo(
            f"{label:<14} {row['ndcg10']:>8.4f} {row['recall10']:>10.4f} "
            f"{row['comparisons_per_iter']:>10}"
        )
    return 0


# ---------------------------------------------------------------------------
# distill / simulate-grpo
# ---------------------------------------------------------------------------


@main.command("distill")
@click.option("--windows", "windows_path", required=True, type=click.Path())
@click.option("--corpus", "corpus_path", type=click.Path(), default=None)
@click.option("--labels", "labels_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--teacher", "teacher_name", type=click.Choice(BUILTIN_RANKERS), default=None)
@click.option("--p-flip", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_command
def cmd_distill(windows_path, corpus_path, labels_path, out_path, teacher_name, p_flip, seed, config_path):
    """Collect teacher generations whose answer ranks the gold candidate first."""
    config = _load_config(config_path)
    seed = _resolve(seed, config, "seed", default=0)
    teacher_name = _resolve(teacher_name, config, "ranker", "builtin", default="endpoint")
    p_flip = _resolve(p_flip, config, "ranker", "p_flip", default=0.3)
    windows = _load_windows(_require_path(windows_path, "windows"))
    corpus = load_corpus(_require_path(_resolve(corpus_path, config, "paths", "corpus"), "corpus"))

    accepted = {}
    if teacher_name in ("oracle", "noisy"):
        labels_path = _require_path(_resolve(labels_path, config, "paths", "labels"), "labels")
        accepted = accepted_by_job(load_labels(labels_path))
    teacher = _make_ranker(teacher_name, accepted, p_flip, seed, config)

    records, stats = distill_sft(windows, teacher, corpus)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(records, out)
    _write_meta(out, {"teacher": {"name": teacher_name, "p_flip": p_flip}}, seed)
    click.echo(
        f"kept {stats.kept}/{len(windows)} windows "
        f"(wrong top: {stats.dropped_wrong_top}, malformed: {stats.dropped_malformed})"
    )
    return 1 if stats.dropped_malformed else 0


@main.command("simulate-grpo")
@click.option("--windows", "windows_path", required=True, type=click.Path())
@click.option("--corpus", "corpus_path", type=click.Path(), default=None)
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--reward", type=click.Choice(("rearank", "rankr1")), default="rearank", show_default=True)
@click.option("--features", type=click.Choice(("match", "noise")), default="match", show_default=True)
@click.option("--group-size", type=int, default=32, show_default=True)
@click.option("--beta", type=float, default=0.01, show_default=True)
@click.option("--learning-rate", type=float, default=4.0, show_default=True, help="Desk-scale override of the recorded 1e-6 default.")
@click.option("--epochs", type=int, default=2, show_default=True)
@click.option("--batch-size", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_command
def cmd_simulate_grpo(windows_path, corpus_path, out_dir, reward, features, group_size, beta, learning_rate, epochs, batch_size, seed, config_path):
    """Train the Plackett-Luce policy simulator on windows and emit its learning curve."""
    config = _load_config(config_path)
    seed = _resolve(seed, config, "seed", default=0)
    windows = _load_windows(_require_path(windows_path, "windows"))
    corpus = load_corpus(_require_path(_resolve(corpus_path, config, "paths", "corpus"), "corpus"))

    if features == "match":
        feature_fn, names = match_features(corpus)
    else:
        feature_fn, names = noise_features(seed)
    policy = make_policy(feature_fn, names)
    cfg = GrpoConfig(
        group_size=group_size,
        beta=beta,
        learning_rate=learning_rate,
        epochs=epochs,
        batch_size=batch_size,
        reward=reward,
        rng_seed=seed,
    )

    initial_reward = evaluate_mean_reward(policy, windows, cfg, "initial")
    result = train(policy, windows, cfg)
    final_reward = evaluate_mean_reward(result.policy, windows, cfg, "final")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_curve(result.curve, out / "curve.csv")
    save_policy(result.policy, out / "policy.json")
    effective = {
        "grpo": {
            "group_size": group_size,
            "beta": beta,
            "learning_rate": learning_rate,
            "epochs": epochs,
            "batch_size": batch_size,
            "reward": reward,
            "features": features,
        }
    }
    for name in ("curve.csv", "policy.json"):
        _write_meta(out / name, effective, seed)
    click.echo(
        f"trained {len(result.curve)} steps on {len(windows)} windows; "
        f"mean reward {initial_reward:.4f} -> {final_reward:.4f}"
    )
    return 0


if __name__ == "__main__":
    main()
