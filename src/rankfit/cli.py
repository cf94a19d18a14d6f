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
from collections import Counter
from dataclasses import asdict
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
from .engine import EngineConfig, ablate, rerank_pools, score_run
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
    STRATEGIES,
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
    """Add --seed and --config; map toolkit errors to exit 2 and degraded runs to exit 1.

    The command receives the loaded ``config`` dict and the ``seed``
    resolved as flag > config ``seed`` > 0.
    """

    @click.option("--seed", type=int, default=None)
    @click.option("--config", "config_path", type=click.Path(), default=None)
    @functools.wraps(fn)
    def wrapper(*args, seed, config_path, **kwargs):
        try:
            config = _load_object(config_path)
            code = fn(*args, config=config, seed=_resolve(seed, config, "seed", default=0), **kwargs)
        except RankfitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        sys.exit(code or 0)

    return wrapper


def _load_object(path: str | Path | None, what: str = "config file") -> dict:
    """The JSON object in ``path`` ({} without a path); ``what`` names the file in errors."""
    if not path:
        return {}
    if not Path(path).exists():
        raise ConfigError(f"{what} {path} does not exist")
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
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


def _input(flag: str | None, name: str, config: dict | None = None) -> Path:
    """The input file ``name``: the flag, else config ``paths.<name>``, else an error.

    Without ``config`` only the flag counts. The file must exist.
    """
    path = _resolve(flag, config or {}, "paths", name)
    if not path:
        raise ConfigError(f"missing required path for {name}")
    if not Path(path).exists():
        raise ConfigError(f"{name} path {path} does not exist")
    return Path(path)


def _section(config: dict, name: str, cls) -> dict:
    """A copy of config section ``name``; its keys must be fields of dataclass ``cls``."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    unknown = set(section) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
    return dict(section)


def _out(path: str) -> Path:
    """An output path whose parent directory exists."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj: dict, indent: int | None = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def _provenance(effective: dict, seed: int) -> dict:
    canonical = json.dumps(effective, sort_keys=True)
    config_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return {"config_hash": config_hash, "seed": seed, "version": __version__}


def _write_meta(artifact: Path, effective: dict, seed: int) -> None:
    meta = {**_provenance(effective, seed), "config": effective}
    _write_json(Path(f"{artifact}.meta.json"), meta, indent=None)


def _endpoint_from_config(config: dict) -> EndpointConfig:
    endpoint = _resolve(None, config, "ranker", "endpoint")
    if not isinstance(endpoint, dict) or "base_url" not in endpoint or "model" not in endpoint:
        raise ConfigError(
            "ranker 'endpoint' requires a config file with ranker.endpoint.base_url and .model"
        )
    return EndpointConfig(**_section(config["ranker"], "endpoint", EndpointConfig))


def _make_ranker(name: str | None, p_flip: float | None, default: str, seed: int, config: dict, labels):
    """The ranker a command asked for, and its ``{"name", "p_flip"}`` settings.

    Both resolve as flag > config ``ranker.builtin``/``ranker.p_flip`` >
    default. Only the oracle rankers call ``labels()`` for the label list.
    """
    name = _resolve(name, config, "ranker", "builtin", default=default)
    p_flip = _resolve(p_flip, config, "ranker", "p_flip", default=0.3)
    settings = {"name": name, "p_flip": p_flip}
    if name == "oracle":
        return OracleRanker(accepted_by_job(labels())), settings
    if name == "identity":
        return IdentityRanker(), settings
    if name == "noisy":
        return NoisyOracleRanker(accepted_by_job(labels()), p_flip=p_flip, seed=seed), settings
    if name == "endpoint":
        return LlmRanker(_endpoint_from_config(config)), settings
    raise ConfigError(f"unknown ranker {name!r}; expected one of {BUILTIN_RANKERS}")


def _pools(flag: str | None, config: dict, labels, corpus=None):
    """Pools with labels joined; with a corpus, every candidate must be one of its resumes."""
    resumes = None if corpus is None else {i for i, d in corpus.items() if d.kind == KIND_RESUME}
    return load_pools(_input(flag, "pools", config), labels, resume_ids=resumes)


def _windows(flag: str | None) -> list[Window]:
    windows = []
    for lineno, rec in iter_jsonl(_input(flag, "windows")):
        try:
            windows.append(Window.from_record(rec))
        except (KeyError, ConfigError) as exc:
            raise MalformedRecord(f"bad window record: {exc}", line=lineno) from exc
    return windows


def _path_options(*names: str):
    """A ``--<name>`` file option per name, passed as ``<name>_path``.

    --out, --windows and --reranked are required; corpus, labels and pools
    may come from config ``paths`` instead (see ``_input``).
    """

    def decorate(fn):
        for name in reversed(names):
            required = name in ("out", "windows", "reranked")
            fn = click.option(f"--{name}", f"{name}_path", type=click.Path(), required=required)(fn)
        return fn

    return decorate


def _pipeline_config(config: dict, seed: int) -> PipelineConfig:
    return PipelineConfig(**{**_section(config, "pipeline", PipelineConfig), "rng_seed": seed})


@click.group()
@click.version_option(version=__version__)
def main():
    """Listwise re-ranking toolkit for person-job fit."""


# ---------------------------------------------------------------------------
# gen-synthetic / build-windows / annotate / filter
# ---------------------------------------------------------------------------


@main.command("gen-synthetic")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--n-jobs", type=int, default=None, help="Number of job posts.")
@click.option("--n-background", type=int, default=None, help="Background resume count.")
@_command
def cmd_gen_synthetic(out_dir, n_jobs, n_background, config, seed):
    """Generate a synthetic corpus, labels, and retrieval pools."""
    flags = {"n_jobs": n_jobs, "n_background": n_background, "seed": seed}
    section = _section(config, "synthetic", SyntheticConfig)
    cfg = SyntheticConfig(**{**section, **{k: v for k, v in flags.items() if v is not None}})
    documents, labels, pools = generate(cfg)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(documents.values(), out / "corpus.jsonl")
    write_labels(labels, out / "labels.jsonl")
    write_pools(pools, out / "pools.jsonl")
    for name in ("corpus.jsonl", "labels.jsonl", "pools.jsonl"):
        _write_meta(out / name, {"synthetic": asdict(cfg)}, seed)
    click.echo(
        f"wrote {len(documents)} documents, {len(labels)} labels, {len(pools)} pools to {out}"
    )
    return 0


@main.command("build-windows")
@_path_options("corpus", "labels", "pools", "out")
@_command
def cmd_build_windows(corpus_path, labels_path, pools_path, out_path, config, seed):
    """Build 4-candidate training windows from labeled pools."""
    corpus = load_corpus(_input(corpus_path, "corpus", config))
    pools = _pools(pools_path, config, load_labels(_input(labels_path, "labels", config)), corpus)
    cfg = _pipeline_config(config, seed)

    windows, skips = build_all_windows(pools, cfg)
    out = _out(out_path)
    write_jsonl((w.to_record() for w in windows), out)

    effective = {"pipeline": asdict(cfg)}
    skip_report = {
        "jobs_total": len(pools),
        "jobs_kept": len(pools) - len(skips),
        "skips": dict(sorted(Counter(skip.reason for skip in skips).items())),
        "windows_emitted": len(windows),
        "windows_per_job": dict(sorted(Counter(w.job_id for w in windows).items())),
        "provenance": _provenance(effective, seed),
    }
    _write_json(out.parent / "skips.json", skip_report)
    _write_meta(out, effective, seed)
    click.echo(
        f"jobs kept {skip_report['jobs_kept']}/{skip_report['jobs_total']} "
        f"(skipped: {skip_report['skips'] or 'none'}); windows emitted {len(windows)}"
    )
    return 0


@main.command("annotate")
@_path_options("windows", "corpus", "labels", "out")
@click.option("--ranker", "ranker_name", type=click.Choice(BUILTIN_RANKERS), default=None)
@click.option("--p-flip", type=float, default=None)
@click.option("--jobs", type=int, default=1, help="Parallel annotation workers.")
@_command
def cmd_annotate(windows_path, corpus_path, labels_path, out_path, ranker_name, p_flip, jobs, config, seed):
    """Annotate windows with the empirical gold-at-top rate of a ranker."""
    windows = _windows(windows_path)
    corpus = load_corpus(_input(corpus_path, "corpus", config))
    ranker, ranker_cfg = _make_ranker(
        ranker_name, p_flip, "noisy", seed, config, lambda: load_labels(_input(labels_path, "labels", config))
    )
    cfg = _pipeline_config(config, seed)

    annotated, stats = annotate_difficulty(windows, ranker, corpus, cfg, max_workers=jobs)
    out = _out(out_path)
    write_jsonl((w.to_record() for w in annotated), out)
    _write_meta(out, {"ranker": ranker_cfg, "annotate_trials": cfg.annotate_trials}, seed)
    click.echo(
        f"annotated {len(annotated)} windows over {stats.trials} trials; "
        f"{len(stats.failed_windows)} windows had no successful trial"
    )
    return 1 if stats.failed_windows else 0


@main.command("filter")
@_path_options("windows", "out")
@click.option("--strategy", type=click.Choice(STRATEGIES), required=True)
@click.option("--corpus", "corpus_path", type=click.Path(), default=None, help="Needed for llm_filter.")
@_command
def cmd_filter(windows_path, out_path, strategy, corpus_path, config, seed):
    """Apply a data-filtering strategy to annotated windows."""
    windows = _windows(windows_path)
    cfg = _pipeline_config(config, seed)

    judge = None
    if strategy == "llm_filter":
        corpus = load_corpus(_input(corpus_path, "corpus", config))
        judge = make_llm_judge(ChatCompletionsClient(_endpoint_from_config(config)), corpus)

    rng = child_rng(seed, f"filter:{strategy}")
    kept = apply_strategy(windows, strategy, rng, cfg=cfg, judge=judge)
    out = _out(out_path)
    write_jsonl((w.to_record() for w in kept), out)
    _write_meta(out, {"strategy": strategy, "hard_threshold": cfg.hard_threshold}, seed)
    failed = f" ({len(judge.failed)} kept after judge failure)" if judge else ""
    click.echo(f"kept {len(kept)}/{len(windows)} windows under strategy {strategy}{failed}")
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
@_path_options("pools", "corpus", "labels", "out")
@click.option("--ranker", "ranker_name", type=click.Choice(BUILTIN_RANKERS), default=None)
@click.option("--p-flip", type=float, default=None)
@click.option("-k", "--window-size", "k", type=int, default=None)
@click.option("-s", "--stride", "s", type=int, default=None)
@click.option("-t", "--iterations", "t", type=int, default=None)
@click.option("-N", "--pool-size", "n", type=int, default=None)
@click.option("--jobs", type=int, default=1, help="Parallel jobs across pools.")
@click.option("--trace", is_flag=True, default=False, help="Write a per-call trace file.")
@_command
def cmd_rerank(pools_path, corpus_path, labels_path, out_path, ranker_name, p_flip, k, s, t, n, jobs, trace, config, seed):
    """Re-rank every pool with the sliding-window engine."""
    corpus = load_corpus(_input(corpus_path, "corpus", config))
    labels = load_labels(_input(labels_path, "labels", config))
    pools = _pools(pools_path, config, labels, corpus)
    cfg = _engine_config(config, k, s, t, n)
    ranker, ranker_cfg = _make_ranker(ranker_name, p_flip, "oracle", seed, config, lambda: labels)

    runnable = [p for p in pools if len(p.candidates) == cfg.pool_size]
    traces = rerank_pools(runnable, ranker, cfg, corpus, max_workers=jobs)

    out = _out(out_path)
    write_jsonl(
        (
            {"job_id": tr.job_id, "initial": list(tr.initial), "final": list(tr.final),
             "degraded_calls": tr.degraded_calls}
            for tr in traces
        ),
        out,
    )
    _write_meta(out, {"engine": cfg.as_dict(), "ranker": ranker_cfg}, seed)
    if trace:
        calls = ({"job_id": tr.job_id, **asdict(call)} for tr in traces for call in tr.calls)
        write_jsonl(calls, out.parent / (out.stem + ".trace.jsonl"))

    degraded = sum(tr.degraded_calls for tr in traces)
    click.echo(
        f"reranked {len(traces)} pools ({len(pools) - len(runnable)} skipped for size != "
        f"{cfg.pool_size}); degraded calls: {degraded}"
    )
    return 1 if degraded else 0


@main.command("evaluate")
@_path_options("pools", "labels", "reranked", "out")
@click.option("--metric-k", type=int, default=10, show_default=True)
@_command
def cmd_evaluate(pools_path, labels_path, reranked_path, out_path, metric_k, config, seed):
    """Score re-ranked pools against labels: nDCG@k and Recall@k, before and after."""
    labels = load_labels(_input(labels_path, "labels", config))
    by_job = {p.job_id: p for p in _pools(pools_path, config, labels)}
    reranked_path = _input(reranked_path, "reranked")

    meta_path = Path(f"{reranked_path}.meta.json")
    meta = _load_object(meta_path, "reranked sidecar") if meta_path.exists() else {}
    engine_cfg = _resolve(None, meta, "config", "engine", default={})

    scored = []
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
        scored.append((pool, final, rec.get("degraded_calls", 0)))

    effective = {"engine": engine_cfg, "metric_k": metric_k}
    scores = score_run(scored, metric_k)
    out = _out(out_path)
    _write_json(out, {"config": engine_cfg, **scores, "provenance": _provenance(effective, seed)})
    _write_meta(out, effective, seed)
    macro = scores["macro"]
    nb, na = macro[f"ndcg{metric_k}_before"], macro[f"ndcg{metric_k}_after"]
    rb, ra = macro[f"recall{metric_k}_before"], macro[f"recall{metric_k}_after"]
    click.echo(
        f"evaluated {macro['jobs_evaluated']} jobs (excluded {macro['jobs_excluded']} with no "
        f"positives; {len(by_job) - len(scored)} loaded pools had no reranked row): "
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
@_path_options("pools", "corpus", "labels", "out")
@click.option("--grid", default=DEFAULT_ABLATION_GRID, show_default=True, help="Comma-separated k:s points.")
@click.option("-t", "--iterations", "t", type=int, default=None)
@click.option("--ranker", "ranker_name", type=click.Choice(BUILTIN_RANKERS), default=None)
@click.option("--p-flip", type=float, default=None)
@click.option("--jobs", type=int, default=1)
@_command
def cmd_ablate(pools_path, corpus_path, labels_path, out_path, grid, t, ranker_name, p_flip, jobs, config, seed):
    """Sweep (window size, stride) settings and tabulate metrics per setting."""
    t = _resolve(t, config, "engine", "iterations", default=2)
    pool_size = _resolve(None, config, "engine", "pool_size", default=20)
    corpus = load_corpus(_input(corpus_path, "corpus", config))
    labels = load_labels(_input(labels_path, "labels", config))
    pools = _pools(pools_path, config, labels, corpus)
    pools = [p for p in pools if len(p.candidates) == pool_size and p.accepted_ids]
    ranker, ranker_cfg = _make_ranker(ranker_name, p_flip, "noisy", seed, config, lambda: labels)

    grid_points = [(k, s, t) for k, s in _parse_grid(grid)]
    rows, rejected = ablate(pools, ranker, grid_points, corpus, pool_size=pool_size, max_workers=jobs)
    for rej in rejected:
        click.echo(f"rejected {rej['setting']}: {rej['error']}", err=True)

    out = _out(out_path)
    _write_json(out, {"rows": rows, "rejected": rejected})
    _write_meta(out, {"grid": grid, "iterations": t, "pool_size": pool_size, "ranker": ranker_cfg}, seed)

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
@_path_options("windows", "corpus", "labels", "out")
@click.option("--teacher", "teacher_name", type=click.Choice(BUILTIN_RANKERS), default=None)
@click.option("--p-flip", type=float, default=None)
@_command
def cmd_distill(windows_path, corpus_path, labels_path, out_path, teacher_name, p_flip, config, seed):
    """Collect teacher generations whose answer ranks the gold candidate first."""
    windows = _windows(windows_path)
    corpus = load_corpus(_input(corpus_path, "corpus", config))
    teacher, teacher_cfg = _make_ranker(
        teacher_name, p_flip, "endpoint", seed, config, lambda: load_labels(_input(labels_path, "labels", config))
    )

    records, stats = distill_sft(windows, teacher, corpus)
    out = _out(out_path)
    write_jsonl(records, out)
    _write_meta(out, {"teacher": teacher_cfg}, seed)
    click.echo(
        f"kept {stats.kept}/{len(windows)} windows "
        f"(wrong top: {stats.dropped_wrong_top}, malformed: {stats.dropped_malformed})"
    )
    return 1 if stats.dropped_malformed else 0


@main.command("simulate-grpo")
@_path_options("windows", "corpus")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--reward", type=click.Choice(("rearank", "rankr1")), default="rearank", show_default=True)
@click.option("--features", type=click.Choice(("match", "noise")), default="match", show_default=True)
@click.option("--group-size", type=int, default=32, show_default=True)
@click.option("--beta", type=float, default=0.01, show_default=True)
@click.option("--learning-rate", type=float, default=4.0, show_default=True, help="Desk-scale override of the recorded 1e-6 default.")
@click.option("--epochs", type=int, default=2, show_default=True)
@click.option("--batch-size", type=int, default=16, show_default=True)
@_command
def cmd_simulate_grpo(windows_path, corpus_path, out_dir, reward, features, group_size, beta, learning_rate, epochs, batch_size, config, seed):
    """Train the Plackett-Luce policy simulator on windows and emit its learning curve."""
    windows = _windows(windows_path)
    corpus = load_corpus(_input(corpus_path, "corpus", config))

    if features == "match":
        feature_fn, names = match_features(corpus)
    else:
        feature_fn, names = noise_features(seed)
    policy = make_policy(feature_fn, names)
    settings = {"group_size": group_size, "beta": beta, "learning_rate": learning_rate,
                "epochs": epochs, "batch_size": batch_size, "reward": reward}
    cfg = GrpoConfig(**settings, rng_seed=seed)

    initial_reward = evaluate_mean_reward(policy, windows, cfg, "initial")
    result = train(policy, windows, cfg)
    final_reward = evaluate_mean_reward(result.policy, windows, cfg, "final")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_curve(result.curve, out / "curve.csv")
    save_policy(result.policy, out / "policy.json")
    for name in ("curve.csv", "policy.json"):
        _write_meta(out / name, {"grpo": {**settings, "features": features}}, seed)
    click.echo(
        f"trained {len(result.curve)} steps on {len(windows)} windows; "
        f"mean reward {initial_reward:.4f} -> {final_reward:.4f}"
    )
    return 0


if __name__ == "__main__":
    main()
