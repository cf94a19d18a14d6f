"""Command-line surface wiring the pipeline end to end.

Every command is deterministic given identical config and seed; artifacts are
accompanied by a ``<artifact>.meta.json`` sidecar recording the effective
config hash, seed, and tool version. Exit codes: 0 success, 1 degraded (some
ranker calls fell back to identity), 2 configuration or data error.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__
from .core import (
    accepted_by_job,
    check_in_corpus,
    corpus_line,
    iter_job_rows,
    iter_jsonl,
    jsonl_line,
    load_corpus,
    load_labels,
    load_pools,
    named_ids,
    open_atomic,
    parse_json,
    write_jsonl,
    write_labels,
    write_pools,
)
from .engine import EngineConfig, ablate, rerank_pools, score_run
from .errors import ConfigError, MalformedRecord, RankfitError
from .grpo import (
    REWARD_MODES,
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
from .seeding import child_rng, sha256
from .synthetic import SyntheticConfig, generate
from .windows import (
    STRATEGIES,
    PipelineConfig,
    Window,
    annotate_difficulty,
    apply_strategy,
    build_all_windows,
    distill_sft,
    judge_windows,
)

BUILTIN_RANKERS = ("oracle", "identity", "noisy", "endpoint")
DEFAULT_ABLATION_GRID = "2:1,3:1,3:2,4:1,4:2,4:3"
DEFAULT_P_FLIP = 0.3
# Each config file section to the dataclass it builds; ``ranker`` holds sections of its own.
CONFIG_SECTIONS = {
    "synthetic": SyntheticConfig,
    "pipeline": PipelineConfig,
    "engine": EngineConfig,
    "ranker": {"endpoint": EndpointConfig},
}


def _command(*paths: str, out_files: tuple[str, ...] = ()):
    """Add a ``--<name>`` file option per path, --seed and --config; map toolkit errors to exit 2.

    A degraded run's exit code 1 passes through. A file option reaches the
    command as the Path ``<name>_path``; --out, --windows and --reranked are
    required in click, and the commands check the others with ``_input``, as
    a command may not need --labels. The command receives the loaded
    ``config`` dict, whose keys and those of every section in it have been
    checked against CONFIG_SECTIONS, whether or not the command reads that
    section. It returns (exit code, effective config); once it has returned,
    the ``<artifact>.meta.json`` sidecars are written last, one for --out or
    one per ``out_files`` name in --out-dir.
    """

    def decorate(fn):
        @click.option("--seed", type=int, default=0)
        @click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None)
        @functools.wraps(fn)
        def wrapper(*args, config_path, **kwargs):
            try:
                if "out" in paths and not kwargs["out_path"].name:  # click reads an empty flag as Path(".")
                    raise ConfigError("missing required path for out")
                for out in filter(None, (kwargs.get("out_path"), kwargs.get("out_dir"))):
                    if any(parent.exists() and not parent.is_dir() for parent in out.parents):
                        raise ConfigError(f"cannot write {out}: a parent path is not a directory")
                config = _load_object(config_path)
                _check_keys(config, "top-level", CONFIG_SECTIONS)
                code, effective = fn(*args, config=config, **kwargs)
                meta = {**_provenance(effective, kwargs["seed"]), "config": effective}
                for artifact in [kwargs["out_dir"] / name for name in out_files] or [kwargs["out_path"]]:
                    _write_json(Path(f"{artifact}.meta.json"), meta, indent=None)
            except RankfitError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            sys.exit(code)

        for name in reversed(paths):
            required = name in ("out", "windows", "reranked")
            wrapper = click.option(f"--{name}", f"{name}_path", type=click.Path(dir_okay=False, path_type=Path), required=required)(wrapper)
        return wrapper

    return decorate


def _load_object(path: str | Path | None, what: str = "config file") -> dict:
    """The JSON object in ``path`` ({} without a path); ``what`` names the file in errors."""
    if not path:
        return {}
    if not Path(path).exists():
        raise ConfigError(f"{what} {path} does not exist")
    try:
        cfg = parse_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return cfg


def _input(path: Path | None, name: str) -> Path:
    """The input file ``name`` given by its flag; it must exist."""
    if path is None or not path.name:  # click reads an empty flag as Path(".")
        raise ConfigError(f"missing required path for {name}")
    if not path.exists():
        raise ConfigError(f"{name} path {path} does not exist")
    return path


def _check_keys(section, name: str, table) -> None:
    """``section`` must be a JSON object whose keys ``table`` allows.

    ``table`` maps each key to a table of its own, or is a dataclass whose
    fields other than a seed (which comes from --seed alone) are the keys.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    keys = table if isinstance(table, dict) else set(table.__dataclass_fields__) - {"seed", "rng_seed"}
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
    if isinstance(table, dict):
        for key, value in section.items():
            _check_keys(value, key, table[key])


def _settings(cls, config: dict, name: str, **flags):
    """Dataclass ``cls`` from config section ``name``: flag > section > field default.

    A flag counts unless it is None; ``_command`` has checked the section's keys.
    """
    return cls(**{**config.get(name, {}), **{key: value for key, value in flags.items() if value is not None}})


def _workers(jobs: int | None, caller) -> int:
    """Worker threads for a stage: --jobs if given, else an endpoint's max_concurrency, else 1.

    ``caller`` is the stage's ranker or endpoint client; an endpoint one
    holds its EndpointConfig as ``cfg``. A built-in ranker's call is
    CPU-bound under the GIL, so more threads would not help it.
    """
    if jobs is not None:
        return jobs
    endpoint = getattr(caller, "cfg", None)
    return endpoint.max_concurrency if isinstance(endpoint, EndpointConfig) else 1


_jobs_option = click.option(
    "--jobs", type=click.IntRange(1, 1024), default=None,  # no stage uses more: max_concurrency is at most 1024
    help="Worker threads [default: the endpoint's max_concurrency, else 1].",
)


def _write_json(path: Path, obj: dict, indent: int | None = 2) -> None:
    with open_atomic(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def _provenance(effective: dict, seed: int) -> dict:
    canonical = json.dumps(effective, sort_keys=True)
    config_hash = sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return {"config_hash": config_hash, "seed": seed, "version": __version__}


def _endpoint_from_config(config: dict) -> EndpointConfig:
    endpoint = config.get("ranker", {}).get("endpoint", {})
    if "base_url" not in endpoint or "model" not in endpoint:
        raise ConfigError(
            "ranker 'endpoint' requires a config file with ranker.endpoint.base_url and .model"
        )
    return _settings(EndpointConfig, config["ranker"], "endpoint")


def _make_ranker(name: str, p_flip: float, seed: int, config: dict, labels):
    """The ranker a command asked for, and its ``{"name", "p_flip"}`` settings.

    Only the oracle rankers call ``labels()`` for the label list.
    """
    if not 0 <= p_flip <= 1:  # every ranker's settings record it; nan fails too, and is not JSON
        raise ConfigError(f"p_flip must be a number in [0, 1], got {p_flip!r}")
    settings = {"name": name, "p_flip": p_flip}
    if name == "oracle":
        return OracleRanker(accepted_by_job(labels())), settings
    if name == "identity":
        return IdentityRanker(), settings
    if name == "noisy":
        return NoisyOracleRanker(accepted_by_job(labels()), p_flip=p_flip, seed=seed), settings
    return LlmRanker(_endpoint_from_config(config)), settings


def _corpus(flag: Path | None, named: Path | None) -> dict:
    """The --corpus documents that the windows or pools file ``named`` names; every line is still checked."""
    return load_corpus(_input(flag, "corpus"), named_ids(named) if named else ())


def _windows(flag: Path | None, corpus=None) -> list[Window]:
    """Windows from the --windows file; a repeated window_id raises, and with a corpus each must pass ``check_in_corpus``."""
    windows = []
    first_line: dict[str, int] = {}
    for lineno, rec in iter_jsonl(_input(flag, "windows")):
        try:
            window = Window.from_record(rec)
        except (KeyError, ConfigError) as exc:
            raise MalformedRecord(f"bad window record: {exc}", line=lineno) from exc
        if window.window_id in first_line:
            raise MalformedRecord(f"window {window.window_id!r} repeats line {first_line[window.window_id]}", line=lineno)
        first_line[window.window_id] = lineno
        check_in_corpus(corpus, window.job_id, window.candidate_ids, lineno, f"window {window.window_id}: ")
        windows.append(window)
    return windows


@click.group()
@click.version_option(version=__version__)
def main():
    """Listwise re-ranking toolkit for person-job fit."""


@main.command("gen-synthetic")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False, path_type=Path))
@click.option("--n-jobs", type=int, default=None, help="Number of job posts.")
@click.option("--n-background", type=int, default=None, help="Background resume count.")
@_command(out_files=("corpus.jsonl", "labels.jsonl", "pools.jsonl"))
def cmd_gen_synthetic(out_dir, n_jobs, n_background, config, seed):
    """Generate a synthetic corpus, labels, and retrieval pools."""
    cfg = _settings(SyntheticConfig, config, "synthetic", n_jobs=n_jobs, n_background=n_background, seed=seed)
    with open_atomic(out_dir / "corpus.jsonl") as fh:
        labels, pools = generate(cfg, lambda doc: fh.write(corpus_line(doc)))
    write_labels(labels, out_dir / "labels.jsonl")
    write_pools(pools, out_dir / "pools.jsonl")
    click.echo(
        f"wrote {cfg.n_background + cfg.n_jobs + len(labels)} documents, {len(labels)} labels, {len(pools)} pools to {out_dir}"
    )
    return 0, {"synthetic": asdict(cfg)}


@main.command("build-windows")
@_command("corpus", "labels", "pools", "out")
def cmd_build_windows(corpus_path, labels_path, pools_path, out_path, config, seed):
    """Build 4-candidate training windows from labeled pools."""
    corpus = _corpus(corpus_path, pools_path)
    pools = load_pools(_input(pools_path, "pools"), load_labels(_input(labels_path, "labels")), corpus)
    cfg = _settings(PipelineConfig, config, "pipeline", rng_seed=seed)

    windows, skips = build_all_windows(pools, cfg)
    write_jsonl((w.to_record() for w in windows), out_path)

    effective = {"pipeline": asdict(cfg)}
    skip_report = {
        "jobs_total": len(pools),
        "jobs_kept": len(pools) - len(skips),
        "skips": dict(sorted(Counter(skip.reason for skip in skips).items())),
        "windows_emitted": len(windows),
        "windows_per_job": dict(sorted(Counter(w.job_id for w in windows).items())),
        "provenance": _provenance(effective, seed),
    }
    _write_json(out_path.parent / "skips.json", skip_report)
    click.echo(
        f"jobs kept {skip_report['jobs_kept']}/{skip_report['jobs_total']} "
        f"(skipped: {skip_report['skips'] or 'none'}); windows emitted {len(windows)}"
    )
    return 0, effective


@main.command("annotate")
@click.option("--ranker", "ranker_name", type=click.Choice(BUILTIN_RANKERS), default="noisy", show_default=True)
@click.option("--p-flip", type=float, default=DEFAULT_P_FLIP, show_default=True)
@_jobs_option
@_command("windows", "corpus", "labels", "out")
def cmd_annotate(windows_path, corpus_path, labels_path, out_path, ranker_name, p_flip, jobs, config, seed):
    """Annotate windows with the empirical gold-at-top rate of a ranker."""
    corpus = _corpus(corpus_path, windows_path)
    windows = _windows(windows_path, corpus)
    ranker, ranker_cfg = _make_ranker(
        ranker_name, p_flip, seed, config, lambda: load_labels(_input(labels_path, "labels"))
    )
    cfg = _settings(PipelineConfig, config, "pipeline", rng_seed=seed)

    annotated, stats = annotate_difficulty(windows, ranker, corpus, cfg, max_workers=_workers(jobs, ranker))
    write_jsonl((w.to_record() for w in annotated), out_path)
    click.echo(
        f"annotated {len(annotated)} windows over {stats.trials} trials; "
        f"{len(stats.failed_windows)} windows had no successful trial"
    )
    return (1 if stats.failed_windows else 0), {"ranker": ranker_cfg, "annotate_trials": cfg.annotate_trials}


@main.command("filter")
@click.option("--strategy", type=click.Choice(STRATEGIES), required=True)
@_command("windows", "corpus", "out")
def cmd_filter(windows_path, corpus_path, out_path, strategy, config, seed):
    """Apply a data-filtering strategy to annotated windows; llm_filter also reads --corpus."""
    corpus = _corpus(corpus_path, windows_path) if strategy == "llm_filter" else None
    windows = _windows(windows_path, corpus)
    cfg = _settings(PipelineConfig, config, "pipeline", rng_seed=seed)

    failed = ""
    if corpus is None:
        kept = apply_strategy(windows, strategy, child_rng(seed, f"filter:{strategy}"), cfg=cfg)
    else:
        client = ChatCompletionsClient(_endpoint_from_config(config))
        kept, failed_ids = judge_windows(windows, client, corpus, _workers(None, client))
        failed = f" ({len(failed_ids)} kept after judge failure)"
    write_jsonl((w.to_record() for w in kept), out_path)
    effective = {"strategy": strategy, "hard_threshold": cfg.hard_threshold}
    if strategy == "subsample_hard":
        effective["subsample_keep"] = cfg.subsample_keep
    click.echo(f"kept {len(kept)}/{len(windows)} windows under strategy {strategy}{failed}")
    return 0, effective


@main.command("rerank")
@click.option("--ranker", "ranker_name", type=click.Choice(BUILTIN_RANKERS), default="oracle", show_default=True)
@click.option("--p-flip", type=float, default=DEFAULT_P_FLIP, show_default=True)
@click.option("-k", "--window-size", "k", type=int, default=None)
@click.option("-s", "--stride", "s", type=int, default=None)
@click.option("-t", "--iterations", "t", type=int, default=None)
@click.option("-N", "--pool-size", "n", type=int, default=None)
@_jobs_option
@click.option("--trace", is_flag=True, default=False, help="Write a per-call trace file.")
@_command("pools", "corpus", "labels", "out")
def cmd_rerank(pools_path, corpus_path, labels_path, out_path, ranker_name, p_flip, k, s, t, n, jobs, trace, config, seed):
    """Re-rank every pool with the sliding-window engine."""
    corpus = _corpus(corpus_path, pools_path)
    labels = load_labels(_input(labels_path, "labels"))
    pools = load_pools(_input(pools_path, "pools"), labels, corpus)
    cfg = _settings(EngineConfig, config, "engine", window_size=k, stride=s, iterations=t, pool_size=n)
    ranker, ranker_cfg = _make_ranker(ranker_name, p_flip, seed, config, lambda: labels)

    runnable = [p for p in pools if len(p.candidates) == cfg.pool_size]
    traces = rerank_pools(runnable, ranker, cfg, corpus, max_workers=_workers(jobs, ranker))

    degraded = 0  # each pool is written as it arrives; held are its calls and those of later pools already done
    trace_path = out_path.parent / (out_path.stem + ".trace.jsonl")
    with (open_atomic(trace_path) if trace else nullcontext()) as trace_fh, open_atomic(out_path) as out:
        for tr in traces:
            out.write(jsonl_line({"job_id": tr.job_id, "initial": list(tr.initial), "final": list(tr.final),
                                  "degraded_calls": tr.degraded_calls}))
            if trace:
                trace_fh.writelines(jsonl_line({"job_id": tr.job_id, **asdict(call)}) for call in tr.calls)
            degraded += tr.degraded_calls
    click.echo(
        f"reranked {len(runnable)} pools ({len(pools) - len(runnable)} skipped for size != "
        f"{cfg.pool_size}); degraded calls: {degraded}"
    )
    return (1 if degraded else 0), {"engine": asdict(cfg), "ranker": ranker_cfg}


@main.command("evaluate")
@click.option("--metric-k", type=click.IntRange(min=1), default=10, show_default=True)
@_command("pools", "labels", "reranked", "out")
def cmd_evaluate(pools_path, labels_path, reranked_path, out_path, metric_k, config, seed):
    """Score re-ranked pools against labels: nDCG@k and Recall@k, before and after."""
    labels = load_labels(_input(labels_path, "labels"))
    by_job = {p.job_id: p for p in load_pools(_input(pools_path, "pools"), labels)}

    meta_path = Path(f"{reranked_path}.meta.json")
    meta = _load_object(meta_path, "reranked sidecar") if meta_path.exists() else {}
    if not isinstance(meta.get("config", {}), dict):
        raise ConfigError(f"reranked sidecar {meta_path} must hold a JSON object under 'config'")
    engine_cfg = meta.get("config", {}).get("engine", {})

    scored = []
    for lineno, job_id, rec in iter_job_rows(_input(reranked_path, "reranked"), "reranked row"):
        if job_id not in by_job:
            raise MalformedRecord(f"reranked job {job_id!r} not found in pools", line=lineno)
        pool = by_job[job_id]
        final, degraded = rec.get("final", []), rec.get("degraded_calls", 0)
        if not isinstance(final, list) or not all(isinstance(c, str) for c in final) or sorted(final) != sorted(pool.candidates):
            raise MalformedRecord(f"final ordering for job {job_id!r} is not a permutation of its pool", line=lineno)
        if isinstance(degraded, bool) or not isinstance(degraded, int) or degraded < 0:
            raise MalformedRecord(f"degraded_calls must be an integer >= 0, got {degraded!r}", line=lineno)
        scored.append((pool, final, degraded))

    effective = {"engine": engine_cfg, "metric_k": metric_k}
    scores = score_run(scored, metric_k)
    _write_json(out_path, {"config": engine_cfg, **scores, "provenance": _provenance(effective, seed)})
    macro = scores["macro"]
    nb, na = macro[f"ndcg{metric_k}_before"], macro[f"ndcg{metric_k}_after"]
    rb, ra = macro[f"recall{metric_k}_before"], macro[f"recall{metric_k}_after"]
    click.echo(
        f"evaluated {macro['jobs_evaluated']} jobs (excluded {macro['jobs_excluded']} with no "
        f"positives; {len(by_job) - len(scored)} loaded pools had no reranked row): "
        f"nDCG@{metric_k} {nb:.4f} -> {na:.4f}, Recall@{metric_k} {rb:.4f} -> {ra:.4f}"
    )
    return 0, effective


def _parse_grid(grid: str) -> list[tuple[int, int]]:
    points = []
    for part in filter(None, (p.strip() for p in grid.split(","))):
        try:
            k, s = map(int, part.split(":"))
        except ValueError:
            raise ConfigError(f"bad grid point {part!r}; expected k:s") from None
        if (k, s) in points:
            raise ConfigError(f"repeated grid point {k}:{s}")
        points.append((k, s))
    if not points:
        raise ConfigError("empty ablation grid")
    return points


@main.command("ablate")
@click.option("--grid", default=DEFAULT_ABLATION_GRID, show_default=True, help="Comma-separated k:s points.")
@click.option("-t", "--iterations", "t", type=int, default=None)
@click.option("--ranker", "ranker_name", type=click.Choice(BUILTIN_RANKERS), default="noisy", show_default=True)
@click.option("--p-flip", type=float, default=DEFAULT_P_FLIP, show_default=True)
@_jobs_option
@_command("pools", "corpus", "labels", "out")
def cmd_ablate(pools_path, corpus_path, labels_path, out_path, grid, t, ranker_name, p_flip, jobs, config, seed):
    """Sweep (window size, stride) settings and write the metrics of each setting."""
    engine = _settings(EngineConfig, config, "engine", iterations=t)
    points = _parse_grid(grid)
    corpus = _corpus(corpus_path, pools_path)
    labels = load_labels(_input(labels_path, "labels"))
    pools = load_pools(_input(pools_path, "pools"), labels, corpus)
    pools = [p for p in pools if len(p.candidates) == engine.pool_size]
    ranker, ranker_cfg = _make_ranker(ranker_name, p_flip, seed, config, lambda: labels)

    rows, rejected = ablate(pools, ranker, engine, points, corpus, max_workers=_workers(jobs, ranker))
    for rej in rejected:
        click.echo(f"rejected {rej['setting']}: {rej['error']}", err=True)

    _write_json(out_path, {"rows": rows, "rejected": rejected})
    click.echo(f"ablated {len(rows)} of {len(points)} grid points over {len(pools)} pools; rows in {out_path}")
    return 0, {"grid": grid, "iterations": engine.iterations, "pool_size": engine.pool_size, "ranker": ranker_cfg}


@main.command("distill")
@click.option("--teacher", "teacher_name", type=click.Choice(BUILTIN_RANKERS), default="endpoint", show_default=True)
@click.option("--p-flip", type=float, default=DEFAULT_P_FLIP, show_default=True)
@_command("windows", "corpus", "labels", "out")
def cmd_distill(windows_path, corpus_path, labels_path, out_path, teacher_name, p_flip, config, seed):
    """Collect teacher generations whose answer ranks the gold candidate first."""
    corpus = _corpus(corpus_path, windows_path)
    windows = _windows(windows_path, corpus)
    teacher, teacher_cfg = _make_ranker(
        teacher_name, p_flip, seed, config, lambda: load_labels(_input(labels_path, "labels"))
    )

    records, stats = distill_sft(windows, teacher, corpus, max_workers=_workers(None, teacher))
    write_jsonl(records, out_path)
    click.echo(
        f"kept {stats.kept}/{len(windows)} windows "
        f"(wrong top: {stats.dropped_wrong_top}, malformed: {stats.dropped_malformed})"
    )
    return (1 if stats.dropped_malformed else 0), {"teacher": teacher_cfg}


@main.command("simulate-grpo")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False, path_type=Path))
@click.option("--reward", type=click.Choice(REWARD_MODES), default=GrpoConfig.reward, show_default=True)
@click.option("--features", type=click.Choice(("match", "noise")), default="match", show_default=True)
@click.option("--group-size", type=int, default=GrpoConfig.group_size, show_default=True)
@click.option("--beta", type=float, default=GrpoConfig.beta, show_default=True)
@click.option("--learning-rate", type=float, default=4.0, show_default=True, help="Desk-scale override of the recorded 1e-6 default.")
@click.option("--epochs", type=int, default=GrpoConfig.epochs, show_default=True)
@click.option("--batch-size", type=int, default=GrpoConfig.batch_size, show_default=True)
@_command("windows", "corpus", out_files=("curve.csv", "policy.json"))
def cmd_simulate_grpo(windows_path, corpus_path, out_dir, reward, features, group_size, beta, learning_rate, epochs, batch_size, config, seed):
    """Train the Plackett-Luce policy simulator on windows and emit its learning curve."""
    corpus = _corpus(corpus_path, windows_path)
    windows = _windows(windows_path, corpus)

    feature_fn, names = match_features(corpus) if features == "match" else noise_features(seed)
    policy = make_policy(feature_fn, names)
    settings = {"group_size": group_size, "beta": beta, "learning_rate": learning_rate,
                "epochs": epochs, "batch_size": batch_size, "reward": reward}
    cfg = GrpoConfig(**settings, rng_seed=seed)

    initial_reward = evaluate_mean_reward(policy, windows, cfg, "initial")
    result = train(policy, windows, cfg)
    final_reward = evaluate_mean_reward(result.policy, windows, cfg, "final")

    write_curve(result.curve, out_dir / "curve.csv")
    save_policy(result.policy, out_dir / "policy.json")
    click.echo(
        f"trained {len(result.curve)} steps on {len(windows)} windows; "
        f"mean reward {initial_reward:.4f} -> {final_reward:.4f}"
    )
    return 0, {"grpo": {**settings, "features": features}}


if __name__ == "__main__":
    main()
