"""Regenerate expected_pipeline.json, the frozen audit of the 50-job fixture.

The skip counts come from an independent recount (tests/oracles.py) over the
raw generated records, not from the pipeline under test; window counts are
taken from the fixed-seed pipeline run after checking the per-job bounds
(between |P| and n_rep * |P| windows). Run from the repo root:

    python3 tests/data/make_expected.py
"""

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from rankfit.synthetic import SyntheticConfig
from rankfit.windows import PipelineConfig, build_all_windows

from conftest import generate_corpus
from oracles import recount_skips

FIXTURE_SEED = 2026


def main():
    cfg = SyntheticConfig(n_jobs=50, n_background=400, seed=FIXTURE_SEED)
    _, labels, pools = generate_corpus(cfg)

    pool_records = [{"job_id": p.job_id, "candidates": list(p.candidates)} for p in pools]
    label_records = [
        {"job_id": l.job_id, "resume_id": l.resume_id, "y": l.y} for l in labels
    ]
    outcomes = recount_skips(pool_records, label_records)
    skip_counts = Counter(reason for reason in outcomes.values() if reason)

    windows, skips = build_all_windows(pools, PipelineConfig(rng_seed=FIXTURE_SEED))
    pipeline_counts = Counter(s.reason for s in skips)
    assert dict(skip_counts) == dict(pipeline_counts), (skip_counts, pipeline_counts)

    accepted = {}
    for l in labels:
        if l.y == 1:
            accepted.setdefault(l.job_id, set()).add(l.resume_id)
    windows_per_job = Counter(w.job_id for w in windows)
    for pool in pools:
        if outcomes[pool.job_id] is None:
            n_pos = len(set(pool.candidates) & accepted.get(pool.job_id, set()))
            count = windows_per_job.get(pool.job_id, 0)
            assert n_pos <= count <= 3 * n_pos, (pool.job_id, n_pos, count)

    expected = {
        "fixture_seed": FIXTURE_SEED,
        "jobs_total": len(pools),
        "jobs_kept": len(pools) - len(skips),
        "skips": dict(sorted(skip_counts.items())),
        "windows_emitted": len(windows),
        "windows_per_job": dict(sorted(windows_per_job.items())),
    }
    out = Path(__file__).parent / "expected_pipeline.json"
    out.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}: kept {expected['jobs_kept']}/{expected['jobs_total']}, "
          f"skips {expected['skips']}, windows {expected['windows_emitted']}")


if __name__ == "__main__":
    main()
