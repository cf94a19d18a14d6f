"""Seeded synthetic corpus generator.

Real person-job interaction data is proprietary, so every command and test in
this toolkit can run against generated jobs and resumes instead. Each job
carries a required-skill set; each resume carries a skill set; the latent
match score is the fraction of required skills the resume covers. Accepted
resumes are tailored to their job (high coverage), rejected ones are partial
matches, and retrieval pools are the top-N resumes by noisy match score, so
the generated data has the same shape as an embedding-retrieval stage output:
mostly-plausible candidates with sparse, sometimes missing labels.

Job archetype knobs produce the pipeline's skip cases on purpose: jobs with
no accepted candidate, with too many accepted candidates, or with truncated
pools.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import Document, KIND_JOB, KIND_RESUME, Label, RankedPool, join_labels
from .errors import ConfigError, check_fields
from .seeding import child_rng

SKILLS = [
    "python", "java", "golang", "rust", "typescript", "react", "django",
    "spring", "kubernetes", "terraform", "aws", "gcp", "postgresql", "redis",
    "kafka", "spark", "airflow", "pytorch", "tensorflow", "sql", "etl",
    "microservices", "grpc", "graphql", "linux", "ansible", "prometheus",
    "elasticsearch", "snowflake", "dbt",
]

TITLES = [
    "Backend Engineer", "Data Engineer", "Machine Learning Engineer",
    "Platform Engineer", "Site Reliability Engineer", "Full-Stack Developer",
    "Infrastructure Engineer", "Analytics Engineer", "Search Engineer",
    "Cloud Architect",
]

DEGREES = ["Bachelor", "Master", "PhD"]
LOCATIONS = ["Remote", "New York", "London", "Berlin", "Singapore", "Toronto"]


@dataclass(frozen=True)
class SyntheticConfig:
    n_jobs: int = 50
    n_background: int = 400
    pool_size: int = 20
    seed: int = 0
    frac_no_positive: float = 0.10
    frac_many_positives: float = 0.06
    frac_short_pool: float = 0.06
    retrieval_noise: float = 0.08

    def __post_init__(self):
        check_fields(self, ("n_jobs",), int, lambda v: v >= 1, "an integer >= 1")
        # a short pool holds pool_size // 2 to pool_size - 1 resumes
        check_fields(self, ("pool_size",), int, lambda v: v >= 2, "an integer >= 2")
        check_fields(self, ("n_background",), int, lambda v: v >= self.pool_size, f"an integer >= pool_size ({self.pool_size})")
        check_fields(
            self, ("frac_no_positive", "frac_many_positives", "frac_short_pool", "retrieval_noise"),
            float, lambda v: v >= 0, "a finite number >= 0",
        )
        if self.frac_no_positive + self.frac_many_positives + self.frac_short_pool > 0.9:
            raise ConfigError("archetype fractions leave too few normal jobs")


def _resume_doc(rid: str, skills: list[str], years: int, title: str, degree: str) -> Document:
    return Document(
        id=rid,
        kind=KIND_RESUME,
        fields=(
            ("current title", title),
            ("highest degree", degree),
            ("years of experience", str(years)),
            ("skills", ", ".join(skills)),
            (
                "most recent experience",
                f"Worked {years} years as {title}, shipping systems built on "
                f"{', '.join(skills[:3])}.",
            ),
        ),
    )


def _job_doc(jid: str, title: str, required: list[str], degree: str, years: int, location: str) -> Document:
    return Document(
        id=jid,
        kind=KIND_JOB,
        fields=(
            ("title", title),
            ("job type", "Full-Time"),
            ("location", location),
            ("minimum degree", degree),
            ("required skills", ", ".join(required)),
            ("required experience", f"more than {years} years"),
            (
                "summaryText",
                f"We are hiring a {title} to own services built with "
                f"{', '.join(required[:3])} and collaborate across teams.",
            ),
        ),
    )


def skill_set(doc: Document) -> frozenset[str]:
    """Skill tokens of a document, parsed from its skills field."""
    for name, text in doc.fields:
        if "skill" in name.lower():
            return frozenset(tok.strip() for tok in text.split(",") if tok.strip())
    return frozenset()


def match_score(job: Document, resume: Document) -> float:
    """Fraction of the job's required skills the resume covers."""
    required = skill_set(job)
    if not required:
        return 0.0
    return len(required & skill_set(resume)) / len(required)


def _tailored_skills(rng: random.Random, required: list[str], coverage: int) -> list[str]:
    skills = rng.sample(required, coverage)
    extras = [s for s in SKILLS if s not in required]
    skills += rng.sample(extras, rng.randint(1, 3))
    rng.shuffle(skills)
    return skills


def _gauss_many(rng: random.Random, n: int, sigma: float) -> np.ndarray:
    """``[rng.gauss(0.0, sigma) for _ in range(n)]`` as an array.

    Leaves ``rng`` where that loop leaves it, its pending ``gauss_next``
    included. random.gauss makes values in Box-Muller pairs from two
    ``rng.random()`` draws and keeps the second value for its next call; this
    makes the same draws in the same order, calls the same ``math`` functions
    on them and does only correctly rounded arithmetic (``-``, ``*``, ``sqrt``)
    in numpy, so every value is bit-identical. numpy's own log/cos/sin may
    differ by an ulp, depending on the CPU, so they are not used.
    """
    import numpy as np
    z = np.empty(n)
    if n == 0:
        return z
    head = 0
    if rng.gauss_next is not None:
        z[0] = rng.gauss_next
        rng.gauss_next = None
        head = 1
    pairs = (n - head + 1) // 2
    # fromiter stops after the count, so exactly 2 * pairs draws are made
    u = np.fromiter(iter(rng.random, -1.0), float, 2 * pairs)
    x2pi = (u[0::2] * (2.0 * math.pi)).tolist()
    g2rad = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u[1::2]).tolist()), float, pairs))
    both = np.empty(2 * pairs)
    both[0::2] = np.fromiter(map(math.cos, x2pi), float, pairs) * g2rad
    both[1::2] = np.fromiter(map(math.sin, x2pi), float, pairs) * g2rad
    z[head:] = both[: n - head]
    if (n - head) % 2:
        rng.gauss_next = float(both[-1])
    return 0.0 + z * sigma


def generate(cfg: SyntheticConfig) -> tuple[dict[str, Document], list[Label], list[RankedPool]]:
    """Generate (documents, labels, pools), deterministic in cfg.seed.

    Each job's pool ranks every resume generated so far by match score plus
    Gaussian retrieval noise (one draw per resume, in generation order), best
    first with ties broken by resume id, truncated to pool_size (shorter for
    short-pool archetype jobs). Labels cover only the tailored
    accepted/rejected resumes; everything else is unlabeled, mirroring sparse
    real-world interaction data.
    """
    import numpy as np
    rng = child_rng(cfg.seed, "synthetic")
    documents: dict[str, Document] = {}
    skill_col = {skill: i for i, skill in enumerate(SKILLS)}
    resume_ids: list[str] = []
    # one row per resume in resume_ids, one column per SKILLS entry
    has_skill = np.zeros((0, len(SKILLS)), dtype=bool)
    new_rows: list[list[int]] = []

    def add_resume(rid: str, skills: list[str]) -> None:
        doc = _resume_doc(
            rid,
            skills,
            years=rng.randint(2, 15),
            title=rng.choice(TITLES),
            degree=rng.choice(DEGREES),
        )
        documents[rid] = doc
        resume_ids.append(rid)
        new_rows.append([skill_col[s] for s in skills])

    for i in range(cfg.n_background):
        add_resume(f"r{i:05d}", rng.sample(SKILLS, rng.randint(4, 8)))

    n_no_pos = round(cfg.frac_no_positive * cfg.n_jobs)
    n_many = round(cfg.frac_many_positives * cfg.n_jobs)
    n_short = round(cfg.frac_short_pool * cfg.n_jobs)
    archetypes = (
        ["no_positive"] * n_no_pos
        + ["many_positives"] * n_many
        + ["short_pool"] * n_short
        + ["normal"] * (cfg.n_jobs - n_no_pos - n_many - n_short)
    )
    rng.shuffle(archetypes)

    labels: list[Label] = []
    pools: list[tuple[str, tuple[str, ...]]] = []
    extra_counter = cfg.n_background

    for j, archetype in enumerate(archetypes):
        jid = f"j{j:04d}"
        required = rng.sample(SKILLS, 5)
        job = _job_doc(
            jid,
            title=rng.choice(TITLES),
            required=required,
            degree=rng.choice(DEGREES),
            years=rng.randint(2, 10),
            location=rng.choice(LOCATIONS),
        )
        documents[jid] = job

        def new_resume(coverage: int) -> str:
            nonlocal extra_counter
            rid = f"r{extra_counter:05d}"
            extra_counter += 1
            add_resume(rid, _tailored_skills(rng, required, coverage))
            return rid

        if archetype == "no_positive":
            n_accept = 0
            n_reject = rng.randint(1, 2)
        elif archetype == "many_positives":
            n_accept = rng.randint(11, 13)
            n_reject = rng.randint(0, 2)
        else:
            n_accept = rng.randint(1, 3)
            n_reject = rng.randint(1, 3)

        for _ in range(n_accept):
            rid = new_resume(coverage=rng.randint(4, 5))
            labels.append(Label(job_id=jid, resume_id=rid, y=1))
        for _ in range(n_reject):
            rid = new_resume(coverage=rng.randint(2, 3))
            labels.append(Label(job_id=jid, resume_id=rid, y=0))

        rows = np.zeros((len(new_rows), len(SKILLS)), dtype=bool)
        for r, cols in enumerate(new_rows):
            rows[r, cols] = True
        has_skill = np.concatenate([has_skill, rows])
        new_rows.clear()

        # int64 / int is correctly rounded, as Python's int / int is
        covered = has_skill[:, [skill_col[s] for s in required]].sum(axis=1)
        scores = covered / len(required) + _gauss_many(rng, len(resume_ids), cfg.retrieval_noise)

        size = cfg.pool_size
        if archetype == "short_pool":
            size = rng.randint(cfg.pool_size // 2, cfg.pool_size - 1)
        # every resume scoring at least the size-th best score, sorted by
        # (-score, resume id) as a sort over all of them would
        cut = np.partition(scores, len(scores) - size)[len(scores) - size]
        top = np.flatnonzero(scores >= cut)
        ranked = sorted(zip((-scores[top]).tolist(), [resume_ids[i] for i in top]))
        pools.append((jid, tuple(rid for _, rid in ranked[:size])))

    return documents, labels, join_labels(pools, labels)


def make_eval_pools(
    n_pools: int,
    seed: int,
    pool_size: int = 20,
) -> tuple[dict[str, Document], list[RankedPool]]:
    """Labeled pools, each with one positive planted at a uniformly random rank.

    Built for engine experiments where the positive's starting depth must be
    unbiased; documents are minimal but renderable.
    """
    rng = child_rng(seed, "eval-pools")
    documents: dict[str, Document] = {}
    pools = []
    counter = 0
    for p in range(n_pools):
        jid = f"ej{p:04d}"
        required = rng.sample(SKILLS, 5)
        documents[jid] = _job_doc(jid, rng.choice(TITLES), required, "Bachelor", 3, "Remote")
        ids = []
        for _ in range(pool_size):
            rid = f"er{counter:05d}"
            counter += 1
            documents[rid] = _resume_doc(
                rid, rng.sample(SKILLS, 5), rng.randint(2, 12), rng.choice(TITLES), "Bachelor"
            )
            ids.append(rid)
        positive_rank = rng.randrange(pool_size)
        pools.append(RankedPool(jid, tuple(ids), frozenset({ids[positive_rank]})))
    return documents, pools
