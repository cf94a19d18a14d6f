"""Independent reference implementations used to cross-check the package.

Nothing here imports from rankfit: these are deliberately naive, loop-based
re-derivations (brute force, enumeration, finite differences, set arithmetic)
so that tests compare two separately written routes to the same answer.
"""

import hashlib
import itertools
import json
import math
import random


def hashlib_child_seed(seed, tag):
    """The first 8 bytes, big-endian, of hashlib's (OpenSSL's) sha256 of "seed|tag" in UTF-8."""
    digest = hashlib.sha256(f"{seed}|{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def hashlib_config_hash(config):
    """The first 16 hex digits of hashlib's sha256 of the config as key-sorted JSON."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def naive_dcg(rels, k):
    total = 0.0
    for i in range(min(k, len(rels))):
        total += rels[i] / math.log2(i + 2)
    return total


def naive_ndcg(rels, k):
    ideal = sorted(rels, reverse=True)
    return naive_dcg(rels, k) / naive_dcg(ideal, k)


def naive_recall(rels, k):
    hits = 0
    for i in range(min(k, len(rels))):
        hits += rels[i]
    return hits / sum(rels)


def ndcg4_single_positive_table():
    """nDCG@4 for all 24 orderings of 4 items, one of which is positive.

    Returns [(relevance vector, ndcg)] with one entry per item permutation.
    The ideal DCG is 1 (positive at rank 1), so nDCG equals the positive's
    discounted gain at its rank.
    """
    items = ["gold", "n1", "n2", "n3"]
    table = []
    for perm in itertools.permutations(items):
        rels = tuple(1 if item == "gold" else 0 for item in perm)
        rank = perm.index("gold") + 1
        table.append((rels, (1.0 / math.log2(rank + 1)) / 1.0))
    return table


def central_difference_grad(fn, theta, h=1e-5):
    """Central finite differences of a scalar function of a parameter vector."""
    grad = []
    for j in range(len(theta)):
        up = list(theta)
        down = list(theta)
        up[j] += h
        down[j] -= h
        grad.append((fn(up) - fn(down)) / (2 * h))
    return grad


def recount_skips(pool_records, label_records, min_pool=20, m_max=11, neg_needed=3):
    """Re-derive per-job skip reasons straight from raw pool/label records.

    Mirrors the four filters with plain set arithmetic: pool too small, no
    positive, too many positives, too few negatives (checked in that order).
    Returns {job_id: reason or None}.
    """
    accepted = {}
    for rec in label_records:
        if rec["y"] == 1:
            accepted.setdefault(rec["job_id"], set()).add(rec["resume_id"])
    outcome = {}
    for rec in pool_records:
        job = rec["job_id"]
        cands = rec["candidates"]
        pos = [c for c in cands if c in accepted.get(job, set())]
        neg = [c for c in cands if c not in accepted.get(job, set())]
        if len(cands) < min_pool:
            outcome[job] = "too_few_candidates"
        elif len(pos) == 0:
            outcome[job] = "no_positive"
        elif len(pos) >= m_max:
            outcome[job] = "too_many_positives"
        elif len(neg) < neg_needed:
            outcome[job] = "too_few_negatives"
        else:
            outcome[job] = None
    return outcome


# Plackett-Luce policy over orderings of k candidates, written as plain loops.
# ``scores`` and ``feats`` are lists indexed by candidate; ``perm`` lists
# candidate indices best first; theta gradients are lists of length d.


def pl_step_terms(scores, feats, perm):
    """Log-probability and theta-gradient of each nontrivial selection step.

    Step t picks perm[t] from the candidates not picked before it, with
    probability exp(score) / sum of exp(score) over those candidates.
    """
    remaining = list(range(len(scores)))
    logps, grads = [], []
    for chosen in perm[:-1]:
        top = max(scores[i] for i in remaining)
        weights = [math.exp(scores[i] - top) for i in remaining]
        total = sum(weights)
        logps.append(scores[chosen] - top - math.log(total))
        grads.append(
            [
                feats[chosen][j] - sum(w * feats[i][j] for w, i in zip(weights, remaining)) / total
                for j in range(len(feats[chosen]))
            ]
        )
        remaining.remove(chosen)
    return logps, grads


def pl_log_prob(scores, feats, perm):
    return sum(pl_step_terms(scores, feats, perm)[0])


def kl_by_enumeration(scores, ref_scores, feats):
    """KL(pi || pi_ref) summed over all k! orderings, and its theta-gradient.

    The gradient is sum_perm p * (log p - log q + 1) * grad log p.
    """
    value = 0.0
    grad = [0.0] * len(feats[0])
    for perm in itertools.permutations(range(len(scores))):
        logps, grads = pl_step_terms(scores, feats, perm)
        logp = sum(logps)
        diff = logp - pl_log_prob(ref_scores, feats, perm)
        p = math.exp(logp)
        value += p * diff
        for j in range(len(grad)):
            grad[j] += p * (diff + 1.0) * sum(g[j] for g in grads)
    return value, grad


def surrogate_by_loops(scores, ref_scores, feats, perms, advantages, beta, denoms=None):
    """(value, gradient, kl) of the GRPO surrogate (no clipping) with exact KL.

    value = (1/n) sum_i adv_i (1/(k-1)) sum_t p_t/denom_t - beta * KL; with
    ``denoms`` omitted every ratio is evaluated on-policy.
    """
    n = len(perms)
    d = len(feats[0])
    value = 0.0
    grad = [0.0] * d
    for i, perm in enumerate(perms):
        logps, grads = pl_step_terms(scores, feats, perm)
        steps = len(logps)
        for t in range(steps):
            p = math.exp(logps[t])
            ratio = p / (p if denoms is None else denoms[i][t])
            value += advantages[i] * ratio / (steps * n)
            for j in range(d):
                grad[j] += advantages[i] * ratio * grads[t][j] / (steps * n)
    kl, kl_grad = kl_by_enumeration(scores, ref_scores, feats)
    return value - beta * kl, [g - beta * h for g, h in zip(grad, kl_grad)], kl


def pl_sample(scores, rng):
    """One ordering drawn step by step, one ``rng.random()`` per nontrivial step.

    Each step walks the remaining candidates in index order, adding up their
    softmax probabilities, and picks the first whose running sum exceeds the
    draw (the last one if the draw is above the total).
    """
    remaining = list(range(len(scores)))
    perm = []
    while len(remaining) > 1:
        top = max(scores[i] for i in remaining)
        weights = [math.exp(scores[i] - top) for i in remaining]
        total = sum(weights)
        x = rng.random()
        cum = 0.0
        pick = len(remaining) - 1
        for idx, w in enumerate(weights):
            cum += w / total
            if x < cum:
                pick = idx
                break
        perm.append(remaining.pop(pick))
    perm.append(remaining[0])
    return perm


def synthetic_by_loops(
    vocab,
    n_jobs,
    n_background,
    pool_size=20,
    seed=0,
    frac_no_positive=0.10,
    frac_many_positives=0.06,
    frac_short_pool=0.06,
    retrieval_noise=0.08,
):
    """The synthetic generator with one noisy score per (job, resume) pair.

    ``vocab`` is (skills, titles, degrees, locations). Every job's pool sorts
    all resumes made so far by (-(coverage + gauss noise), resume id) and keeps
    the first pool_size (fewer for short-pool jobs). Returns (documents as
    {id: fields}, labels as [(job_id, resume_id, y)], pools as
    [(job_id, candidates)]).
    """
    skills_vocab, titles, degrees, locations = vocab
    rng = random.Random(hashlib_child_seed(seed, "synthetic"))
    docs = {}
    resume_skills = {}

    def add_resume(rid, skills):
        years = rng.randint(2, 15)
        title = rng.choice(titles)
        degree = rng.choice(degrees)
        docs[rid] = (
            ("current title", title),
            ("highest degree", degree),
            ("years of experience", str(years)),
            ("skills", ", ".join(skills)),
            (
                "most recent experience",
                f"Worked {years} years as {title}, shipping systems built on "
                f"{', '.join(skills[:3])}.",
            ),
        )
        resume_skills[rid] = set(skills)

    for i in range(n_background):
        add_resume(f"r{i:05d}", rng.sample(skills_vocab, rng.randint(4, 8)))
    n_no_pos = round(frac_no_positive * n_jobs)
    n_many = round(frac_many_positives * n_jobs)
    n_short = round(frac_short_pool * n_jobs)
    archetypes = (
        ["no_positive"] * n_no_pos
        + ["many_positives"] * n_many
        + ["short_pool"] * n_short
        + ["normal"] * (n_jobs - n_no_pos - n_many - n_short)
    )
    rng.shuffle(archetypes)

    labels, pools = [], []
    next_rid = n_background
    for j, archetype in enumerate(archetypes):
        jid = f"j{j:04d}"
        required = rng.sample(skills_vocab, 5)
        title = rng.choice(titles)
        degree = rng.choice(degrees)
        years = rng.randint(2, 10)
        location = rng.choice(locations)
        docs[jid] = (
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
        )
        if archetype == "no_positive":
            n_accept, n_reject = 0, rng.randint(1, 2)
        elif archetype == "many_positives":
            n_accept, n_reject = rng.randint(11, 13), rng.randint(0, 2)
        else:
            n_accept, n_reject = rng.randint(1, 3), rng.randint(1, 3)
        for y, n, coverage in ((1, n_accept, (4, 5)), (0, n_reject, (2, 3))):
            for _ in range(n):
                skills = rng.sample(required, rng.randint(*coverage))
                extras = [s for s in skills_vocab if s not in required]
                skills += rng.sample(extras, rng.randint(1, 3))
                rng.shuffle(skills)
                rid = f"r{next_rid:05d}"
                next_rid += 1
                add_resume(rid, skills)
                labels.append((jid, rid, y))

        scored = []
        for rid, skills in resume_skills.items():
            covered = 0
            for skill in required:
                if skill in skills:
                    covered += 1
            scored.append((covered / len(required) + rng.gauss(0.0, retrieval_noise), rid))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        size = pool_size
        if archetype == "short_pool":
            size = rng.randint(pool_size // 2, pool_size - 1)
        pools.append((jid, tuple(rid for _, rid in scored[:size])))
    return docs, labels, pools
